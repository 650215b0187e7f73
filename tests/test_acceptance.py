"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the reported empirical quantities (q0, Monte Carlo counts).
"""

import math
import time
from fractions import Fraction

import numpy as np

from hankelorder import (
    BOTTOM,
    RIGHT,
    ExperimentSpec,
    Mode,
    ModeSum,
    NoiseSpec,
    Signal,
    add_noise,
    add_offset,
    aic_order,
    build_augmented,
    build_hankel,
    covariance_determinants,
    default_policy,
    exact_rank_rational,
    gen_high_order,
    gen_mode_sum,
    gen_nonhomogeneous,
    gen_y5,
    hokalman_order,
    list_experiments,
    numerical_rank,
    rational_hankel,
    rational_mode_sum,
    run_experiment,
    singular_values,
)
from test_experiments import parse_sections, reference_onset


def _report(criterion: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: PASS{suffix}")


def _square_rank(signal: Signal, n: int) -> int:
    mat = build_hankel(signal, n).entries
    return numerical_rank(singular_values(mat), default_policy(mat.shape)).rank


def test_criterion_01_first_order_rank():
    start = time.perf_counter()
    signal = gen_mode_sum(ModeSum([Mode(1.0, 0.5)]), 40)
    estimate, sweep = hokalman_order(signal, 10)
    assert sweep.ranks == [1] * 9
    assert estimate.order == 1
    # exact rational oracle on the dyadic analog y[n] = (1/2)^n
    samples = rational_mode_sum([(1, Fraction(1, 2))], 19)
    for n in range(2, 11):
        assert exact_rank_rational(rational_hankel(samples, n, n)) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("1 first-order rank", f"{elapsed:.3f}s")


def test_criterion_02_y5_order():
    start = time.perf_counter()
    estimate, sweep = hokalman_order(gen_y5(40), 8)
    assert estimate.order == 5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("2 y5 order", f"sweep={sweep.ranks}, {elapsed:.3f}s")


def test_criterion_03_covdet_collapse():
    report = covariance_determinants(gen_y5(40), range(2, 9))
    mags = {m: abs(d) for m, d in report.per_order}
    # at least 8 orders of magnitude between m = 2 and m = 3
    assert mags[3] <= 1e-8 * mags[2]
    # monotone decline in magnitude for m = 3..8
    for m in range(4, 9):
        assert mags[m] < mags[m - 1]
    drop = math.log10(mags[2] / mags[3])
    _report("3 covdet collapse", f"m2->m3 drop {drop:.1f} orders")


def test_criterion_04_aic_comparison():
    estimate, report = aic_order(gen_y5(40), 10)
    assert estimate.conclusive
    assert 5 <= estimate.order <= 10

    # 100 seeded AR(1)-plus-noise signals at 40 dB SNR; AIC must pick
    # order 1 in at least 80 of them
    wins = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        total = 140
        driving = rng.uniform(-1.0, 1.0, total)
        x = np.zeros(total)
        for t in range(1, total):
            x[t] = 0.5 * x[t - 1] + driving[t]
        x = x[100:]
        amp = math.sqrt(3.0) * math.sqrt(float(np.mean(x**2))) / 100.0
        noisy = Signal(x + rng.uniform(-amp, amp, x.size))
        est, _ = aic_order(noisy, 3)
        wins += est.order == 1
    assert wins >= 80
    _report("4 AIC comparison", f"y5 argmin={estimate.order}, AR(1) wins {wins}/100")


def test_criterion_05_marginal_case_invariant():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    ratio_pool = [Fraction(k, 16) for k in range(1, 17)]
    coeff_pool = [Fraction(c) for c in (1, -1, 2, -2, 3)] + [Fraction(1, 2), Fraction(5, 2)]
    for _ in range(200):
        order = int(rng.integers(1, 9))
        idx = rng.choice(len(ratio_pool), size=order, replace=False)
        modes = [(coeff_pool[rng.integers(len(coeff_pool))], ratio_pool[i]) for i in idx]
        samples = rational_mode_sum(modes, 2 * (order + 1) - 1)
        mat = rational_hankel(samples, order + 1, order + 1)
        assert exact_rank_rational(mat) == order
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("5 marginal-case invariant", f"200 cases, {elapsed:.2f}s")


def test_criterion_06_pole_proximity():
    ranks = []
    for q in range(1, 61):
        signal = gen_mode_sum(
            ModeSum([Mode(0.5, 1.0 / 10.0), Mode(0.5 + 2.0**-q, 1.0 / (10.0 + 2.0**-q))]),
            15,
        )
        ranks.append(_square_rank(signal, 8))
    # monotone non-increasing in q at fixed n = 8
    assert all(b <= a for a, b in zip(ranks, ranks[1:]))
    q0 = next(q for q, r in zip(range(1, 61), ranks) if r < 2)
    q1 = next(q for q, r in zip(range(1, 61), ranks) if r == 1)
    assert q1 >= q0
    assert all(r == 2 for r in ranks[: q0 - 1])
    assert all(r == 1 for r in ranks[q1 - 1 :])
    _report("6 pole proximity", f"q0={q0}, q1={q1}")


def test_criterion_07_nonhomogeneous():
    start = time.perf_counter()
    y, u = gen_nonhomogeneous(40)
    assert _square_rank(y, 10) == 2
    for side in (BOTTOM, RIGHT):
        entries = build_augmented(y, u, 10, side).entries
        rank = numerical_rank(singular_values(entries), default_policy(entries.shape)).rank
        assert rank == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("7 non-homogeneous ranks", f"{elapsed:.3f}s")


def test_criterion_08_offset_property():
    base = gen_mode_sum(ModeSum([Mode(1.0, 0.5)]), 40)
    est_off, _ = hokalman_order(add_offset(base, 1.0), 10)
    assert est_off.order == 2

    # 40 dB SNR over 50 seeds: the offset signal's plateau onset is <=
    # the plain signal's in a majority of trials (same noise draw on both)
    shifted = add_offset(base, 1.0)
    rms = math.sqrt(float(np.mean(base.samples**2)))
    amp = math.sqrt(3.0) * rms / 100.0
    favourable = 0
    for seed in range(50):
        noise = NoiseSpec(amp, seed=9000 + seed)
        _, sweep_plain = hokalman_order(add_noise(base, noise), 10)
        _, sweep_off = hokalman_order(add_noise(shifted, noise), 10)
        favourable += reference_onset(sweep_off) <= reference_onset(sweep_plain)
    assert favourable > 25
    _report("8 offset property", f"onset favourable {favourable}/50")


def test_criterion_09_high_order_sweeps():
    signal_sin = gen_high_order("sinusoid", 50, 119)
    start = time.perf_counter()
    _, sweep_sin = hokalman_order(signal_sin, 60)
    sin_elapsed = time.perf_counter() - start
    assert sin_elapsed < 60.0
    assert sweep_sin.points[-1].n == 60

    signal_exp = gen_high_order("exponential", 50, 119)
    start = time.perf_counter()
    _, sweep_exp = hokalman_order(signal_exp, 60)
    exp_elapsed = time.perf_counter() - start
    assert exp_elapsed < 60.0

    # condition numbers logged by the fig5 experiment are monotone
    # increasing over n = 2..10
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fig5.csv"
        run_experiment(ExperimentSpec("fig5_high_order_exp"), path)
        rows = parse_sections(path.read_text())["condition_extended"]
    conds = [float(r[1]) for r in rows]
    assert [int(r[0]) for r in rows] == list(range(2, 11))
    assert all(b > a for a, b in zip(conds, conds[1:]))
    _report(
        "9 high-order sweeps",
        f"sin {sin_elapsed:.2f}s, exp {exp_elapsed:.2f}s, cond(10)={conds[-1]:.2e}",
    )


def test_criterion_10_determinism(tmp_path):
    for name, _, _ in list_experiments():
        first = tmp_path / f"{name}_a.csv"
        second = tmp_path / f"{name}_b.csv"
        run_experiment(ExperimentSpec(name), first)
        run_experiment(ExperimentSpec(name), second)
        assert first.read_bytes() == second.read_bytes(), name
    _report("10 determinism", "all 8 experiments byte-identical on rerun")
