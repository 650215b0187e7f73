import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from hankelorder import estimators
from hankelorder import (
    condition_number,
    default_policy,
    exact_rank_rational,
    numerical_rank,
    rational_hankel,
    rational_mode_sum,
    singular_values,
)
from hankelorder import (
    AicReport,
    Mode,
    ModeSum,
    NoiseSpec,
    RankPolicy,
    Signal,
    add_noise,
    add_offset,
    aic_order,
    ar_fit,
    covariance_determinants,
    covdet_order,
    gen_high_order,
    gen_mode_sum,
    gen_y5,
    hokalman_order,
    list_experiments,
    plateau_onset,
    write_aic_csv,
    write_covdet_csv,
    write_sweep_csv,
)


def _first_order(count=40, q=0.5, b=1.0) -> Signal:
    return gen_mode_sum(ModeSum([Mode(b, q)]), count)


def _ar1_with_noise(seed: int, phi=0.5, count=40, snr_db=40.0) -> Signal:
    rng = np.random.default_rng(seed)
    total = count + 100
    driving = rng.uniform(-1.0, 1.0, total)
    x = np.zeros(total)
    for t in range(1, total):
        x[t] = phi * x[t - 1] + driving[t]
    x = x[100:]
    amp = math.sqrt(3.0) * math.sqrt(float(np.mean(x**2))) / (10.0 ** (snr_db / 20.0))
    return Signal(x + rng.uniform(-amp, amp, count))


class TestHokalmanOrder:
    def test_first_order_sweep_is_constant_one(self):
        est, sweep = hokalman_order(_first_order(), 10)
        assert est.order == 1
        assert sweep.ranks == [1] * 9

    def test_y5_benchmark_gives_five(self):
        est, sweep = hokalman_order(gen_y5(40), 8)
        assert est.order == 5
        assert sweep.ranks[-3:] == [5, 5, 5]

    def test_constant_signal_gives_one(self):
        est, _ = hokalman_order(Signal(np.full(30, 2.5)), 8)
        assert est.order == 1

    def test_insufficient_samples(self):
        with pytest.raises(ValueError, match="19"):
            hokalman_order(_first_order(count=10), 10)

    def test_square_columns_mode(self):
        # the square y5 sweep resolves the fifth mode only at n = 8, so
        # the plateau rule reports inconclusive
        est, sweep = hokalman_order(gen_y5(40), 8, columns="square")
        assert sweep.ranks == [2, 3, 4, 4, 4, 4, 5]
        assert est.order is None
        assert not est.conclusive

    def test_plateau_len_one_takes_final_value(self):
        est, _ = hokalman_order(gen_y5(40), 8, columns="square", plateau_len=1)
        assert est.order == 5

    def test_explicit_policy_is_used(self):
        est, sweep = hokalman_order(_first_order(), 6, RankPolicy.gap(1e3))
        assert est.order == 1
        assert est.diagnostics["policy"].startswith("gap_ratio")

    def test_sweep_points_carry_gap_and_condition(self):
        _, sweep = hokalman_order(gen_y5(40), 6)
        for point in sweep.points:
            assert point.decision_gap > 1.0
            assert point.condition >= 1.0

    def test_offset_raises_order_by_one(self):
        base = _first_order()
        for shift in (1.0, -2.5):
            est_base, _ = hokalman_order(base, 8)
            est_off, _ = hokalman_order(add_offset(base, shift), 8)
            assert est_off.order == est_base.order + 1


TALL_INPUTS = {
    "y5_L2000": (lambda: gen_y5(2000), 12),
    "y5_L20000": (lambda: gen_y5(20_000), 12),
    "y5_L200000": (lambda: gen_y5(200_000), 8),
    **{
        f"y5_noisy_seed{seed}": (lambda seed=seed: add_noise(gen_y5(5000), NoiseSpec(1e-6, seed)), 20)
        for seed in range(5)
    },
    "y5_noisy_n_max40": (lambda: add_noise(gen_y5(5000), NoiseSpec(1e-6, 7)), 40),
    "fig4_family": (lambda: gen_high_order("sinusoid", 50, 1100, 1), 60),
    "fig5_family": (lambda: gen_high_order("exponential", 50, 1100, 1), 60),
}
POLICIES = [None, RankPolicy.absolute(1e-8), RankPolicy.gap()]


def _is_tall(count: int, n_max: int) -> bool:
    return count - n_max + 1 >= estimators._TALL_ROWS_PER_COL * n_max


def _dense_sweep(signal, n_max, policy, monkeypatch, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(estimators, "_TALL_ROWS_PER_COL", 10**9)
        return hokalman_order(signal, n_max, policy, **kwargs)[1]


class TestTallSweep:
    @pytest.mark.parametrize("name", TALL_INPUTS)
    def test_tall_path_matches_dense_path(self, name, monkeypatch):
        build, n_max = TALL_INPUTS[name]
        signal = build()
        y, count = signal.samples, len(signal)
        assert _is_tall(count, n_max)
        hankels = {n: sliding_window_view(y, count - n + 1) for n in range(2, n_max + 1)}
        for (n, _), small in estimators._sweep_matrices(y, n_max, "all"):
            dense = np.linalg.svd(hankels[n], compute_uv=False)
            tall = np.linalg.svd(small, compute_uv=False)
            assert np.max(np.abs(tall - dense)) <= 1e-13 * dense[0], n
        for policy in POLICIES:
            _, tall = hokalman_order(signal, n_max, policy)
            assert tall.ranks == _dense_sweep(signal, n_max, policy, monkeypatch).ranks
            if policy is None:
                assert tall.ranks == [np.linalg.matrix_rank(h) for h in hankels.values()]
            elif policy.kind == "absolute_threshold":
                assert tall.ranks == [np.linalg.matrix_rank(h, tol=policy.value) for h in hankels.values()]

    def test_exact_dyadic_modes_match_rational_oracle(self):
        modes = [(1, Fraction(1, 2)), (1, Fraction(-3, 4)), (-2, Fraction(1, 4)), (1, Fraction(7, 8))]
        count, n_max = 400, 8
        assert _is_tall(count, n_max)
        samples = rational_mode_sum(modes, count)
        est, sweep = hokalman_order(Signal(np.array([float(s) for s in samples])), n_max)
        exact = [
            exact_rank_rational(rational_hankel(samples, n, count - n + 1))
            for n in range(2, n_max + 1)
        ]
        assert sweep.ranks == exact == [2, 3, 4, 4, 4, 4, 4]
        assert est.order == 4

    def test_square_columns_stay_dense(self, monkeypatch):
        signal = gen_y5(2000)
        _, sweep = hokalman_order(signal, 12, columns="square")
        assert sweep.points == _dense_sweep(signal, 12, None, monkeypatch, columns="square").points

    @pytest.mark.parametrize("blocks, extra", [(1, 0), (3, 0), (3, 1), (16, 5), (17, 0), (300, 7)])
    def test_blocked_r_matches_one_qr(self, blocks, extra):
        # whole blocks with and without leftover rows, one group, a group
        # and a block, and two levels of the reduction
        c = 6
        rows = blocks * estimators._TALL_ROWS_PER_COL * c + extra
        w = np.random.default_rng(blocks + extra).standard_normal((2, rows, c)) @ np.diag(10.0 ** -np.arange(c))
        r = estimators._tall_r(w)
        assert r.shape == (2, c, c)
        assert np.array_equal(r, np.triu(r))
        want = np.linalg.svd(np.linalg.qr(w, mode="r"), compute_uv=False)
        got = np.linalg.svd(r, compute_uv=False)
        assert np.all(np.abs(got - want) <= 1e-13 * want[:, :1])

    def test_multilevel_reduction_factors_at_most_one_group_per_call(self, monkeypatch):
        n_max, signal = 8, gen_y5(200_000)
        block = estimators._TALL_ROWS_PER_COL * n_max
        qr, calls = np.linalg.qr, []

        def recording(a, *args, **kwargs):
            calls.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recording)
        _, sweep = hokalman_order(signal, n_max)
        assert sweep.ranks == [2, 3, 4, 4, 5, 5, 5]
        assert all(math.prod(shape[:-1]) <= estimators._TALL_ROWS_PER_COL * block for shape in calls)
        # 199,993 rows = 1562 blocks of 128 (98 calls) + 57; then 12,553 rows
        # = 98 blocks (7 calls) + 9; then 793 rows = 6 blocks (1 call) + 25;
        # then one QR of the last 73 rows
        assert [shape[1] for shape in calls[:98]] == [16] * 97 + [10]
        assert [shape[1] for shape in calls[98:105]] == [16] * 6 + [2]
        assert calls[105:] == [(1, 6, block, n_max), (1, 73, n_max)]

    def test_stacked_reduction_factors_one_group_of_each_signal_per_call(self, monkeypatch):
        n_max, k = 8, 3
        samples = np.array([add_noise(gen_y5(20_000), NoiseSpec(1e-6, seed)).samples for seed in range(k)])
        block = estimators._TALL_ROWS_PER_COL * n_max
        qr, calls = np.linalg.qr, []

        def recording(a, *args, **kwargs):
            calls.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recording)
        estimators._rank_sweeps(samples, n_max, "all", None)
        # 19,993 rows = 156 blocks of 128 (10 calls) + 25; then 1,273 rows
        # = 9 blocks + 121; then 193 rows = 1 block + 65; then one QR of 73
        groups = [16] * 9 + [12, 9, 1]
        assert calls == [(k, g, block, n_max) for g in groups] + [(k, 73, n_max)]

    def test_tall_stack_of_long_signals_matches_one_sweep_per_signal(self):
        signals = [add_noise(gen_y5(20_000), NoiseSpec(1e-6, seed)) for seed in range(3)]
        sweeps = estimators._rank_sweeps(np.array([s.samples for s in signals]), 20, "all", None)
        assert [sw.points for sw in sweeps] == [hokalman_order(s, 20)[1].points for s in signals]

    def test_long_sweep_never_copies_the_whole_window_matrix(self):
        # H_20^T of 2e5 samples holds 30.5 MiB; one QR of it copies all of it
        signal = gen_y5(200_000)
        tracemalloc.start()
        try:
            hokalman_order(signal, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_registered_experiments_stay_below_crossover(self):
        # the committed experiment CSVs print rounding-level gap and
        # condition values that only the dense path reproduces bit for bit
        checked = 0
        for name, _, defaults in list_experiments():
            if "n_max" in defaults and "count" in defaults:
                assert not _is_tall(defaults["count"], defaults["n_max"]), name
                checked += 1
        assert checked == 7


STACK_SIGNALS = [gen_y5(40), add_offset(gen_y5(40), 1.0)] + [
    add_noise(gen_y5(40), NoiseSpec(1e-6, seed)) for seed in range(4)
]


class TestStackedSweeps:
    @pytest.mark.parametrize("columns", ["all", "square"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_stack_matches_one_sweep_per_signal(self, columns, policy):
        stack = np.array([s.samples for s in STACK_SIGNALS])
        sweeps = estimators._rank_sweeps(stack, 8, columns, policy)
        assert len(sweeps) == len(STACK_SIGNALS)
        for signal, sweep in zip(STACK_SIGNALS, sweeps):
            _, alone = hokalman_order(signal, 8, policy, columns=columns)
            assert sweep.points == alone.points
            # and each point is the decision on that one matrix's own SVD
            for p in alone.points:
                cols = p.n if columns == "square" else len(signal) - p.n + 1
                spectrum = singular_values(sliding_window_view(signal.samples, cols)[: p.n])
                res = numerical_rank(spectrum, policy or default_policy((p.n, cols)))
                assert (p.rank, p.decision_gap, p.condition) == (
                    res.rank, res.decision_gap, condition_number(spectrum)
                )

    def test_tall_stack_matches_one_sweep_per_signal(self):
        signals = [add_noise(gen_y5(2000), NoiseSpec(1e-6, seed)) for seed in range(3)]
        assert _is_tall(2000, 12)
        sweeps = estimators._rank_sweeps(np.array([s.samples for s in signals]), 12, "all", None)
        assert [sw.points for sw in sweeps] == [hokalman_order(s, 12)[1].points for s in signals]

    def test_empty_stack(self):
        assert estimators._rank_sweeps(np.empty((0, 40)), 8, "all", None) == []
        assert estimators._rank_sweeps(np.empty((0, 2000)), 12, "all", None) == []

    def test_sample_count_each_layout_needs(self):
        y = gen_y5(10).samples[None]
        # "all" columns need a column per matrix; past n = 5.5 the matrices turn tall
        [sweep] = estimators._rank_sweeps(y, 10, "all", None)
        assert [p.n for p in sweep.points] == list(range(2, 11))
        assert sweep.points[-1].rank == 1  # the 10 x 1 matrix
        with pytest.raises(ValueError, match="signal has 10 samples but a sweep to n = 11 requires at least 11"):
            estimators._rank_sweeps(y, 11, "all", None)
        with pytest.raises(ValueError, match=r"signal has 10 samples but a sweep to n = 6 requires 2n - 1 = 11"):
            estimators._rank_sweeps(y, 6, "square", None)
        # the plateau rule needs every n x n matrix, whatever the layout
        for columns in ("all", "square"):
            with pytest.raises(ValueError, match=r"requires 2n - 1 = 11"):
                hokalman_order(gen_y5(10), 6, columns=columns)


class TestOverflowingData:
    def test_ar_fit_past_float_range_rejected(self):
        signal = Signal(np.r_[np.zeros(9), 1e200])
        with pytest.raises(ValueError, match="order-1 AR fit overflows float range"):
            aic_order(signal, 3)

    def test_covariance_past_float_range_rejected(self):
        with pytest.raises(ValueError, match="order-2 lag covariance overflows float range"):
            covariance_determinants(Signal(np.full(10, 1e154)), range(2, 4))


class TestPlateauOnset:
    def test_trailing_run(self):
        _, sweep = hokalman_order(gen_y5(40), 8)
        assert plateau_onset(sweep) == 5  # ranks [2,3,4,5,5,5,5]

    def test_lone_final_value(self):
        _, sweep = hokalman_order(gen_y5(40), 8, columns="square")
        assert plateau_onset(sweep) == 8  # ranks [...,4,4,5]


class TestArFit:
    def test_exact_one_step_recursion(self):
        fit = ar_fit(_first_order(count=30, q=math.log(2.0)), 1)
        assert fit.coefficients == pytest.approx([0.5], abs=1e-12)
        assert fit.rss <= 1e-20
        assert not fit.rank_deficient

    def test_two_mode_coefficients(self):
        # oracle: (z - 1/2)(z - 1/3) = z^2 - (5/6) z + 1/6
        r1, r2 = 0.5, 1.0 / 3.0
        expected = [r1 + r2, -(r1 * r2)]
        sig = Signal(0.5 ** np.arange(30.0) + (1.0 / 3.0) ** np.arange(30.0))
        fit = ar_fit(sig, 2)
        assert fit.coefficients == pytest.approx(expected, abs=1e-9)
        assert fit.rss < 1e-25

    def test_nested_rss_never_increases(self):
        sig = _ar1_with_noise(seed=123)
        prev = None
        for p in range(1, 6):
            fit = ar_fit(sig, p, n_start=5)
            if prev is not None:
                assert fit.rss <= prev * (1 + 1e-9) + 1e-20
            prev = fit.rss

    def test_rank_deficient_regressors_flagged(self):
        sig = gen_y5(40)
        fit = ar_fit(sig, 10)
        assert fit.rank_deficient
        assert fit.regressor_rank == 5
        assert fit.rss < 1e-20

    def test_preconditions(self):
        with pytest.raises(ValueError):
            ar_fit(_first_order(count=4), 2)
        with pytest.raises(ValueError):
            ar_fit(_first_order(), 3, n_start=2)


class TestAicOrder:
    def test_pure_ar1_with_mild_noise_majority_selects_one(self):
        selected = [aic_order(_ar1_with_noise(seed), 5)[0].order for seed in range(100)]
        wins = sum(s == 1 for s in selected)
        assert wins > 50

    def test_scaling_leaves_selection_invariant(self):
        sig = _ar1_with_noise(seed=7)
        for scale in (1e-4, 13.7, 1e5):
            scaled = Signal(sig.samples * scale)
            assert aic_order(scaled, 5)[1].selected == aic_order(sig, 5)[1].selected

    def test_y5_is_conclusive_with_floored_rss(self):
        est, report = aic_order(gen_y5(40), 10)
        assert est.conclusive
        assert 5 <= est.order <= 10
        assert len(report.per_order) == 10

    def test_zero_signal_hits_rss_floor(self):
        est, report = aic_order(Signal(np.zeros(30) + 0.0), 3)
        assert est.conclusive
        assert all(math.isfinite(a) for _, _, a in report.per_order)

    def test_selected_is_argmin(self):
        _, report = aic_order(_ar1_with_noise(seed=5), 6)
        values = [a for _, _, a in report.per_order]
        assert report.selected == int(np.argmin(values)) + 1

    def test_tie_breaks_toward_smaller_p(self):
        AicReport(((1, 1.0, 5.0), (2, 1.0, 5.0)), 1)
        with pytest.raises(ValueError):
            AicReport(((1, 1.0, 5.0), (2, 1.0, 5.0)), 2)

    def test_insufficient_samples(self):
        with pytest.raises(ValueError):
            aic_order(_first_order(count=10), 5)


class TestCovarianceDeterminants:
    def test_geometric_lag_streams_are_proportional(self):
        # oracle: with y[n] = (1/2)^n the 2x2 covariance determinant is
        # exactly zero; compute it in exact arithmetic
        count = 20
        y = [Fraction(1, 2) ** n for n in range(count)]
        s00 = sum(y[n] * y[n] for n in range(1, count))
        s11 = sum(y[n - 1] * y[n - 1] for n in range(1, count))
        s01 = sum(y[n] * y[n - 1] for n in range(1, count))
        assert s00 * s11 - s01 * s01 == 0
        sig = gen_mode_sum(ModeSum([Mode(1.0, math.log(2.0))]), count)
        report = covariance_determinants(sig, [1])
        assert abs(report.per_order[0][1]) < 1e-30

    def test_y5_collapse_ratio_beyond_true_order(self):
        report = covariance_determinants(gen_y5(40), range(2, 9))
        dets = {m: abs(d) for m, d in report.per_order}
        for m in range(5, 9):
            assert dets[m] <= 1e-6 * dets[m - 1]

    def test_white_noise_determinant_positive(self):
        positive = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            sig = Signal(rng.uniform(-1.0, 1.0, 60))
            det = covariance_determinants(sig, [2]).per_order[0][1]
            positive += det > 0.0
        assert positive >= 99

    def test_report_covers_requested_orders(self):
        report = covariance_determinants(gen_y5(40), range(2, 9))
        assert [m for m, _ in report.per_order] == list(range(2, 9))

    def test_insufficient_samples(self):
        with pytest.raises(ValueError):
            covariance_determinants(gen_y5(8), range(2, 9))


class TestCovdetOrder:
    def test_y5_suggests_three(self):
        report = covariance_determinants(gen_y5(40), range(2, 9))
        est = covdet_order(report)
        assert est.order == 3
        assert est.method == "covariance_determinant"

    def test_white_noise_is_inconclusive(self):
        rng = np.random.default_rng(3)
        sig = Signal(rng.uniform(-1.0, 1.0, 80))
        est = covdet_order(covariance_determinants(sig, range(2, 6)))
        assert not est.conclusive


class TestReportCsv:
    def test_sweep_csv(self, tmp_path):
        _, sweep = hokalman_order(gen_y5(40), 5)
        lines = write_sweep_csv(sweep, tmp_path / "s.csv").read_text().splitlines()
        assert lines[0] == "n,rank,gap,condition"
        assert len(lines) == 5

    def test_aic_csv(self, tmp_path):
        _, report = aic_order(gen_y5(40), 6)
        lines = write_aic_csv(report, tmp_path / "a.csv").read_text().splitlines()
        assert lines[0] == "p,rss,aic"
        assert len(lines) == 7

    def test_covdet_csv(self, tmp_path):
        report = covariance_determinants(gen_y5(40), range(2, 5))
        lines = write_covdet_csv(report, tmp_path / "c.csv").read_text().splitlines()
        assert lines[0] == "m,det"
        assert len(lines) == 4


RATIO_POOL = [Fraction(k, 8) for k in range(1, 9)]
COEFF_POOL = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(3)]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(RATIO_POOL), min_size=1, max_size=8, unique=True),
    st.data(),
)
def test_hokalman_recovers_k_distinct_modes(ratios, data):
    # noise-free mode sums up to order 8, cross-checked against the
    # exact rational oracle on the same samples
    k = len(ratios)
    coeffs = [data.draw(st.sampled_from(COEFF_POOL)) for _ in ratios]
    modes = list(zip(coeffs, ratios))
    n_max = max(k + 3, 4)
    count = 2 * n_max - 1
    samples = rational_mode_sum(modes, count)
    assert exact_rank_rational(rational_hankel(samples, k + 1, k + 1)) == k
    sig = Signal(np.array([float(s) for s in samples]))
    est, _ = hokalman_order(sig, n_max)
    assert est.order == k


def test_gap_policy_recovers_order_under_small_noise():
    base = _first_order()
    noisy = add_noise(base, NoiseSpec(1e-9, seed=0))
    assert noisy.true_order == 1
    est, _ = hokalman_order(noisy, 8, RankPolicy.gap())
    assert est.order == 1
