import contextlib
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, example, given, seed, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from hankelorder import estimators
from hankelorder import (
    EPS,
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
    ExperimentSpec,
    Mode,
    ModeSum,
    NoiseSpec,
    RankPolicy,
    Signal,
    add_noise,
    add_offset,
    aic_order,
    covariance_determinants,
    covdet_order,
    gen_high_order,
    gen_mode_sum,
    gen_y5,
    hokalman_order,
    list_experiments,
    pole_pair_modes,
    run_experiment,
    write_aic_csv,
    write_covdet_csv,
    write_sweep_csv,
)
from test_experiments import reference_onset
from test_rank import assert_valid_stacks


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
        # the square y5 sweep resolves the fifth mode only at n = 8
        [sweep] = estimators._rank_sweeps(gen_y5(40).samples[None], 8, "square", None)
        assert sweep.ranks == [2, 3, 4, 4, 4, 4, 5]

    def test_plateau_needs_three_equal_final_ranks(self):
        est, sweep = hokalman_order(_first_order(), 4)
        assert sweep.ranks == [1, 1, 1]
        assert est.order == 1
        assert est.diagnostics["plateau_len"] == 3
        est, sweep = hokalman_order(_first_order(), 3)
        assert sweep.ranks == [1, 1]
        assert est.order is None
        assert not est.conclusive

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


RATIO_POOL = [Fraction(k, 8) for k in range(1, 9)]
COEFF_POOL = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(3)]
SIGNED_RATIO_POOL = RATIO_POOL + [-q for q in RATIO_POOL]

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
    # under 16 rows per column, tall because n_max >= 16
    "fig4_family_L119": (lambda: gen_high_order("sinusoid", 50, 119, 1), 60),
    "fig5_family_L119": (lambda: gen_high_order("exponential", 50, 119, 1), 60),
    **{
        f"y5_L{count}_n_max{n_max}{label}": (lambda count=count, noise=noise: noise(gen_y5(count)), n_max)
        for count, n_max in [(119, 20), (31, 16)]
        for label, noise in [("", lambda s: s), ("_noisy", lambda s: add_noise(s, NoiseSpec(1e-6, 3)))]
    },
}
POLICIES = [None, RankPolicy.absolute(1e-8), RankPolicy.gap()]


def _is_tall(count: int, n_max: int) -> bool:
    rows = count - n_max + 1
    return rows >= estimators._TALL_ROWS_PER_COL * n_max or rows >= n_max >= estimators._TALL_N_MAX


def _first_tall_length(n_max: int) -> int:
    """The shortest "all" sweep to n_max that takes the tall path."""
    per_col = 1 if n_max >= estimators._TALL_N_MAX else estimators._TALL_ROWS_PER_COL
    return (per_col + 1) * n_max - 1


def _force_dense(m) -> None:
    m.setattr(estimators, "_TALL_ROWS_PER_COL", 10**9)
    m.setattr(estimators, "_TALL_N_MAX", 10**9)


def _force_factored(m) -> None:
    """Turn the Gram path off, so that long noisy rows are factored."""
    m.setattr(estimators, "_gram_decisions", lambda *args: None)


def _points(samples, n_max, columns="all", n_min=2) -> list:
    """(shape, matrices) of each point of the sweep of a (k, L) stack,
    taken out of the (shapes, stack) groups of its routed path."""
    route = estimators._route(samples, n_max, columns, n_min)
    return [point for group in estimators._sweep_points(route, n_max, n_min) for point in zip(*group)]


def _dense_sweep(signal, n_max, policy, monkeypatch):
    with monkeypatch.context() as m:
        _force_dense(m)
        return hokalman_order(signal, n_max, policy)[1]


class TestTallSweep:
    @pytest.mark.parametrize("name", TALL_INPUTS)
    def test_tall_path_matches_dense_path(self, name, monkeypatch):
        build, n_max = TALL_INPUTS[name]
        signal = build()
        y, count = signal.samples, len(signal)
        assert _is_tall(count, n_max)
        hankels = {n: sliding_window_view(y, count - n + 1) for n in range(2, n_max + 1)}
        for (n, _), small in _points(y[None], n_max):
            dense = np.linalg.svd(hankels[n], compute_uv=False)
            tall = np.linalg.svd(small[0], compute_uv=False)[:n]
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

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.sampled_from(SIGNED_RATIO_POOL), min_size=1, max_size=4, unique=True),
        st.data(),
        st.integers(3, 7),
        st.integers(-2, 2),
    )
    def test_dense_and_tall_sweeps_match_the_rational_oracle_across_the_crossover(
        self, ratios, data, n_max, side
    ):
        # L - n_max + 1 = 16 n_max is the first tall length
        count = _first_tall_length(n_max) + side
        assert _is_tall(count, n_max) == (side >= 0)
        modes = [(data.draw(st.sampled_from(COEFF_POOL)), q) for q in ratios]
        samples = rational_mode_sum(modes, count)
        exact = [
            exact_rank_rational(rational_hankel(samples, n, count - n + 1)) for n in range(2, n_max + 1)
        ]
        signal = Signal(np.array([float(x) for x in samples]))
        assert hokalman_order(signal, n_max)[1].ranks == exact
        with pytest.MonkeyPatch.context() as m:
            _force_dense(m)  # dense at every length
            assert hokalman_order(signal, n_max)[1].ranks == exact

    def test_data_whose_r_leaves_float_range_are_swept_scaled(self, monkeypatch):
        # every sigma_1 is finite (1.155e308 at n = 2), but the blocked QR
        # of the unscaled data leaves entries of R past float range
        y = np.random.default_rng(1).uniform(-1, 1, 400) * 1e307
        assert _is_tall(len(y), 10)
        assert not np.isfinite(estimators._tall_r(sliding_window_view(y, 10))).all()
        exponent = math.frexp(float(np.abs(y).max()))[1]
        _, sweep = hokalman_order(Signal(y), 10)
        assert sweep.points == hokalman_order(Signal(np.ldexp(y, -exponent)), 10)[1].points
        assert sweep.ranks == _dense_sweep(Signal(y), 10, None, monkeypatch).ranks == list(range(2, 11))

    def test_square_columns_stay_dense(self, monkeypatch):
        y = gen_y5(2000).samples[None]
        [sweep] = estimators._rank_sweeps(y, 12, "square", None)
        with monkeypatch.context() as m:
            _force_dense(m)
            assert sweep.points == estimators._rank_sweeps(y, 12, "square", None)[0].points

    @pytest.mark.parametrize("blocks, extra", [(1, 0), (3, 0), (3, 1), (16, 5), (17, 0), (300, 7)])
    def test_blocked_r_matches_one_qr(self, blocks, extra):
        # whole blocks with and without leftover rows, one group, a group
        # and a block, and two levels of the reduction
        c = 6
        rows = blocks * estimators._TSQR_ROWS_PER_COL * c + extra
        w = np.random.default_rng(blocks + extra).standard_normal((2, rows, c)) @ np.diag(10.0 ** -np.arange(c))
        r = estimators._tall_r(w)
        assert r.shape == (2, c, c)
        assert np.array_equal(r, np.triu(r))
        want = np.linalg.svd(np.linalg.qr(w, mode="r"), compute_uv=False)
        got = np.linalg.svd(r, compute_uv=False)
        assert np.all(np.abs(got - want) <= 1e-13 * want[:, :1])

    def test_multilevel_reduction_factors_at_most_one_group_per_call(self, monkeypatch):
        # noisy, so that no tail is negligible and all 199,993 rows are factored
        n_max, signal = 8, add_noise(gen_y5(200_000), NoiseSpec(1e-6, 0))
        block = estimators._TSQR_ROWS_PER_COL * n_max
        qr, calls = np.linalg.qr, []
        _force_factored(monkeypatch)

        def recording(a, *args, **kwargs):
            calls.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recording)
        _, sweep = hokalman_order(signal, n_max)
        assert sweep.ranks == _dense_ranks(signal.samples, n_max)
        assert all(math.prod(shape[:-1]) <= estimators._TSQR_GROUP * block for shape in calls)
        # 199,993 rows = 1562 blocks of 128 (98 calls) + 57; then 12,553 rows
        # = 98 blocks (7 calls) + 9; then 793 rows = 6 blocks (1 call) + 25;
        # then one QR of the last 73 rows
        assert [shape[1] for shape in calls[:98]] == [16] * 97 + [10]
        assert [shape[1] for shape in calls[98:105]] == [16] * 6 + [2]
        assert calls[105:] == [(1, 6, block, n_max), (1, 73, n_max)]

    def test_stacked_reduction_factors_one_group_of_each_signal_per_call(self, monkeypatch):
        n_max, k = 8, 3
        samples = np.array([add_noise(gen_y5(20_000), NoiseSpec(1e-6, seed)).samples for seed in range(k)])
        block = estimators._TSQR_ROWS_PER_COL * n_max
        qr, calls = np.linalg.qr, []
        _force_factored(monkeypatch)

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

    def test_long_sweep_never_copies_the_whole_window_matrix(self, monkeypatch):
        # H_20^T of 2e5 samples holds 30.5 MiB; one QR of it copies all of it.
        # Noisy, so that the sweep factors every sample
        signal = add_noise(gen_y5(200_000), NoiseSpec(1e-6, 0))
        _force_factored(monkeypatch)
        tracemalloc.start()
        try:
            hokalman_order(signal, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_each_registered_experiment_takes_its_pinned_path(self, tmp_path, monkeypatch):
        # fig4 and fig5 (L = 119, n_max = 60) factor once; the L = 40 sweeps
        # (n_max <= 10), whose committed CSVs print rounding-level gap and
        # condition values, and fig3's "square" sweeps stay dense
        tall_r, calls = estimators._tall_r, []
        monkeypatch.setattr(estimators, "_tall_r", lambda w: calls.append(w.shape) or tall_r(w))
        paths = {}
        for name, _, _ in list_experiments():
            calls.clear()
            run_experiment(ExperimentSpec(name), tmp_path / f"{name}.csv")
            paths[name] = "tall" if calls else "dense"
        assert paths == {
            "fig2_first_order": "dense",
            "fig3_pole_proximity": "dense",
            "fig1_table1_y5": "dense",
            "fig4_high_order_sin": "tall",
            "fig5_high_order_exp": "tall",
            "sec33_nonhomogeneous": "dense",
            "offset_effect": "dense",
            "echelon_effect": "dense",
        }

    @pytest.mark.parametrize("count, n_max", [(119, 60), (31, 16), (2000, 12)])
    def test_tall_matrices_are_views_of_one_array(self, count, n_max):
        y = np.array([gen_y5(count).samples, add_noise(gen_y5(count), NoiseSpec(1e-6, 1)).samples])
        assert _is_tall(count, n_max)
        groups = estimators._sweep_points(estimators._route(y, n_max, "all", 2), n_max, 2)
        z = groups[0][1].base
        assert z.shape == (2, 2 * n_max - 1, n_max) and z.flags.owndata
        for [(n, cols)], stack in groups:
            assert stack.base is z and stack.shape == (1, 2, n_max, n) and cols == count - n + 1


# ---------------------------------------------------------------------------
# negligible tails: "all" sweeps factor only the head that can move a singular value


def _swept_lengths(monkeypatch) -> list:
    """Record (L, swept length) for each sweep ``_route`` routes: L,
    unless its tail rule keeps a K with K + n_max - 1 < L, which cuts the
    sweep to y[:K] and n_max - 1 zeros."""
    route, records = estimators._route, []

    def recording(samples, n_max, *args):
        routed = route(samples, n_max, *args)
        size = routed.y.shape[-1]
        records.append((size, min(routed.kept + n_max - 1, size)))
        return routed

    monkeypatch.setattr(estimators, "_route", recording)
    return records


def _full_sum_swept(stack: np.ndarray, n_max: int) -> int:
    """The length a stack's "all" sweep windows by the tail rule, from the
    row-wise tail sums: K is the smallest index >= n_max at which
    every row has n_max sum_{j >= K} (y_j / max|y|)^2 <= u^2, and the
    head is swept with n_max - 1 zeros where that is shorter than L."""
    size = stack.shape[-1]
    top = np.abs(stack).max(axis=-1, keepdims=True)
    # tails[..., m]: n_max times the row's sum of its last m + 1 squares
    tails = n_max * np.cumsum(np.square(stack / np.where(top > 0.0, top, 1.0))[..., ::-1], axis=-1)
    kept = max(n_max, size - int(np.count_nonzero((tails <= (EPS / 2) ** 2).all(axis=0))))
    return min(kept + n_max - 1, size)


def _dense_ranks(y: np.ndarray, n_max: int, policy: RankPolicy | None = None) -> list[int]:
    """numpy's matrix_rank of each n x (L - n + 1) Hankel matrix at the policy's cut."""
    hankels = [sliding_window_view(y, len(y) - n + 1) for n in range(2, n_max + 1)]
    if policy is None:
        return [int(np.linalg.matrix_rank(h)) for h in hankels]
    if policy.kind == "relative_threshold":
        return [int(np.linalg.matrix_rank(h, tol=policy.value * np.linalg.norm(h, 2))) for h in hankels]
    return [int(np.linalg.matrix_rank(h, tol=policy.value)) for h in hankels]


@st.composite
def _decaying_inputs(draw):
    """A sum of 1-4 decaying real or oscillating modes, L up to 3,000 and
    n_max 2..24: the head of fast decays sweeps dense, of slow ones tall."""
    n_max = draw(st.integers(2, 24))
    size = draw(st.integers(1000, 3000) | st.integers(2 * n_max - 1, 999))
    modes = [
        Mode(
            draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 2.0)),
            draw(st.floats(0.02, 1.0)),
            draw(st.just(0.0) | st.floats(0.1, 3.0)),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    return gen_mode_sum(ModeSum(modes), size), n_max


class TestNegligibleTail:
    @pytest.mark.parametrize("count", [20_000, 200_000])
    def test_clean_y5_factors_2802_rows(self, count, monkeypatch):
        tall_r, rows = estimators._tall_r, []
        monkeypatch.setattr(estimators, "_tall_r", lambda w: rows.append(w.shape[-2]) or tall_r(w))
        signal = gen_y5(count)
        _, sweep = hokalman_order(signal, 20)
        assert rows == [2802]
        assert _full_sum_swept(signal.samples[None], 20) == 2802 + 19
        if count == 20_000:
            assert sweep.ranks == _dense_ranks(signal.samples, 20)

    def test_clean_y5_at_2e5_keeps_the_rank_the_default_cut_reads(self):
        # sigma_5 falls under the cut max(shape) eps sigma_1 of the full 5 x (L - 4) matrix
        _, sweep = hokalman_order(gen_y5(200_000), 8)
        assert sweep.ranks == [2, 3, 4, 4, 5, 5, 5]

    @settings(max_examples=30, deadline=None)
    @given(_decaying_inputs())
    @example((gen_mode_sum(ModeSum([Mode(1.0, 1.0), Mode(-1.5, 0.7, 2.0)]), 3000), 6))  # dense head
    @example((gen_mode_sum(ModeSum([Mode(1.0, 0.02), Mode(0.5, 0.1, 1.0)]), 3000), 8))  # tall head
    def test_truncated_sweeps_keep_the_spectra_and_ranks_of_the_full_matrices(self, inputs):
        signal, n_max = inputs
        y, size = signal.samples, len(signal)
        with pytest.MonkeyPatch.context() as m:
            records = _swept_lengths(m)
            points = _points(y[None], n_max)
        [(_, swept)] = records
        event(("cut, " if swept < size else "kept, ") + ("tall" if _is_tall(swept, n_max) else "dense"))
        _, sweep = hokalman_order(signal, n_max)
        for ((n, cols), matrix), point in zip(points, sweep.points):
            assert cols == size - n + 1
            full = np.linalg.svd(sliding_window_view(y, cols), compute_uv=False)
            # the tall path's tolerance, plus what the cut tail can move
            tol = (1e-13 + EPS / 2) * full[0]
            assert np.all(np.abs(np.linalg.svd(matrix[0], compute_uv=False)[: len(full)] - full) <= tol), n
            cut = max(n, cols) * EPS * full[0]
            if np.all(np.abs(full - cut) > tol):
                assert point.rank == np.count_nonzero(full > cut), n

    def test_a_stack_truncates_where_every_row_qualifies(self, monkeypatch):
        clean = [gen_y5(20_000), gen_mode_sum(ModeSum([Mode(1.0, 0.05), Mode(-2.0, 0.3, 1.0)]), 20_000)]
        alone = [hokalman_order(s, 20)[1].ranks for s in clean]
        records = _swept_lengths(monkeypatch)
        sweeps = estimators._rank_sweeps(np.array([s.samples for s in clean]), 20, "all", None)
        # y5's head is the longer: 2,802 samples and 19 zeros
        assert records == [(20_000, 2821)]
        assert [sw.ranks for sw in sweeps] == alone

    def test_one_noisy_row_keeps_the_whole_stack(self, monkeypatch):
        clean, noisy = gen_y5(20_000), add_noise(gen_y5(20_000), NoiseSpec(1e-6, 0))
        stack = np.array([clean.samples, noisy.samples])
        _force_factored(monkeypatch)  # the noisy row alone would take the Gram path
        want = [hokalman_order(clean, 20)[1].ranks, hokalman_order(noisy, 20)[1].points]
        records = _swept_lengths(monkeypatch)
        tall_r, factored = estimators._tall_r, []
        monkeypatch.setattr(estimators, "_tall_r", lambda w: factored.append(w) or tall_r(w))
        sweeps = estimators._rank_sweeps(stack, 20, "all", None)
        # every sample is factored, as without the rule, so every bit is as without it
        assert records == [(20_000, 20_000)]
        [w] = factored
        assert np.array_equal(w, sliding_window_view(stack, 20, axis=-1))
        assert [sweeps[0].ranks, sweeps[1].points] == want

    def test_rows_past_the_sweep_bound_truncate_as_unscaled(self, monkeypatch):
        y = gen_y5(20_000).samples
        big = np.ldexp(y, 1026)  # 8.9e307, swept as y 2^3
        records = _swept_lengths(monkeypatch)
        _, sweep = hokalman_order(Signal(big), 20)
        assert sweep.points == hokalman_order(Signal(y), 20)[1].points
        assert records == [(20_000, 2821)] * 2

    def test_tiny_rows_are_measured_in_units_of_their_maximum(self, monkeypatch):
        # y^2 underflows to 0 from the first sample on; (y / max|y|)^2 does not
        y = gen_y5(20_000).samples
        records = _swept_lengths(monkeypatch)
        _, sweep = hokalman_order(Signal(np.ldexp(y, -993)), 20)  # max|y| 1.9e-300
        assert sweep.ranks == hokalman_order(Signal(y), 20)[1].ranks
        first_order = 1e-300 * 0.5 ** np.arange(2000.0)
        assert hokalman_order(Signal(first_order), 8)[1].ranks == [1] * 7
        assert records == [(20_000, 2821)] * 2 + [(2000, 62)]

    def test_all_zero_row_reads_the_decisions_of_the_full_matrices(self, monkeypatch):
        records = _swept_lengths(monkeypatch)
        _, sweep = hokalman_order(Signal(np.zeros(2000)), 8)
        assert records == [(2000, 15)]  # any K qualifies, so K = n_max
        for p in sweep.points:
            spectrum = singular_values(np.zeros((p.n, 2001 - p.n)))
            res = numerical_rank(spectrum, default_policy((p.n, 2001 - p.n)))
            assert (p.rank, p.decision_gap, p.condition) == (res.rank, res.decision_gap, condition_number(spectrum))

    @pytest.mark.parametrize("count, swept", [(109, 109), (110, 109), (5000, 109)])
    def test_exactly_zero_tail_is_cut_once_it_spares_a_sample(self, count, swept, monkeypatch):
        # K = 100, and the head swept with its 9 zeros spans 109 samples
        y = np.zeros(count)
        y[:100] = np.random.default_rng(4).standard_normal(100)
        records = _swept_lengths(monkeypatch)
        _, sweep = hokalman_order(Signal(y), 10)
        assert records == [(count, swept)]
        assert sweep.ranks == _dense_ranks(y, 10) == list(range(2, 11))

    def test_paper_sized_square_and_noisy_sweeps_factor_every_sample(self, tmp_path, monkeypatch):
        records = _swept_lengths(monkeypatch)
        for name, _, _ in list_experiments():
            run_experiment(ExperimentSpec(name), tmp_path / f"{name}.csv")
        # square sweeps of signals whose "all" sweeps are cut
        for y in (gen_y5(20_000).samples, np.zeros(2000), np.r_[1.0, np.zeros(1999)]):
            for n_min in (2, 20):
                estimators._rank_sweeps(y[None], 20, "square", None, n_min)
        for count, n_max in [(40, 8), (2000, 20), (20_000, 20)]:
            for amplitude in (1e-10, 1e-6, 1e-3):
                hokalman_order(add_noise(gen_y5(count), NoiseSpec(amplitude, count)), n_max)
        # signals as the CLI benchmark draws them: two real and one oscillating mode
        for seed in range(1, 21):
            rng = np.random.default_rng(seed)
            for count, n_maxes in [(40, (8,)), (119, (8, 20))]:
                modes = [
                    Mode(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5), rng.uniform(0.02, 0.3), w)
                    for w in (0.0, 0.0, rng.uniform(0.2, 1.0))
                ]
                signal = gen_mode_sum(ModeSum(modes), count)
                for n_max in n_maxes:
                    hokalman_order(signal, n_max)
                estimators._rank_sweeps(signal.samples[None], 6, "square", None, 6)
        assert len(records) > 100
        assert all(swept == count for count, swept in records)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_decaying_inputs(), min_size=1, max_size=3))
    def test_one_pass_scan_keeps_what_the_full_tail_sums_keep(self, inputs):
        # each L is at least 2 n_max - 1 of its own draw, so of the smallest n_max
        n_max = min(n for _, n in inputs)
        size = min(len(signal) for signal, _ in inputs)
        stack = np.array([signal.samples[:size] for signal, _ in inputs])
        with pytest.MonkeyPatch.context() as m:
            records = _swept_lengths(m)
            estimators._route(stack, n_max, "all", 2)
        assert records == [(size, _full_sum_swept(stack, n_max))]

    @pytest.mark.parametrize("head", [1000, 1023, 1024, 1025, 2048, 4090, 4999])
    def test_scan_finds_a_zero_tail_next_to_its_block_boundaries(self, head):
        # blocks of 1,024 samples count from the end, so 5,000 samples end in a partial block
        y = np.zeros((2, 5000))
        y[0, :head] = np.random.default_rng(head).standard_normal(head)
        y[1, : head // 2] = 1.0
        n_max = 10
        kept = estimators._tail_start(y, np.abs(y).max(axis=-1), n_max)
        assert kept == head
        assert min(kept + n_max - 1, 5000) == _full_sum_swept(y, n_max)

    @pytest.mark.parametrize("crossing", [700.5, 1024.5, 2500.5, 4000.5])
    def test_scan_carries_the_sum_of_the_blocks_it_passed(self, crossing):
        # a flat tail whose last m squares sum to m / crossing of u^2 / n_max
        n_max = 10
        y = np.full(5000, EPS / 2 / math.sqrt(n_max * crossing))
        y[:50] = 1.0
        kept = estimators._tail_start(y[None], np.ones(1), n_max)
        assert kept == 5000 - int(crossing)
        assert kept + n_max - 1 == _full_sum_swept(y[None], n_max)


# ---------------------------------------------------------------------------
# cut tall sweeps: every point from the leading blocks of one R factor


class TestLeadingBlocks:
    @pytest.mark.parametrize("count", [20_000, 200_000])
    def test_cut_clean_row_factors_once_and_runs_two_svd_calls(self, count):
        signal = gen_y5(count)
        with _routes() as calls:
            _, sweep = hokalman_order(signal, 20)
        assert calls == {"eigvalsh": 0, "svd": 2, "_tall_r": 1}
        if count == 20_000:
            assert sweep.ranks == _dense_ranks(signal.samples, 20)

    def test_uncut_tall_rows_keep_one_svd_per_point(self):
        fig4 = gen_high_order("sinusoid", 50, 119, 1)  # fig4's signal, swept to n_max = 60
        with _routes() as calls:
            hokalman_order(fig4, 60)
        assert calls == {"eigvalsh": 0, "svd": 59, "_tall_r": 1}
        # a long undamped row is never cut; its Gram sweep fails the certificate at n_max
        signal = gen_mode_sum(ModeSum([Mode(1.0, 0.0, 0.3)]), 20_000)
        with _routes() as calls:
            _, sweep = hokalman_order(signal, 20)
        assert calls == {"eigvalsh": 1, "svd": 19, "_tall_r": 1}
        assert sweep.ranks == [2] * 19

    def test_points_are_leading_blocks_of_at_most_two_sizes(self):
        n_max = 20
        y = gen_y5(20_000).samples[None]
        groups = estimators._sweep_points(estimators._route(y, n_max, "all", 2), n_max, 2)
        # the two stacks of _leading_blocks, one SVD call each
        assert [stack.shape for _, stack in groups] == [(9, 1, 10, 10), (10, 1, 20, 20)]
        r = groups[-1][1][-1, 0]
        assert np.array_equal(r, np.triu(r))
        for (n, cols), matrices in _points(y, n_max):
            size = 10 if n <= 10 else 20
            assert cols == 20_001 - n and matrices.shape == (1, size, size)
            block = np.zeros((size, size))
            block[:n, :n] = r[:n, :n]
            assert np.array_equal(matrices[0], block)

    def test_all_zero_long_row_reads_rank_zero(self):
        with _routes() as calls:
            _, sweep = hokalman_order(Signal(np.zeros(20_000)), 20)
        assert calls == {"eigvalsh": 0, "svd": 2, "_tall_r": 1}
        assert all((p.rank, p.decision_gap, p.condition) == (0, math.inf, math.inf) for p in sweep.points)

    def test_empty_stack(self):
        empty = np.empty((0, 20_000))
        route = estimators._route(empty, 20, "all", 2)
        groups = estimators._sweep_points(route, 20, 2)
        assert [stack.shape for _, stack in groups] == [(9, 0, 10, 10), (10, 0, 20, 20)]
        assert route.path == "cut" and route.exponents.shape == (0,)
        assert estimators._rank_sweeps(empty, 20, "all", None) == []
        assert estimators._plateau_onsets(empty, 20) == []

    def test_cut_row_past_the_float_bound_reads_the_points_of_the_unscaled_row(self):
        y = gen_y5(20_000).samples
        big = np.ldexp(y, 1026)  # 8.9e307, swept as y 2^3
        for policy in POLICIES:
            with _routes() as calls:
                got = hokalman_order(Signal(big), 20, policy)[1].points
            assert calls == {"eigvalsh": 0, "svd": 2, "_tall_r": 1}
            scaled = policy if policy is None or policy.kind != "absolute_threshold" else RankPolicy.absolute(1e-8 * 2.0**-1026)
            assert got == hokalman_order(Signal(y), 20, scaled)[1].points

    def test_plateau_onsets_of_cut_rows_equal_the_onsets_of_full_sweeps(self, monkeypatch):
        stack = np.array(
            [
                gen_y5(20_000).samples,
                gen_mode_sum(ModeSum([Mode(1.0, 0.05), Mode(-2.0, 0.3, 1.0)]), 20_000).samples,
                np.zeros(20_000),
                gen_mode_sum(ModeSum([Mode(1.0, 0.01)]), 20_000).samples,
            ]
        )
        records = _swept_lengths(monkeypatch)
        want = [reference_onset(sweep) for sweep in estimators._rank_sweeps(stack, 20, "all", None)]
        assert estimators._plateau_onsets(stack, 20) == want == [5, 3, 2, 2]
        # the slowest decay keeps the longest head, 4,020 samples and 19 zeros
        assert records == [(20_000, 4039)] * 2


# ---------------------------------------------------------------------------
# certified Gram sweeps: long noisy rows decided from their lag sums


@contextlib.contextmanager
def _routes():
    """How many times np.linalg.eigvalsh, np.linalg.svd and _tall_r run
    while the block runs."""
    counts = {"eigvalsh": 0, "svd": 0, "_tall_r": 0}
    with pytest.MonkeyPatch.context() as m:
        for owner, name in ((np.linalg, "eigvalsh"), (np.linalg, "svd"), (estimators, "_tall_r")):

            def counting(*args, _call=getattr(owner, name), _name=name, **kwargs):
                counts[_name] += 1
                return _call(*args, **kwargs)

            m.setattr(owner, name, counting)
        yield counts


def _noisy_y5(count: int, amplitude: float = 1e-6, seed: int = 1) -> Signal:
    return add_noise(gen_y5(count), NoiseSpec(amplitude, seed))


def _certified_points(y: np.ndarray, n_max: int) -> tuple[list[int], list[int]]:
    """(certified n, rank at every n) of the default-cut sweep of one row
    from its Gram eigenvalues, every point evaluated, without the gate."""
    size, exponent = len(y), math.frexp(float(np.abs(y).max()))[1]
    ns = np.arange(2, n_max + 1)
    grams, norms = estimators._gram_stack(np.ldexp(y, -exponent)[None], ns)
    eigs = np.linalg.eigvalsh(grams)[..., ::-1]
    kind, value = estimators._cut(None, [(n, size - n + 1) for n in ns], np.array([exponent]))
    value = np.broadcast_to(value, grams.shape[:2])
    certified = estimators._certified(eigs, ns, size, norms, kind, value)[:, 0]
    spectra = np.sqrt(np.maximum(np.pad(eigs, ((0, 0), (0, 0), (0, 1))), 0.0))
    ranks = estimators._decide(spectra, ns[:, None], kind, value).rank[:, 0]
    return ns[certified].tolist(), ranks.tolist()


_GRAM_POLICIES = st.one_of(
    st.none(),
    st.floats(1e-14, 1e-4).map(RankPolicy.relative),
    st.floats(1e-10, 1e-2).map(RankPolicy.absolute),
)


@st.composite
def _gram_inputs(draw):
    n_max = draw(st.integers(2, 12))
    size, seed = draw(st.integers(17 * n_max, 1000)), draw(st.integers(0, 2**32 - 1))
    return _noisy_mode_sum(size, seed), n_max, draw(_GRAM_POLICIES)


class TestGramSweep:
    @settings(max_examples=30, deadline=None)
    @given(_gram_inputs())
    @example((_noisy_y5(2000).samples, 20, None))
    @example((_noisy_y5(1000, 1e-4).samples, 12, RankPolicy.absolute(1e-3)))
    def test_gram_ranks_equal_the_tall_and_dense_ranks(self, inputs):
        y, n_max, policy = inputs
        route = estimators._route(y[None], n_max, "all", 2)
        gram = estimators._gram_decisions(route, n_max, policy, 2) if route.path == "gram" else None
        event("gram" if gram is not None else "factored")
        if gram is None:
            return
        [sweep] = estimators._rank_sweeps(y[None], n_max, "all", policy)
        with pytest.MonkeyPatch.context() as m:
            _force_factored(m)
            [tall] = estimators._rank_sweeps(y[None], n_max, "all", policy)
        assert sweep.ranks == gram.rank[:, 0].tolist() == tall.ranks == _dense_ranks(y, n_max, policy)

    @pytest.mark.parametrize("count", [2000, 20_000])
    def test_the_certificate_is_what_keeps_the_ranks_right(self, count, monkeypatch):
        # clean y5 fed past the gate: only n = 2 and 3 certify, with the dense ranks
        y = gen_y5(count).samples
        dense = _dense_ranks(y, 20)
        certified, ranks = _certified_points(y, 20)
        assert certified == [2, 3]
        assert [ranks[n - 2] for n in certified] == [dense[n - 2] for n in certified]
        # without the bound, or with a billionth of it, wrong ranks certify
        error = estimators._gram_error
        for weakened in (lambda *args: 0.0 * error(*args), lambda *args: 1e-9 * error(*args)):
            monkeypatch.setattr(estimators, "_gram_error", weakened)
            certified, ranks = _certified_points(y, 20)
            assert [n for n in certified if ranks[n - 2] != dense[n - 2]]

    def test_noisy_long_row_is_neither_factored_nor_svd_decomposed(self):
        signal = _noisy_y5(20_000)
        with _routes() as calls:
            _, sweep = hokalman_order(signal, 20)
        assert calls == {"eigvalsh": 2, "svd": 0, "_tall_r": 0}
        assert sweep.ranks == list(range(2, 21))

    def test_noise_below_the_certificate_exits_after_the_n_max_point(self):
        signal = _noisy_y5(20_000, 1e-8)
        with _routes() as calls:
            _, sweep = hokalman_order(signal, 20)
        assert calls == {"eigvalsh": 1, "svd": 19, "_tall_r": 1}
        assert sweep.ranks == _dense_ranks(signal.samples, 20)

    def test_clean_rows_experiments_and_other_sweeps_never_take_the_gram_path(self, tmp_path):
        noisy = np.array([_noisy_y5(20_000, seed=seed).samples for seed in range(2)])
        with _routes() as calls:
            for count in (2000, 20_000, 200_000):
                hokalman_order(gen_y5(count), 20)
            for name, _, _ in list_experiments():
                run_experiment(ExperimentSpec(name), tmp_path / f"{name}.csv")
            estimators._rank_sweeps(noisy, 20, "square", None)
            estimators._rank_sweeps(noisy, 20, "all", RankPolicy.gap())
            estimators._plateau_onsets(noisy, 20)
        assert calls["eigvalsh"] == 0 and calls["_tall_r"] > 0

    @settings(max_examples=15, deadline=None)
    @given(st.integers(-900, 900), st.sampled_from([None, RankPolicy.relative(1e-9)]))
    @example(900, None)
    @example(-900, None)
    def test_rows_scaled_by_a_power_of_two_give_identical_points(self, k, policy):
        y = _noisy_y5(2000).samples
        with _routes() as calls:
            want = hokalman_order(Signal(y), 20, policy)[1].points
            got = hokalman_order(Signal(np.ldexp(y, k)), 20, policy)[1].points
        assert got == want
        assert calls == {"eigvalsh": 4, "svd": 0, "_tall_r": 0}


# name: (signal, n_max, columns, the path _route names, _tail_start calls, what _sweep then runs)
ROUTED = {
    "fig3_square": (lambda: gen_mode_sum(pole_pair_modes(10.0, 1), 40), 8, "square", "square", 0, (0, 7, 0)),
    "y5_L40": (lambda: gen_y5(40), 8, "all", "dense", 0, (0, 7, 0)),
    "fig4": (lambda: gen_high_order("sinusoid", 50, 119, 1), 60, "all", "tall", 0, (0, 59, 1)),
    "y5_L20000": (lambda: gen_y5(20_000), 20, "all", "cut", 1, (0, 2, 1)),
    "y5_L20000_noisy": (lambda: _noisy_y5(20_000), 20, "all", "gram", 0, (2, 0, 0)),
    # the Gram certificate fails at n_max, and the sweep is factored "tall"
    "y5_L20000_noise1e-8": (lambda: _noisy_y5(20_000, 1e-8), 20, "all", "gram", 0, (1, 19, 1)),
    "sinusoid_L20000": (lambda: gen_mode_sum(ModeSum([Mode(1.0, 0.0, 0.3)]), 20_000), 20, "all", "gram", 0, (1, 19, 1)),
}


@pytest.mark.parametrize("name", ROUTED)
def test_route_names_the_path_each_sweep_takes(name, monkeypatch):
    build, n_max, columns, path, scans, (eigvalsh, svd, tall_r) = ROUTED[name]
    samples = build().samples[None]
    tail_start, scanned = estimators._tail_start, []
    monkeypatch.setattr(estimators, "_tail_start", lambda *args: scanned.append(args) or tail_start(*args))
    route = estimators._route(samples, n_max, columns, 2)
    assert (route.path, len(scanned)) == (path, scans)
    with _routes() as calls:
        decided = estimators._sweep(samples, n_max, columns)
    assert calls == {"eigvalsh": eigvalsh, "svd": svd, "_tall_r": tall_r}
    assert len(scanned) == 2 * scans
    assert decided.rank[:, 0].tolist() == estimators._rank_sweeps(samples, n_max, columns, None)[0].ranks


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
            if columns == "all":
                _, alone = hokalman_order(signal, 8, policy)
            else:
                [alone] = estimators._rank_sweeps(signal.samples[None], 8, "square", policy)
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
        # the plateau rule needs every n x n matrix
        with pytest.raises(ValueError, match=r"requires 2n - 1 = 11"):
            hokalman_order(gen_y5(10), 6)


# ---------------------------------------------------------------------------
# one decision per sweep against a copy of the per-n decisions it replaced


def _per_row_decide(spectra, kind, values):
    """The per-row rules as they ran on each n's (k, m) spectra before a
    sweep was decided in one pass, with one policy value per row."""
    if not np.isfinite(spectra).all() or (spectra[..., -1:] < 0).any():
        raise ValueError("singular values must be finite and >= 0")
    if (spectra[..., :-1] < spectra[..., 1:]).any():
        raise ValueError("singular values must be non-increasing")
    out = []
    for vals, value in zip(spectra.tolist(), values):
        top, bottom, m = vals[0], vals[-1], len(vals)
        cond = math.inf if bottom == 0.0 else top / bottom
        if top == 0.0:
            out.append((0, math.inf, cond))
        elif kind == "gap_ratio":
            best_i, best = None, 1.0
            for i in range(m - 1):
                hi, lo = vals[i], vals[i + 1]
                ratio = 1.0 if hi == 0.0 else math.inf if lo == 0.0 else hi / lo
                if ratio > best:
                    best_i, best = i, ratio
            rank = best_i + 1 if best_i is not None and best >= value else m
            out.append((rank, best, cond))
        else:
            cut = value * top if kind == "relative_threshold" else value
            rank = sum(v > cut for v in vals)
            below = vals[rank] if 0 < rank < m else 0.0
            out.append((rank, math.inf if below == 0.0 else vals[rank - 1] / below, cond))
    return out


def _per_n_sweeps(samples, n_max, columns, policy, n_min):
    """(n, rank, gap, condition) rows of each signal's sweep, decided once
    per n as ``_rank_sweeps`` did before.  A signal whose bound
    max|y| sqrt(n_max L) on every sigma_1 reaches float_max / 16 is swept
    as y 2^-e, e the binary exponent of its max|y|, under an absolute cut
    scaled by the same 2^-e."""
    exponents = []
    for y in samples:
        top = float(np.abs(y).max())
        exponents.append(math.frexp(top)[1] if top * math.sqrt(n_max * y.size) >= sys.float_info.max / 16 else 0)
    scaled = np.array([np.ldexp(y, -e) for y, e in zip(samples, exponents)]).reshape(samples.shape)
    points = [[] for _ in range(len(samples))]
    for shape, matrices in _points(scaled, n_max, columns, n_min):
        spectra = np.linalg.svd(matrices, compute_uv=False)[..., : min(shape)]
        cut = policy or default_policy(shape)
        values = [math.ldexp(cut.value, -e) if cut.kind == "absolute_threshold" else cut.value for e in exponents]
        for row, decision in zip(points, _per_row_decide(spectra, cut.kind, values)):
            row.append((shape[0], *decision))
    return points


def _point_bits(n, rank, gap, cond):
    return n, rank, float(gap).hex(), float(cond).hex()


_SIGNAL_KINDS = ("noise", "modes", "near_cut", "zero", "half_zero", "spike", "float_max")


def _sweep_signal(kind: str, size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "noise":  # any scale, down to subnormal samples
        return rng.standard_normal(size) * 10.0 ** rng.integers(-320, 300)
    if kind == "modes":  # low rank, with rounding-level values below the cut
        coeffs = rng.choice([-2.0, 1.0, 3.0], rng.integers(1, 4))
        modes = [Mode(float(c), float(rng.uniform(-0.95, 0.95))) for c in coeffs]
        return gen_mode_sum(ModeSum(modes), size).samples
    if kind == "near_cut":  # a second mode near the default cut, which differs by layout and n
        t = np.arange(size)
        return 0.9**t + 10.0 ** rng.uniform(-15.5, -12.5) * (rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0)) ** t
    if kind == "zero":
        return np.zeros(size)
    if kind == "half_zero":  # exact zeros in the spectra of the wide and of the tall matrices
        y = rng.standard_normal(size)
        y[slice(size // 2) if rng.integers(2) else slice(size // 2, None)] = 0.0
        return y
    if kind == "spike":
        y = np.zeros(size)
        y[rng.integers(size)] = rng.uniform(-2.0, 2.0)
        return y
    if rng.integers(2):  # float_max
        return np.full(size, 1.7976931348623157e308 * rng.choice([1.0, -1.0, 0.5]))
    return rng.uniform(-1.0, 1.0, size) * 1.7976931348623157e308


_SWEEP_POLICIES = st.one_of(
    st.none(),
    st.floats(1e-16, 0.5).map(RankPolicy.relative),
    st.floats(1e-300, 1e3).map(RankPolicy.absolute),
    st.floats(1.0, 1e300, exclude_min=True).map(RankPolicy.gap),
)


def _noisy_mode_sum(size: int, seed: int) -> np.ndarray:
    """1-4 real or oscillating modes, decaying or not, plus uniform noise
    of amplitude 1e-9..1e-3: mostly rows whose last samples the noise
    keeps up, some with noise too small to certify or to pass the gate."""
    rng = np.random.default_rng(seed)
    modes = [
        Mode(
            float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)),
            float(rng.choice([0.0, rng.uniform(0.001, 0.5)])),
            float(rng.choice([0.0, rng.uniform(0.1, 3.0)])),
        )
        for _ in range(rng.integers(1, 5))
    ]
    noise = NoiseSpec(float(10.0 ** rng.uniform(-9.0, -3.0)), int(rng.integers(2**32)))
    return add_noise(gen_mode_sum(ModeSum(modes), size), noise).samples


@st.composite
def _sweep_inputs(draw, gram=False):
    """A stack, n_max, columns, policy and n_min to sweep.  With gram, a
    quarter of the draws are stacks of long noisy rows, L >= 17 n_max,
    which the Gram path decides wherever every point certifies."""
    if gram and draw(st.integers(0, 3)) == 0:
        n_max = draw(st.integers(1, 12))
        size = draw(st.integers(17 * n_max, 400))
        seeds = [draw(st.integers(0, 2**32 - 1)) for _ in range(draw(st.integers(1, 3)))]
        samples = np.array([_noisy_mode_sum(size, seed) for seed in seeds])
        return samples, n_max, "all", draw(_SWEEP_POLICIES), draw(st.integers(1, n_max))
    columns = draw(st.sampled_from(["all", "square"]))
    size = draw(st.integers(1, 40) | st.integers(41, 160))
    # "all" matrices turn wide to tall past n = (L + 1) / 2
    cap = min(size if columns == "all" else (size + 1) // 2, 24)
    n_max = draw(st.integers(1, cap))
    n_min = 1 if n_max == 1 else draw(st.integers(1, n_max + 1))  # one-point and empty sweeps too
    kinds = [draw(st.sampled_from(_SIGNAL_KINDS)) for _ in range(draw(st.integers(0, 4)))]
    samples = np.array([_sweep_signal(kind, size, draw(st.integers(0, 2**32 - 1))) for kind in kinds]).reshape(-1, size)
    return samples, n_max, columns, draw(_SWEEP_POLICIES), n_min


# sigma_2 / sigma_1 lies between n eps and (L - n + 1) eps at every n, so
# each n's rank reads 1 under the default cut max(rows, cols) eps
_BETWEEN_CUTS = 0.9 ** np.arange(100.0) + 1e-14 * (-0.8) ** np.arange(100.0)


@settings(max_examples=250, deadline=None)
@given(_sweep_inputs())
@example((_BETWEEN_CUTS[None], 8, "all", None, 2))
def test_one_pass_decision_matches_per_n_decisions_bit_for_bit(inputs):
    samples, n_max, columns, policy, n_min = inputs
    want = _per_n_sweeps(samples, n_max, columns, policy, n_min)
    with pytest.MonkeyPatch.context() as m:
        _force_factored(m)  # the per-n decisions factor; TestGramSweep checks the Gram path
        sweeps = estimators._rank_sweeps(samples, n_max, columns, policy, n_min)
    got = [[_point_bits(p.n, p.rank, p.decision_gap, p.condition) for p in sweep.points] for sweep in sweeps]
    assert got == [[_point_bits(*point) for point in row] for row in want]
    assert all(type(p.rank) is int and type(p.decision_gap) is float for sweep in sweeps for p in sweep.points)


@pytest.mark.parametrize(
    "samples, n_max, columns, n_min",
    [
        (np.array([gen_y5(40).samples]), 8, "all", 2),
        (np.array([gen_y5(40).samples] * 5), 20, "all", 2),  # wide to tall
        (np.array([gen_y5(2000).samples] * 3), 12, "all", 2),  # tall path
        (np.array([gen_y5(40).samples] * 2), 6, "square", 6),  # one point
        (np.empty((0, 40)), 8, "square", 2),
    ],
)
def test_one_decide_call_per_sweep(samples, n_max, columns, n_min, monkeypatch):
    decide, calls = estimators._decide, []

    def counting(*args):
        calls.append(args[0].shape)
        return decide(*args)

    monkeypatch.setattr(estimators, "_decide", counting)
    for policy in POLICIES:
        calls.clear()
        sweeps = estimators._rank_sweeps(samples, n_max, columns, policy, n_min)
        points = n_max - n_min + 1
        assert len(calls) == 1
        assert calls[0][:2] == (points, len(samples))
        assert [len(sweep.points) for sweep in sweeps] == [points] * len(samples)


# ---------------------------------------------------------------------------
# what the unchecked kernel takes on trust from the sweeps


@contextlib.contextmanager
def _decided_stacks():
    """Every (spectra, lengths) pair ``_decide`` receives from the sweeps
    while the block runs, with lengths broadcast to one per row."""
    decide, stacks = estimators._decide, []

    def recording(spectra, lengths, kind, value):
        stacks.append((spectra.copy(), np.broadcast_to(lengths, spectra.shape[:-1]).copy()))
        return decide(spectra, lengths, kind, value)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_decide", recording)
        yield stacks


@settings(max_examples=400, deadline=None)
@given(_sweep_inputs(gram=True))
# an empty sweep of long noisy rows, n_min = n_max + 1, has no Gram points
@example((np.array([_noisy_y5(400).samples, _noisy_y5(400, seed=2).samples]), 12, "all", None, 13))
def test_every_stack_a_sweep_decides_is_a_valid_spectrum(inputs):
    samples, n_max, columns, policy, n_min = inputs
    with _decided_stacks() as stacks:
        estimators._rank_sweeps(samples, n_max, columns, policy, n_min)
        if columns == "all" and n_max >= 2:
            estimators._plateau_onsets(samples, n_max)
    assert_valid_stacks(stacks)


def test_every_stack_the_experiments_decide_is_a_valid_spectrum(tmp_path):
    with _decided_stacks() as stacks:
        for name, _, _ in list_experiments():
            run_experiment(ExperimentSpec(name), tmp_path / f"{name}.csv")
    assert_valid_stacks(stacks)


# ---------------------------------------------------------------------------
# plateau onsets from the top of the sweep down against full sweeps


def _onset_signal(kind: str, size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "constant":  # one rank at every n, so the walk reaches n = 2
        return np.full(size, rng.uniform(-3.0, 3.0))
    if kind == "large":  # finite spectra, but past the bound, so swept as y 2^-e
        return rng.standard_normal(size) * 10.0 ** rng.uniform(300.0, 307.0)
    return _sweep_signal(kind, size, seed)


# one kind in ten lies past the bound and is swept scaled, half of those at the float maximum
_ONSET_KINDS = ("noise", "modes", "near_cut", "zero", "constant", "spike") * 3 + ("large", "float_max")


@st.composite
def _onset_inputs(draw):
    n_max = draw(st.integers(2, 20))
    # "all" sweeps take the tall path from L - n_max + 1 = 16 n_max on, or from n_max on when n_max >= 16
    crossover = _first_tall_length(n_max)
    size = draw(st.integers(1, 40) | st.integers(crossover - 2, crossover + 2))
    kinds = [draw(st.sampled_from(_ONSET_KINDS)) for _ in range(draw(st.integers(0, 4)))]
    samples = np.array([_onset_signal(kind, size, draw(st.integers(0, 2**32 - 1))) for kind in kinds]).reshape(-1, size)
    return samples, n_max


@settings(max_examples=200, deadline=None)
@given(_onset_inputs())
@example((np.array([gen_y5(40).samples, np.full(40, 2.0)]), 2))  # one step
@example((np.array([np.full(135, 2.0), np.zeros(135), gen_y5(135).samples]), 8))  # tall, down to n = 2
@example((np.array([_BETWEEN_CUTS[:40], gen_y5(40).samples]), 10))
@example((np.array([gen_y5(40).samples]), 1))  # n_max below 2
@example((np.array([gen_y5(40).samples, np.full(40, 1.7976931348623157e308)]), 10))
# unscaled, finite at n = 19 and 18, where the rank changes, but past float range at n = 4..17
@example((np.array([2.2e307 * (1.0 + 1e-3 * np.sin(np.arange(20.0)))]), 19))
# "all" sweeps past n = (L + 1) / 2, where min(shape) grows as n falls
@example((np.random.default_rng(5).uniform(-1.0, 1.0, (3, 12)), 10))
@example((np.array([gen_y5(15).samples, np.full(15, 2.0), np.zeros(15)]), 12))
@example((np.array([_BETWEEN_CUTS[:14], np.random.default_rng(6).uniform(-1.0, 1.0, 14)]), 13))
def test_plateau_onsets_equal_the_onsets_of_full_sweeps(inputs):
    samples, n_max = inputs
    try:
        want = [reference_onset(sweep) for sweep in estimators._rank_sweeps(samples, n_max, "all", None)]
    except ValueError as exc:
        # bad arguments: the text the whole stack's sweep raises
        with pytest.raises(ValueError) as got:
            estimators._plateau_onsets(samples, n_max)
        assert str(got.value) == str(exc)
        return
    onsets = estimators._plateau_onsets(samples, n_max)
    assert onsets == want
    assert all(type(onset) is int for onset in onsets)


def test_plateau_onsets_decide_only_down_to_the_first_rank_change(monkeypatch):
    svd, matrices = np.linalg.svd, []

    def counting(a, *args, **kwargs):
        matrices.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    # y5 reads rank 5 from n = 5 on; a constant signal rank 1 at every n.
    # Every step takes the dense n x (41 - n) matrices the sweep to n = 8
    # takes, though a sweep to n = 2 alone would take the tall path.  The
    # y5 rows leave at n = 4 without an SVD: 4 values cannot hold rank 5.
    samples = np.array([gen_y5(40).samples, np.full(40, 2.0), gen_y5(40).samples])
    assert estimators._plateau_onsets(samples, 8) == [5, 2, 5]
    assert matrices == [(1, 3, n, 41 - n) for n in range(8, 4, -1)] + [(1, 1, n, 41 - n) for n in (4, 3, 2)]


@pytest.mark.parametrize("size", [40, 200])  # dense and tall paths
def test_full_rank_rows_are_decided_at_n_max_only(monkeypatch, size):
    svd, calls = np.linalg.svd, []

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    samples = np.random.default_rng(3).uniform(-1.0, 1.0, (5, size))
    want = [reference_onset(sweep) for sweep in estimators._rank_sweeps(samples, 10, "all", None)]
    monkeypatch.setattr(np.linalg, "svd", counting)
    assert estimators._plateau_onsets(samples, 10) == want == [10] * 5
    # one SVD of the 5 matrices at n = 10 (the tall path's QR calls come before it)
    [(points, k, rows, cols)] = calls
    assert (points, k) == (1, 5) and min(rows, cols) == 10


# ---------------------------------------------------------------------------
# one scale rule: past the sweep bound y 2^k is swept as y 2^-e


_SCALE_KINDS = ("low_rank", "noisy", "constant", "zero")


def _scale_signal(kind: str, size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "low_rank":
        return _sweep_signal("modes", size, seed)
    if kind == "noisy":
        return _sweep_signal("modes", size, seed) + rng.uniform(-1e-6, 1e-6, size)
    if kind == "constant":
        return np.full(size, rng.uniform(-3.0, 3.0))
    return np.zeros(size)


@st.composite
def _scale_inputs(draw):
    """A stack whose non-zero rows have max|y| in [2^(s-1), 2^s), a k
    that takes each of them past max|y| sqrt(n_max L) >= float_max / 16
    (s + k >= 1020, with n_max L >= 6) and not past float_max
    (s + k <= 1024), and a policy with the matching absolute cut of y 2^k."""
    columns = draw(st.sampled_from(["all", "square"]))
    n_max = draw(st.integers(2, 8))
    tall = _first_tall_length(n_max)
    size = draw(st.integers(2 * n_max - 1, 40) | st.integers(tall, tall + 20))
    kinds = draw(st.lists(st.sampled_from(_SCALE_KINDS), min_size=1, max_size=4))
    s = draw(st.integers(-40, 40))
    rows = [_scale_signal(kind, size, draw(st.integers(0, 2**32 - 1))) for kind in kinds]
    samples = np.array([np.ldexp(y, s - math.frexp(float(np.abs(y).max()))[1]) for y in rows])
    k = draw(st.integers(1020, 1024)) - s
    policy = draw(st.sampled_from(["default", "relative", "absolute", "gap"]))
    if policy == "relative":
        return samples, k, n_max, columns, *[RankPolicy.relative(draw(st.floats(1e-16, 0.5)))] * 2
    if policy == "gap":
        return samples, k, n_max, columns, *[RankPolicy.gap(draw(st.floats(1.0, 1e12, exclude_min=True)))] * 2
    if policy == "absolute":
        cut = math.ldexp(draw(st.floats(1e-14, 0.5)), s)
        return samples, k, n_max, columns, RankPolicy.absolute(cut), RankPolicy.absolute(math.ldexp(cut, k))
    return samples, k, n_max, columns, None, None


@settings(max_examples=150, deadline=None)
@given(_scale_inputs())
def test_sweeps_past_the_bound_read_the_ranks_and_onsets_of_the_unscaled_stack(inputs):
    samples, k, n_max, columns, policy, scaled_policy = inputs
    big = np.ldexp(samples, k)
    size = samples.shape[-1]
    assert all(float(np.abs(y).max()) * math.sqrt(n_max * size) >= sys.float_info.max / 16 for y in big if y.any())
    want = [sweep.ranks for sweep in estimators._rank_sweeps(samples, n_max, columns, policy)]
    assert [sweep.ranks for sweep in estimators._rank_sweeps(big, n_max, columns, scaled_policy)] == want
    assert estimators._plateau_onsets(big, n_max) == estimators._plateau_onsets(samples, n_max)


class TestOverflowingData:
    # the residual squares past float range; a column norm past it leaves inf and nan in R
    @pytest.mark.parametrize("samples", [np.r_[np.zeros(9), 1e200], np.full(40, 1.7e308), np.full(9, 6.52e229)])
    def test_ar_fit_past_float_range_is_the_fit_of_the_scaled_signal(self, samples):
        exponent = math.frexp(float(np.abs(samples).max()))[1]
        estimate, report = aic_order(Signal(samples), 3)
        scaled_estimate, scaled_report = aic_order(Signal(np.ldexp(samples, -exponent)), 3)
        assert report == scaled_report
        assert scaled_estimate.diagnostics["rss_scale_exponent"] == 0
        assert estimate.diagnostics == {**scaled_estimate.diagnostics, "rss_scale_exponent": exponent}

    @pytest.mark.parametrize("p_max", [1, 3])
    def test_constant_signal_past_float_range_selects_order_one(self, p_max):
        # a constant is an exact order-1 fit, whose rounding residual squares past float range
        estimate, report = aic_order(Signal(np.full(9, 6.52e229)), p_max)
        assert estimate.order == report.selected == 1
        assert estimate.diagnostics["rss_scale_exponent"] == 764

    def test_covariance_past_float_range_rejected(self):
        with pytest.raises(ValueError, match="order-2 lag covariance overflows float range"):
            covariance_determinants(Signal(np.full(10, 1e154)), range(2, 4))


class TestPlateauOnset:
    def test_trailing_run(self):
        _, sweep = hokalman_order(gen_y5(40), 8)
        assert sweep.ranks == [2, 3, 4, 5, 5, 5, 5]
        assert reference_onset(sweep) == estimators._plateau_onsets(gen_y5(40).samples[None], 8)[0] == 5

    def test_lone_final_value(self):
        [sweep] = estimators._rank_sweeps(gen_y5(40).samples[None], 8, "square", None)
        assert sweep.ranks[-3:] == [4, 4, 5]
        assert reference_onset(sweep) == 8


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

    def test_tie_breaks_toward_smaller_p(self, monkeypatch):
        # K = 10: aic(1) = 10 ln(rss_1 / 10) + 2 equals aic(2) = 10 ln(1 / 10) + 4
        # where rss_1 = e^0.2; one float within an ulp of it ties bit for bit
        def aic(p, rss):
            return 10 * math.log(rss / 10) + 2.0 * p

        near = (math.nextafter(math.exp(0.2), 0.0), math.exp(0.2), math.nextafter(math.exp(0.2), 3.0))
        rss_1 = next(v for v in near if aic(1, v) == aic(2, 1.0))
        monkeypatch.setattr(estimators, "_ar_residuals", lambda y, p_max: (np.eye(3), [rss_1, 1.0]))
        est, report = aic_order(Signal(np.linspace(1.0, 2.0, 12)), 2)
        assert report.per_order[0][2] == report.per_order[1][2]
        assert est.order == report.selected == 1

    def test_insufficient_samples(self):
        with pytest.raises(ValueError):
            aic_order(_first_order(count=10), 5)
        with pytest.raises(ValueError, match="p_max must be >= 1"):
            aic_order(_first_order(), 0)

    def test_rss_never_increases_with_p(self):
        for signal in (_ar1_with_noise(seed=123), gen_y5(40), gen_y5(2000)):
            _, report = aic_order(signal, 10)
            rss = [r for _, r, _ in report.per_order]
            assert all(b <= a for a, b in zip(rss, rss[1:]))

    def test_rank_deficient_fits_read_off_the_r_diagonal(self):
        # y5 has order 5, so the fits of orders 6..10 regress on dependent lags
        assert aic_order(gen_y5(40), 10)[0].diagnostics["rank_deficient_fits"] == 5
        assert aic_order(_ar1_with_noise(seed=123), 10)[0].diagnostics["rank_deficient_fits"] == 0
        assert aic_order(Signal(np.zeros(30)), 3)[0].diagnostics["rank_deficient_fits"] == 3

    def test_floor_scales_with_the_signal_squared(self):
        floor = aic_order(gen_y5(40), 10)[0].diagnostics["rss_floor"]
        assert floor == (30 * 11 * 2.0**-53 * float(np.abs(gen_y5(40).samples).max())) ** 2
        for scale in (2.0**-400, 0.25, 2.0**40):
            scaled = aic_order(Signal(gen_y5(40).samples * scale), 10)[0]
            assert scaled.diagnostics["rss_floor"] == floor * scale**2
            assert scaled.order == 5
        # at 2^-700 the floor's lower clamp would bind, so the fit is that of y 2^-e
        y = gen_y5(40).samples
        exponent = math.frexp(float(np.abs(y).max()))[1]
        estimate, report = aic_order(Signal(y * 2.0**-700), 10)
        scaled_estimate, scaled_report = aic_order(Signal(np.ldexp(y, -exponent)), 10)
        assert report == scaled_report
        assert estimate.diagnostics == {**scaled_estimate.diagnostics, "rss_scale_exponent": exponent - 700}
        assert scaled_estimate.diagnostics["rss_scale_exponent"] == 0
        assert estimate.order == 5

    @pytest.mark.parametrize("scale, exponent", [(1e-140, -468), (1e-200, -667), (1e-300, -999)])
    def test_data_under_the_floor_clamp_are_fit_scaled(self, scale, exponent):
        # unscaled, every rss falls under the clamped 1e-300 floor, and order 1 was selected
        estimate, _ = aic_order(Signal(gen_y5(119).samples * scale), 10)
        assert estimate.order == 5
        assert estimate.diagnostics["rss_scale_exponent"] == exponent


# Exact and noise-free data: every order at or past the true order fits to
# rounding noise, under the floor, and AIC selects the smallest such order.


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_dyadic_mode_sums_select_their_order(order):
    modes = [(1, Fraction(1, 2)), (3, Fraction(-1, 4)), (-1, Fraction(1, 4)), (2, Fraction(-1, 2))][:order]
    exact = rational_mode_sum(modes, 40)
    samples = [float(v) for v in exact]
    assert [Fraction(v) for v in samples] == exact  # every sample is exact in float at L = 40
    assert aic_order(Signal(np.array(samples)), 10)[0].order == order


@pytest.mark.parametrize("count", [40, 119, 2000])
def test_clean_y5_selects_five_with_the_true_order_fits_floored(count):
    estimate, report = aic_order(gen_y5(count), 10)
    assert estimate.order == 5
    floor = estimate.diagnostics["rss_floor"]
    assert [p for p, rss, _ in report.per_order if rss > floor] == [1, 2, 3, 4]


def _three_mode_sum(rng, count) -> Signal:
    """Two decaying exponentials and a damped oscillation, drawn as the
    benchmark's CLI signals are (true order 4)."""
    modes = [
        Mode(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5), rng.uniform(0.02, 0.3), w)
        for w in (0.0, 0.0, rng.uniform(0.2, 1.0))
    ]
    return gen_mode_sum(ModeSum(modes), count)


def test_clean_three_mode_sums_select_their_true_order():
    rng = np.random.default_rng(14)
    for count in (40, 119, 2000):
        for _ in range(30):
            signal = _three_mode_sum(rng, count)
            assert aic_order(signal, 10)[0].order == signal.true_order == 4


def test_noisy_three_mode_sums_select_what_the_lstsq_fits_select():
    rng = np.random.default_rng(15)
    for count in (40, 119, 2000):
        for seed in range(30):
            clean = _three_mode_sum(rng, count)
            amplitude = 10.0 ** rng.uniform(-6.0, -1.0) * float(np.abs(clean.samples).max())
            noisy = add_noise(clean, NoiseSpec(amplitude, seed))
            assert aic_order(noisy, 10)[0].order == _reference_aic_order(noisy, 10)[0].order


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

    def test_no_orders_rejected(self):
        with pytest.raises(ValueError, match=r"^m_range must be non-empty$"):
            covariance_determinants(gen_y5(40), [])


class TestCovdetOrder:
    def test_y5_suggests_three(self):
        report = covariance_determinants(gen_y5(40), range(2, 9))
        est = covdet_order(report)
        assert est.order == 3
        assert est.method == "covariance_determinant"

    def test_collapse_is_a_drop_to_one_millionth(self):
        at_ratio = covdet_order(estimators.CovDetReport(((2, 1.0), (3, -1e-6))))
        assert at_ratio.order == 3
        assert at_ratio.diagnostics["collapse_ratio"] == 1e-6
        above_ratio = covdet_order(estimators.CovDetReport(((2, 1.0), (3, 2e-6))))
        assert above_ratio.order is None
        assert above_ratio.diagnostics == {"collapse_ratio": 1e-6}

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


# ---------------------------------------------------------------------------
# References: AIC as per-order lstsq fits on column stacks with a constant
# 1e-300 rss floor (what one QR replaced), and the covariance determinants
# on per-order column stacks (what one window view replaced, bit for bit).


def _reference_aic_order(signal, p_max):
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    if len(signal) < 2 * p_max + 1:
        raise ValueError(f"signal must have at least 2*p_max + 1 = {2 * p_max + 1} samples")
    y = signal.samples
    k = len(y) - p_max
    idx = np.arange(p_max, len(y))
    targets = y[idx]
    rows = []
    deficient = 0
    best_p, best_val = None, math.inf
    for p in range(1, p_max + 1):
        regressors = np.column_stack([y[idx - i] for i in range(1, p + 1)])
        rcond = max(regressors.shape) * np.finfo(float).eps
        coeffs, _, rank, _ = np.linalg.lstsq(regressors, targets, rcond=rcond)
        if not np.isfinite(coeffs).all():
            raise ValueError(f"the coefficients of the order-{p} AR fit overflow float range")
        with np.errstate(over="ignore", invalid="ignore"):
            residuals = targets - regressors @ coeffs
            rss = float(residuals @ residuals)
        if not math.isfinite(rss):
            raise ValueError(f"the residual sum of squares of the order-{p} AR fit overflows float range")
        deficient += int(rank) < p
        value = k * math.log(max(rss, 1e-300) / k) + 2.0 * p
        rows.append((p, rss, value))
        if value < best_val:
            best_p, best_val = p, value
    report = AicReport(tuple(rows), best_p)
    estimate = estimators.OrderEstimate(
        best_p,
        estimators.METHOD_AIC,
        {"p_max": p_max, "residual_count": k, "rank_deficient_fits": deficient},
    )
    return estimate, report


def _reference_covariance_determinants(signal, m_range):
    ms = [int(m) for m in m_range]
    if not ms:
        raise ValueError("m_range must be non-empty")
    if any(m < 0 for m in ms):
        raise ValueError("orders must be >= 0")
    if len(signal) < max(ms) + 2:
        raise ValueError(f"signal must have at least max(m) + 2 = {max(ms) + 2} samples")
    y = signal.samples
    rows_out = []
    for m in ms:
        idx = np.arange(m, len(y))
        lags = np.column_stack([y[idx - i] for i in range(m + 1)])
        with np.errstate(over="ignore", invalid="ignore"):
            cov = lags.T @ lags / idx.size
            det = float(np.linalg.det(cov)) if np.isfinite(cov).all() else math.nan
        if not math.isfinite(det):
            raise ValueError(f"the determinant of the order-{m} lag covariance overflows float range")
        rows_out.append((m, det))
    return estimators.CovDetReport(tuple(rows_out))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _outcome(call, *args):
    """What a baseline returns, or the type and text of what it raised."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _covdet_outcome(call, *args):
    """A covariance report with every determinant as its bits, or what raised."""
    result = _outcome(call, *args)
    if isinstance(result, estimators.CovDetReport):
        return [m for m, _ in result.per_order], _bits([d for _, d in result.per_order])
    return result


@st.composite
def _lag_signal(draw) -> Signal:
    """Random, all-zero, constant and geometric signals (the last three
    give rank-deficient regressors), some scaled far enough to overflow."""
    size = draw(st.integers(3, 80))
    kind = draw(st.sampled_from(["random", "random", "zero", "constant", "geometric"]))
    if kind == "random":
        samples = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=size, max_size=size)))
    elif kind == "zero":
        samples = np.zeros(size)
    elif kind == "constant":
        samples = np.full(size, draw(st.floats(-1e3, 1e3)))
    else:
        samples = draw(st.floats(-1.0, 1.0)) * draw(st.floats(-1.25, 1.25)) ** np.arange(size)
    return Signal(samples * draw(st.sampled_from([1.0, 1.0, 1.0, 1e-200, 1e160, 1e300])))


# a fixed seed, so every run of the suite tries the same signals whatever
# the test's source; no database, so no saved example replays
@seed(1902)
@settings(max_examples=300, deadline=None, database=None)
@given(signal=_lag_signal(), data=st.data())
def test_ar_baselines_match_the_column_stack_references(signal, data):
    size = len(signal)
    p_max = data.draw(st.integers(1, (size - 1) // 2), label="p_max")
    got, want = _outcome(aic_order, signal, p_max), _outcome(_reference_aic_order, signal, p_max)
    top = float(np.abs(signal.samples).max())
    if isinstance(want[0], str) and "coefficients" in want[1]:
        # samples some 308 decades apart, such as a subnormal lag under a
        # target near 1: lstsq has no finite fit to compare; the QR's rss stay finite
        rss = [r for _, r, _ in got[1].per_order]
        assert all(map(math.isfinite, rss)) and all(b <= a for a, b in zip(rss, rss[1:]))
        want = got
    overflows = isinstance(want[0], str) and "AR fit overflows float range" in want[1]
    if overflows or 0.0 < (size - p_max) * (p_max + 1) * 2.0**-53 * top < 1e-150:
        # past float range, or where the floor's lower clamp would bind,
        # aic_order fits y 2^-e, whose values are all below 1
        exponent = math.frexp(top)[1]
        assert got[0].diagnostics["rss_scale_exponent"] == exponent
        want = _outcome(_reference_aic_order, Signal(np.ldexp(signal.samples, -exponent)), p_max)
    if isinstance(want[0], str) or isinstance(got[0], str):  # one raised: both raise alike
        assert got == want
    else:
        (estimate, report), (_, ref_report) = got, want
        assert [p for p, _, _ in report.per_order] == [p for p, _, _ in ref_report.per_order]
        rss, ref_rss = [r for _, r, _ in report.per_order], [r for _, r, _ in ref_report.per_order]
        assert all(b <= a for a, b in zip(rss, rss[1:]))
        if min(ref_rss) >= 1e6 * estimate.diagnostics["rss_floor"]:  # every order resolved
            assert estimate.order == report.selected == ref_report.selected
            assert rss == pytest.approx(ref_rss, rel=1e-6)
    ms = data.draw(st.lists(st.integers(-1, size - 1), min_size=1, max_size=6), label="ms")
    orders = range(min(ms), max(ms) + 1)
    for m_range in (ms, orders):
        got = _covdet_outcome(covariance_determinants, signal, m_range)
        assert got == _covdet_outcome(_reference_covariance_determinants, signal, m_range)
