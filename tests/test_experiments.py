import decimal
import itertools
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from hankelorder import (
    ExperimentSpec,
    Mode,
    ModeSum,
    NoiseSpec,
    add_noise,
    add_offset,
    build_hankel,
    build_rectangular_hankel,
    default_policy,
    gen_mode_sum,
    list_experiments,
    numerical_rank,
    pole_pair_modes,
    run_experiment,
    singular_values,
)
from hankelorder import estimators, experiments
from hankelorder.estimators import _rank_sweeps, _sweep_points
from hankelorder.experiments import _exp_family_conditions

EXPECTED_NAMES = [
    "fig2_first_order",
    "fig3_pole_proximity",
    "fig1_table1_y5",
    "fig4_high_order_sin",
    "fig5_high_order_exp",
    "sec33_nonhomogeneous",
    "offset_effect",
    "echelon_effect",
]


GOLDEN_DIR = Path(__file__).resolve().parent.parent / "demos" / "out"
GOLDEN_HEADLINES = {
    "fig2_first_order": "order=1",
    "fig3_pole_proximity": "q0=18",
    "fig1_table1_y5": "order=5",
    "fig4_high_order_sin": "order=18",
    "fig5_high_order_exp": "order=11",
    "sec33_nonhomogeneous": "rank=2;aug_bottom=2;aug_right=2",
    "offset_effect": "offset_onset<=plain:50/50",
    "echelon_effect": "svd_rank=10;echelon_rank=10",
}
# fig1's covdet determinants for m = 6..8 are rounding noise (about 1e-86
# to 1e-121) whose digits and signs vary by platform; they only have to
# stay below this floor.
COVDET_NOISE_FLOOR = 1e-80
COVDET_NOISE_ORDERS = {"6", "7", "8"}


def parse_sections(text: str) -> dict[str, list[list[str]]]:
    """Split an experiment CSV into {section name: data rows (split on commas)}."""
    sections: dict[str, list[list[str]]] = {}
    current = None
    expect_header = False
    for line in text.splitlines():
        if line.startswith("# section: "):
            current = line.removeprefix("# section: ").strip()
            sections[current] = []
            expect_header = True
        elif line.startswith("#"):
            continue
        elif current is not None:
            if expect_header:
                expect_header = False  # column header row
            else:
                sections[current].append(line.split(","))
    return sections


def reference_onset(sweep) -> int:
    """The first n of a sweep's trailing constant-rank run (n_max if the
    last point stands alone)."""
    ranks = sweep.ranks
    i = len(ranks) - 1
    while i > 0 and ranks[i - 1] == ranks[-1]:
        i -= 1
    return sweep.points[i].n


def _defaults(name: str) -> dict:
    return dict((n, d) for n, _, d in list_experiments())[name]


def _rank(entries) -> int:
    return numerical_rank(singular_values(entries), default_policy(entries.shape)).rank


def _csv_rows(rows) -> list[list[str]]:
    return [[format(x, ".17g") if isinstance(x, float) else str(x) for x in row] for row in rows]


class TestRegistry:
    def test_contains_fig2(self):
        assert "fig2_first_order" in [name for name, _, _ in list_experiments()]

    def test_count_is_eight(self):
        assert len(list_experiments()) == 8

    def test_stable_order(self):
        assert [name for name, _, _ in list_experiments()] == EXPECTED_NAMES

    def test_every_name_round_trips_within_time_budget(self, tmp_path):
        import time

        for name, _, _ in list_experiments():
            start = time.perf_counter()
            summary = run_experiment(ExperimentSpec(name), tmp_path / f"{name}.csv")
            elapsed = time.perf_counter() - start
            assert summary.line().endswith(",ok")
            assert (tmp_path / f"{name}.csv").exists()
            assert elapsed < 60.0, name

    def test_unknown_name_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fig2_first_order"):
            run_experiment(ExperimentSpec("bogus"), tmp_path / "x.csv")

    def test_unknown_parameter_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="nope"):
            run_experiment(
                ExperimentSpec("fig2_first_order", {"nope": 1}), tmp_path / "x.csv"
            )


    @pytest.mark.parametrize(
        "key, value", [("n_max", 8.7), ("n_max", "eight"), ("q", "fast"), ("count", float("inf"))]
    )
    def test_override_must_round_trip_through_default_type(self, tmp_path, key, value):
        with pytest.raises(ValueError, match=f"parameter {key} expects"):
            run_experiment(ExperimentSpec("fig2_first_order", {key: value}), tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()

    def test_fractional_seed_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="parameter seed expects int, got 3.7"):
            run_experiment(ExperimentSpec("echelon_effect", seed=3.7), tmp_path / "x.csv")

    def test_lossless_overrides_accepted(self, tmp_path):
        path = tmp_path / "x.csv"
        run_experiment(ExperimentSpec("fig2_first_order", {"n_max": 8.0, "q": 1, "count": "30"}), path)
        text = path.read_text()
        for line in ("# param n_max: 8", "# param q: 1", "# param count: 30"):
            assert line in text.splitlines()


def _split_covdet_noise(text: str) -> tuple[list[str], dict[str, float]]:
    """(every line but fig1's covdet noise rows, {m: |det|} of those rows)."""
    kept, noise, section = [], {}, None
    for line in text.splitlines():
        if line.startswith("# section: "):
            section = line.removeprefix("# section: ")
        m, _, det = line.partition(",")
        if section == "covdet" and m in COVDET_NOISE_ORDERS:
            noise[m] = abs(float(det))
        else:
            kept.append(line)
    return kept, noise


class TestGoldens:
    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_regenerates_committed_artifact(self, tmp_path, name):
        out = tmp_path / f"{name}.csv"
        summary = run_experiment(ExperimentSpec(name), out)
        assert summary.headline == GOLDEN_HEADLINES[name]
        fresh, golden = out.read_bytes(), (GOLDEN_DIR / f"{name}.csv").read_bytes()
        if name != "fig1_table1_y5":
            assert fresh == golden
            return
        (fresh_kept, fresh_noise), (golden_kept, golden_noise) = (
            _split_covdet_noise(b.decode("utf-8")) for b in (fresh, golden)
        )
        assert fresh_kept == golden_kept
        for noise in (fresh_noise, golden_noise):
            assert set(noise) == COVDET_NOISE_ORDERS
            assert max(noise.values()) < COVDET_NOISE_FLOOR


class TestHeaders:
    def test_parameters_and_seed_echoed(self, tmp_path):
        path = tmp_path / "fig2.csv"
        run_experiment(ExperimentSpec("fig2_first_order"), path)
        text = path.read_text()
        assert "# experiment: fig2_first_order" in text
        assert "# seed: 20" in text
        assert "# param count: 40" in text
        assert "# param q: 0.5" in text
        assert "# artifact_version:" in text

    def test_override_echoed(self, tmp_path):
        path = tmp_path / "fig1.csv"
        run_experiment(ExperimentSpec("fig1_table1_y5", {"p_max": 12}), path)
        assert "# param p_max: 12" in path.read_text()

    def test_seed_override_echoed(self, tmp_path):
        path = tmp_path / "fig3.csv"
        run_experiment(ExperimentSpec("fig3_pole_proximity", seed=77), path)
        assert "# seed: 77" in path.read_text()


class TestFig2:
    def test_every_row_has_rank_one(self, tmp_path):
        path = tmp_path / "fig2.csv"
        summary = run_experiment(ExperimentSpec("fig2_first_order"), path)
        assert summary.headline == "order=1"
        rows = parse_sections(path.read_text())["sweep"]
        assert len(rows) == 9
        assert all(row[1] == "1" for row in rows)


class TestFig3:
    def test_grid_shape_and_q0(self, tmp_path):
        path = tmp_path / "fig3.csv"
        summary = run_experiment(ExperimentSpec("fig3_pole_proximity"), path)
        assert summary.headline.startswith("q0=")
        q0 = int(summary.headline.removeprefix("q0="))
        assert q0 > 8
        rows = parse_sections(path.read_text())["rank_grid"]
        assert len(rows) == 3 * 16 * 7  # noise levels x q x n

    def test_noise_free_rows_have_rank_two(self, tmp_path):
        path = tmp_path / "fig3.csv"
        run_experiment(ExperimentSpec("fig3_pole_proximity"), path)
        rows = parse_sections(path.read_text())["rank_grid"]
        clean = [r for r in rows if float(r[0]) == 0.0]
        assert all(int(r[3]) in (1, 2) for r in clean)
        assert any(int(r[3]) == 2 for r in clean)

    @staticmethod
    def _scan_q0(params: dict):
        """The q0 scan on its own: square H_{n_max} of each clean signal,
        one at a time, until the rank drops below 2."""
        for q in range(1, params["q_scan_max"] + 1):
            clean = gen_mode_sum(pole_pair_modes(params["p"], q), params["count"])
            if _rank(build_hankel(clean, params["n_max"]).entries) < 2:
                return q
        return None

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"q_min": 5}, {"q_min": 5, "q_max": 4}, {"n_min": 9, "n_max": 8}, {"q_scan_max": 3}, {"q_max": 30}],
    )
    def test_q0_equals_the_scan_on_its_own(self, tmp_path, overrides):
        summary = run_experiment(ExperimentSpec("fig3_pole_proximity", overrides), tmp_path / "fig3.csv")
        q0 = self._scan_q0({**_defaults("fig3_pole_proximity"), **overrides})
        assert summary.headline == f"q0={q0 if q0 is not None else 'none'}"

    def test_scan_computes_no_rank_the_grid_holds(self, tmp_path, monkeypatch):
        synthesised, swept = [], []

        def recording_modes(p, q):
            synthesised.append(q)
            return pole_pair_modes(p, q)

        def recording_sweeps(samples, n_max, columns, n_min=2):
            swept.append((len(samples), n_min))
            return _sweep_points(samples, n_max, columns, n_min)

        monkeypatch.setattr(experiments, "pole_pair_modes", recording_modes)
        monkeypatch.setattr(experiments, "_sweep_points", recording_sweeps)
        summary = run_experiment(ExperimentSpec("fig3_pole_proximity"), tmp_path / "fig3.csv")
        assert summary.headline == "q0=18"
        # the grid's 16 clean signals, then only the q past the grid up to q0
        assert synthesised == list(range(1, 17)) + [17, 18]
        assert swept == [(48, 2), (1, 8), (1, 8)]


class TestFig1Table1:
    def test_headline_order_five_and_sections(self, tmp_path):
        path = tmp_path / "fig1.csv"
        summary = run_experiment(ExperimentSpec("fig1_table1_y5"), path)
        assert summary.headline == "order=5"
        sections = parse_sections(path.read_text())
        assert set(sections) == {"hokalman_sweep", "aic", "covdet"}
        assert len(sections["aic"]) == 10
        assert len(sections["covdet"]) == 7


class TestFig5:
    def test_extended_condition_is_monotone(self, tmp_path):
        path = tmp_path / "fig5.csv"
        run_experiment(ExperimentSpec("fig5_high_order_exp"), path)
        rows = parse_sections(path.read_text())["condition_extended"]
        conds = [float(r[1]) for r in rows]
        assert [int(r[0]) for r in rows] == list(range(2, 11))
        assert all(b > a for a, b in zip(conds, conds[1:]))
        assert conds[-1] > 1e20  # far beyond the float64 SVD saturation point


class TestSec33:
    def test_all_three_ranks_are_two(self, tmp_path):
        path = tmp_path / "sec33.csv"
        summary = run_experiment(ExperimentSpec("sec33_nonhomogeneous"), path)
        assert summary.headline == "rank=2;aug_bottom=2;aug_right=2"
        rows = parse_sections(path.read_text())["ranks"]
        assert [(r[0], r[3]) for r in rows] == [
            ("unaugmented", "2"),
            ("augmented_bottom", "2"),
            ("augmented_right", "2"),
        ]

    def test_three_ranks_in_one_decision_at_their_default_cuts(self, tmp_path, monkeypatch):
        decide, calls = estimators._decide, []

        def recording(spectra, lengths, kind, value):
            calls.append((spectra.shape, lengths.ravel().tolist(), kind, value.ravel().tolist()))
            return decide(spectra, lengths, kind, value)

        monkeypatch.setattr(estimators, "_decide", recording)
        run_experiment(ExperimentSpec("sec33_nonhomogeneous"), tmp_path / "sec33.csv")
        # 10 x 10, 11 x 10 and 10 x 11: cut max(rows, cols) * eps each
        eps = np.finfo(float).eps
        assert calls == [((3, 1, 11), [10, 10, 10], "relative_threshold", [10 * eps, 11 * eps, 11 * eps])]


class TestOffsetEffect:
    @staticmethod
    def _reference(params: dict, seed: int) -> dict[str, list[list[str]]]:
        """The offset rows from one Signal per sweep: two add_noise calls
        with the same NoiseSpec per trial, each signal swept on its own."""
        count, n_max = params["count"], params["n_max"]
        base = gen_mode_sum(ModeSum([Mode(1.0, params["q"])]), count)
        shifted = add_offset(base, params["offset"])
        amp = experiments._noise_amplitude(base.samples, params["snr_db"])

        def sweep(signal):
            return _rank_sweeps(signal.samples[None], n_max, "all", None)[0]

        free = [(label, p.n, p.rank) for label, s in (("plain", base), ("offset", shifted)) for p in sweep(s).points]
        onsets = []
        for t in range(params["trials"]):
            noise = NoiseSpec(amp, seed + t)
            on_plain, on_offset = (reference_onset(sweep(add_noise(s, noise))) for s in (base, shifted))
            onsets.append((t, on_plain, on_offset))
        return {"noise_free_sweep": _csv_rows(free), "onsets": _csv_rows(onsets)}

    @pytest.mark.parametrize("overrides", [{}, {"snr_db": math.inf}, {"count": 400}, {"n_max": 2}])
    def test_rows_equal_one_signal_per_sweep(self, tmp_path, overrides):
        path = tmp_path / "offset.csv"
        run_experiment(ExperimentSpec("offset_effect", overrides), path)
        params = {**_defaults("offset_effect"), **overrides}
        assert parse_sections(path.read_text()) == self._reference(params, 80)

    def test_one_noise_draw_per_trial(self, tmp_path, monkeypatch):
        seeds = []
        default_rng = np.random.default_rng

        def counting(seed=None):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        run_experiment(ExperimentSpec("offset_effect", {"trials": 7}), tmp_path / "offset.csv")
        assert seeds == list(range(80, 87))

    def test_onsets_reported_for_every_trial(self, tmp_path):
        path = tmp_path / "offset.csv"
        summary = run_experiment(ExperimentSpec("offset_effect"), path)
        sections = parse_sections(path.read_text())
        assert len(sections["onsets"]) == 50
        favourable = int(summary.headline.split(":")[1].split("/")[0])
        assert favourable > 25

    def test_noise_free_sweeps_show_orders_one_and_two(self, tmp_path):
        path = tmp_path / "offset.csv"
        run_experiment(ExperimentSpec("offset_effect"), path)
        rows = parse_sections(path.read_text())["noise_free_sweep"]
        plain = [int(r[2]) for r in rows if r[0] == "plain"]
        offset = [int(r[2]) for r in rows if r[0] == "offset"]
        assert plain == [1] * 9
        assert offset == [2] * 9


# ---------------------------------------------------------------------------
# fig3's and offset_effect's noisy stacks against the row-at-a-time
# construction they replaced: one seeded generator per noisy row, each row
# copied into the stack in turn


def _reference_noisy(samples, noise):
    if noise.amplitude == 0.0:
        return samples
    rng = np.random.default_rng(noise.seed)
    with np.errstate(over="ignore"):
        return samples + rng.uniform(-noise.amplitude, noise.amplitude, samples.shape[-1])


def _reference_stack(rows, k, count):
    out = np.fromiter(rows, np.dtype((float, count)), count=k)
    if not np.isfinite(out).all():
        raise ValueError("samples must all be finite")
    return out


def _reference_fig3_stack(params, seed):
    count = params["count"]
    levels = [0.0, params["noise_rel_small"], params["noise_rel_large"]]
    qs = range(params["q_min"], params["q_max"] + 1)
    cleans = {q: gen_mode_sum(pole_pair_modes(params["p"], q), count).samples for q in qs}
    grid = list(itertools.product(range(len(levels)), qs))

    def row(level_idx, q):
        clean, rel = cleans[q], levels[level_idx]
        if rel > 0.0:
            amp = rel * float(np.abs(clean).max())
            return _reference_noisy(clean, NoiseSpec(amp, seed + 97 * q + level_idx))
        return clean

    return _reference_stack(itertools.starmap(row, grid), len(grid), count)


def _reference_offset_stack(params, seed):
    count = params["count"]
    base = gen_mode_sum(ModeSum([Mode(1.0, params["q"])]), count)
    pair = np.stack([base.samples, add_offset(base, params["offset"]).samples])
    amp = experiments._noise_amplitude(base.samples, params["snr_db"])

    def rows():
        yield from pair
        for t in range(params["trials"]):
            yield from _reference_noisy(pair, NoiseSpec(amp, seed + t))

    return _reference_stack(rows(), 2 + 2 * params["trials"], count)


_REFERENCE_STACKS = {"fig3_pole_proximity": _reference_fig3_stack, "offset_effect": _reference_offset_stack}


class TestNoiseStacks:
    @pytest.mark.parametrize(
        "name, overrides, seed",
        [
            *[("fig3_pole_proximity", {}, seed) for seed in (None, 0, 1, -98)],
            ("fig3_pole_proximity", {"noise_rel_small": 0.0}, None),
            ("fig3_pole_proximity", {"q_min": 5, "q_max": 4}, None),  # an empty grid
            *[("offset_effect", {}, seed) for seed in (None, 0, 1, -98)],  # -98: a negative trial seed
            ("offset_effect", {"snr_db": math.inf}, None),
            ("offset_effect", {"trials": 0}, None),
            ("offset_effect", {"count": 400}, None),
            ("offset_effect", {"offset": 1.7e308, "snr_db": -6150.0}, None),  # the noisy sums overflow
        ],
    )
    def test_stack_matches_the_row_at_a_time_construction_bit_for_bit(
        self, tmp_path, monkeypatch, name, overrides, seed
    ):
        exp = experiments._REGISTRY[name]
        params = {**exp.defaults, **overrides}
        try:
            want = _REFERENCE_STACKS[name](params, exp.default_seed if seed is None else seed)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                run_experiment(ExperimentSpec(name, overrides, seed), tmp_path / "out.csv")
            assert str(got.value) == str(exc)
            return
        stacks, noisy_rows = [], experiments._noisy_rows

        def recording(*args):
            stacks.append(noisy_rows(*args))
            return stacks[-1]

        monkeypatch.setattr(experiments, "_noisy_rows", recording)
        run_experiment(ExperimentSpec(name, overrides, seed), tmp_path / "out.csv")
        [stack] = stacks
        stack = stack.reshape(-1, params["count"])
        assert stack.shape == want.shape
        assert stack.tobytes() == want.tobytes()


class TestEchelonEffect:
    def test_comparison_rows(self, tmp_path):
        path = tmp_path / "echelon.csv"
        summary = run_experiment(ExperimentSpec("echelon_effect"), path)
        rows = parse_sections(path.read_text())["comparison"]
        assert len(rows) == 9
        assert summary.headline.startswith("svd_rank=")

    @pytest.mark.parametrize("count", [40, 15, 10])
    def test_svd_ranks_equal_one_matrix_at_a_time(self, tmp_path, count):
        # below 2 n_max - 1 samples the n x (count - n + 1) matrices turn tall
        path = tmp_path / "echelon.csv"
        run_experiment(ExperimentSpec("echelon_effect", {"count": count}), path)
        params = {**_defaults("echelon_effect"), "count": count}
        base = gen_mode_sum(ModeSum([Mode(1.0, params["q"])]), count)
        noisy = add_noise(base, NoiseSpec(experiments._noise_amplitude(base.samples, params["snr_db"]), 90))
        ranks = [_rank(build_rectangular_hankel(noisy, n, count - n + 1).entries) for n in range(2, 11)]
        assert [int(r[1]) for r in parse_sections(path.read_text())["comparison"]] == ranks


class TestDeterminism:
    @pytest.mark.parametrize("name", ["fig3_pole_proximity", "offset_effect", "echelon_effect"])
    def test_noisy_experiments_are_byte_identical_across_reruns(self, tmp_path, name):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_experiment(ExperimentSpec(name), a)
        run_experiment(ExperimentSpec(name), b)
        assert a.read_bytes() == b.read_bytes()


def _svd_r_conditions(n0, m, n_values, dps):
    """Direct reference for the fig5 condition log: every sample term
    e^(-n/k) evaluated on its own and sigma_1 / sigma_n from mpmath.svd_r."""
    out = []
    with mpmath.workdps(dps):
        vals = []
        for n in range(2 * max(n_values) - 1):
            acc = mpmath.mpf(0)
            for k in range(1, m * n0 + 1):
                acc += mpmath.e ** (mpmath.mpf(-n) / k)
            vals.append(acc / n0)
        for n in n_values:
            mat = mpmath.matrix([[vals[i + j] for j in range(n)] for i in range(n)])
            svals = mpmath.svd_r(mat, compute_uv=False)
            out.append((n, float(svals[0] / svals[n - 1])))
    return out


class TestFig5ConditionLog:
    def test_power_table_and_eigsy_match_svd_reference(self):
        args = (7, 2, range(2, 8), 40)
        assert _exp_family_conditions(*args) == _svd_r_conditions(*args)

    @pytest.mark.parametrize(
        "n0, m, n_values, dps",
        [(50, 1, range(2, 14), 50), (20, 1, range(2, 13), 50), (50, 2, range(2, 11), 60), (3, 1, range(2, 4), 30)],
    )
    def test_nested_cholesky_matches_svd_reference(self, n0, m, n_values, dps):
        assert _exp_family_conditions(n0, m, n_values, dps) == _svd_r_conditions(n0, m, n_values, dps)

    def test_singular_rows_past_the_order_are_infinite(self):
        conds = _exp_family_conditions(3, 1, range(2, 6), 50)
        assert conds[:2] == _svd_r_conditions(3, 1, range(2, 4), 50)
        assert conds[2:] == [(4, math.inf), (5, math.inf)]

    def test_too_few_digits_for_the_requested_n_is_rejected(self):
        with pytest.raises(ValueError, match="cond_dps=20 is too low"):
            _exp_family_conditions(50, 1, range(2, 13), 20)

    def test_rows_past_the_error_bound_are_rejected(self, monkeypatch):
        # n * cond * 1e-50 is 8.6e-16 at n = 13 and 3.6e-12 at n = 14; the
        # rows below the bound are exactly the ones a 120-digit run confirms
        resolved = _exp_family_conditions(50, 1, range(2, 14), 50)
        reference = _exp_family_conditions(50, 1, range(2, 15), 120)
        assert resolved == reference[:-1]
        with monkeypatch.context() as m:
            m.setattr(experiments, "_COND_LOG10_RESOLUTION", math.inf)
            assert _exp_family_conditions(50, 1, [14], 50) != reference[-1:]
        for top in (14, 18):
            with pytest.raises(ValueError, match=r"cond_dps=50 is too low: H_14 has condition 2\.59e\+37"):
                _exp_family_conditions(50, 1, range(2, top + 1), 50)

    def test_never_calls_mpmath_svd(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an mpmath SVD or eigensolver called")

        monkeypatch.setattr(mpmath, "svd_r", refuse)
        monkeypatch.setattr(mpmath, "eigsy", refuse)
        summary = run_experiment(ExperimentSpec("fig5_high_order_exp"), tmp_path / "fig5.csv")
        assert summary.headline == GOLDEN_HEADLINES["fig5_high_order_exp"]


class _NoMpmath:
    def __getattr__(self, name):
        raise AssertionError(f"mpmath.{name} used")


class TestFig5WithoutMpmath:
    def test_condition_log_and_fig5_make_no_mpmath_call(self, tmp_path, monkeypatch):
        expected = _exp_family_conditions(50, 1, range(2, 14), 50)
        monkeypatch.setattr(experiments, "mpmath", _NoMpmath())
        assert _exp_family_conditions(50, 1, range(2, 14), 50) == expected
        out = tmp_path / "fig5_high_order_exp.csv"
        summary = run_experiment(ExperimentSpec("fig5_high_order_exp"), out)
        assert summary.headline == GOLDEN_HEADLINES["fig5_high_order_exp"]
        assert out.read_bytes() == (GOLDEN_DIR / out.name).read_bytes()

    def test_caller_context_does_not_leak_in(self):
        expected = _exp_family_conditions(50, 1, range(2, 11), 50)
        with decimal.localcontext(decimal.Context(prec=5, rounding=decimal.ROUND_FLOOR)):
            assert _exp_family_conditions(50, 1, range(2, 11), 50) == expected


class TestBatchedSvdCalls:
    """The experiments stack their small SVDs; counted, so nothing is timed."""

    @staticmethod
    def _svd_shapes(name, tmp_path, monkeypatch) -> list[tuple[int, ...]]:
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        summary = run_experiment(ExperimentSpec(name), tmp_path / f"{name}.csv")
        assert summary.headline == GOLDEN_HEADLINES[name]
        return calls

    def test_offset_effect_one_call_per_n_and_stack(self, tmp_path, monkeypatch):
        n_max = dict((n, d) for n, _, d in list_experiments())["offset_effect"]["n_max"]
        assert len(self._svd_shapes("offset_effect", tmp_path, monkeypatch)) <= 2 * (n_max - 1)

    def test_offset_effect_decides_only_what_its_onsets_need(self, tmp_path, monkeypatch):
        # the 2 noise-free sweeps at n = 2..10; every noisy signal has full
        # rank 10 at n_max = 10, which the 9 values at n = 9 cannot hold, so
        # each of the 100 is decided at n = 10 only
        shapes = self._svd_shapes("offset_effect", tmp_path, monkeypatch)
        assert sum(math.prod(shape[:-2]) for shape in shapes) == 118 == 2 * 9 + 100
        assert len(shapes) == 10

    def test_fig3_grid_is_stacked(self, tmp_path, monkeypatch):
        assert len(self._svd_shapes("fig3_pole_proximity", tmp_path, monkeypatch)) <= 40
