import math
import os
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hankelorder import (
    Mode,
    ModeSum,
    NoiseSpec,
    Signal,
    add_noise,
    add_offset,
    gen_high_order,
    gen_mode_sum,
    gen_nonhomogeneous,
    gen_y5,
    pole_pair_modes,
    rational_mode_sum,
    read_signal_csv,
    snr_db,
    write_pair_csv,
    write_signal_csv,
)
from hankelorder.signals import _fmt, _noisy_rows

LN2 = math.log(2.0)


class TestModeSum:
    def test_duplicate_modes_merge_by_summing_coefficients(self):
        spec = ModeSum([Mode(1.0, 0.3), Mode(1.0, 0.3)])
        assert spec.modes == (Mode(2.0, 0.3),)
        assert spec.true_order == 1

    def test_zero_coefficients_dropped(self):
        spec = ModeSum([Mode(0.0, 0.3), Mode(1.0, 0.5)])
        assert len(spec.modes) == 1

    def test_cancelling_duplicates_drop_out(self):
        spec = ModeSum([Mode(1.5, 0.3), Mode(-1.5, 0.3)])
        assert spec.modes == ()
        assert spec.true_order == 0

    def test_oscillatory_mode_counts_double(self):
        assert ModeSum([Mode(1.0, 0.1, 0.7)]).true_order == 2
        assert ModeSum([Mode(1.0, 0.1, 0.7), Mode(1.0, 0.2)]).true_order == 3

    def test_frequency_sign_is_canonicalized(self):
        spec = ModeSum([Mode(1.0, 0.1, -0.7), Mode(1.0, 0.1, 0.7)])
        assert spec.modes == (Mode(2.0, 0.1, 0.7),)

    def test_non_finite_mode_rejected(self):
        with pytest.raises(ValueError):
            Mode(math.inf, 0.1)


class TestGenModeSum:
    def test_geometric_sequence_is_exact(self):
        sig = gen_mode_sum(ModeSum([Mode(1.0, LN2)]), 5)
        assert sig.samples.tolist() == [1.0, 0.5, 0.25, 0.125, 0.0625]
        assert sig.true_order == 1

    def test_merged_duplicate_gives_doubled_geometric(self):
        sig = gen_mode_sum(ModeSum([Mode(1.0, LN2), Mode(1.0, LN2)]), 4)
        assert sig.samples.tolist() == [2.0, 1.0, 0.5, 0.25]
        assert sig.true_order == 1

    def test_pole_pair_first_sample(self):
        # 0.5 + (0.5 + 2**-3) at n = 0
        sig = gen_mode_sum(pole_pair_modes(p=10.0, q=3), 3)
        assert sig.samples[0] == 1.125

    def test_count_zero_rejected(self):
        with pytest.raises(ValueError):
            gen_mode_sum(ModeSum([Mode(1.0, 0.5)]), 0)

    def test_permutation_invariance_is_bitwise(self):
        modes = [Mode(0.7, 0.2), Mode(-1.3, 0.5, 1.1), Mode(2.0, 0.9)]
        a = gen_mode_sum(ModeSum(modes), 12).samples
        b = gen_mode_sum(ModeSum(modes[::-1]), 12).samples
        assert np.array_equal(a, b)

    def test_determinism(self):
        spec = ModeSum([Mode(1.0, 0.25, 0.4)])
        a = gen_mode_sum(spec, 20, 0.5).samples
        b = gen_mode_sum(spec, 20, 0.5).samples
        assert np.array_equal(a, b)

    def test_sample_period_scales_exponent(self):
        sig = gen_mode_sum(ModeSum([Mode(1.0, 1.0)]), 3, sample_period=2.0)
        assert sig.samples == pytest.approx([1.0, math.exp(-2.0), math.exp(-4.0)], rel=1e-14)

    @settings(max_examples=150, deadline=None)
    @given(
        decay=st.floats(1e-4, 800.0),
        count=st.integers(1, 60_000),
        sign=st.sampled_from([1.0, -1.0]),
        frequency=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
        period=st.sampled_from([1.0, 0.37, 3.0]),
    )
    @example(decay=1.0 / 70.0, count=60_000, sign=1.0, frequency=0.0, period=1.0)
    @example(decay=math.log(2.0), count=1080, sign=-1.0, frequency=0.0, period=1.0)
    def test_underflow_skip_is_byte_identical(self, decay, count, sign, frequency, period):
        # reference: every sample through np.power, as before the skip
        spec = ModeSum([Mode(sign * 0.6, decay, frequency), Mode(0.3, 0.25 * decay)])
        n = np.arange(count, dtype=float)
        want = np.zeros(count)
        for m in spec.modes:
            term = m.coefficient * np.power(math.exp(-m.decay_rate * period), n)
            if m.angular_frequency != 0.0:
                term = term * np.cos(m.angular_frequency * period * n)
            want += term
        assert gen_mode_sum(spec, count, period).samples.tobytes() == want.tobytes()

    @pytest.mark.parametrize("decay, count", [(-800.0, 5), (-800.0, 2), (-1.0, 1000), (-400.0, 3)])
    def test_overflowing_mode_rejected_by_name(self, decay, count):
        with pytest.raises(ValueError, match=re.escape(f"Mode(coefficient=1.0, decay_rate={decay}")):
            gen_mode_sum(ModeSum([Mode(1.0, decay)]), count)

    def test_growing_mode_within_range_is_kept(self):
        assert gen_mode_sum(ModeSum([Mode(1.0, -800.0)]), 1).samples.tolist() == [1.0]
        assert gen_mode_sum(ModeSum([Mode(1.0, -LN2)]), 4).samples.tolist() == [1.0, 2.0, 4.0, 8.0]

    def test_phase_past_float_range_rejected_by_name(self):
        with pytest.raises(ValueError, match=re.escape("angular_frequency=1e+306) has a phase past float range")):
            gen_mode_sum(ModeSum([Mode(1.0, 0.0, 1e306)]), 439)

    def test_overflowing_sum_rejected(self):
        with pytest.raises(ValueError, match="samples must all be finite"):
            gen_mode_sum(ModeSum([Mode(1e308, 0.0), Mode(1e308, 1e-300, 1e-3)]), 3)

    def test_overflowing_merged_coefficient_rejected_by_name(self):
        with pytest.raises(ValueError, match="decay_rate=0, angular_frequency=0 sum past float range"):
            ModeSum([Mode(1e308, 0.0), Mode(1e308, 0.0)])

    @pytest.mark.parametrize("period", [0.0, -1.0, math.inf, math.nan])
    def test_bad_sample_period_rejected_before_synthesis(self, period):
        for generate in (
            lambda: gen_mode_sum(ModeSum([Mode(1.0, 0.5)]), 5, period),
            lambda: gen_high_order("sinusoid", 2, 5, sample_period=period),
            lambda: gen_nonhomogeneous(5, period),
        ):
            with pytest.raises(ValueError, match="sample_period must be finite and > 0"):
                generate()


class TestGenY5:
    def test_first_sample_matches_direct_summation(self):
        # oracle: evaluate the seven-term closed form at n = 0 directly
        expected = math.fsum(
            (-1) ** (k + 1) * math.sin(2 * math.pi * k / 3) for k in range(1, 8)
        ) / 7.0
        sig = gen_y5(1)
        assert sig.samples[0] == pytest.approx(expected, abs=1e-15)
        assert sig.samples[0] == pytest.approx(math.sqrt(3) / 14, abs=1e-15)

    def test_five_of_seven_modes_survive(self):
        # oracle: enumerate sin(2*pi*k/3) for k = 1..7 and count non-zeros
        nonzero = sum(abs(math.sin(2 * math.pi * k / 3)) > 1e-12 for k in range(1, 8))
        sig = gen_y5(10)
        assert nonzero == 5
        assert len(sig.modes.modes) == 5

    def test_true_order_is_five(self):
        assert gen_y5(20).true_order == 5

    def test_matches_explicit_mode_sum_within_1e12(self):
        count = 30
        explicit = np.zeros(count)
        n = np.arange(count)
        for k in (1, 2, 4, 5, 7):
            c = (-1) ** (k + 1) * math.sin(2 * math.pi * k / 3) / 7.0
            explicit += c * np.exp(-n / (10.0 * k))
        assert np.max(np.abs(gen_y5(count).samples - explicit)) < 1e-12


class TestGenHighOrder:
    def test_single_exponential_term(self):
        sig = gen_high_order("exponential", 1, 3)
        assert sig.samples == pytest.approx([1.0, math.exp(-1.0), math.exp(-2.0)], rel=1e-14)
        assert sig.true_order == 1

    def test_two_term_exponential_direct_sum(self):
        # oracle: direct summation with s = [1, 2]
        sig = gen_high_order("exponential", 2, 2, schedule=[1.0, 2.0])
        assert sig.samples[0] == pytest.approx(1.0, rel=1e-14)
        assert sig.samples[1] == pytest.approx((math.exp(-1.0) + math.exp(-0.5)) / 2.0, rel=1e-14)

    def test_sinusoid_direct_sum(self):
        sig = gen_high_order("sinusoid", 2, 4, schedule=[1.0, 3.0])
        n = np.arange(4.0)
        expected = (np.sin(n / 1.0) + np.sin(n / 3.0)) / 2.0
        assert sig.samples == pytest.approx(expected, abs=1e-15)
        assert sig.true_order == 4  # two sinusoids, two poles each

    def test_default_schedule_is_k(self):
        a = gen_high_order("exponential", 3, 5)
        b = gen_high_order("exponential", 3, 5, schedule=[1.0, 2.0, 3.0])
        assert np.array_equal(a.samples, b.samples)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            gen_high_order("exponential", 2, 5, schedule=[1.0, 0.0])

    def test_short_schedule_rejected(self):
        with pytest.raises(ValueError):
            gen_high_order("exponential", 3, 5, schedule=[1.0, 2.0])

    def test_unknown_base_function_rejected(self):
        with pytest.raises(ValueError):
            gen_high_order("gaussian", 2, 5)


class TestGenNonhomogeneous:
    def test_initial_condition_zero(self):
        y, _ = gen_nonhomogeneous(10)
        assert y.samples[0] == 0.0

    def test_two_modes_and_input_mode(self):
        y, u = gen_nonhomogeneous(10)
        assert y.true_order == 2
        assert u.true_order == 1

    def test_particular_solution_amplitude(self):
        # oracle: substituting A*exp(-t/8) into y' + 0.9 y = exp(-t/8)
        # gives A * (0.9 - 1/8) = 1
        amp = 1.0 / (0.9 - 0.125)
        assert amp == pytest.approx(1.2903225806451613, rel=1e-15)
        y, _ = gen_nonhomogeneous(6)
        t = np.arange(6.0)
        expected = amp * (np.exp(-t / 8.0) - np.exp(-0.9 * t))
        assert y.samples == pytest.approx(expected, abs=1e-14)

    def test_discrete_residual_converges_first_order(self):
        errs = []
        for period in (1e-1, 1e-2, 1e-3):
            count = int(round(1.0 / period)) + 1
            y, u = gen_nonhomogeneous(count, sample_period=period)
            deriv = (y.samples[1:] - y.samples[:-1]) / period
            resid = deriv + 0.9 * y.samples[:-1] - u.samples[:-1]
            errs.append(np.max(np.abs(resid)))
        assert errs[0] < 0.2
        assert errs[1] < errs[0] / 5.0
        assert errs[2] < errs[1] / 5.0


class TestNoise:
    def test_zero_amplitude_is_bit_identical(self):
        sig = gen_y5(15)
        out = add_noise(sig, NoiseSpec(0.0, seed=3))
        assert np.array_equal(out.samples, sig.samples)

    def test_fixed_seed_is_deterministic(self):
        sig = gen_y5(25)
        spec = NoiseSpec(0.01, seed=42)
        a = add_noise(sig, spec).samples
        b = add_noise(sig, spec).samples
        assert np.array_equal(a, b)

    def test_uniform_support_bound(self):
        sig = gen_y5(200)
        amp = 0.05
        out = add_noise(sig, NoiseSpec(amp, seed=7))
        assert np.max(np.abs(out.samples - sig.samples)) <= amp

    def test_true_order_survives_modes_do_not(self):
        sig = gen_y5(15)
        out = add_noise(sig, NoiseSpec(1e-3, seed=1))
        assert out.true_order == 5
        assert out.modes is None

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(-1.0, seed=0)

    def test_amplitude_whose_draw_width_overflows_rejected(self):
        half = np.finfo(float).max / 2
        assert NoiseSpec(half).amplitude == half  # [-a, a] is 2a = float max wide
        with pytest.raises(ValueError, match=r"^noise amplitude must be at most float max / 2, got 1e\+308$"):
            NoiseSpec(1e308)
        with pytest.raises(ValueError, match="^noise amplitude must be finite and >= 0$"):
            NoiseSpec(float("inf"))

    def test_stacked_draws_match_one_generator_per_row(self):
        # rows 0 and 2 get no draw and keep their -0.0; row 1's one draw is shared by both its rows
        samples = np.array([[[-0.0, 1.0]] * 2, [[2.0, -0.0], [3.0, 4.0]], [[-0.0, 5.0]] * 2])
        out = _noisy_rows(samples, [None, NoiseSpec(0.5, seed=9), NoiseSpec(0.0, seed=1)])
        draw = np.random.default_rng(9).uniform(-0.5, 0.5, 2)
        want = np.array([samples[0], samples[1] + draw, samples[2]])
        assert out.tobytes() == want.tobytes()
        assert np.signbit(out[[0, 2], :, 0]).all()

    def test_stacked_sum_past_float_range_rejected(self):
        samples = np.array([np.full(20, 1.7e308), np.zeros(20)])
        with pytest.raises(ValueError, match="^samples must all be finite$"):
            _noisy_rows(samples, [NoiseSpec(8e307, seed=0), None])
        with pytest.raises(ValueError, match="^samples must all be finite$"):
            add_noise(Signal(samples[0]), NoiseSpec(8e307, seed=0))


class TestOffset:
    def test_zero_offset_identity(self):
        sig = gen_y5(10)
        assert add_offset(sig, 0.0) is sig

    def test_offset_adds_constant_mode(self):
        base = gen_mode_sum(ModeSum([Mode(1.0, 0.5)]), 20)
        assert add_offset(base, 1.0).true_order == 2

    def test_round_trip_restores_samples_and_order(self):
        base = gen_mode_sum(ModeSum([Mode(1.0, 0.5)]), 20)
        back = add_offset(add_offset(base, 0.75), -0.75)
        assert np.max(np.abs(back.samples - base.samples)) < 1e-15
        assert back.true_order == 1

    def test_offset_merges_with_existing_constant_mode(self):
        base = gen_mode_sum(ModeSum([Mode(2.0, 0.0), Mode(1.0, 0.5)]), 10)
        assert base.true_order == 2
        assert add_offset(base, 1.0).true_order == 2


class TestSnr:
    def test_identical_signals_give_infinity(self):
        sig = gen_y5(20)
        assert snr_db(sig, sig) == math.inf

    def test_scaled_copy_gives_20db(self):
        sig = gen_y5(50)
        noisy = Signal(sig.samples * 1.1)
        assert snr_db(sig, noisy) == pytest.approx(20.0, abs=1e-9)

    def test_uniform_noise_matches_closed_form_rms(self):
        # oracle: rms of Uniform(-a, a) is a/sqrt(3); checked by Monte Carlo
        amp, level = 0.3, 1.0
        sig = Signal(np.full(100_000, level))
        noisy = add_noise(sig, NoiseSpec(amp, seed=42))
        expected = 20.0 * math.log10(level / (amp / math.sqrt(3.0)))
        assert snr_db(sig, noisy) == pytest.approx(expected, abs=0.1)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            snr_db(gen_y5(10), gen_y5(11))


class TestRationalModeSum:
    def test_geometric_is_exact(self):
        samples = rational_mode_sum([(1, Fraction(1, 2))], 4)
        assert samples == [1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
        assert all(isinstance(s, Fraction) for s in samples)

    def test_two_modes(self):
        samples = rational_mode_sum([(1, Fraction(1, 2)), (1, Fraction(1, 3))], 3)
        assert samples == [2, Fraction(5, 6), Fraction(13, 36)]


class TestSignalValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Signal(np.array([]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Signal(np.array([1.0, math.nan]))

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            Signal(np.array([1.0]), sample_period=0.0)

    def test_samples_are_frozen(self):
        sig = gen_y5(5)
        with pytest.raises(ValueError):
            sig.samples[0] = 99.0


class TestCsv:
    def test_round_trip_is_bit_exact(self, tmp_path):
        sig = gen_y5(25)
        path = write_signal_csv(sig, tmp_path / "sig.csv")
        back = read_signal_csv(path)
        assert np.array_equal(back.samples, sig.samples)

    def test_header_and_sidecar(self, tmp_path):
        sig = gen_y5(3)
        path = write_signal_csv(sig, tmp_path / "sig.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "n,value"
        assert len(lines) == 4
        sidecar = tmp_path / "sig.csv.provenance.txt"
        assert sidecar.exists()
        assert "y5" in sidecar.read_text()

    def test_pair_csv(self, tmp_path):
        y, u = gen_nonhomogeneous(5)
        path = write_pair_csv(y, u, tmp_path / "pair.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "n,y,u"
        assert len(lines) == 6
        back = read_signal_csv(path)  # loads the y column
        assert np.array_equal(back.samples, y.samples)

    @pytest.mark.parametrize("row", ["1", "1,", "1,abc", "1,2.0,3.0", "1,nan", "2,1.0", "x,1.0"])
    def test_bad_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"# comment\nn,value\n0,1.0\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"bad\.csv:4: bad row '{re.escape(row)}': .* n = 1 "):
            read_signal_csv(path)

    def test_pair_file_needs_numeric_input_column(self, tmp_path):
        path = tmp_path / "pair.csv"
        path.write_text("n,y,u\n0,1.0,0.5\n1,2.0,\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"pair\.csv:3: .*expected 3 numeric fields"):
            read_signal_csv(path)

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("n,value\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no data rows"):
            read_signal_csv(path)


class TestRewrite:
    """Existing files are overwritten in place and cut to the written length."""

    def test_shorter_rewrite_leaves_no_stale_bytes(self, tmp_path):
        path, fresh = tmp_path / "sig.csv", tmp_path / "fresh.csv"
        write_signal_csv(gen_y5(300), path)
        write_signal_csv(gen_y5(7), path)
        write_signal_csv(gen_y5(7), fresh)
        assert path.read_bytes() == fresh.read_bytes()
        sidecar = tmp_path / "sig.csv.provenance.txt"
        assert sidecar.read_bytes() == (tmp_path / "fresh.csv.provenance.txt").read_bytes()

    def test_existing_file_keeps_inode_and_mode(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("x" * 10_000, encoding="utf-8")
        path.chmod(0o600)
        before = path.stat()
        write_signal_csv(gen_y5(5), path)
        after = path.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert read_signal_csv(path).samples.tobytes() == gen_y5(5).samples.tobytes()

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            path = write_signal_csv(gen_y5(5), tmp_path / "sig.csv")
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == 0o640

    def test_symlink_is_written_through_and_kept(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("stale " * 1000, encoding="utf-8")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        write_signal_csv(gen_y5(5), link)
        assert link.is_symlink()
        assert target.read_text(encoding="utf-8") == write_signal_csv(gen_y5(5), tmp_path / "f.csv").read_text()


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072014e-308 / 3)
@example(1.7976931348623157e308)
def test_fmt_round_trips_every_finite_float_bit_for_bit(x):
    assert float(_fmt(x)).hex() == x.hex()


def test_fmt_infinities_and_non_floats():
    assert _fmt(math.inf) == "inf"
    assert _fmt(-math.inf) == "-inf"
    assert _fmt(12) == "12"
    assert _fmt("augmented_bottom") == "augmented_bottom"


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=30))
def test_pair_csv_loads_y_bit_for_bit(tmp_path_factory, pairs):
    y = Signal(np.array([a for a, _ in pairs]))
    u = Signal(np.array([b for _, b in pairs]))
    path = write_pair_csv(y, u, tmp_path_factory.mktemp("pair") / "pair.csv")
    assert read_signal_csv(path).samples.tobytes() == y.samples.tobytes()


def _reference_read_signal_csv(path):
    """read_signal_csv before its plain-file fast path: every file takes
    the filtered, stripped lines."""
    path = Path(path)
    rows = [
        (lineno, line.strip())
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if line.strip() and not line.startswith("#")
    ]
    if not rows:
        raise ValueError(f"{path}: empty signal file")
    header = [c.strip() for c in rows[0][1].split(",")]
    if header[:2] not in (["n", "value"], ["n", "y"]):
        raise ValueError(f"{path}: expected header 'n,value' or 'n,y,u', got {rows[0][1]!r}")
    if len(rows) == 1:
        raise ValueError(f"{path}: no data rows")
    data = rows[1:]
    try:
        table = np.loadtxt([text for _, text in data], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        table = None
    if (
        table is None
        or table.shape[1] != len(header)
        or not np.array_equal(table[:, 0], np.arange(len(data)))
        or not np.isfinite(table[:, 1]).all()
    ):
        for index, (lineno, text) in enumerate(data):
            try:
                numbers = list(map(float, text.split(",")))
            except ValueError:
                numbers = []
            if len(numbers) != len(header) or numbers[0] != index or not math.isfinite(numbers[1]):
                raise ValueError(
                    f"{path}:{lineno}: bad row {text!r}: expected {len(header)} numeric fields, "
                    f"n = {index} and a finite {header[1]}"
                )
        raise ValueError(f"{path}: unreadable signal data")
    return Signal(samples=table[:, 1], provenance=f"loaded:{path.name}")


_PAD = st.sampled_from(["", "", "", " ", "\t", "\x0b", "\x1c", "\xa0"])
_NUMBER = st.one_of(
    finite.map(repr),
    st.integers(-3, 40).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e309", "", "abc", "\u0663", "1\u0660", "\uff13", "0x1p0", "1_0"]),
)


@st.composite
def _signal_text(draw) -> str:
    """Text near the signal CSV format: mostly well-formed rows, with
    comment, blank and whitespace-only lines, padded fields, mid-line
    '#', wrong or missing fields and assorted line breaks.  Each file
    has its own odds of a damaged row, an inserted odd line and a line
    break other than its usual one, so plain files come up often."""
    header = draw(st.sampled_from(["n,value", "n,value", "n,y,u", " n , value ", "n,value,", "n,x", "#n,value"]))
    width = 3 if header == "n,y,u" else 2
    damage, junk, mixed = (draw(st.sampled_from([0, 0, 2, 8])) for _ in range(3))
    usual = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x1c"]))

    def odds(n: int) -> bool:
        return n > 0 and draw(st.integers(0, n)) == 0

    lines = [header]
    for i in range(draw(st.integers(0, 12))):
        fields = [str(i)] + [repr(draw(finite)) for _ in range(width - 1)]
        if odds(damage):
            k = draw(st.integers(0, len(fields)))
            action = draw(st.sampled_from(["replace", "drop", "extra", "pad", "hash"]))
            if action == "replace" and k < len(fields):
                fields[k] = draw(_NUMBER)
            elif action == "drop" and k < len(fields):
                del fields[k]
            elif action == "extra":
                fields.insert(k, draw(_NUMBER))
            elif action == "pad" and k < len(fields):
                fields[k] = draw(_PAD) + fields[k] + draw(_PAD)
            elif action == "hash":
                fields.insert(k, "#")
        lines.append(",".join(fields))
        if odds(junk):
            lines.insert(draw(st.integers(0, len(lines))),
                         draw(st.sampled_from(["", "# note", " # note", " ", "\t \t", "\x0b", "\x1c", "#"])))
    breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x1c", "\n\n"])
    text = "".join(line + (draw(breaks) if odds(mixed) else usual) for line in lines)
    return text if draw(st.booleans()) else text.rstrip(usual)


def _outcome(reader, path):
    try:
        signal = reader(path)
    except Exception as exc:  # the type and text of any failure must match too
        return type(exc).__name__, str(exc)
    return signal.samples.tobytes(), signal.provenance


# derandomized, so every run of the suite tries the same files
@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=_signal_text())
def test_reader_matches_the_reference_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("read") / "sig.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(read_signal_csv, path) == _outcome(_reference_read_signal_csv, path)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-3, 3).filter(lambda c: abs(c) > 1e-3),
            st.floats(0.01, 2.0),
            st.floats(0, 2.5),
        ),
        min_size=1,
        max_size=4,
    ),
    st.integers(2, 30),
)
def test_generators_are_pure(mode_tuples, count):
    spec = ModeSum([Mode(*t) for t in mode_tuples])
    a = gen_mode_sum(spec, count)
    b = gen_mode_sum(spec, count)
    assert np.array_equal(a.samples, b.samples)
    assert np.all(np.isfinite(a.samples))
