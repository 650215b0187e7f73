import argparse
import contextlib
import io
import math
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from hankelorder import (
    Mode,
    ModeSum,
    RankPolicy,
    Signal,
    aic_order,
    build_hankel,
    covariance_determinants,
    covdet_order,
    default_policy,
    gen_high_order,
    gen_mode_sum,
    gen_nonhomogeneous,
    gen_y5,
    hokalman_order,
    list_experiments,
    numerical_rank,
    read_signal_csv,
    singular_values,
    write_pair_csv,
    write_signal_csv,
    write_sweep_csv,
)
from hankelorder import cli, experiments
from hankelorder.cli import ESTIMATE_METHODS, GENERATE_FAMILIES, _make_parser, main
from hankelorder.estimators import _rank_sweeps


def _y5_csv(tmp_path, count=40):
    return write_signal_csv(gen_y5(count), tmp_path / "y5.csv")


class TestGenerate:
    def test_y5_writes_requested_rows(self, tmp_path, capsys):
        out = tmp_path / "sig.csv"
        code = main(["generate", "y5", "--count", "20", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,value"
        assert len(lines) == 21

    def test_nonhomogeneous_writes_three_columns(self, tmp_path):
        out = tmp_path / "pair.csv"
        code = main(["generate", "nonhomogeneous", "--count", "25", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,y,u"
        assert len(lines) == 26

    @pytest.mark.parametrize(
        "error, message",
        [
            (MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64"),
             "error: Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64\n"),
            (MemoryError(), "error: MemoryError\n"),
        ],
    )
    def test_size_past_memory_exits_two_with_one_line(self, tmp_path, capfd, monkeypatch, error, message):
        # the generator raises as numpy does for --count 1000000000000, without allocating
        def too_large(count):
            raise error

        monkeypatch.setattr(cli, "gen_y5", too_large)
        out = tmp_path / "sig.csv"
        assert main(["generate", "y5", "--count", "1000000000000", "--out", str(out)]) == 2
        assert capfd.readouterr() == ("", message)
        assert not out.exists()

    def test_unknown_family_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["generate", "chirp", "--out", str(tmp_path / "x.csv")])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "modes, message",
        [
            (["--mode", "1,-800"], "error: Mode(coefficient=1.0, decay_rate=-800.0, angular_frequency=0.0) "
                                   "overflows float range within 5 samples of period 1\n"),
            (["--mode", "1e308,0", "--mode", "1e308,0"], "error: the coefficients of the modes with "
                                                         "decay_rate=0, angular_frequency=0 sum past float range\n"),
        ],
    )
    def test_overflowing_modes_exit_two_with_one_line(self, tmp_path, capsys, modes, message):
        out = tmp_path / "m.csv"
        assert main(["generate", "mode_sum", *modes, "--count", "5", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == message
        assert captured.out == ""
        assert not out.exists()

    def test_mode_sum_with_modes(self, tmp_path):
        out = tmp_path / "m.csv"
        code = main(["generate", "mode_sum", "--mode", "1,0.5", "--mode", "2,0.1",
                     "--count", "12", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 13

    @pytest.mark.parametrize(
        "family, flag, readers",
        [
            (family, flag, readers)
            for flag, readers in [
                (["--mode", "1,0.5"], "generate mode_sum"),
                (["--sample-period", "2"], "generate mode_sum, generate high_order, generate nonhomogeneous"),
                (["--f0", "sinusoid"], "generate high_order"),
                (["--n0", "3"], "generate high_order"),
                (["--m", "2"], "generate high_order"),
            ]
            for family in GENERATE_FAMILIES
            if f"generate {family}" not in readers.split(", ")
        ],
    )
    def test_flag_of_another_family_exits_two(self, tmp_path, capsys, family, flag, readers):
        out = tmp_path / "g.csv"
        assert main(["generate", family, *flag, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {flag[0]} applies only to {readers}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, write",
        [
            (["mode_sum", "--mode", "1,0.5", "--sample-period", "0.5"],
             lambda path: write_signal_csv(gen_mode_sum(ModeSum([Mode(1.0, 0.5)]), 40, 0.5), path)),
            (["high_order", "--f0", "sinusoid", "--n0", "3", "--m", "2", "--sample-period", "0.5"],
             lambda path: write_signal_csv(gen_high_order("sinusoid", 3, 40, 2, sample_period=0.5), path)),
            (["nonhomogeneous", "--sample-period", "0.5"],
             lambda path: write_pair_csv(*gen_nonhomogeneous(40, 0.5), path)),
            # flags at their defaults are no misuse
            (["y5", "--sample-period", "1", "--f0", "exponential"], lambda path: write_signal_csv(gen_y5(40), path)),
        ],
    )
    def test_flags_a_family_reads_write_what_the_library_writes(self, tmp_path, argv, write):
        out, fresh = tmp_path / "cli.csv", tmp_path / "lib.csv"
        assert main(["generate", *argv, "--out", str(out)]) == 0
        write(fresh)
        assert out.read_bytes() == fresh.read_bytes()
        sidecar = ".provenance.txt"
        assert out.with_name(out.name + sidecar).read_bytes() == fresh.with_name(fresh.name + sidecar).read_bytes()


class TestRank:
    def test_y5_sweep_headline(self, tmp_path, capsys):
        src = _y5_csv(tmp_path)
        out = tmp_path / "sweep.csv"
        code = main(["rank", str(src), "--n-max", "8", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "order=5"
        assert out.read_text().splitlines()[0] == "n,rank,gap,condition"

    @pytest.mark.parametrize("comment", ["", "# exported\n"])
    def test_csv_with_a_byte_order_mark_reads_as_without_it(self, tmp_path, capsys, comment):
        text = comment + _y5_csv(tmp_path).read_text(encoding="utf-8")
        outputs = []
        for prefix in ("", "\ufeff"):
            src = tmp_path / "in.csv"
            src.write_text(prefix + text, encoding="utf-8")
            out = tmp_path / "sweep.csv"
            assert main(["rank", str(src), "--n-max", "8", "--out", str(out)]) == 0
            outputs.append((capsys.readouterr(), out.read_bytes()))
        assert src.read_bytes().startswith(b"\xef\xbb\xbf")
        assert outputs[1] == outputs[0]
        assert outputs[0][0] == ("order=5\n", "")

    def test_short_file_error_names_required_count(self, tmp_path, capsys):
        src = write_signal_csv(Signal(np.array([1.0, 2.0, 3.0])), tmp_path / "s.csv")
        code = main(["rank", str(src), "--n", "5", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "9" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_constant_signal_order_one(self, tmp_path, capsys):
        src = write_signal_csv(Signal(np.full(20, 3.0)), tmp_path / "c.csv")
        code = main(["rank", str(src), "--n-max", "6", "--out", str(tmp_path / "o.csv")])
        assert code == 0
        assert capsys.readouterr().out.strip() == "order=1"

    @pytest.mark.parametrize("row", ["1", "1,abc", "5,1.0"])
    def test_malformed_csv_exits_two_with_one_line(self, tmp_path, capsys, row):
        src = tmp_path / "bad.csv"
        src.write_text(f"n,value\n0,1.0\n{row}\n", encoding="utf-8")
        code = main(["rank", str(src), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}:3: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("count", [40, 400])
    @pytest.mark.parametrize("command", [["rank"], ["estimate", "--method", "hokalman"]])
    def test_signal_at_the_float_maximum_reads_order_one(self, tmp_path, capfd, command, count):
        # 40 samples take the dense sweep and 400 the tall one; unscaled,
        # every sigma_1 leaves float range, so both sweep y 2^-1024
        src = write_signal_csv(Signal(np.full(count, 1.7976931348623157e308)), tmp_path / "max.csv")
        out = tmp_path / "o.csv"
        assert main([command[0], str(src), *command[1:], "--out", str(out)]) == 0
        assert capfd.readouterr() == ("order=1\n", "")
        lines = out.read_text().splitlines()
        assert lines[0] == "n,rank,gap,condition"
        assert [line.split(",")[:2] for line in lines[1:]] == [[str(n), "1"] for n in range(2, 9)]

    def test_single_n_at_the_float_maximum_reads_order_one(self, tmp_path, capfd):
        src = write_signal_csv(Signal(np.full(40, 1.7976931348623157e308)), tmp_path / "max.csv")
        out = tmp_path / "o.csv"
        assert main(["rank", str(src), "--n", "5", "--out", str(out)]) == 0
        assert capfd.readouterr() == ("order=1\n", "")
        header, row = out.read_text().splitlines()
        assert header == "n,rank,gap,condition" and row.startswith("5,1,")

    @pytest.mark.parametrize("p_max", ["1", "3"])
    def test_aic_past_float_range_selects_the_exact_order_one_fit(self, tmp_path, capfd, p_max):
        # the order-1 rss of a constant signal this large squares past float range
        src = write_signal_csv(Signal(np.full(9, 6.52e229)), tmp_path / "c.csv")
        out = tmp_path / "o.csv"
        assert main(["estimate", str(src), "--method", "aic", "--p-max", p_max, "--out", str(out)]) == 0
        assert capfd.readouterr() == ("order=1\n", "")
        assert out.read_text().splitlines()[0] == "p,rss,aic"

    def test_long_signal_near_the_float_maximum_is_decided(self, tmp_path, capfd):
        # unscaled, the tall QR path's R leaves float range, though every sigma_1 is finite
        y = np.random.default_rng(1).uniform(-1, 1, 400) * 1e307
        src = write_signal_csv(Signal(y), tmp_path / "big.csv")
        assert main(["rank", str(src), "--n-max", "10", "--out", str(tmp_path / "o.csv")]) == 0
        assert capfd.readouterr() == ("order=inconclusive\n", "")

    def test_single_n_rank(self, tmp_path, capsys):
        src = _y5_csv(tmp_path)
        code = main(["rank", str(src), "--n", "8", "--out", str(tmp_path / "o.csv")])
        assert code == 0
        assert capsys.readouterr().out.strip() == "order=5"

    def test_single_n_one(self, tmp_path, capsys):
        src = _y5_csv(tmp_path)
        out = tmp_path / "o.csv"
        assert main(["rank", str(src), "--n", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().out == "order=1\n"
        assert out.read_text().splitlines() == ["n,rank,gap,condition", "1,1,inf,1"]

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_single_n_below_one_exits_two_naming_the_flag(self, tmp_path, capsys, n):
        out = tmp_path / "o.csv"
        assert main(["rank", str(_y5_csv(tmp_path)), "--n", n, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: --n must be >= 1\n")
        assert not out.exists()

    def test_out_to_dev_null(self, tmp_path, capsys):
        assert main(["rank", str(_y5_csv(tmp_path)), "--out", "/dev/null"]) == 0
        assert capsys.readouterr().out == "order=5\n"

    @pytest.mark.parametrize("family", ["y5", "nonhomogeneous"])
    def test_generate_to_dev_null_writes_no_sidecar_beside_it(self, capsys, family):
        assert main(["generate", family, "--out", "/dev/null"]) == 0
        assert capsys.readouterr() == ("wrote /dev/null\n", "")
        assert not Path("/dev/null.provenance.txt").exists()

    def test_out_to_a_directory_exits_two_with_one_line(self, tmp_path, capsys):
        assert main(["rank", str(_y5_csv(tmp_path)), "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Is a directory" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags, policy",
        [([], None), (["--policy", "gap"], RankPolicy.gap()),
         (["--policy", "absolute", "--tol", "1e-3"], RankPolicy.absolute(1e-3))],
    )
    def test_single_n_row_is_the_square_sweep_point(self, tmp_path, flags, policy):
        src = _y5_csv(tmp_path)
        single = tmp_path / "single.csv"
        assert main(flags + ["rank", str(src), "--n", "7", "--out", str(single)]) == 0
        [sweep] = _rank_sweeps(gen_y5(40).samples[None], 7, "square", policy)
        header, *_, last = write_sweep_csv(sweep, tmp_path / "sweep.csv").read_text().splitlines()
        assert single.read_text().splitlines() == [header, last]

class TestEstimate:
    def test_covdet_report_rows(self, tmp_path, capsys):
        src = _y5_csv(tmp_path)
        out = tmp_path / "cov.csv"
        code = main(["estimate", str(src), "--method", "covdet", "--m-range", "2:8",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "m,det"
        assert len(lines) == 8  # header + 7 rows

    def test_aic_headline(self, tmp_path, capsys):
        src = _y5_csv(tmp_path)
        code = main(["estimate", str(src), "--method", "aic", "--p-max", "10",
                     "--out", str(tmp_path / "a.csv")])
        assert code == 0
        assert capsys.readouterr().out == "order=5\n"

    def test_hokalman_matches_rank_headline(self, tmp_path, capsys):
        src = _y5_csv(tmp_path)
        main(["rank", str(src), "--n-max", "8", "--out", str(tmp_path / "r.csv")])
        rank_line = capsys.readouterr().out.strip()
        main(["estimate", str(src), "--method", "hokalman", "--n-max", "8",
              "--out", str(tmp_path / "h.csv")])
        estimate_line = capsys.readouterr().out.strip()
        assert rank_line == estimate_line == "order=5"

    def test_invalid_method_exits_two(self, tmp_path):
        src = _y5_csv(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(["estimate", str(src), "--method", "prophecy"])
        assert err.value.code == 2


class TestExperiment:
    def test_fig2_runs_and_reports_rank_one(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        code = main(["experiment", "fig2_first_order", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert capsys.readouterr().out.strip() == "fig2_first_order,order=1,ok"

    def test_unknown_name_lists_registry(self, tmp_path, capsys):
        code = main(["experiment", "bogus", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "fig2_first_order" in err
        assert not (tmp_path / "x.csv").exists()

    def test_override_echoed_in_header(self, tmp_path):
        out = tmp_path / "fig1.csv"
        code = main(["experiment", "fig1_table1_y5", "--p-max", "12", "--out", str(out)])
        assert code == 0
        assert "# param p_max: 12" in out.read_text()

    def test_unknown_override_rejected(self, tmp_path, capsys):
        code = main(["experiment", "fig2_first_order", "--warp", "9", "--out",
                     str(tmp_path / "x.csv")])
        assert code == 2

    def test_lossy_override_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["experiment", "fig2_first_order", "--n-max", "8.7", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: parameter n_max expects int, got 8.7\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, flag, value, message",
        [
            ("echelon_effect", "--n-max", "1", "n_max must be >= 2"),
            ("fig5_high_order_exp", "--cond-n-max", "1", "cond_n_max must be >= 2"),
            ("offset_effect", "--trials", "-1", "trials must be >= 0"),
            ("fig3_pole_proximity", "--noise-rel-small", "-1e-6", "noise_rel_small must be >= 0"),
            ("fig3_pole_proximity", "--noise-rel-large", "-5", "noise_rel_large must be >= 0"),
            ("fig3_pole_proximity", "--n-min", "0", "n_min must be >= 1"),
        ],
    )
    def test_out_of_range_override_exits_two(self, tmp_path, capsys, name, flag, value, message):
        out = tmp_path / "x.csv"
        assert main(["experiment", name, flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_override_without_a_value_exits_two_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["experiment", "fig2_first_order", "--out", str(out), "--n-max"]) == 2
        assert capsys.readouterr().err == "error: cannot parse experiment override '--n-max'; use --key value\n"
        assert not out.exists()

    def test_fig5_with_too_few_digits_exits_two_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "fig5.csv"
        assert main(["experiment", "fig5_high_order_exp", "--cond-n-max", "60", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: cond_dps=50 is too low: H_19 is not positive definite at 50 digits\n"
        assert captured.out == ""
        assert not out.exists()

    def test_fig5_rows_past_the_error_bound_exit_two_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "fig5.csv"
        assert main(["experiment", "fig5_high_order_exp", "--cond-n-max", "18", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: cond_dps=50 is too low: H_14 has condition 2.59e+37, "
            "resolved at 50 digits only to about 10^-11 relative\n"
        )
        assert not out.exists()
        assert main(["experiment", "fig5_high_order_exp", "--cond-n-max", "13", "--out", str(out)]) == 0

    def test_fig5_condition_past_the_order_is_inf(self, tmp_path, capsys):
        out = tmp_path / "fig5.csv"
        argv = ["experiment", "fig5_high_order_exp", "--n0", "10", "--cond-n-max", "13", "--out", str(out)]
        assert main(argv) == 0
        lines = out.read_text().splitlines()
        rows = [line.split(",") for line in lines[lines.index("n,condition") + 1 :]]
        assert [n for n, _ in rows] == [str(n) for n in range(2, 14)]
        assert all(float(c) > 1.0 and c != "inf" for _, c in rows[:9])
        assert [c for _, c in rows[9:]] == ["inf"] * 3

    def test_offset_effect_without_trials(self, tmp_path, capsys):
        out = tmp_path / "offset.csv"
        assert main(["experiment", "offset_effect", "--trials", "0", "--out", str(out)]) == 0
        assert capsys.readouterr().out == "offset_effect,offset_onset<=plain:0/0,ok\n"
        lines = out.read_text().splitlines()
        assert lines[-2:] == ["# section: onsets", "trial,onset_plain,onset_offset"]
        assert len([line for line in lines if line.startswith(("plain,", "offset,"))]) == 18

    def test_override_that_prefixes_a_common_flag(self, tmp_path, capsys):
        # fig3's parameter p is not an abbreviation of --policy
        out = tmp_path / "fig3.csv"
        argv = ["experiment", "fig3_pole_proximity", "--p", "12", "--q-max", "3", "--out", str(out)]
        assert main(argv) == 0
        assert "# param p: 12\n" in out.read_text()

    @pytest.mark.parametrize("name", ["offset_effect", "echelon_effect"])
    @pytest.mark.parametrize("snr_db", ["-inf", "6166.0", "-7000.0"])
    def test_snr_past_float_range_exits_two_with_one_line(self, tmp_path, capsys, name, snr_db):
        out = tmp_path / "x.csv"
        assert main(["experiment", name, "--snr-db", snr_db, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: snr_db={float(snr_db)!r} puts the noise amplitude outside float range\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, flag, value, amplitude",
        [
            ("fig3_pole_proximity", "--noise-rel-large", "1e308", "1.5e+308"),
            ("offset_effect", "--snr-db", "-6170", "1.089257788657944e+308"),
            ("echelon_effect", "--snr-db", "-6170", "1.089257788657944e+308"),
        ],
    )
    def test_noise_wider_than_float_range_exits_two_with_one_line(self, tmp_path, capsys, name, flag, value, amplitude):
        # each amplitude is finite, but a draw on [-a, a] spans 2a, past float max
        out = tmp_path / "x.csv"
        assert main(["experiment", name, flag, value, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: noise amplitude must be at most float max / 2, got {amplitude}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_noise_past_float_range_exits_two_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["experiment", "offset_effect", "--offset", "1.7e308", "--snr-db", "-6160", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        assert capsys.readouterr().err == "error: samples must all be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("snr_db, trials", [("40", "50"), ("-6130", "50"), ("40", "0")])
    def test_offset_sweep_past_float_range_prints_its_headline(self, tmp_path, capfd, snr_db, trials):
        # each signal past the sweep bound is swept as y 2^-e on its own
        # (at -6130 dB the noisy plain signals too), so the plain signals
        # read the onsets they read beside a unit offset
        tables = {}
        for offset in ("1.7e308", "1.0"):
            out = tmp_path / f"{offset}.csv"
            argv = ["experiment", "offset_effect", "--offset", offset, "--snr-db", snr_db, "--trials", trials,
                    "--out", str(out)]
            assert main(argv) == 0
            if offset == "1.7e308":
                assert capfd.readouterr() == (f"offset_effect,offset_onset<=plain:{trials}/{trials},ok\n", "")
            lines = out.read_text().splitlines()
            tables[offset] = (lines, [row.split(",") for row in lines[lines.index("trial,onset_plain,onset_offset") + 1 :]])
        lines, onsets = tables["1.7e308"]
        # 1.7e308 swamps the plain signal's values, at most 1: the offset signal is a constant
        assert [line for line in lines if line.startswith("offset,")] == [f"offset,{n},1" for n in range(2, 11)]
        assert len(onsets) == int(trials)
        assert [plain for _, plain, _ in onsets] == [plain for _, plain, _ in tables["1.0"][1]]

    def test_trials_past_memory_exit_two_with_one_line(self, tmp_path, capfd, monkeypatch):
        # the noisy stack raises as numpy does for 10^11 trials, without allocating
        def too_large(samples, noises):
            raise MemoryError("Unable to allocate 5.82 TiB for an array with shape (100000000001, 2, 40) "
                              "and data type float64")

        monkeypatch.setattr(experiments, "_noisy_rows", too_large)
        out = tmp_path / "x.csv"
        assert main(["experiment", "offset_effect", "--trials", "100000000000", "--out", str(out)]) == 2
        assert capfd.readouterr() == ("", "error: Unable to allocate 5.82 TiB for an array with shape "
                                          "(100000000001, 2, 40) and data type float64\n")
        assert not out.exists()

    def test_fig3_pole_spacing_past_float_range_exits_two_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        argv = ["experiment", "fig3_pole_proximity", "--q-min", "-1024", "--q-max", "-1024", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: q=-1024 puts the pole spacing 2^-q outside float range\n")
        assert not out.exists()

    def test_fig3_with_empty_q_range(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        argv = ["experiment", "fig3_pole_proximity", "--q-min", "5", "--q-max", "4", "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().out == "fig3_pole_proximity,q0=18,ok\n"
        assert out.read_text().splitlines()[-2:] == ["# section: rank_grid", "noise,q,n,rank"]

    def test_fig3_negative_q_with_a_negative_seed_names_q_min(self, tmp_path, capfd):
        # noisy rows are seeded with seed + 97 q + i, negative at q = -1 and the default seed 30
        out = tmp_path / "fig3.csv"
        argv = ["experiment", "fig3_pole_proximity", "--q-min", "-1", "--q-max", "1", "--out", str(out)]
        assert main(argv) == 2
        assert capfd.readouterr() == (
            "",
            "error: q_min=-1 seeds a noisy row with seed + 97*q + i = -66, which is negative; "
            "this q_min needs a seed >= 96\n",
        )
        assert not out.exists()
        assert main(["--seed", "96"] + argv) == 0
        assert main(argv + ["--noise-rel-small", "0", "--noise-rel-large", "0"]) == 0
        assert capfd.readouterr() == ("fig3_pole_proximity,q0=18,ok\n" * 2, "")

    @pytest.mark.parametrize("digits", ["-5", "0"])
    def test_fig5_with_fewer_than_one_digit_names_cond_dps(self, tmp_path, capfd, digits):
        out = tmp_path / "fig5.csv"
        assert main(["experiment", "fig5_high_order_exp", "--cond-dps", digits, "--out", str(out)]) == 2
        assert capfd.readouterr() == ("", "error: cond_dps must be >= 1\n")
        assert not out.exists()

    def test_identical_invocations_identical_outputs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["--seed", "4", "experiment", "fig3_pole_proximity"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_flag_changes_noisy_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--seed", "4", "experiment", "echelon_effect", "--out", str(a)]) == 0
        assert main(["--seed", "5", "experiment", "echelon_effect", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()


class TestFlagTypes:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["estimate", "{signal}", "--method", "covdet", "--m-range", "5"],
             "argument --m-range: expects lo:hi with integer ends, got '5'"),
            (["estimate", "{signal}", "--method", "covdet", "--m-range", "2:x"],
             "argument --m-range: expects lo:hi with integer ends, got '2:x'"),
            (["generate", "mode_sum", "--mode", "a,1"], "argument --mode: expects coeff,decay[,freq] numbers, got 'a,1'"),
            (["generate", "mode_sum", "--mode", "1"], "argument --mode: expects coeff,decay[,freq] numbers, got '1'"),
            (["generate", "mode_sum", "--mode", "inf,1"],
             "argument --mode: mode coefficient must be finite, got 'inf,1'"),
        ],
    )
    def test_bad_flag_value_exits_two_with_user_facing_text(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x.csv"
        argv = [a.replace("{signal}", str(_y5_csv(tmp_path))) for a in argv] + ["--out", str(out)]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert stderr.endswith(f"error: {message}\n")
        assert "_parse" not in stderr
        assert not out.exists()

    def test_zero_noise_levels_stay_valid(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        argv = ["experiment", "fig3_pole_proximity", "--noise-rel-small", "0", "--noise-rel-large", "0"]
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == "fig3_pole_proximity,q0=18,ok\n"


class TestRankFlags:
    def test_tol_without_policy_exits_two(self, tmp_path, capsys):
        src = _y5_csv(tmp_path)
        out = tmp_path / "o.csv"
        assert main(["rank", str(src), "--tol", "0.5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --tol requires --policy\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "y5", "--policy", "gap"],
            ["list", "--policy", "relative"],
            ["experiment", "fig2_first_order", "--policy", "gap", "--tol", "5"],
            ["estimate", "{src}", "--method", "aic", "--policy", "gap"],
            ["estimate", "{src}", "--method", "covdet", "--policy", "absolute", "--tol", "1e-3"],
        ],
    )
    def test_policy_on_a_command_without_rank_decision_exits_two(self, tmp_path, capsys, argv):
        src = _y5_csv(tmp_path)
        out = tmp_path / "o.csv"
        argv = [a.format(src=src) for a in argv] + ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --policy applies only to rank, estimate --method hokalman\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "y5", "--count", "5", "--seed", "3"],
            ["--seed", "3", "generate", "y5"],
            ["rank", "{src}", "--seed", "3"],
            ["estimate", "{src}", "--method", "aic", "--seed", "3"],
            ["list", "--seed", "3"],
        ],
    )
    def test_seed_on_a_command_other_than_experiment_exits_two(self, tmp_path, capsys, argv):
        src = _y5_csv(tmp_path)
        out = tmp_path / "o.csv"
        argv = [a.format(src=src) for a in argv] + ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --seed applies only to experiment\n"
        assert captured.out == ""
        assert not out.exists()

    def test_verbose_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["-v", "list"])
        assert err.value.code == 2


_ESTIMATE_FLAGS = {
    "hokalman": (["--n-max", "3"], "rank, estimate --method hokalman"),
    "aic": (["--p-max", "3"], "estimate --method aic"),
    "covdet": (["--m-range", "2:3"], "estimate --method covdet"),
}


class TestFlagReaders:
    """One table in cli names the readers of each flag that some command
    does not read; a flag set away from its default elsewhere exits 2."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            # each estimate method meets the flags of the other two
            *[
                (["estimate", "{src}", "--method", method, *flag], f"{flag[0]} applies only to {readers}")
                for method in ESTIMATE_METHODS
                for reader, (flag, readers) in _ESTIMATE_FLAGS.items()
                if reader != method
            ],
            (["list"], "--out applies only to generate, rank, estimate, experiment"),
            (["estimate", "{src}", "--method", "covdet", "--tol", "0.5"],
             "--tol applies only to rank, estimate --method hokalman"),
        ],
    )
    def test_flag_where_it_is_not_read_exits_two_before_reading_input(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o.csv"
        # the input does not exist: the flag is rejected before any file is read
        argv = [a.format(src=tmp_path / "missing.csv") for a in argv] + ["--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_every_flag_some_command_does_not_read_is_in_the_table(self):
        [commands] = _make_parser()._subparsers._group_actions
        flags = {flag for p in commands.choices.values() for action in p._actions for flag in action.option_strings}
        # every command and variant that accepts these flags reads them
        assert flags - set(cli._READERS) == {"-h", "--help", "--count", "--n", "--method"}
        readers = {*commands.choices, *(f"generate {f}" for f in GENERATE_FAMILIES),
                   *(f"estimate --method {m}" for m in ESTIMATE_METHODS)}
        for flag, names in cli._READERS.items():
            assert set(names) <= readers, flag
            for name in names:
                assert flag in commands.choices[name.split()[0]]._option_string_actions, (flag, name)
            # commands that share a flag share its default
            defaults = {p._option_string_actions[flag].default
                        for p in commands.choices.values() if flag in p._option_string_actions}
            assert len(defaults - {argparse.SUPPRESS}) <= 1, flag


class TestListAndHelp:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2_first_order", "fig5_high_order_exp", "echelon_effect"):
            assert name in out

    def test_help_enumerates_commands_and_experiments(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        for command in ("generate", "rank", "estimate", "experiment", "list"):
            assert command in out
        for name in ("fig2_first_order", "fig3_pole_proximity", "fig1_table1_y5",
                     "fig4_high_order_sin", "fig5_high_order_exp",
                     "sec33_nonhomogeneous", "offset_effect", "echelon_effect"):
            assert name in out

    def test_policy_flag_is_validated_before_computation(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["--policy", "psychic", "list"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (["bogus"], "argument command: invalid choice: 'bogus' (choose from "),
        ],
        ids=["missing", "unknown"],
    )
    def test_missing_or_unknown_command_exits_two(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines()[-1].startswith(f"hankelorder: error: {message}")


class TestOneParserPerProcess:
    """main() builds its parser once and shares it: no call may see
    another's flags."""

    def test_parser_is_built_once_across_calls(self, tmp_path, capsys):
        _make_parser.cache_clear()
        for k in range(20):
            argv = ["list"] if k % 2 else ["generate", "y5", "--count", "5", "--out", str(tmp_path / f"{k}.csv")]
            assert main(argv) == 0
        info = _make_parser.cache_info()
        assert (info.misses, info.hits) == (1, 19)

    def test_appended_modes_do_not_leak_into_the_next_call(self, tmp_path):
        out, fresh = tmp_path / "out.csv", tmp_path / "fresh.csv"
        assert main(["generate", "mode_sum", "--mode", "1,0.5", "--mode", "2,0.1", "--count", "12",
                     "--out", str(out)]) == 0
        assert main(["generate", "mode_sum", "--count", "12", "--out", str(out)]) == 0
        default = write_signal_csv(gen_mode_sum(ModeSum([Mode(1.0, 0.5)]), 12), fresh)
        assert out.read_bytes() == default.read_bytes()

    def test_single_n_then_sweep(self, tmp_path, capsys):
        src = _y5_csv(tmp_path)
        single, sweep = tmp_path / "single.csv", tmp_path / "sweep.csv"
        assert main(["rank", str(src), "--n", "6", "--out", str(single)]) == 0
        assert main(["rank", str(src), "--n-max", "8", "--out", str(sweep)]) == 0
        assert capsys.readouterr().out == "order=4\norder=5\n"  # the 6 x 6 matrix alone reads 4
        assert len(sweep.read_text().splitlines()) == 1 + 7  # n = 2..8

    @pytest.mark.parametrize("rejected", [["--tol", "0.5"], ["--n-max", "eight"], ["--no-such-flag"]])
    def test_a_rejected_call_leaves_the_next_one_alone(self, tmp_path, capsys, rejected):
        src = _y5_csv(tmp_path)
        try:
            code = main(["rank", str(src), *rejected, "--out", str(tmp_path / "x.csv")])
        except SystemExit as exc:  # argparse usage errors exit from inside main
            code = exc.code
        assert code == 2
        capsys.readouterr()
        assert main(["rank", str(src), "--out", str(tmp_path / "o.csv")]) == 0
        assert capsys.readouterr() == ("order=5\n", "")

    @pytest.mark.parametrize("argv", [["--help"], ["rank", "--help"], ["experiment", "--help"]])
    def test_help_matches_a_fresh_parser(self, tmp_path, capsys, argv):
        assert main(["rank", str(_y5_csv(tmp_path)), "--n", "6", "--out", str(tmp_path / "o.csv")]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(argv)
        cached = capsys.readouterr().out
        with pytest.raises(SystemExit):
            _make_parser.__wrapped__().parse_args(argv)
        assert capsys.readouterr().out == cached


# ---------------------------------------------------------------------------
# Fuzzing: argv drawn from the CLI's flag grammar with bounded sizes, and any
# bytes (or any finite floats) as the signal CSV.  Every invocation must exit
# 0, or 2 with one stderr line; a warning counts as a failure, since it would
# print more lines.

_EXPERIMENTS = {name: defaults for name, _, defaults in list_experiments()}
_INT_BOUNDS = {"count": (-3, 2000), "cond_dps": (1, 80), "trials": (-2, 20)}
_FINITE_FLOAT = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e308, -800.0]),
)
_ANY_FLOAT = st.one_of(_FINITE_FLOAT, st.sampled_from([float("nan"), float("inf"), float("-inf")]))


def _flag(name: str, value) -> str:
    return f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}"


_NOW_AND_THEN = st.sampled_from([False] * 7 + [True])  # a misuse draw, about one in eight
_TOLS = {"relative": st.floats(1e-15, 0.5), "absolute": st.floats(1e-12, 1e3), "gap": st.floats(1.5, 1e12)}


def _size(draw) -> int:
    """Mostly a size that a signal of 20 samples can sweep or fit."""
    return draw(st.integers(-3, 30)) if draw(_NOW_AND_THEN) else draw(st.integers(1, 9))


@st.composite
def _cli_argv(draw) -> list[str]:
    """An argv that argparse accepts; ``{signal}`` stands for the signal
    CSV and ``{out}`` for the output path.

    Each flag that some command does not read (--seed, --policy, --tol,
    --out, and the generate family and estimate method flags) is offered
    where it is read and now and then where it is not, so that most draws
    reach the numerics and the misuse errors stay covered."""
    command = draw(st.sampled_from(["generate", "rank", "estimate", "experiment", "list"]))
    argv = [command]
    optional = []
    decides_rank = command == "rank"
    if command == "generate":
        family = draw(st.sampled_from(GENERATE_FAMILIES))
        argv += [family, _flag("count", draw(st.integers(-2, 2000)))]
        for _ in range(draw(st.integers(0, 3)) if family == "mode_sum" or draw(_NOW_AND_THEN) else 0):
            # argparse itself rejects a non-finite mode (two lines: usage, error)
            parts = draw(st.lists(_FINITE_FLOAT, min_size=2, max_size=3))
            argv.append("--mode=" + ",".join(map(repr, parts)))
        for flag, value, readers in [
            ("sample-period", draw(_ANY_FLOAT), ("mode_sum", "high_order", "nonhomogeneous")),
            ("f0", draw(st.sampled_from(["sinusoid", "exponential"])), ("high_order",)),
            ("n0", draw(st.integers(-1, 60)), ("high_order",)),
            ("m", draw(st.integers(-1, 3)), ("high_order",)),
        ]:
            if family in readers or draw(_NOW_AND_THEN):
                optional.append(_flag(flag, value))
    elif command == "rank":
        argv.append("{signal}")
        optional.append(_flag(draw(st.sampled_from(["n", "n-max"])), _size(draw)))
    elif command == "estimate":
        method = draw(st.sampled_from(ESTIMATE_METHODS))
        decides_rank = method == "hokalman"
        argv += ["{signal}", _flag("method", method)]
        lo, hi = _size(draw) - 1, _size(draw) + 8
        if draw(_NOW_AND_THEN):  # an upper bound up to 10^12 must exit 2 without listing the orders
            hi = draw(st.integers(-3, 30) | st.integers(31, 10**12))
        for flag, value, reader in [("n-max", _size(draw), "hokalman"), ("p-max", _size(draw), "aic"),
                                    ("m-range", f"{lo}:{hi}", "covdet")]:
            if method == reader or draw(_NOW_AND_THEN):
                optional.append(_flag(flag, value))
    elif command == "experiment":
        name = draw(st.sampled_from([*_EXPERIMENTS, "no_such_experiment"]))
        argv.append(name)
        defaults = _EXPERIMENTS.get(name, {})
        for key in draw(st.lists(st.sampled_from(sorted(defaults) or ["n_max"]), unique=True, max_size=3)):
            if isinstance(defaults.get(key), float):
                value = repr(draw(_ANY_FLOAT))
            else:
                value = str(draw(st.integers(*_INT_BOUNDS.get(key, (-3, 30)))))
            argv += ["--" + key.replace("_", "-"), value]
    if command == "experiment" or draw(_NOW_AND_THEN):
        optional.append(_flag("seed", draw(st.integers(-2, 5))))
    if command != "list" or draw(_NOW_AND_THEN):
        argv.append("--out={out}")
    if optional:
        argv += draw(st.lists(st.sampled_from(optional), unique=True))
    if draw(st.booleans()) if decides_rank else draw(_NOW_AND_THEN):
        name = draw(st.sampled_from(sorted(_TOLS)))
        if not draw(_NOW_AND_THEN):  # else a --tol without --policy
            argv.append(_flag("policy", name))
        tol = draw(_ANY_FLOAT) if draw(_NOW_AND_THEN) else draw(st.none() | _TOLS[name])
        if tol is not None:
            argv.append(_flag("tol", tol))
    return argv


def _signal_csv(values: list[float]) -> bytes:
    return ("n,value\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(values))).encode()


# none, or a power of two that takes a signal past the sweep bound or under AIC's floor clamp
_SCALE = st.sampled_from([0, 0, 1016, 1020, 1024, -1000, -1024])

_SIGNAL_BYTES = st.one_of(
    st.tuples(st.integers(20, 150), _SCALE).map(lambda a: _signal_csv(np.ldexp(gen_y5(a[0]).samples, a[1]).tolist())),
    st.lists(st.floats(-1e3, 1e3), min_size=20, max_size=150).map(_signal_csv),
    st.tuples(st.lists(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True), min_size=20, max_size=150),
              _SCALE.filter(bool)).map(lambda a: _signal_csv(np.ldexp(a[0], a[1]).tolist())),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=300).map(_signal_csv),
    st.binary(max_size=200),
)

_NOISY_Y5 = _signal_csv((gen_y5(40).samples + 1e-3 * np.random.default_rng(0).uniform(-1, 1, 40)).tolist())
_POLICY_OF = {
    "relative": lambda tol: RankPolicy.relative(1e-10 if tol is None else tol),
    "absolute": RankPolicy.absolute,
    "gap": lambda tol: RankPolicy.gap() if tol is None else RankPolicy.gap(tol),
}


def _library_order(args) -> str:
    """The order line that direct library calls give for a rank or
    estimate invocation that exited 0."""
    signal = read_signal_csv(args.input)
    policy = None if args.policy is None else _POLICY_OF[args.policy](args.tol)
    if args.command == "rank" and args.n is not None:
        # past the bound max|y| sqrt(n L) the n x n rank is that of y 2^-e, under an absolute cut scaled alike
        y, exponent = signal.samples, 0
        if float(np.abs(y).max()) * math.sqrt(args.n * len(y)) >= sys.float_info.max / 16:
            exponent = math.frexp(float(np.abs(y).max()))[1]
            y = np.ldexp(y, -exponent)
        spectrum = singular_values(build_hankel(Signal(y), args.n).entries)
        if policy is not None and policy.kind == "absolute_threshold":
            return f"order={np.count_nonzero(spectrum.values > math.ldexp(policy.value, -exponent))}"
        return f"order={numerical_rank(spectrum, policy or default_policy((args.n, args.n))).rank}"
    if args.command == "rank" or args.method == "hokalman":
        estimate = hokalman_order(signal, args.n_max, policy)[0]
    elif args.method == "aic":
        estimate = aic_order(signal, args.p_max)[0]
    else:
        estimate = covdet_order(covariance_determinants(signal, args.m_range))
    return f"order={estimate.order if estimate.conclusive else 'inconclusive'}"


def _parsed(parser, argv: list[str]):
    try:
        args, extras = parser.parse_known_args(argv)
    except SystemExit as exc:
        return exc.code
    return repr(sorted(vars(args).items())), extras


def test_any_invocation_exits_zero_or_two_with_one_line(capfd):
    decided = Counter()  # exit codes of the rank and estimate draws

    # a fixed seed, so every run of the suite tries the same 300 invocations
    # whatever the test's source; no database, so no saved example replays
    @seed(1901)
    @settings(max_examples=300, deadline=None, database=None)
    @given(argv=_cli_argv(), signal=_SIGNAL_BYTES)
    @example(argv=["estimate", "{signal}", "--method=covdet", "--m-range=2:1000000000000", "--out={out}"],
             signal=_signal_csv([1.0] * 40))
    @example(argv=["rank", "{signal}", "--n=6", "--policy=gap", "--tol=5.0", "--out={out}"],
             signal=_NOISY_Y5)  # 6 at ratio 1e3
    # AIC under its floor's clamp and past float range, and a rescaled n x n rank under an absolute cut
    @example(argv=["estimate", "{signal}", "--method=aic", "--out={out}"],
             signal=_signal_csv(np.ldexp(gen_y5(119).samples, -1000).tolist()))
    @example(argv=["estimate", "{signal}", "--method=aic", "--out={out}"],
             signal=_signal_csv(np.ldexp(gen_y5(119).samples, 1026).tolist()))
    @example(argv=["rank", "{signal}", "--n=5", "--policy=absolute", "--tol=1e300", "--out={out}"],
             signal=_signal_csv(np.ldexp(gen_y5(40).samples, 1026).tolist()))
    def invoke(argv, signal):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "signal.csv"
            path.write_bytes(signal)
            argv = [a.replace("{signal}", str(path)).replace("{out}", str(Path(tmp) / "out.csv")) for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                # the shared parser reads argv as a freshly built one does
                assert _parsed(_make_parser(), argv) == _parsed(_make_parser.__wrapped__(), argv)
                code = main(argv)
            assert code in (0, 2), argv
            if code == 2:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
                assert "Traceback" not in err.getvalue()
            if argv[0] in ("rank", "estimate"):
                decided[code] += 1
                if code == 0:
                    args = _make_parser().parse_known_args(argv)[0]
                    assert out.getvalue() == _library_order(args) + "\n", argv
            # nothing reached the file descriptors past the redirected streams
            assert capfd.readouterr() == ("", ""), argv

    invoke()
    # at least a third of the rank and estimate draws reach a printed order
    assert decided[0] >= (decided[0] + decided[2]) / 3, decided
