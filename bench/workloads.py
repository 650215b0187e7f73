"""The benchmark's workloads: their inputs, one op, and the output check.

Every workload drives ``hankelorder`` through its public functions only
and is built from the benchmark seed; the library receives only the
generated inputs.  A workload object offers:

    cycle                number of ops after which the inputs repeat;
                         set-up warms up with one full cycle
    op(i)                the timed operation i; returns what check() needs
    reference()          the expected outputs, computed once after set-up
    check(i, out, ref)   None when op i's output is correct, else a reason
    corrupt(ref)         a copy of ref with one rank changed, which check()
                         must reject (the benchmark's self-test)
    size                 the stated input size, for ops_per_s
    probe()              a fixed calibration task in plain Python and
                         numpy, no hankelorder code, shaped like the
                         workload; returns its wall time in ms

The shared host's speed drifts by tens of per cent over seconds to
minutes.  The probe runs between ops, so op time divided by probe time
is steady where raw op time is not.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import re
import time
from pathlib import Path

import mpmath
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

GOLDEN = Path(__file__).resolve().parent / "golden"
_INT = re.compile(r"-?\d+")
_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((8, 33))
_DENSE = _rng.standard_normal((20, 4000))


def _probe(loop: int, small_svds: int, dense_svds: int = 0, mpmath_n: int = 0) -> float:
    """Wall time (ms) of an interpreter loop, LAPACK SVDs of an 8 x 33 and
    a 20 x 4000 matrix and a 50-digit mpmath SVD of an mpmath_n x mpmath_n
    matrix."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(loop):
        acc += k * k
    for _ in range(small_svds):
        np.linalg.svd(_SMALL, compute_uv=False)
    for _ in range(dense_svds):
        np.linalg.svd(_DENSE, compute_uv=False)
    if mpmath_n:
        with mpmath.workdps(50):
            m = mpmath.matrix(mpmath_n, mpmath_n)
            for i in range(mpmath_n):
                for j in range(mpmath_n):
                    m[i, j] = mpmath.e ** (mpmath.mpf(-(i + j)) / 7)
            mpmath.svd_r(m, compute_uv=False)
    return (time.perf_counter() - t0) * 1e3


def _order_str(estimate) -> str:
    return str(estimate.order) if estimate.conclusive else "inconclusive"


class PaperSuite:
    """One op runs all 8 registered experiments with registry defaults and
    default seeds, writing their CSVs to the scratch directory.

    Why: this is the paper's reproduction.  Matrices are tiny (8x33 up to
    60x60), so per-call wrapper overhead, Python loops, mpmath and CSV
    formatting dominate: fig3's 336 small SVDs, offset_effect's 100
    sweeps, fig5's 50-digit mpmath SVDs.  A long-signal optimisation does
    little here and may slow it.

    The registry fixes every input, so the seed changes nothing here.
    """

    cycle = 1
    size = "8 experiments, registry defaults"

    def __init__(self, hk, seed: int, workdir: Path):
        self.hk = hk
        self.workdir = workdir
        self.names = [name for name, _, _ in hk.list_experiments()]

    def probe(self) -> float:
        return _probe(loop=40_000, small_svds=60, mpmath_n=6)

    def op(self, i: int) -> dict:
        return {
            name: self.hk.run_experiment(
                self.hk.ExperimentSpec(name), self.workdir / f"{name}.csv"
            ).headline
            for name in self.names
        }

    def reference(self) -> dict:
        """Headlines plus, per golden CSV line, what must match.

        Comment, section and column-header lines must match exactly; a data
        row must have the same number of fields and equal values in every
        column that holds only integers in the golden file.  Floats are not
        compared: the covdet rows of fig1 for m = 6..8 are rounding noise
        that differs by platform.
        """
        headlines = json.loads((GOLDEN / "headlines.json").read_text(encoding="utf-8"))
        return {
            "headlines": headlines,
            "tables": {name: _golden_template(GOLDEN / f"{name}.csv") for name in headlines},
        }

    def check(self, i: int, out: dict, ref: dict) -> str | None:
        if out != ref["headlines"]:
            return f"headlines {out} != {ref['headlines']}"
        for name, template in ref["tables"].items():
            lines = (self.workdir / f"{name}.csv").read_text(encoding="utf-8").splitlines()
            if len(lines) != len(template):
                return f"{name}: {len(lines)} lines, golden has {len(template)}"
            for k, (line, (exact, width, ints)) in enumerate(zip(lines, template)):
                if exact is not None:
                    if line != exact:
                        return f"{name} line {k + 1}: {line!r} != {exact!r}"
                    continue
                fields = line.split(",")
                if len(fields) != width or any(fields[j] != v for j, v in ints):
                    return f"{name} line {k + 1}: {line!r} differs in an integer column"
        return None

    def corrupt(self, ref: dict) -> dict:
        bad = copy.deepcopy(ref)
        # fig1's first sweep row is "n,rank,gap,condition"; bump the rank
        template = bad["tables"]["fig1_table1_y5"]
        k = next(k for k, (exact, _, ints) in enumerate(template) if exact is None and ints)
        exact, width, ints = template[k]
        j, v = ints[-1]
        template[k] = (exact, width, ints[:-1] + [(j, str(int(v) + 1))])
        return bad


def _golden_template(path: Path) -> list:
    """Per line: (exact text, None, None) or (None, field count, int columns)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    template: list = []
    section_rows: list[int] = []

    def close_section():
        if not section_rows:
            return
        rows = [lines[k].split(",") for k in section_rows]
        int_cols = [j for j in range(len(rows[0])) if all(_INT.fullmatch(r[j]) for r in rows)]
        for k, r in zip(section_rows, rows):
            template[k] = (None, len(r), [(j, r[j]) for j in int_cols])
        section_rows.clear()

    after_section = False
    for k, line in enumerate(lines):
        template.append((line, None, None))
        if line.startswith("#"):
            close_section()
            after_section = line.startswith("# section:")
        elif after_section:
            after_section = False  # the column header row
        else:
            section_rows.append(k)
    close_section()
    return template


class LongSweep:
    """One op is one hokalman_order(signal, n_max=20) with the default
    policy on L = 20 000 samples.  Ops alternate between clean gen_y5
    (order 5) and gen_y5 plus seeded uniform noise of amplitude 1e-6,
    which keeps the sweep at full rank and inconclusive (the paper's noise
    case).  Inputs are generated during set-up.

    Why: Hankel copies (20 x L) and dense LAPACK SVDs take almost all the
    time.  This is where a one-QR rank sweep over a sliding-window view
    should show a gain, in time and in memory.
    """

    cycle = 2
    L = 20_000
    N_MAX = 20
    NOISE = 1e-6
    size = f"L={L}, n_max={N_MAX}"

    def __init__(self, hk, seed: int, workdir: Path):
        self.hk = hk
        clean = hk.gen_y5(self.L)
        self.inputs = [clean, hk.add_noise(clean, hk.NoiseSpec(self.NOISE, seed))]

    def probe(self) -> float:
        return _probe(loop=40_000, small_svds=60, dense_svds=2)

    def op(self, i: int) -> tuple:
        estimate, sweep = self.hk.hokalman_order(self.inputs[i % 2], self.N_MAX)
        return estimate.order, sweep.ranks

    def reference(self) -> list:
        """numpy.linalg.matrix_rank of each dense n x (L-n+1) Hankel matrix,
        whose default tolerance max(shape) * eps * sigma_1 is the library's
        default policy; the order follows the 3-point plateau rule."""
        refs = []
        for signal in self.inputs:
            y = np.asarray(signal.samples)
            ranks = [
                int(np.linalg.matrix_rank(sliding_window_view(y, len(y) - n + 1)))
                for n in range(2, self.N_MAX + 1)
            ]
            refs.append((ranks[-1] if len(set(ranks[-3:])) == 1 else None, ranks))
        if refs[0][0] != 5:
            raise RuntimeError(f"reference order of clean y5 is {refs[0][0]}, not 5")
        return refs

    def check(self, i: int, out: tuple, ref: list) -> str | None:
        want = ref[i % 2]
        if tuple(out) != tuple(want):
            return f"input {i % 2}: (order, ranks) {out} != reference {want}"
        return None

    def corrupt(self, ref: list) -> list:
        bad = copy.deepcopy(ref)
        bad[0][1][-1] += 1
        return bad


class CliMix:
    """One op is one in-process hankelorder.cli.main(argv) call, cycling
    through a fixed list of 15 requests on signal CSVs with
    L in {40, 119, 2000} that set-up writes: generate, rank --n-max,
    rank --n, and estimate with hokalman (all three --policy values), aic
    and covdet.  The signals are seeded random mode sums.

    Why: the same layers serve file-based requests here.  CSV parsing and
    writing run beside small computations, generate writes beside the
    reads, and lstsq/det run in AIC and covdet.  None of that runs in
    long_sweep.
    """

    size = "15 requests on L in {40, 119, 2000}"

    def __init__(self, hk, seed: int, workdir: Path):
        self.hk = hk
        rng = np.random.default_rng(seed)
        sig, csv = {}, {}
        for L in (40, 119, 2000):
            modes = [
                hk.Mode(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5), rng.uniform(0.02, 0.3), w)
                for w in (0.0, 0.0, rng.uniform(0.2, 1.0))
            ]
            sig[L] = hk.gen_mode_sum(hk.ModeSum(modes), L)
            csv[L] = str(hk.write_signal_csv(sig[L], workdir / f"signal{L}.csv"))
        coef, decay = rng.uniform(0.5, 1.5), rng.uniform(0.02, 0.3)

        def sweep(L, n_max, policy=None):
            return _order_str(hk.hokalman_order(sig[L], n_max, policy)[0])

        def rank_n(L, n):
            mat = hk.build_hankel(sig[L], n)
            return str(hk.numerical_rank(hk.singular_values(mat.entries), hk.default_policy(mat.shape)).rank)

        def covdet(L):
            return _order_str(hk.covdet_order(hk.covariance_determinants(sig[L], range(2, 9))))

        # (argv, expected result by direct library calls: the order the
        # request prints, or the Signal a generate request writes)
        self.requests = [
            (["generate", "y5", "--count", "119"], lambda: hk.gen_y5(119)),
            (["rank", csv[40], "--n-max", "8"], lambda: sweep(40, 8)),
            (["rank", csv[119], "--n-max", "20"], lambda: sweep(119, 20)),
            (["rank", csv[2000], "--n-max", "20"], lambda: sweep(2000, 20)),
            (["rank", csv[40], "--n", "6"], lambda: rank_n(40, 6)),
            (["rank", csv[119], "--n", "12"], lambda: rank_n(119, 12)),
            (["rank", csv[2000], "--n", "20"], lambda: rank_n(2000, 20)),
            (["estimate", csv[40], "--method", "hokalman", "--policy", "relative", "--tol", "1e-10"],
             lambda: sweep(40, 8, hk.RankPolicy.relative(1e-10))),
            (["estimate", csv[119], "--method", "hokalman", "--policy", "absolute", "--tol", "1e-9"],
             lambda: sweep(119, 8, hk.RankPolicy.absolute(1e-9))),
            (["estimate", csv[2000], "--method", "hokalman", "--policy", "gap"],
             lambda: sweep(2000, 8, hk.RankPolicy.gap())),
            (["estimate", csv[40], "--method", "aic"], lambda: _order_str(hk.aic_order(sig[40], 10)[0])),
            (["estimate", csv[2000], "--method", "aic"], lambda: _order_str(hk.aic_order(sig[2000], 10)[0])),
            (["estimate", csv[119], "--method", "covdet"], lambda: covdet(119)),
            (["estimate", csv[2000], "--method", "covdet", "--m-range", "2:8"], lambda: covdet(2000)),
            (["generate", "mode_sum", "--mode", f"{coef!r},{decay!r}", "--count", "2000"],
             lambda: hk.gen_mode_sum(hk.ModeSum([hk.Mode(coef, decay)]), 2000)),
        ]
        for k, (argv, _) in enumerate(self.requests):
            argv += ["--out", str(workdir / f"out{k}.csv")]
        self.workdir = workdir
        self.cycle = len(self.requests)

    def probe(self) -> float:
        """Shaped like a request: build and run an argparse parser, write a
        signal-like CSV file, read and parse it, and a few small SVDs."""
        t0 = time.perf_counter()
        parser = argparse.ArgumentParser(prog="probe")
        sub = parser.add_subparsers(dest="command")
        for name in ("generate", "rank", "estimate", "experiment", "list"):
            cmd = sub.add_parser(name)
            for k in range(8):
                cmd.add_argument(f"--option{k}", type=float, default=0.0)
        parser.parse_args(["rank", "--option1", "2.5"])
        path = self.workdir / "probe.csv"
        path.write_text("\n".join(f"{k},{v:.17g}" for k, v in enumerate(_DENSE[0, :1000].tolist())) + "\n",
                        encoding="utf-8")
        values = [float(line.split(",")[1]) for line in path.read_text(encoding="utf-8").splitlines()]
        for k in range(10):
            np.linalg.svd(np.reshape(values[k * 40:(k + 1) * 40], (4, 10)), compute_uv=False)
        return (time.perf_counter() - t0) * 1e3

    def op(self, i: int) -> tuple:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = self.hk.cli.main(list(self.requests[i % self.cycle][0]))
            except SystemExit as exc:
                code = exc.code
        return code, stdout.getvalue().strip()

    def reference(self) -> list:
        """(exit code, printed line, generated file text) per request."""
        refs = []
        for k, (argv, expect) in enumerate(self.requests):
            value = expect()
            if isinstance(value, str):
                refs.append((0, f"order={value}", None))
            else:
                path = self.hk.write_signal_csv(value, self.workdir / f"expected{k}.csv")
                refs.append((0, f"wrote {argv[-1]}", path.read_text(encoding="utf-8")))
        return refs

    def check(self, i: int, out: tuple, ref: list) -> str | None:
        k = i % self.cycle
        code, line, text = ref[k]
        if out != (code, line):
            return f"request {k}: (exit, output) {out} != {(code, line)}"
        if text is not None and Path(self.requests[k][0][-1]).read_text(encoding="utf-8") != text:
            return f"request {k}: generated file differs from the library's"
        return None

    def corrupt(self, ref: list) -> list:
        bad = list(ref)
        code, line, text = bad[1]  # rank --n-max on L = 40
        order = line.removeprefix("order=")
        bad[1] = (code, "order=" + ("0" if order == "inconclusive" else str(int(order) + 1)), text)
        return bad


WORKLOADS = {"paper_suite": PaperSuite, "long_sweep": LongSweep, "cli_mix": CliMix}
