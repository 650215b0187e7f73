"""One workload in one fresh process: set-up, self-test, timed loop.

run.py starts this file with BLAS threads pinned in the environment.
On stdout it prints one JSON line when set-up ends (its CLOCK_MONOTONIC
time, so the parent can measure set-up from before the process started)
and, unless --setup-only, one JSON line with the raw results.

Set-up is the interpreter start, ``import hankelorder``, input
generation and a warm-up of one full cycle of ops.  The references for
the output check are computed after that mark; they are the
benchmark's own work, done with numpy or direct library calls.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_EVERY_MS = 100.0
MIN_OPS = 20
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import hankelorder  # noqa: E402
from stats import relative  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _namespaces() -> dict:
    """Every binding in every loaded hankelorder module, by identity."""
    return {
        (name, attr): id(value)
        for name, mod in list(sys.modules.items())
        if name == "hankelorder" or name.startswith("hankelorder.")
        for attr, value in vars(mod).items()
    }


def _loop(workload, ref, seconds: float, min_ops: int, first: int, wall_ms: list, failures: list,
          probes: list, tracer=None) -> int:
    """Closed loop, one client: ops back to back until the deadline, then
    on to the end of the current cycle.  Between ops, after every
    PROBE_EVERY_MS of op time, the workload's calibration probe runs once."""
    i = first
    since_probe = PROBE_EVERY_MS
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or i - first < min_ops or (i - first) % workload.cycle:
        if tracer is not None:
            tracer.op = len(wall_ms)
        t0 = time.perf_counter()
        try:
            out = workload.op(i)
        except Exception as exc:  # an op that raises counts as failed
            wall_ms.append((time.perf_counter() - t0) * 1e3)
            failures.append(f"op {i}: {type(exc).__name__}: {exc}")
        else:
            wall_ms.append((time.perf_counter() - t0) * 1e3)
            problem = workload.check(i, out, ref)
            if problem is not None:
                failures.append(f"op {i}: {problem}")
        i += 1
        since_probe += wall_ms[-1]
        if since_probe >= PROBE_EVERY_MS:
            probes.append((len(wall_ms), workload.probe()))
            since_probe = 0.0
    return i


def _traced_setup_gen_ms(tracing, args, workdir: Path) -> tuple[float, list[str]]:
    """Build the workload's inputs once more under a fresh tracer; return
    the time spent in signal generation and any name left wrapped."""
    tr = tracing.Tracer()
    tr.op = 0
    tr.install()
    try:
        t0 = time.perf_counter()
        WORKLOADS[args.workload](hankelorder, args.seed, workdir)
        wall_ms = (time.perf_counter() - t0) * 1e3
    finally:
        tr.uninstall()
    per_op, _ = tr.summary([wall_ms])
    return per_op["incl"]["signals.gen"][0], tr.leftovers()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        if args.workload == "cli_mix":
            importlib.import_module("hankelorder.cli")
        workload = WORKLOADS[args.workload](hankelorder, args.seed, workdir)
        warm = [workload.op(i) for i in range(workload.cycle)]
        print(json.dumps({"setup_end": time.monotonic()}), flush=True)
        if args.setup_only:
            return 0
        bindings = _namespaces()

        ref = workload.reference()
        # The check must pass on the warm-up outputs and fail once a rank in
        # the reference is changed; wrong outputs are counted in the loop.
        problems = [p for i, out in enumerate(warm) if (p := workload.check(i, out, ref))]
        bad = workload.corrupt(ref)
        caught = [p for i, out in enumerate(warm) if (p := workload.check(i, out, bad))]
        if problems:
            print(f"warm-up output is wrong: {problems[0]}", file=sys.stderr)
        elif not caught:
            print("self-test: a corrupted reference passed the output check", file=sys.stderr)
            return 3

        gc.collect()
        wall_ms: list[float] = []
        probes: list[tuple[int, float]] = []
        failures: list[str] = []
        phase = args.seconds / 2 if args.trace else args.seconds
        min_ops = max(MIN_OPS, 3 * workload.cycle)
        nxt = _loop(workload, ref, phase, min_ops, workload.cycle, wall_ms, failures, probes)
        result = {
            "wall_ms": wall_ms,
            "probes": probes,
            "size": workload.size,
            "self_test": f"rejects a corrupted reference: {caught[0]}" if not problems
                         else "not run, the warm-up output is wrong",
            "numpy": np.__version__,
            "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
            "python": sys.version.split()[0],
        }
        tracer_errors: list[str] = []
        if args.trace:
            import tracer as tracing

            setup_gen_ms, leftovers = _traced_setup_gen_ms(tracing, args, workdir)
            tr = tracing.Tracer()
            tr.install()
            traced_ms: list[float] = []
            traced_probes: list[tuple[int, float]] = []
            gc.collect()
            try:
                _loop(workload, ref, phase, min_ops, nxt, traced_ms, failures, traced_probes, tracer=tr)
            finally:
                tr.uninstall()
            leftovers += tr.leftovers()
            tracer_errors += [f"not restored: {name}" for name in sorted(set(leftovers))]
            per_op, worst = tr.summary(traced_ms)
            if worst > 1e-9:
                tracer_errors.append(f"self times + unattributed miss op wall time by {worst:.3g}")
            names = [name for name, _, _ in hankelorder.list_experiments()]
            layers = tracing.layer_metrics(per_op, names)
            layers["trace.overhead_frac"] = (
                statistics.median(relative(traced_ms, traced_probes))
                / statistics.median(relative(wall_ms, probes)) - 1.0
            )
            layers["signals.setup_gen_ms"] = setup_gen_ms
            result.update(traced_ms=traced_ms, layers=layers, spans=len(tr.start))
        else:
            if "tracer" in sys.modules:
                tracer_errors.append("the untraced run imported the tracer")
            changed = [k for k, v in _namespaces().items() if bindings.get(k) != v]
            if changed:
                tracer_errors.append(f"the untraced run rebound {changed[:5]}")
        result.update(
            failures=failures,
            tracer_errors=tracer_errors,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
