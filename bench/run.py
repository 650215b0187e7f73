"""The hankelorder benchmark.

    python3 bench/run.py --workload {paper_suite,long_sweep,cli_mix} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the package from
``src/`` and writes scratch files under ``.bench_work/``.  Each workload
(see workloads.py for what each stresses and why) runs in one fresh
process as a closed loop with one client, BLAS pinned to BLAS_THREADS
threads, and checks every op's output.

End-to-end metrics, printed by name and unit with --trace 0:

    setup_s      start of a fresh process to the first timed op (interpreter,
                 import, inputs, warm-up); median of SETUP_PROCESSES processes
    op_p50_ms    median op wall time
    op_tail_ms   highest percentile with at least ten ops beyond it
    ops_per_s    ops per second of time spent inside ops
    probe_ms     median wall time of the workload's calibration probe
    op_p50_rel   median of (op wall time / wall time of the next probe)
    op_tail_rel  the same ratio at op_tail_ms's percentile
    failed_frac  ops that raised, exited non-zero or failed their check,
                 over ops attempted
    peak_rss_mb  peak resident memory of the workload process

The host's speed drifts by tens of per cent between runs, which moves
the raw times together with the probe; the *_rel ratios stay put, so
BENCHMARK.json gates on them, setup_s and peak_rss_mb.

--trace 1 runs half the time untraced and half with tracer.py installed
and prints the per-layer metrics instead.  Human-readable lines come
first; the last line of stdout is one JSON object {correct, attempted,
failed, metrics} holding the metrics BENCHMARK.json lists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import relative, tail as tail_of

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("paper_suite", "long_sweep", "cli_mix")
BLAS_THREADS = 1
SETUP_PROCESSES = 5
IMPORT_PROBES = 3
TIMEOUT_S = 170


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _worker(args, *extra: str, deadline: float) -> tuple[float, dict | None]:
    """Run the worker; return (set-up seconds, result or None)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.splitlines()
    setup_s = json.loads(lines[0])["setup_end"] - t0
    return setup_s, (json.loads(lines[-1]) if len(lines) > 1 else None)


def _import_seconds(deadline: float) -> float:
    """Median time of a cold ``import hankelorder`` in fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            "import hankelorder; print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT, check=True,
                             stdout=subprocess.PIPE, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
        times.append(float(out.stdout))
    return statistics.median(times)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "hankelorder" / "__init__.py").is_file():
        print(f"error: no hankelorder package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S

    try:
        setups = [_worker(args, "--setup-only", deadline=deadline)[0]
                  for _ in range(SETUP_PROCESSES - 1)]
        setup_s, res = _worker(args, deadline=deadline)
        setups.append(setup_s)
        import_s = _import_seconds(deadline) if args.trace else None
    except (RuntimeError, subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    env = {
        "python": res["python"], "numpy": res["numpy"], "openblas": res["blas"],
        "cpu": _cpu_model(), "nproc": nproc, "blas_threads": BLAS_THREADS,
        "seed": args.seed, "commit": _commit(), "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace,
    }
    print("env " + json.dumps(env))
    for failure in res["failures"][:5]:
        print(f"FAILED {failure}")
    for problem in res["tracer_errors"]:
        print(f"TRACER {problem}")

    wall = res["wall_ms"]
    attempted = len(wall) + len(res.get("traced_ms", []))
    failed = len(res["failures"])
    correct = failed == 0 and not res["tracer_errors"]
    tail, pct = tail_of(wall)
    rel = relative(wall, res["probes"])
    probe_ms = statistics.median(ms for _, ms in res["probes"])
    e2e = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} fresh processes"),
        "op_p50_ms": (statistics.median(wall), "ms", f"n={len(wall)} untraced ops"),
        "op_tail_ms": (tail, "ms", f"p{pct:.1f}, {len(wall) - round(pct * len(wall) / 100)} samples beyond, "
                                   f"n={len(wall)}"),
        "ops_per_s": (1e3 * len(wall) / sum(wall), "1/s",
                      f"closed loop, 1 client, {res['size']}; time inside ops"),
        "probe_ms": (probe_ms, "ms", f"median of {len(res['probes'])} calibration probes between ops"),
        "op_p50_rel": (statistics.median(rel), "probe", "median of op ms / next probe ms"),
        "op_tail_rel": (tail_of(rel)[0], "probe", f"op ms / next probe ms at p{pct:.1f}"),
        "failed_frac": (failed / attempted, "1", f"{failed}/{attempted} ops failed"),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB", "ru_maxrss of the workload process"),
    }
    for name, (value, unit, note) in e2e.items():
        print(f"{name:<12} {value:12.4f} {unit:<5} ({note})")
    print(f"output check self-test: {res['self_test']}")

    if args.trace:
        layers = dict(res["layers"], **{"cli.import_s": import_s})
        print(f"traced ops: {len(res['traced_ms'])}, spans: {res['spans']}")
        for name in sorted(layers):
            print(f"  {name:<40} {layers[name]:14.6g}")
        values = layers
    else:
        values = {name: value for name, (value, _, _) in e2e.items()}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if not set(units) <= set(values):
        print(f"error: BENCHMARK.json names unknown metrics {sorted(set(units) - set(values))}",
              file=sys.stderr)
        return 2
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
