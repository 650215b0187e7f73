"""Span tracing for the traced benchmark run, installed from outside the
library.

Modules bind names with ``from .rank import singular_values`` and the
like, so every wrapper replaces its function in each ``hankelorder.*``
namespace that holds it, and ``uninstall`` puts every original back.
Calls the library makes into numpy and mpmath (the LAPACK SVD in
``rank``, lstsq in ``estimators``, ``mpmath.svd_r`` in ``experiments``)
are wrapped by giving that one module a stand-in for ``np`` or
``mpmath`` whose single attribute is wrapped.

A span records its kind, start, end, parent span and op id; spans stay
in compact arrays in memory until ``summary`` reduces them.  Self time
is a span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
import types
from array import array
from collections import defaultdict
from pathlib import Path

PACKAGE = "hankelorder"

# span kind -> (module, public functions that open a span of that kind)
WRAPPED = {
    "signals.gen": ("signals", ("gen_mode_sum", "gen_y5", "gen_high_order", "gen_nonhomogeneous",
                                "pole_pair_modes", "add_noise", "add_offset")),
    "signals.csv_read": ("signals", ("read_signal_csv",)),
    "signals.csv_write": ("signals", ("write_signal_csv", "write_pair_csv")),
    "hankel.build": ("hankel", ("build_hankel", "build_rectangular_hankel", "build_augmented")),
    "hankel.echelon": ("hankel", ("row_echelon",)),
    "rank.svd": ("rank", ("singular_values",)),
    "rank.policy": ("rank", ("numerical_rank", "condition_number")),
    "estimators.sweep": ("estimators", ("hokalman_order",)),
    "estimators.aic": ("estimators", ("aic_order",)),
    "estimators.covdet": ("estimators", ("covariance_determinants", "covdet_order")),
    "estimators.csv_write": ("estimators", ("write_sweep_csv", "write_aic_csv", "write_covdet_csv")),
    "experiments.run": ("experiments", ("run_experiment",)),
    "cli.main": ("cli", ("main",)),
}

# span kind -> (module, global it calls through, attribute path)
FOREIGN = {
    "rank.lapack": ("rank", "np", ("linalg", "svd")),
    "estimators.lstsq": ("estimators", "np", ("linalg", "lstsq")),
    "experiments.mpmath": ("experiments", "mpmath", ("svd_r",)),
}


def _file_bytes(path) -> int:
    return Path(path).stat().st_size


def _svd_flops(args, kwargs, result) -> int:
    m, n = sorted(result.source_shape, reverse=True)
    return 4 * m * n * n


# span kind -> (counter, value from (args, kwargs, result)), taken on the
# outermost span of a kind only, after the span has closed
COUNTERS = {
    "signals.csv_read": ("signals.csv_bytes", lambda a, k, r: _file_bytes(a[0])),
    "signals.csv_write": ("signals.csv_bytes", lambda a, k, r: _file_bytes(r)),
    "hankel.build": ("hankel.bytes_built", lambda a, k, r: r.entries.nbytes),
    "rank.svd": ("rank.svd_flops", _svd_flops),
    "estimators.sweep": ("estimators.sweep_points", lambda a, k, r: len(r[1].points)),
    "experiments.run": ("experiments.csv_bytes", lambda a, k, r: r.output_path.stat().st_size),
    "cli.main": ("cli.exit_nonzero", lambda a, k, r: int(r != 0)),
}


def _stand_in(module, attr: str, value):
    """A copy of a module with one attribute replaced.  Lookups stay plain
    dict lookups, so code calling through it pays nothing extra."""
    copy = types.ModuleType(module.__name__, module.__doc__)
    copy.__dict__.update(vars(module))
    setattr(copy, attr, value)
    copy.__bench_stand_in__ = True
    return copy


class Tracer:
    def __init__(self):
        self.kinds: list[str] = []
        self._kind_ids: dict[str, int] = {}
        self.kind_of = array("H")
        self.parent = array("i")
        self.op_of = array("i")
        self.outer = array("B")  # 1 when no span of the same kind encloses it
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._depth: list[int] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def kind_id(self, kind: str) -> int:
        if kind not in self._kind_ids:
            self._kind_ids[kind] = len(self.kinds)
            self.kinds.append(kind)
            self._depth.append(0)
        return self._kind_ids[kind]

    def _wrap(self, fn, kind: str):
        tracer = self
        kid = self.kind_id(kind)
        counter = COUNTERS.get(kind)
        per_experiment = kind == "experiments.run"

        depth = self._depth
        stack = self._stack
        kind_of, parent, op_of = self.kind_of.append, self.parent.append, self.op_of.append
        outer_of, starts, ends = self.outer.append, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = depth[kid] == 0
            depth[kid] += 1
            idx = len(starts)
            kind_of(tracer.kind_id(f"experiments.{args[0].name}") if per_experiment else kid)
            parent(stack[-1] if stack else -1)
            op_of(tracer.op)
            outer_of(outer)
            ends.append(math.nan)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                depth[kid] -= 1
            if counter is not None and outer:
                tracer.counts[(tracer.op, counter[0])] += counter[1](args, kwargs, result)
            return result

        wrapper.__bench_span__ = kind
        return wrapper

    # -- install / uninstall -------------------------------------------
    def _modules(self) -> list:
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        modules = self._modules()
        for kind, (modname, names) in WRAPPED.items():
            home = sys.modules.get(f"{PACKAGE}.{modname}")
            if home is None:  # the cli module is loaded by cli_mix only
                continue
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(original, kind)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for kind, (modname, glob, path) in FOREIGN.items():
            mod = sys.modules[f"{PACKAGE}.{modname}"]
            original_root = getattr(mod, glob)
            chain = [original_root]
            for attr in path[:-1]:
                chain.append(getattr(chain[-1], attr))
            stand_in = self._wrap(getattr(chain[-1], path[-1]), kind)
            for parent, attr in zip(reversed(chain), reversed(path)):
                stand_in = _stand_in(parent, attr, stand_in)
            self._restore.append((mod, glob, original_root))
            setattr(mod, glob, stand_in)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)

    def leftovers(self) -> list[str]:
        """Names still bound to a wrapper or stand-in; empty when restored."""
        bad = [f"{mod.__name__}.{attr}" for mod, attr, original in self._restore
               if vars(mod).get(attr) is not original]
        for mod in self._modules():
            for attr, value in vars(mod).items():
                if getattr(value, "__bench_span__", None) or getattr(value, "__bench_stand_in__", None):
                    bad.append(f"{mod.__name__}.{attr}")
        return sorted(set(bad))

    # -- reduction -----------------------------------------------------
    def summary(self, op_wall_ms: list[float]) -> tuple[dict, float]:
        """Per-op layer times and counts, plus the worst add-up error.

        Returns ({metric: per-op values}, max relative error of
        sum(self times) + unattributed against the op's wall time).
        """
        n_ops = len(op_wall_ms)
        n = len(self.start)
        dur = [(self.end[i] - self.start[i]) * 1e3 for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        incl = defaultdict(lambda: [0.0] * n_ops)
        self_ms = defaultdict(lambda: [0.0] * n_ops)
        calls = defaultdict(lambda: [0] * n_ops)
        self_total = [0.0] * n_ops
        top_total = [0.0] * n_ops
        for i in range(n):
            op = self.op_of[i]
            kind = self.kinds[self.kind_of[i]]
            own = dur[i] - child[i]
            self_ms[kind][op] += own
            self_total[op] += own
            if self.parent[i] < 0:
                top_total[op] += dur[i]
            if self.outer[i]:
                incl[kind][op] += dur[i]
                calls[kind][op] += 1
        unattributed = [op_wall_ms[o] - top_total[o] for o in range(n_ops)]
        worst = max(
            (abs(self_total[o] + unattributed[o] - op_wall_ms[o]) / op_wall_ms[o] for o in range(n_ops)),
            default=0.0,
        )
        counts = defaultdict(lambda: [0.0] * n_ops)
        for (op, name), value in self.counts.items():
            counts[name][op] += value
        per_op = {"incl": incl, "self": self_ms, "calls": calls, "counts": counts,
                  "unattributed": unattributed}
        return per_op, worst


def layer_metrics(per_op: dict, experiment_names: list[str]) -> dict[str, float]:
    """The per-layer metrics: per-op means over the traced ops, except
    experiments.<name>_ms (per-op medians) and the cli request and
    non-zero exit totals.  Layer times are inclusive; *_self_ms exclude
    child spans."""
    incl, self_ms, calls, counts = per_op["incl"], per_op["self"], per_op["calls"], per_op["counts"]
    n_ops = len(per_op["unattributed"])

    def mean(values) -> float:
        return sum(values) / n_ops

    svd_total, lapack_total = sum(incl["rank.svd"]), sum(incl["rank.lapack"])
    m = {
        "signals.gen_calls": mean(calls["signals.gen"]),
        "signals.gen_ms": mean(incl["signals.gen"]),
        "signals.csv_read_ms": mean(incl["signals.csv_read"]),
        "signals.csv_write_ms": mean(incl["signals.csv_write"]),
        "signals.csv_bytes": mean(counts["signals.csv_bytes"]),
        "hankel.build_calls": mean(calls["hankel.build"]),
        "hankel.build_ms": mean(incl["hankel.build"]),
        "hankel.bytes_built": mean(counts["hankel.bytes_built"]),
        "hankel.echelon_ms": mean(incl["hankel.echelon"]),
        "rank.svd_calls": mean(calls["rank.svd"]),
        "rank.svd_ms": mean(incl["rank.svd"]),
        "rank.lapack_ms": mean(incl["rank.lapack"]),
        "rank.overhead_frac": (svd_total - lapack_total) / svd_total if svd_total else 0.0,
        "rank.svd_flops": mean(counts["rank.svd_flops"]),
        "rank.policy_calls": mean(calls["rank.policy"]),
        "rank.policy_ms": mean(incl["rank.policy"]),
        "estimators.sweeps": mean(calls["estimators.sweep"]),
        "estimators.sweep_points": mean(counts["estimators.sweep_points"]),
        "estimators.sweep_self_ms": mean(self_ms["estimators.sweep"]),
        "estimators.aic_ms": mean(incl["estimators.aic"]),
        "estimators.lstsq_calls": mean(calls["estimators.lstsq"]),
        "estimators.covdet_ms": mean(incl["estimators.covdet"]),
        "estimators.csv_write_ms": mean(incl["estimators.csv_write"]),
    }
    for name in experiment_names:
        m[f"experiments.{name}_ms"] = statistics.median(incl[f"experiments.{name}"])
    m["experiments.self_ms"] = sum(mean(self_ms[f"experiments.{name}"]) for name in experiment_names)
    m["experiments.mpmath_ms"] = mean(incl["experiments.mpmath"])
    m["experiments.csv_bytes"] = mean(counts["experiments.csv_bytes"])
    m["cli.requests"] = float(sum(calls["cli.main"]))
    m["cli.self_ms"] = mean(self_ms["cli.main"])
    m["cli.exit_nonzero"] = float(sum(counts["cli.exit_nonzero"]))
    m["trace.unattributed_ms"] = mean(per_op["unattributed"])
    return m
