"""Order statistics shared by run.py and worker.py (standard library only)."""

from __future__ import annotations

TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    the (TAIL_BEYOND + 1)-th largest sample.  Returns (value, percentile)."""
    ordered = sorted(samples)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def relative(op_ms: list[float], probes: list[tuple[int, float]]) -> list[float]:
    """Each op's wall time in units of the calibration probe that ran next
    after it (the last probe, for ops after it).  probes holds
    (ops completed before the probe ran, probe ms) in run order."""
    out, k = [], 0
    for j, ms in enumerate(op_ms):
        while k < len(probes) - 1 and probes[k][0] <= j:
            k += 1
        out.append(ms / probes[k][1])
    return out
