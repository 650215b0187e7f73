"""Numerical rank machinery and the exact rational rank oracle.

All rank decisions go through a :class:`RankPolicy` applied to a
:class:`SingularSpectrum`.  The default policy is the standard
matrix-rank convention: count singular values above
``max(rows, cols) * machine_epsilon * sigma_max``.

For noise-free verification on exactly-representable data,
:func:`exact_rank_rational` computes the rank with fraction-free
(Bareiss) integer elimination and no rounding anywhere; it is the
independent oracle the floating-point path is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "EPS",
    "DEFAULT_GAP_RATIO",
    "SingularSpectrum",
    "RankPolicy",
    "RankResult",
    "default_policy",
    "singular_values",
    "numerical_rank",
    "condition_number",
    "exact_rank_rational",
    "write_spectrum_csv",
]

EPS = float(np.finfo(float).eps)

# Noise-free spectra collapse by many orders of magnitude at the true
# order; a gap of 1e3 cleanly separates those from noisy spectra.
DEFAULT_GAP_RATIO = 1e3

RELATIVE = "relative_threshold"
ABSOLUTE = "absolute_threshold"
GAP = "gap_ratio"


@dataclass(frozen=True)
class SingularSpectrum:
    """Non-increasing singular values of a matrix, plus its shape."""

    values: np.ndarray
    source_shape: tuple[int, int]

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size != min(self.source_shape):
            raise ValueError("spectrum length must equal min(rows, cols)")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ValueError("singular values must be finite and >= 0")
        if np.any(np.diff(vals) > 0):
            raise ValueError("singular values must be non-increasing")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "source_shape", tuple(int(d) for d in self.source_shape))

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class RankPolicy:
    """How a spectrum is turned into a rank decision.

    kind is one of relative_threshold (value = tau_rel in (0, 1)),
    absolute_threshold (value = tau_abs > 0), or gap_ratio
    (value = min_ratio > 1).
    """

    kind: str
    value: float

    def __post_init__(self) -> None:
        if self.kind == RELATIVE:
            if not (0.0 < self.value < 1.0):
                raise ValueError("relative threshold must lie in (0, 1)")
        elif self.kind == ABSOLUTE:
            if not (self.value > 0.0):
                raise ValueError("absolute threshold must be > 0")
        elif self.kind == GAP:
            if not (self.value > 1.0):
                raise ValueError("gap min_ratio must be > 1")
        else:
            raise ValueError(f"unknown policy kind: {self.kind!r}")
        if not math.isfinite(self.value):
            raise ValueError("policy value must be finite")

    @classmethod
    def relative(cls, tau_rel: float) -> "RankPolicy":
        return cls(RELATIVE, tau_rel)

    @classmethod
    def absolute(cls, tau_abs: float) -> "RankPolicy":
        return cls(ABSOLUTE, tau_abs)

    @classmethod
    def gap(cls, min_ratio: float = DEFAULT_GAP_RATIO) -> "RankPolicy":
        return cls(GAP, min_ratio)

    def describe(self) -> str:
        return f"{self.kind}({self.value:.17g})"


@dataclass(frozen=True)
class RankResult:
    """A rank decision with the spectrum and decision gap that produced it."""

    rank: int
    policy: RankPolicy
    spectrum: SingularSpectrum
    decision_gap: float

    def __post_init__(self) -> None:
        if not (0 <= self.rank <= len(self.spectrum)):
            raise ValueError("rank must lie in [0, min(rows, cols)]")


def default_policy(shape: tuple[int, int]) -> RankPolicy:
    """Relative threshold max(rows, cols) * eps, the standard convention."""
    return RankPolicy.relative(max(shape) * EPS)


def singular_values(matrix) -> SingularSpectrum:
    """Singular values sorted non-increasing; rejects non-finite input."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("matrix must be 2-D and non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return _svd_spectrum(arr, arr.shape)


def _svd_spectrum(matrix: np.ndarray, shape: tuple[int, int]) -> SingularSpectrum:
    """LAPACK singular values of a finite float matrix, unchecked.

    ``shape`` is recorded as the source shape; it may differ from
    ``matrix.shape`` when the matrix is a smaller stand-in with the same
    singular values (the tall rank sweep).
    """
    return SingularSpectrum(np.linalg.svd(matrix, compute_uv=False), shape)


def _gap_at(values: np.ndarray, rank: int) -> float:
    """sigma_rank / sigma_(rank+1), +inf when the split is exact."""
    if rank == 0 or rank >= values.size:
        return math.inf
    lo = values[rank]
    return math.inf if lo == 0.0 else float(values[rank - 1] / lo)


def numerical_rank(spectrum: SingularSpectrum, policy: RankPolicy) -> RankResult:
    """Apply a policy to a spectrum.

    relative/absolute thresholds count values strictly above the cut;
    gap_ratio picks the largest consecutive drop provided it reaches
    min_ratio and otherwise reports full rank with the best (failing)
    gap recorded.  An all-zero spectrum has rank 0.
    """
    vals = spectrum.values
    if vals[0] == 0.0:
        return RankResult(0, policy, spectrum, math.inf)
    if policy.kind == RELATIVE:
        rank = int(np.sum(vals > policy.value * vals[0]))
        return RankResult(rank, policy, spectrum, _gap_at(vals, rank))
    if policy.kind == ABSOLUTE:
        rank = int(np.sum(vals > policy.value))
        return RankResult(rank, policy, spectrum, _gap_at(vals, rank))
    # gap_ratio: ratio of consecutive values, 0/0 treated as no gap
    best_i, best_ratio = None, 1.0
    for i in range(vals.size - 1):
        hi, lo = vals[i], vals[i + 1]
        if hi == 0.0:
            ratio = 1.0
        elif lo == 0.0:
            ratio = math.inf
        else:
            ratio = float(hi / lo)
        if ratio > best_ratio:
            best_i, best_ratio = i, ratio
    if best_i is not None and best_ratio >= policy.value:
        return RankResult(best_i + 1, policy, spectrum, best_ratio)
    return RankResult(len(spectrum), policy, spectrum, best_ratio)


def condition_number(spectrum: SingularSpectrum) -> float:
    """sigma_max / sigma_min; +inf when sigma_min = 0."""
    smin = float(spectrum.values[-1])
    if smin == 0.0:
        return math.inf
    return float(spectrum.values[0]) / smin


def _as_integer_rows(matrix: Sequence[Sequence]) -> list[list[int]]:
    """Clear denominators row by row (row scaling preserves rank)."""
    rows = []
    width = None
    for row in matrix:
        frac_row = []
        for x in row:
            if isinstance(x, Fraction):
                frac_row.append(x)
            elif isinstance(x, Integral):
                frac_row.append(Fraction(int(x)))
            else:
                raise TypeError(
                    f"exact rank oracle needs Fraction or integer entries, got {type(x).__name__}"
                )
        if width is None:
            width = len(frac_row)
        elif len(frac_row) != width:
            raise ValueError("matrix rows must have equal length")
        scale = math.lcm(*(f.denominator for f in frac_row)) if frac_row else 1
        rows.append([int(f * scale) for f in frac_row])
    if not rows or width == 0:
        raise ValueError("matrix must be non-empty")
    return rows


def exact_rank_rational(matrix: Sequence[Sequence]) -> int:
    """Exact rank of a rational matrix via fraction-free elimination.

    Denominators are cleared per row, then Bareiss elimination runs in
    arbitrary-precision integers with row pivoting and zero-column
    skipping.  Every interior division is checked to be exact.
    """
    a = _as_integer_rows(matrix)
    n_rows, n_cols = len(a), len(a[0])
    prev = 1
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        piv = next((i for i in range(r, n_rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, n_rows):
            for j in range(c + 1, n_cols):
                num = a[r][c] * a[i][j] - a[i][c] * a[r][j]
                q, rem = divmod(num, prev)
                if rem != 0:
                    raise RuntimeError("fraction-free elimination lost exactness")
                a[i][j] = q
            a[i][c] = 0
        prev = a[r][c]
        r += 1
    return r


def write_spectrum_csv(spectrum: SingularSpectrum, path: str | Path) -> Path:
    """Dump as ``index,sigma`` rows, 17 significant digits."""
    path = Path(path)
    lines = ["index,sigma"]
    lines += [f"{i},{format(v, '.17g')}" for i, v in enumerate(spectrum.values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
