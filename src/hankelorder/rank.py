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
from typing import NamedTuple, Sequence

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
        _check_spectra(vals)
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


class RankResult(NamedTuple):
    """A rank decision with the spectrum and decision gap that produced it."""

    rank: int
    policy: RankPolicy
    spectrum: SingularSpectrum
    decision_gap: float


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
    return SingularSpectrum(np.linalg.svd(arr, compute_uv=False), arr.shape)


def _check_spectra(spectra: np.ndarray) -> None:
    """Reject spectra (one per row of the last axis) that are not finite,
    >= 0 and non-increasing.  A non-increasing row is >= 0 once its last
    value is, so only the last column is compared with 0."""
    if not np.isfinite(spectra).all() or (spectra[..., -1:] < 0).any():
        raise ValueError("singular values must be finite and >= 0")
    if (spectra[..., :-1] < spectra[..., 1:]).any():
        raise ValueError("singular values must be non-increasing")


def _decide(
    spectra: np.ndarray, lengths, kind: str, value
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rank, decision gap, condition) arrays, one entry per row of a
    (..., m) stack of zero-padded spectra.

    Row i holds its lengths[i] singular values followed by zeros, at
    least one, so ``row[rank]`` exists and is 0 at full rank.  kind is a
    policy kind, and value its value (tau_rel, tau_abs or min_ratio), a
    scalar or one per row; ``lengths`` and ``value`` broadcast against
    the rows.  The stack is checked once; the padding changes nothing the
    check rejects, since a negative value shows as a rise into it.

    relative/absolute thresholds count values strictly above the cut
    (padding never is), and the gap is sigma_rank / sigma_(rank+1) (+inf
    at rank 0, full rank or an exact zero below the cut).  gap_ratio
    picks the first largest consecutive drop within the row (0/0 and
    pairs past the row's length count as no drop) provided it reaches
    min_ratio, and otherwise reports full rank with the best (failing)
    gap.  An all-zero row has rank 0 and gap +inf.  The condition is
    sigma_max / sigma_min, +inf when sigma_min = 0.
    """
    _check_spectra(spectra)
    width = spectra.shape[-1]
    flat = spectra.reshape(-1)
    starts = np.arange(0, flat.size, width).reshape(spectra.shape[:-1])  # flat index of each row
    top = spectra[..., 0]
    bottom = flat[starts + lengths - 1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cond = top / bottom
        cond[bottom == 0.0] = np.inf
        if kind == GAP:
            # a valid drop is >= 1; 0/0 (nan) and the drop into the padding count as none
            ratios = spectra[..., :-1] / spectra[..., 1:]
            pair_starts = np.arange(0, ratios.size, width - 1).reshape(ratios.shape[:-1])
            ratios.reshape(-1)[pair_starts + lengths - 1] = 1.0
            np.fmax(ratios, 1.0, out=ratios)
            best_i = ratios.argmax(-1)
            gap = ratios.reshape(-1)[pair_starts + best_i]
            rank = np.where(gap >= value, best_i + 1, lengths)
            zero = top == 0.0
            rank[zero], gap[zero] = 0, np.inf
        else:
            cut = np.asarray(value * top if kind == RELATIVE else value)
            rank = (spectra > cut[..., None]).argmin(-1)  # rows end in padding, which never counts
            gap = flat[starts + np.maximum(rank - 1, 0)] / flat[starts + rank]
            gap[rank == 0] = np.inf
    return rank, gap, cond


def _decide_one(spectrum: SingularSpectrum, policy: RankPolicy) -> tuple[int, float, float]:
    """``_decide`` on one spectrum, as Python numbers."""
    padded = np.append(spectrum.values, 0.0)[None]
    rank, gap, cond = _decide(padded, len(spectrum), policy.kind, policy.value)
    return int(rank[0]), float(gap[0]), float(cond[0])


def numerical_rank(spectrum: SingularSpectrum, policy: RankPolicy) -> RankResult:
    """Apply a policy to a spectrum (the rules are those of ``_decide``)."""
    rank, gap, _ = _decide_one(spectrum, policy)
    return RankResult(rank, policy, spectrum, gap)


def condition_number(spectrum: SingularSpectrum) -> float:
    """sigma_max / sigma_min; +inf when sigma_min = 0."""
    return _decide_one(spectrum, default_policy(spectrum.source_shape))[2]


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

