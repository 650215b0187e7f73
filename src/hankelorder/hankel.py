"""Responses matrices: Hankel construction, input augmentation, row echelon.

An n x n responses matrix stacks translated windows of a sampled
response: entry (i, j) = y[i + j].  Rectangular variants support
augmented shapes and sweeps that use every available sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .signals import Signal

__all__ = [
    "ResponsesMatrix",
    "BOTTOM",
    "RIGHT",
    "build_hankel",
    "build_rectangular_hankel",
    "build_augmented",
    "rational_hankel",
    "row_echelon",
]

BOTTOM = "bottom_row_of_inputs"
RIGHT = "right_column_of_inputs"


@dataclass(frozen=True)
class ResponsesMatrix:
    """A responses matrix: a Hankel block of translated response windows,
    possibly padded with input samples; ``entries`` is a read-only copy."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2:
            raise ValueError("entries must be 2-D")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def _windows(x: np.ndarray, width: int) -> np.ndarray:
    """Read-only zero-copy view of every length-``width`` window along the
    last axis of the C-contiguous array x: entry [..., i, j] = x[..., i + j].

    The same view as ``sliding_window_view``, built without its
    ``__array_interface__`` round trip, after which NumPy kept about
    1 MiB more memory over a few thousand short sweeps.
    """
    step = x.strides[-1]
    shape = x.shape[:-1] + (x.shape[-1] - width + 1, width)
    view = np.ndarray(shape, x.dtype, x, 0, x.strides[:-1] + (step, step))
    view.flags.writeable = False
    return view


def build_rectangular_hankel(signal: Signal, rows: int, cols: int) -> ResponsesMatrix:
    """Entry (i, j) = samples[i + j]; needs rows + cols - 1 samples."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    needed = rows + cols - 1
    if len(signal) < needed:
        raise ValueError(
            f"signal has {len(signal)} samples but a {rows}x{cols} Hankel "
            f"matrix requires rows + cols - 1 = {needed}"
        )
    return ResponsesMatrix(_windows(signal.samples, cols)[:rows])


def build_hankel(signal: Signal, n: int) -> ResponsesMatrix:
    """Square n x n responses matrix; needs 2n - 1 samples."""
    return build_rectangular_hankel(signal, n, n)


def build_augmented(y: Signal, u: Signal, n: int, side: str = BOTTOM) -> ResponsesMatrix:
    """Pad the n x n output Hankel block with translated input samples.

    When the input's modes already appear in the output, the padding row
    (or column) is linearly dependent on the y block and the rank is
    unchanged.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if side not in (BOTTOM, RIGHT):
        raise ValueError(f"side must be {BOTTOM!r} or {RIGHT!r}")
    if len(y) < 2 * n:
        raise ValueError(f"output signal needs at least 2n = {2 * n} samples, has {len(y)}")
    if len(u) < n + 1:
        raise ValueError(f"input signal needs at least n + 1 = {n + 1} samples, has {len(u)}")
    # the square y block is symmetric, so the right padding is the
    # transpose of the bottom one
    bottom = np.vstack([_windows(y.samples, n)[:n], u.samples[:n]])
    return ResponsesMatrix(bottom if side == BOTTOM else bottom.T)


def rational_hankel(samples: Sequence, rows: int, cols: int) -> list[list]:
    """Hankel window layout over exact (e.g. Fraction) samples.

    Entries are taken as-is, so exact arithmetic survives; used to feed
    the exact rational rank oracle.
    """
    if len(samples) < rows + cols - 1:
        raise ValueError(
            f"need rows + cols - 1 = {rows + cols - 1} samples, have {len(samples)}"
        )
    return [[samples[i + j] for j in range(cols)] for i in range(rows)]


def row_echelon(matrix, pivot_tolerance: float = 0.0) -> tuple[np.ndarray, int]:
    """Forward Gaussian elimination with partial pivoting.

    A pivot is accepted only when its absolute value strictly exceeds
    ``pivot_tolerance`` times the largest absolute entry of the original
    matrix, so the accepted-pivot count doubles as a rank estimate whose
    tolerance semantics match a relative singular-value threshold.

    Works on float arrays and on object arrays of exact rationals; with
    exact entries and zero tolerance the pivot count is the exact rank.
    Returns (reduced matrix, pivot_count).
    """
    if pivot_tolerance < 0:
        raise ValueError("pivot_tolerance must be >= 0")
    a = np.array(matrix, copy=True)
    if a.ndim != 2:
        raise ValueError("matrix must be 2-D")
    rows, cols = a.shape
    scale = np.abs(a).max() if a.size else 0
    threshold = pivot_tolerance * scale
    r = 0
    pivots = 0
    for c in range(cols):
        if r == rows:
            break
        col = np.abs(a[r:, c])
        i = int(np.argmax(col)) + r
        if not (abs(a[i, c]) > threshold):
            continue
        if i != r:
            a[[r, i]] = a[[i, r]]
        below = a[r + 1 :, c] / a[r, c]
        a[r + 1 :] = a[r + 1 :] - np.outer(below, a[r])
        a[r + 1 :, c] = a[r, c] - a[r, c]  # exact zero in the entry's own type
        r += 1
        pivots += 1
    return a, pivots

