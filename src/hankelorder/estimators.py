"""Order estimators: Hankel rank sweeps, an AIC baseline, and the
covariance-determinant baseline.

The rank-sweep estimator computes the numerical rank of responses
matrices of growing row count and declares the order once the sweep has
plateaued.  Each n-row matrix of ``hokalman_order`` uses every available
sample (columns = len - n + 1): in exact arithmetic its rank equals the
square n x n rank, and the extra columns push small signal singular
values well clear of the rounding floor.  The literal n x n layout
("square") serves fig3 and ``rank --n``.
"""

from __future__ import annotations

import functools
import math
import sys
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .hankel import _windows
from .rank import ABSOLUTE, EPS, GAP, RELATIVE, RankPolicy, _decide, _Decisions
from .signals import Signal, _write_csv

__all__ = [
    "SweepPoint",
    "RankSweep",
    "OrderEstimate",
    "AicReport",
    "CovDetReport",
    "hokalman_order",
    "aic_order",
    "covariance_determinants",
    "covdet_order",
    "write_sweep_csv",
    "write_aic_csv",
    "write_covdet_csv",
]

METHOD_HOKALMAN = "hokalman_rank"
METHOD_AIC = "aic"
METHOD_COVDET = "covariance_determinant"

# An "all" sweep takes the tall QR path once H_{n_max}^T has at least
# _TALL_ROWS_PER_COL rows per column, or, from n_max = _TALL_N_MAX on,
# once it is at least square.  Measured on a 2-vCPU host with one BLAS
# thread (points plus decisions, 50-term sinusoid), the tall path costs
# 0.97-1.11 of the dense per-n SVDs at L = 40, so the L = 40 experiments
# (n_max <= 10) stay dense; from n_max = 8 on it costs 0.69-0.87 at
# L = 119 (0.83 at fig4's and fig5's n_max = 60) and 0.54-0.92 at L = 200,
# but these crossovers leave n_max < 16 under 16 rows per column dense.
_TALL_ROWS_PER_COL = 16
_TALL_N_MAX = 16
# a sweep tries its Gram path only where every row's last n_max samples reach sqrt(u) max|y|
_GRAM_TAIL = math.sqrt(EPS / 2)
# _tall_r's block height, in rows per column, and its group size, in blocks to one LAPACK call
_TSQR_ROWS_PER_COL = 16
_TSQR_GROUP = 16
# the tail scan of _tail_start sums the squares in blocks of this many samples
_TAIL_BLOCK = 1024

# hokalman_order's estimate needs this many equal ranks at the end of the sweep
_PLATEAU_LEN = 3
# covdet_order reads a collapse where |det_m| falls to this fraction of |det_{m-1}|
_COLLAPSE_RATIO = 1e-6


class SweepPoint(NamedTuple):
    n: int
    rank: int
    decision_gap: float
    condition: float


class RankSweep(NamedTuple):
    """Rank estimates as a function of the matrix row count n."""

    points: tuple[SweepPoint, ...]

    @property
    def ranks(self) -> list[int]:
        return [p.rank for p in self.points]


class OrderEstimate(NamedTuple):
    """A selected order (None when inconclusive) plus method diagnostics."""

    order: int | None
    method: str
    diagnostics: dict

    @property
    def conclusive(self) -> bool:
        return self.order is not None


def _order_str(estimate: OrderEstimate) -> str:
    """``order=<n>``, or ``order=inconclusive`` without a conclusive order."""
    return f"order={estimate.order if estimate.conclusive else 'inconclusive'}"


class AicReport(NamedTuple):
    """Every order's (p, rss, aic) row and the argmin, ties to the smaller p."""

    per_order: tuple[tuple[int, float, float], ...]
    selected: int


class CovDetReport(NamedTuple):
    """Every order's (m, det) row."""

    per_order: tuple[tuple[int, float], ...]


def _tall_r(w: np.ndarray) -> np.ndarray:
    """The (..., c, c) R factor of a stack of (..., rows, c) matrices with
    rows >= c, by a TSQR reduction tree (Demmel, Grigori, Hoemmen &
    Langou, SIAM J. Sci. Comput. 34(1), 2012).

    w is split into blocks of 16 c rows (a zero-copy reshape of a window
    view), each factored while it sits in cache; the R factors of all
    blocks, stacked on the leftover rows, form the next, 16 times shorter
    matrix, until one block remains (at most 16 c rows are one QR).
    Each LAPACK call takes at most 16 blocks of each matrix in the stack
    (16 k blocks for k matrices), because np.linalg.qr copies its whole
    input first.  R has the backward stability of one Householder QR of
    w, and the same singular values up to rounding, but not the same bits.
    """
    c = w.shape[-1]
    block = _TSQR_ROWS_PER_COL * c
    while (rows := w.shape[-2]) > block:
        nb = rows // block
        blocks = w[..., : nb * block, :].reshape(w.shape[:-2] + (nb, block, c))
        parts = [
            np.linalg.qr(blocks[..., g : g + _TSQR_GROUP, :, :], mode="r")
            for g in range(0, nb, _TSQR_GROUP)
        ]
        parts = [r.reshape(w.shape[:-2] + (r.shape[-3] * c, c)) for r in parts]
        w = np.concatenate([*parts, w[..., nb * block :, :]], axis=-2)
    return np.linalg.qr(w, mode="r")


def _tail_start(y: np.ndarray, top: np.ndarray, n_max: int) -> int:
    """K of the tail rule of ``_route`` for a (..., L) stack with row
    maxima top: the smallest index >= n_max at which every row has
    n_max sum_{j >= K} (y_j / top)^2 <= u^2 (n_max when every tail
    passes, as in an all-zero stack).

    One pass from the end: the scaled squares, reversed and zero-padded
    to whole blocks of _TAIL_BLOCK samples, are summed block by block;
    only the first block whose running total crosses u^2 / n_max in some
    row is summed sample by sample.  The sums are those of one cumulative
    sum from the end up to rounding, so K can move by a sample only where
    a tail sum lies within rounding of the bound."""
    size = y.shape[-1]
    stack = y.reshape(-1, size)
    unit = np.where(top > 0.0, top, 1.0).reshape(-1, 1)
    blocks = -(-size // _TAIL_BLOCK)
    # squares[:, b, i]: (y_j / top)^2 of sample j = L - 1 - (b _TAIL_BLOCK + i), 0 past the head
    squares = np.empty((len(stack), blocks, _TAIL_BLOCK))
    flat = squares.reshape(len(stack), blocks * _TAIL_BLOCK)
    np.divide(stack[:, ::-1], unit, out=flat[:, :size])
    flat[:, size:] = 0.0
    np.square(flat, out=flat)
    totals = np.cumsum(squares.sum(axis=-1), axis=-1)
    bound = (EPS / 2) ** 2
    passed = int(np.searchsorted(totals.max(axis=0, initial=0.0) * n_max, bound, side="right"))
    if passed == blocks:
        return n_max
    inside = np.cumsum(squares[:, passed], axis=-1)
    if passed:
        inside += totals[:, passed - 1, None]
    count = passed * _TAIL_BLOCK + int(np.searchsorted(inside.max(axis=0, initial=0.0) * n_max, bound, side="right"))
    return max(n_max, size - count)


class _Route(NamedTuple):
    path: str
    y: np.ndarray
    top: np.ndarray
    exponents: np.ndarray
    kept: int


def _route(samples: np.ndarray, n_max: int, columns: str, n_min: int) -> _Route:
    """The path of the sweep n = n_min..n_max of a (k, L) stack y, with
    y as one float array, each row's max|y| (top), the exponents of the
    scale below and the K of the tail rule (L where it does not cut):
    the one place that checks the arguments, tests the gates and reads
    max|y|.  n_max must be >= 2, except for the one-point sweep
    n_min = n_max = 1.  "square" sweeps need L >= 2 n_max - 1; "all"
    sweeps need only L >= n_max, so their n x (L - n + 1) matrices turn
    wide to tall past n = (L + 1) / 2 (the plateau rule of
    ``hokalman_order`` needs the 2 n_max - 1 of ``_check_sweep_length``).

    The paths, in the order tried, with rows = L - n_max + 1 for the
    swept length L: "square" for "square" sweeps; "gram" where
    rows >= 16 n_max and every row has max|y[-n_max:]| > sqrt(u) max|y|
    (``_sweep``); "cut", a tall sweep that the tail rule below cuts;
    "tall" where rows >= 16 n_max or rows >= n_max >= 16; else "dense".
    A "gram" row's last n_max samples alone fail the tail rule, so a
    "gram" sweep is never cut.

    Scale: each row whose bound on every sweep sigma_1,
    max|y| sqrt(n_max L), reaches float_max / 16 is swept as y 2^-e, e
    the binary exponent of its max|y| (``math.frexp``); the (k,)
    exponents are 0 for the rows swept as they are.  Past the bound no
    SVD, QR or R factor can leave float range; the scale is exact, ranks,
    gaps and conditions are ratios it does not change, and an absolute
    cut is scaled with the row (``_decide_points``); ``_gram_decisions``
    scales every row.

    Tail ("all" sweeps): K is the smallest index >= n_max at which every
    row has n_max sum_{j >= K} (y_j / top)^2 <= u^2, top = max|y| of the
    row, u = eps / 2 (``_tail_start``).  When K + n_max - 1 < L the sweep
    runs on y[:K] and n_max - 1 zeros, whose matrices are those of y with
    y[K:] = 0 up to zero rows and columns; shapes stay the full ones.
    Each sample appears at most n_max times in H_n, and sigma_1(H_n) >=
    top, so by Weyl (Golub & Van Loan, 4th ed., Cor. 8.6.2) no singular
    value moves by more than u sigma_1, below the backward error of the
    QR or SVD that follows (Higham, 2nd ed., Thm. 19.4).  A row whose
    last sample alone fails the test (every noisy row) keeps the stack
    whole at O(k) cost.
    """
    if n_min < 1:
        raise ValueError("n_min must be >= 1")
    if n_max < min(n_min, 2):
        raise ValueError(f"n_max must be >= {min(n_min, 2)}")
    y = np.ascontiguousarray(samples, dtype=float)
    size = y.shape[-1]
    if columns == "square":
        _check_sweep_length(size, n_max)
    elif size < n_max:
        raise ValueError(f"signal has {size} samples but a sweep to n = {n_max} requires at least {n_max}")
    top = np.abs(y).max(axis=-1, initial=0.0)
    # 16 leaves room for rounding
    exponents = np.where(top >= sys.float_info.max / 16 / math.sqrt(n_max * size), np.frexp(top)[1], 0)
    rows, kept = size - n_max + 1, size
    if columns == "square":
        return _Route("square", y, top, exponents, kept)
    gram = rows >= _TALL_ROWS_PER_COL * n_max and y.size and n_min <= n_max
    if gram and (np.abs(y[..., -n_max:]).max(axis=-1) > _GRAM_TAIL * top).all():
        return _Route("gram", y, top, exponents, kept)
    # the tail test on the last sample alone, which fails in every noisy row
    scan = not (np.abs(y[..., -1]) > EPS / 2 / math.sqrt(n_max) * top).any()
    if scan and (start := _tail_start(y, top, n_max)) < rows:  # K + n_max - 1 < L: cut
        rows = kept = start
    if rows >= _TALL_ROWS_PER_COL * n_max or rows >= n_max >= _TALL_N_MAX:
        return _Route("cut" if kept < size else "tall", y, top, exponents, kept)
    return _Route("dense", y, top, exponents, kept)


def _sweep_points(route: _Route, n_max: int, n_min: int) -> list:
    """The points of the sweep n = n_min..n_max on the path ``_route``
    names ("gram", "cut", "tall" or "dense", tried in that order, or
    "square"; "gram" is swept "tall"), in (shapes, stack) groups:
    stack[i] holds, for each signal, a matrix whose first min(shapes[i])
    singular values are those of point i's n-row sweep matrix (any others
    are 0).  Each point is a group of its own, except on the "cut" path.

    Below, L is the swept length.  Dense path: a zero-copy window view of
    the n x cols Hankel matrices.  Tall path: with W = H_{n_max}^T = QR
    (R from the blocked reduction of ``_tall_r``), H_n^T stacks W[:, :n]
    on the n_max - n trailing windows E_0..E_{n_max-n-1} (E_i starts at
    sample L - n_max + 1 + i).  Q has orthonormal columns, R's rows from
    n on are zero in its first n columns, and row order does not change
    singular values, so H_n shares its singular values with the
    n_max x n view z[..., n - 1 : n - 1 + n_max, :n] of
    z = [E_{n_max-2}; ...; E_0; R], built once.  In a cut sweep every E_i
    lies in the n_max - 1 zeros, so H_n shares its singular values with
    R[:n, :n] alone (Chan, ACM TOMS 8(1), 1982), and ``_leading_blocks``
    makes the points.
    """
    y, size = route.y, route.y.shape[-1]
    if route.kept < size:
        y = np.concatenate([y[..., : route.kept], np.zeros(y.shape[:-1] + (n_max - 1,))], axis=-1)
    if route.exponents.any():
        y = np.ldexp(y, -route.exponents[..., None])
    length = y.shape[-1]
    ns = range(n_min, n_max + 1)
    tall = route.path in ("gram", "cut", "tall")
    if tall:
        r = _tall_r(_windows(y, n_max))
        if route.path == "cut":
            return _leading_blocks(r, ns, size)
    # padded[..., k] = y[..., k] for k < length and 0 beyond, so windows may run past the end
    padded = np.concatenate([y, np.zeros(y.shape[:-1] + (n_max,))], axis=-1)
    if tall:
        # z = [E_{n_max-2}; ...; E_0; R]: the trailing windows, the last first, then R
        z = np.concatenate([_windows(padded, n_max)[..., length - 1 : length - n_max : -1, :], r], axis=-2)[None]
        return [([(n, size - n + 1)], z[..., n - 1 : n - 1 + n_max, :n]) for n in ns]
    windows = _windows(padded, length)[None]  # windows[0, ..., i, j] = y[..., i + j] while i + j < length
    if route.path == "square":
        return [([(n, n)], windows[..., :n, :n]) for n in ns]
    return [([(n, size - n + 1)], windows[..., :n, : length - n + 1]) for n in ns]


def _leading_blocks(r: np.ndarray, ns: range, size: int) -> list:
    """The point groups of a cut tall sweep of rows of L = size samples,
    from the (..., n_max, n_max) R factor of its window matrix: each point
    is R masked to its leading n x n block in a p x p matrix (its other
    values are 0), p = ceil(n_max / 2) for n <= p and n_max beyond."""
    n_max = r.shape[-1]
    half = (n_max + 1) // 2
    groups = []
    for group, p in ((range(ns.start, half + 1), half), (range(max(ns.start, half + 1), ns.stop), n_max)):
        if group:
            # R is upper triangular, so keeping its first n columns keeps only its leading n x n block
            lead = np.arange(p) < np.arange(group.start, group.stop).reshape((-1,) + (1,) * r.ndim)
            groups.append(([(n, size - n + 1) for n in group], np.where(lead, r[..., :p, :p], 0.0)))
    return groups


def _decide_points(groups: list, exponents: np.ndarray, policy: RankPolicy | None = None) -> _Decisions:
    """The decisions, arrays of shape (points, k), at the point groups of
    ``_sweep_points`` of k rows scaled by 2^-exponents: one LAPACK SVD
    call per group (each matrix gets bit for bit the singular values of a
    call on it alone), then one ``_decide`` call on the first min(shape)
    singular values of every point, zero-padded into a
    (points, k, m_max + 1) array; column j is row j's sweep.  ``policy``
    None means the per-matrix default cut max(rows, cols) * eps."""
    shapes = [shape for group, _ in groups for shape in group]
    lengths = [min(shape) for shape in shapes]
    # zero padding, at least one column, so that even an empty sweep has a gap-policy pair
    spectra = np.zeros((len(shapes), len(exponents), max(lengths, default=1) + 1))
    start = 0
    for group, stack in groups:
        values = np.linalg.svd(stack, compute_uv=False)
        for i, m in enumerate(lengths[start : start + len(group)]):
            spectra[start + i, :, :m] = values[i, :, :m]
        start += len(group)
    kind, value = _cut(policy, shapes, exponents)
    return _decide(spectra, np.array(lengths, dtype=int)[:, None], kind, value)


def _cut(policy: RankPolicy | None, shapes: list, exponents: np.ndarray) -> tuple:
    """``_decide``'s (kind, value) for a policy at points of these shapes,
    in the units of rows scaled by 2^-exponents: None is the per-matrix
    default max(rows, cols) * eps, one value per point, and an absolute
    cut is scaled with each row."""
    if policy is None:
        return RELATIVE, np.array([max(shape) for shape in shapes])[:, None] * EPS
    if policy.kind == ABSOLUTE:
        return ABSOLUTE, np.ldexp(policy.value, -exponents)
    return policy.kind, policy.value


# two entries of 24 (points) m^2 bytes each: 0.2 MB at m = 20, 5 MB at m = 60
@functools.lru_cache(maxsize=2)
def _gram_index(n_min: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, c), each (points, m, m) and read-only: where ``_gram_stack``
    reads entry [i, j] of each G_n, n = n_min..m, in a row of its table
    [lags (m) | head (m x m) | tail (m x m) | 1] as (a - b) - c.  Inside
    G_n that is t_d - head[lo, d] - tail[n - 1 - j', d], lo = min(i, j),
    d = |i - j|, j' = max(i, j); outside it, (0 - 0) - 1 on the diagonal
    and (0 - 0) - 0 off it, both 0s being head[0, 0]."""
    i, j = np.indices((m, m))
    lo, d = np.minimum(i, j), np.abs(i - j)
    left = np.arange(n_min, m + 1)[:, None, None] - 1 - np.maximum(i, j)  # the tail's length, < 0 outside G_n
    inside = left >= 0
    zero, one = m, m + 2 * m * m
    a = np.where(inside, d, zero)
    b = np.where(inside, m + lo * m + d, zero)
    c = np.where(inside, m + m * m + left * m + d, np.where(i == j, one, zero))
    for index in (a, b, c):
        index.flags.writeable = False
    return a, b, c


def _gram_stack(y: np.ndarray, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(grams, norms): the Gram matrices G_n = H_n H_n^T of the "all"
    sweep points n in ns, consecutive, of a (k, L) stack, L >= 2 m - 1
    with m = max(ns), as a (points, k, m, m) array, and each row's
    ||y||^2.  G_n fills the leading n x n block of its m x m matrix; the
    rest is 0 off and -1 on the diagonal.

    H_n's row i holds y_i..y_{i+L-n}, so for i <= j and d = j - i,
    G_n[i, j] is the lag sum t_d = sum_p y_p y_{p+d} less its i first
    products (head[i, d]) and its n - 1 - j last ones (tail[n - 1 - j, d]).
    Each t_d is one contiguous dot, O(L m) in all; head[c, d] sums
    y_p y_{p+d} over p < c, and tail is head of the reversed row.  Each
    row's t, head, tail and a 1 form one table row, which the flat
    indices of ``_gram_index`` gather into every G_n."""
    m, k, size = ns[-1], len(y), y.shape[-1]
    table = np.zeros((k, m + 2 * m * m + 1))
    table[:, :m] = [[row[: size - d] @ row[d:] for d in range(m)] for row in y]
    table[:, -1] = 1.0
    ends = np.stack([y[:, : 2 * m - 1], y[:, : -2 * m : -1]])  # each row's head, then its tail reversed
    # sums[0] is head and sums[1] tail, both (k, m, m) views of the table
    sums = table[:, m:-1].reshape(k, 2, m, m).swapaxes(0, 1)
    np.cumsum(ends[..., : m - 1, None] * _windows(ends, m)[..., : m - 1, :], axis=2, out=sums[:, :, 1:])
    a, b, c = _gram_index(int(ns[0]), int(m))
    grams = (np.take(table, a, axis=1) - np.take(table, b, axis=1)) - np.take(table, c, axis=1)
    return grams.swapaxes(0, 1), table[:, 0]


def _gram_error(ns: np.ndarray, size: int, m: int, norms: np.ndarray, tops: np.ndarray) -> np.ndarray:
    """delta_n, twice a bound on |lambda_i - sigma_i(H_n)^2| for the
    eigenvalues lambda that ``np.linalg.eigvalsh`` returns for the m x m
    matrices of ``_gram_stack`` of rows of L = size samples, each below 1
    in magnitude, with norms ||y||^2 and largest eigenvalues tops.

    An entry of G_n is a lag sum of at most L products, whose rounding
    error is at most gamma_L sum_p |y_p y_{p+d}| <= gamma_L ||y||^2
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    sec. 3.1, and Cauchy-Schwarz), less two sums of fewer than m products
    (gamma_m ||y||^2 each) in two subtractions (u times at most
    3 ||y||^2 each): within 3 gamma_{L+2m} ||y||^2 in all, plus 2^-1074 per
    product for underflow.  The n x n error E of G_n then has
    ||E||_2 <= ||E||_F <= n times that.  eigvalsh is backward stable, with
    an error taken as n^2 u max(lambda_1, 1): the zero blocks keep G_n
    apart from the padding, whose norm is 1.  By Weyl (Golub & Van Loan,
    4th ed., Cor. 8.1.6) each lambda_i, sorted, lies within the sum of the
    two of sigma_i^2; the factor 2 leaves room for the rounding of the
    certificate's own comparisons."""
    gamma = (size + 2 * m) * EPS / 2
    gamma /= 1.0 - gamma
    entry = 3.0 * gamma * norms + size * math.ldexp(1.0, -1074)
    return 2.0 * (ns * entry + ns * ns * EPS / 2 * np.maximum(tops, 1.0))


def _certified(eigs: np.ndarray, ns: np.ndarray, size: int, norms: np.ndarray, kind: str, value) -> np.ndarray:
    """(points, k) booleans: whether the threshold decision of each point
    follows from its Gram eigenvalues eigs, (points, k, m) and
    non-increasing, at the points ns of rows of L = size samples.  value
    holds ``_cut``'s value for each point and row.

    With delta_n of ``_gram_error``, each sigma_i^2 lies within
    [lambda_i - delta_n, lambda_i + delta_n], so the cut c (tau sigma_1
    for a relative cut) lies between the low and high cut it allows.  A
    point is certified when as many lambda_i - delta_n clear the high
    cut^2 as lambda_i + delta_n clear the low one: that count is then the
    exact number of sigma_i above c.  delta_n < 1 also keeps the -1
    padding below every real eigenvalue."""
    tops = eigs[..., 0]
    delta = _gram_error(ns[:, None], size, eigs.shape[-1], norms, tops)
    if kind == RELATIVE:
        low, high = value**2 * np.maximum(tops - delta, 0.0), value**2 * (tops + delta)
    else:
        low = high = value**2
    real = np.arange(eigs.shape[-1]) < ns[:, None, None]
    sure = ((eigs - delta[..., None] > high[..., None]) & real).sum(-1)
    possible = ((eigs + delta[..., None] > low[..., None]) & real).sum(-1)
    return (sure == possible) & (delta < 1.0)


def _gram_decisions(route: _Route, n_max: int, policy: RankPolicy | None, n_min: int) -> _Decisions | None:
    """The decisions of a "gram" route's sweep under a threshold policy
    (or None), read off its Gram eigenvalues where every point of every
    row is certified (``_certified``), else None.  Rows are scaled by
    2^-e, e the binary exponent of max|y|, so every Gram entry is at most
    L.  The n_max point is certified first, from one eigvalsh call; the
    others, from one more, only if it is."""
    size = route.y.shape[-1]
    exponents = np.frexp(route.top)[1]
    ns = np.arange(n_min, n_max + 1)
    grams, norms = _gram_stack(np.ldexp(route.y, -exponents[:, None]), ns)
    kind, value = _cut(policy, [(n, size - n + 1) for n in ns], exponents)
    value = np.broadcast_to(value, grams.shape[:2])
    eigs = np.empty(grams.shape[:-1])
    eigs[-1] = np.linalg.eigvalsh(grams[-1])[..., ::-1]
    if not _certified(eigs[-1:], ns[-1:], size, norms, kind, value[-1:]).all():
        return None
    if len(ns) > 1:
        eigs[:-1] = np.linalg.eigvalsh(grams[:-1])[..., ::-1]
        if not _certified(eigs, ns, size, norms, kind, value).all():
            return None
    # the padding's -1 comes last and reads 0, and so does the extra column
    spectra = np.zeros(eigs.shape[:-1] + (n_max + 1,))
    np.sqrt(np.maximum(eigs, 0.0), out=spectra[..., :-1])
    return _decide(spectra, ns[:, None], kind, value)


def _sweep(samples: np.ndarray, n_max: int, columns: str, policy: RankPolicy | None = None, n_min: int = 2) -> _Decisions:
    """The decisions, arrays of shape (points, k), of the sweep
    n = n_min..n_max of each row of a (k, L) stack of finite samples (k
    may be 0) on the path ``_route`` names: from the Gram eigenvalues
    where ``_gram_decisions`` certifies a "gram" route under a threshold
    policy, else from the points of ``_sweep_points``."""
    route = _route(samples, n_max, columns, n_min)
    if route.path == "gram" and (policy is None or policy.kind != GAP):
        if (decided := _gram_decisions(route, n_max, policy, n_min)) is not None:
            return decided
    return _decide_points(_sweep_points(route, n_max, n_min), route.exponents, policy)


def _rank_sweeps(
    samples: np.ndarray, n_max: int, columns: str, policy: RankPolicy | None, n_min: int = 2
) -> list[RankSweep]:
    """The decisions of ``_sweep`` as one RankSweep per row."""
    decided = _sweep(samples, n_max, columns, policy, n_min)
    return [
        RankSweep(tuple(map(SweepPoint, range(n_min, n_max + 1), r, g, c)))
        for r, g, c in zip(decided.rank.T.tolist(), decided.gap.T.tolist(), decided.condition.T.tolist())
    ]


def _plateau_onsets(samples: np.ndarray, n_max: int) -> list[int]:
    """The plateau onset of each row's "all" sweep n = 2..n_max of a
    (k, L) stack, without deciding every n of every row.

    An onset is the first n of the trailing constant-rank run, so it
    depends only on the ranks from n_max down to the first change.  The
    walk decides n = n_max for the whole stack, then n_max - 1, n_max - 2,
    ... only for the rows whose rank still equals their n_max rank; a
    row's onset is the last n at which it did.  A row whose n_max rank
    exceeds min(shape) of the next n's matrix leaves without an SVD
    there: a decision counts at most min(shape) singular values, so that
    rank cannot recur.  Each step is one stacked SVD of the live rows'
    views of the full sweep of ``_sweep_points`` on the path ``_route``
    names (a "gram" route is swept "tall"), and every decision is the
    one ``_rank_sweeps`` makes at the default cut, bit for bit."""
    route = _route(samples, n_max, "all", 2)
    points = [point for group in _sweep_points(route, n_max, 2) for point in zip(*group)]
    onsets = np.full(len(samples), n_max)
    live, final = np.arange(len(samples)), None
    for shape, matrices in reversed(points):
        if final is not None:
            # a decision counts at most min(shape) values, so a larger n_max rank cannot recur here
            fits = final <= min(shape)
            live, final = live[fits], final[fits]
        if not live.size:
            break
        ranks = _decide_points([([shape], matrices[None, live])], route.exponents[live]).rank[0]
        final = ranks if final is None else final
        keep = ranks == final
        live, final = live[keep], final[keep]
        onsets[live] = shape[0]
    return onsets.tolist()


def _check_sweep_length(size: int, n_max: int) -> None:
    """A sweep to n_max whose n x n matrices fit in the signal needs
    2 n_max - 1 samples."""
    if size < 2 * n_max - 1:
        raise ValueError(
            f"signal has {size} samples but a sweep to n = {n_max} "
            f"requires 2n - 1 = {2 * n_max - 1}"
        )


def hokalman_order(
    signal: Signal, n_max: int, policy: RankPolicy | None = None
) -> tuple[OrderEstimate, RankSweep]:
    """Rank sweep over n = 2..n_max of the n x (L - n + 1) Hankel
    matrices, with plateau-based order selection.

    The estimate is the final sweep value provided the last three ranks
    are all equal; otherwise the result is inconclusive and the full
    sweep is returned for inspection.  The default policy is the
    per-matrix relative threshold max(rows, cols) * eps.  A signal whose
    sweep could leave float range is swept as y 2^-e (``_route``).

    Four paths decide the sweep, in the order ``_route`` tries them:

    - Gram (``_gram_decisions``): long rows whose last n_max samples
      reach sqrt(u) max|y| (noise of about 1e-8 max|y| or more), under a
      threshold policy.  n_max lag sums give every H_n H_n^T and one
      batched ``eigvalsh`` their eigenvalues lambda_i; where a Weyl bound
      certifies every point's rank as the exact one at its cut, the sweep
      is decided from sigma_i = sqrt(lambda_i), each within a relative
      delta_n / (2 lambda_i) (``_gram_error``), and otherwise it is tall.
    - Cut: a long row whose decaying tail lies below one rounding unit of
      sigma_1 factors only its head (2,802 rows for a clean ``gen_y5``
      sweep to n_max = 20 at any longer L) and reads each spectrum off a
      leading block of one R factor.
    - Tall: where L - n_max + 1 >= 16 n_max, or >= n_max >= 16, one
      blocked tall-skinny QR (``_tall_r``) of H_{n_max}^T, and each
      spectrum from a small n_max x n matrix with the same singular values.
    - Dense: everything else runs one dense SVD per n.

    All give the same ranks on every tested input, though a singular
    value within rounding of the cut can decide differently.  Past the
    rank, sigma_{r+1} and sigma_min sit at the rounding floor, so ``gap``
    and ``condition`` there differ between the paths, and between a cut
    and an uncut sweep, by more than the last bits.
    """
    _check_sweep_length(len(signal), n_max)
    [sweep] = _rank_sweeps(signal.samples[None], n_max, "all", policy)
    ranks = sweep.ranks
    conclusive = len(ranks) >= _PLATEAU_LEN and len(set(ranks[-_PLATEAU_LEN:])) == 1
    diagnostics = {
        "plateau_len": _PLATEAU_LEN,
        "policy": (policy.describe() if policy is not None else "default(max(shape)*eps)"),
    }
    order = ranks[-1] if conclusive else None
    return OrderEstimate(order, METHOD_HOKALMAN, diagnostics), sweep


def aic_order(signal: Signal, p_max: int) -> tuple[OrderEstimate, AicReport]:
    """AIC selection over AR orders p = 1..p_max.

    Every candidate fits y[n] = sum_{i=1..p} a_i y[n-i] on the common
    window n = p_max..len-1, so the residual count K = len - p_max is the
    same for all p.  One Householder QR of the K x (p_max + 1) matrix
    [y[n-1] ... y[n-p_max] | y[n]] gives every order's residual sum of
    squares (Bjorck, Numerical Methods for Least Squares Problems, SIAM
    1996): the order-p fit regresses on the first p columns, so
    rss_p = sum_{i>=p} R[i, -1]^2, non-increasing in p.

    aic(p) = K * ln(max(rss_p, floor) / K) + 2p, and the argmin (ties to
    the smaller p) is selected.  The floor is the residual that rounding
    alone can leave on a fit that is exact in exact arithmetic.  The
    computed R is the exact R of a matrix whose every column is perturbed
    by at most gamma times its norm (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Thm. 19.4): each of the p_max + 1
    reflections adds a length-K inner product's error, K u at worst and
    sqrt(K) u typically (Higham sec. 2.8's rule of thumb), so
    gamma = (p_max + 1) sqrt(K) u with u = 2^-53.  A column's norm is at
    most sqrt(K) max|y|, so floor = (K (p_max + 1) u max|y|)^2, kept
    within [1e-300, 1e308] (1e-300 for all-zero data).  Every order at or
    past the order of a noise-free signal sits under it, and the argmin
    takes the smallest such order.  The floor scales with the signal
    squared, so the selection does not depend on the scale.

    R[j, j]^2 is the residual of regressor column j on the columns before
    it, a sum of squares of the same kind, so the order-p fit counts as
    rank-deficient when some R[j, j]^2 with j < p is at or under the floor.

    When the order-1 rss leaves float range (data past about 1e150), or
    non-zero data put K (p_max + 1) u max|y| under the 1e-150 clamp, the
    fits are made on y 2^-e, e the binary exponent of max|y|
    (``math.frexp``), whose values are all below 1.  Scaling by a power
    of two is exact above the subnormals, and it shifts every aic(p) by
    the same 2 e K ln 2, so the selection is that of y.  The
    report and ``rss_floor`` are then those of y 2^-e (rss_p 4^-e and
    aic(p) - 2 e K ln 2), and the diagnostics record e as
    ``rss_scale_exponent`` (0 when no scaling was needed).
    """
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    if len(signal) < 2 * p_max + 1:
        raise ValueError(f"signal must have at least 2*p_max + 1 = {2 * p_max + 1} samples")
    y = signal.samples
    k = len(y) - p_max
    unit, top = k * (p_max + 1) * (EPS / 2), float(np.abs(y).max())
    exponent = 0
    r, rss = _ar_residuals(y, p_max)
    # rss_1 is the largest, so no order overflows unless order 1 does
    if not math.isfinite(rss[0]) or (top > 0.0 and unit * top < 1e-150):
        exponent = math.frexp(top)[1]
        y, top = np.ldexp(y, -exponent), math.ldexp(top, -exponent)
        r, rss = _ar_residuals(y, p_max)
    scale = min(max(unit * top, 1e-150), 1e154)
    floor = scale * scale
    rows = tuple((p, v, k * math.log(max(v, floor) / k) + 2.0 * p) for p, v in enumerate(rss, 1))
    report = AicReport(rows, min(rows, key=lambda row: (row[2], row[0]))[0])
    deficient = int(np.count_nonzero(np.minimum.accumulate(np.abs(r.diagonal()[:p_max])) <= scale))
    diagnostics = {
        "p_max": p_max,
        "residual_count": k,
        "rank_deficient_fits": deficient,
        "rss_floor": floor,
        "rss_scale_exponent": exponent,
    }
    return OrderEstimate(report.selected, METHOD_AIC, diagnostics), report


def _ar_residuals(y: np.ndarray, p_max: int) -> tuple[np.ndarray, list[float]]:
    """The R factor of [y[n-1] ... y[n-p_max] | y[n]], n = p_max..len-1,
    and rss_p = sum_{i>=p} R[i, -1]^2 for p = 1..p_max (inf past float
    range)."""
    w = _windows(y, p_max + 1)  # rows (y[n-p_max], ..., y[n])
    r = np.linalg.qr(np.concatenate((w[:, -2::-1], w[:, -1:]), axis=1), mode="r")
    tail = r[:0:-1, -1]  # R[p_max, -1], ..., R[1, -1]
    with np.errstate(over="ignore"):
        return r, np.cumsum(tail * tail)[::-1].tolist()


def covariance_determinants(signal: Signal, m_range: Iterable[int]) -> CovDetReport:
    """det of the lag-vector covariance matrix for each candidate order m.

    For order m the lag vectors are phi_n = (y[n], y[n-1], ..., y[n-m])
    over all valid n and C_m = (1/count) * sum phi phi^T, an
    (m+1) x (m+1) matrix.  Once m reaches the true order the lag vectors
    become linearly dependent and the determinant collapses toward zero.
    A covariance or determinant past float range raises ValueError.
    """
    # a range's extremes are its ends, so a huge one is rejected unlisted
    ms = m_range if isinstance(m_range, range) else [int(m) for m in m_range]
    if not ms:
        raise ValueError("m_range must be non-empty")
    extremes = (ms[0], ms[-1]) if isinstance(ms, range) else ms
    if min(extremes) < 0:
        raise ValueError("orders must be >= 0")
    if len(signal) < max(extremes) + 2:
        raise ValueError(f"signal must have at least max(m) + 2 = {max(extremes) + 2} samples")
    rows_out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for m in ms:
            # rows (y[n], ..., y[n-m]), copied C-contiguous: ``@`` on the reversed view skips BLAS and sums in another order
            lags = np.ascontiguousarray(_windows(signal.samples, m + 1)[:, ::-1])
            cov = lags.T @ lags / len(lags)
            det = float(np.linalg.det(cov)) if np.isfinite(cov).all() else math.nan
            if not math.isfinite(det):
                raise ValueError(f"the determinant of the order-{m} lag covariance overflows float range")
            rows_out.append((m, det))
    return CovDetReport(tuple(rows_out))


def covdet_order(report: CovDetReport) -> OrderEstimate:
    """Read an order suggestion off the determinant collapse.

    The suggested order is the first m whose determinant magnitude falls
    to 1e-6 times the previous one or below (orders must be consecutive
    for the ratio to be meaningful).  Without a collapse the result is
    inconclusive, mirroring how the determinant table is often unreadable
    in practice.
    """
    prev_m, prev_det = None, None
    for m, det in report.per_order:
        if prev_det is not None and m == prev_m + 1:
            if abs(prev_det) == 0.0 or abs(det) <= _COLLAPSE_RATIO * abs(prev_det):
                return OrderEstimate(
                    m,
                    METHOD_COVDET,
                    {"collapse_ratio": _COLLAPSE_RATIO, "det": det, "prev_det": prev_det},
                )
        prev_m, prev_det = m, det
    return OrderEstimate(None, METHOD_COVDET, {"collapse_ratio": _COLLAPSE_RATIO})


def _sweep_section(name: str | None, sweep: RankSweep) -> tuple:
    """The CSV section (name, header, rows) of a sweep's points."""
    return name, "n,rank,gap,condition", sweep.points


def write_sweep_csv(sweep: RankSweep, path: str | Path) -> Path:
    return _write_csv(path, [_sweep_section(None, sweep)])


def write_aic_csv(report: AicReport, path: str | Path) -> Path:
    return _write_csv(path, [(None, "p,rss,aic", report.per_order)])


def write_covdet_csv(report: CovDetReport, path: str | Path) -> Path:
    return _write_csv(path, [(None, "m,det", report.per_order)])
