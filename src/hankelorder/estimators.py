"""Order estimators: Hankel rank sweeps, an AIC baseline, and the
covariance-determinant baseline.

The rank-sweep estimator computes the numerical rank of responses
matrices of growing row count and declares the order once the sweep has
plateaued.  By default each n-row matrix uses every available sample
(columns = len - n + 1): in exact arithmetic its rank equals the square
n x n rank, and the extra columns push small signal singular values well
clear of the rounding floor.  Pass ``columns="square"`` for the literal
n x n layout.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .hankel import _windows
from .rank import EPS, RELATIVE, RankPolicy, _decide
from .signals import Signal, _fmt, _write_csv

__all__ = [
    "METHOD_HOKALMAN",
    "METHOD_AIC",
    "METHOD_COVDET",
    "SweepPoint",
    "RankSweep",
    "OrderEstimate",
    "AicReport",
    "CovDetReport",
    "hokalman_order",
    "plateau_onset",
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

# A sweep takes the tall QR path once H_{n_max}^T has at least this many
# rows per column; below it the dense per-n SVDs are as fast.  It also
# sets the reduction tree's block height (this many rows per column) and
# group size (this many blocks to one LAPACK call).
_TALL_ROWS_PER_COL = 16


@dataclass(frozen=True, slots=True)
class SweepPoint:
    n: int
    rank: int
    decision_gap: float
    condition: float


@dataclass(frozen=True)
class RankSweep:
    """Rank estimates as a function of the matrix row count n."""

    points: tuple[SweepPoint, ...]

    def __post_init__(self) -> None:
        ns = [p.n for p in self.points]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("sweep points must have strictly increasing n")
        if any(p.rank > p.n for p in self.points):
            raise ValueError("rank cannot exceed n")

    @property
    def ranks(self) -> list[int]:
        return [p.rank for p in self.points]


@dataclass(frozen=True)
class OrderEstimate:
    """A selected order (None when inconclusive) plus method diagnostics."""

    order: int | None
    method: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.order is not None and self.order < 0:
            raise ValueError("a conclusive order must be >= 0")

    @property
    def conclusive(self) -> bool:
        return self.order is not None


def _order_str(estimate: OrderEstimate) -> str:
    """``order=<n>``, or ``order=inconclusive`` without a conclusive order."""
    return f"order={estimate.order if estimate.conclusive else 'inconclusive'}"


@dataclass(frozen=True)
class AicReport:
    per_order: tuple[tuple[int, float, float], ...]  # (p, rss, aic_value)
    selected: int

    def __post_init__(self) -> None:
        best = min(self.per_order, key=lambda row: (row[2], row[0]))
        if best[0] != self.selected:
            raise ValueError("selected order must be the AIC argmin (ties to smaller p)")


@dataclass(frozen=True)
class CovDetReport:
    per_order: tuple[tuple[int, float], ...]  # (m, det)


def _tall_r(w: np.ndarray) -> np.ndarray:
    """The (..., c, c) R factor of a stack of tall (..., rows, c) matrices
    with rows >= 16 c, by a TSQR reduction tree (Demmel, Grigori, Hoemmen
    & Langou, SIAM J. Sci. Comput. 34(1), 2012).

    w is split into blocks of 16 c rows (a zero-copy reshape of a window
    view), each factored while it sits in cache; the R factors of all
    blocks, stacked on the leftover rows, form the next, 16 times shorter
    matrix, until one block remains.  Each LAPACK call takes at most 16
    blocks of each matrix in the stack (16 k blocks for k matrices),
    because np.linalg.qr copies its whole input first.  R has the
    backward stability of one Householder QR of w, and the same singular
    values up to rounding, but not the same bits.
    """
    c = w.shape[-1]
    block = _TALL_ROWS_PER_COL * c
    while (rows := w.shape[-2]) > block:
        nb = rows // block
        blocks = w[..., : nb * block, :].reshape(w.shape[:-2] + (nb, block, c))
        parts = [
            np.linalg.qr(blocks[..., g : g + _TALL_ROWS_PER_COL, :, :], mode="r")
            for g in range(0, nb, _TALL_ROWS_PER_COL)
        ]
        parts = [r.reshape(w.shape[:-2] + (r.shape[-3] * c, c)) for r in parts]
        w = np.concatenate([*parts, w[..., nb * block :, :]], axis=-2)
    return np.linalg.qr(w, mode="r")


def _sweep_matrices(y: np.ndarray, n_max: int, columns: str, n_min: int = 2):
    """(shape, matrices) for n = n_min..n_max, where y holds signals along its
    last axis: shape is that of the n-row sweep matrix, and matrices holds,
    for each signal, a matrix with its singular values.

    Dense path: a zero-copy window view of the n x cols Hankel matrices.
    Tall path ("all" columns, L - n_max + 1 >= 16 n_max rows): with
    W = H_{n_max}^T = QR (R from the blocked reduction of ``_tall_r``),
    H_n^T stacks W[:, :n] on the n_max - n trailing windows; Q has
    orthonormal columns, so H_n shares its singular values with the
    (2 n_max - n) x n matrix [R[:, :n]; trailing windows].
    """
    size = y.shape[-1]
    rows = size - n_max + 1
    # padded[..., k] = y[..., k] for k < L and 0 beyond, so windows may run past the end
    padded = np.concatenate([y, np.zeros(y.shape[:-1] + (n_max,))], axis=-1)
    if columns == "all" and rows >= _TALL_ROWS_PER_COL * n_max:
        r = _tall_r(_windows(y, n_max))
        trailing = _windows(padded, n_max)[..., rows : rows + n_max - 1, :]
        stacked = np.concatenate([r, trailing], axis=-2)
        for n in range(n_min, n_max + 1):
            yield (n, size - n + 1), stacked[..., : 2 * n_max - n, :n]
    else:
        windows = _windows(padded, size)  # windows[..., i, j] = y[..., i + j] while i + j < L
        for n in range(n_min, n_max + 1):
            cols = n if columns == "square" else size - n + 1
            yield (n, cols), windows[..., :n, :cols]


def _sweep_points(samples: np.ndarray, n_max: int, columns: str, n_min: int = 2) -> list:
    """The (shape, matrices) points of a sweep over n = n_min..n_max of a
    (k, L) stack (``_sweep_matrices``), after checking the arguments.
    n_max must be >= 2, except for the one-point sweep n_min = n_max = 1.

    "square" sweeps need L >= 2 n_max - 1; "all" sweeps need only
    L >= n_max, so their n x (L - n + 1) matrices turn wide to tall past
    n = (L + 1) / 2 (the plateau rule of ``hokalman_order`` needs the
    2 n_max - 1 of ``_check_sweep_length``)."""
    if n_min < 1:
        raise ValueError("n_min must be >= 1")
    if n_max < min(n_min, 2):
        raise ValueError(f"n_max must be >= {min(n_min, 2)}")
    if columns not in ("all", "square"):
        raise ValueError("columns must be 'all' or 'square'")
    size = samples.shape[-1]
    if columns == "square":
        _check_sweep_length(size, n_max)
    elif size < n_max:
        raise ValueError(f"signal has {size} samples but a sweep to n = {n_max} requires at least {n_max}")
    return list(_sweep_matrices(np.ascontiguousarray(samples, dtype=float), n_max, columns, n_min))


def _decide_points(points: list, samples: np.ndarray, policy: RankPolicy | None):
    """(rank, gap, condition) arrays of shape (points, k): the decisions at
    sweep points (shape, matrices) whose matrices come from the k rows of
    ``samples``, with one LAPACK SVD call per point for the whole stack.
    A stacked SVD gives each matrix bit for bit the singular values a
    call on that matrix alone gives.  All spectra go zero-padded into one
    (points, k, m_max + 1) array, and one ``_decide`` call decides them.
    ``policy`` None means the per-matrix default policy, whose cut
    max(rows, cols) * eps is taken per point.  A largest singular value
    past float range raises ValueError naming the first such matrix's
    shape and the largest |y|."""
    shapes = np.array([shape for shape, _ in points], dtype=int).reshape(-1, 2)
    lengths = shapes.min(1)
    # zero padding, at least one column, so that even an empty sweep has a gap-policy pair
    spectra = np.zeros((len(points), len(samples), lengths.max(initial=1) + 1))
    if policy is None:
        kind, value = RELATIVE, shapes.max(1)[:, None] * EPS
    else:
        kind, value = policy.kind, policy.value
    try:
        for i, (_, matrices) in enumerate(points):
            spectra[i, :, : lengths[i]] = np.linalg.svd(matrices, compute_uv=False)
        return _decide(spectra, lengths[:, None], kind, value)
    except ValueError:  # np.linalg.LinAlgError is one, and _decide's spectrum check
        # name the first point whose SVD failed or gave a value past float range
        i = next((j for j in range(i) if not np.isfinite(spectra[j]).all()), i)
        shape = shapes[i]
        raise ValueError(
            f"the largest singular value of the {shape[0]} x {shape[1]} Hankel matrix of a signal "
            f"with max |y| = {_fmt(float(np.abs(samples).max()))} leaves float range"
        ) from None


def _rank_sweeps(
    samples: np.ndarray, n_max: int, columns: str, policy: RankPolicy | None, n_min: int = 2
) -> list[RankSweep]:
    """The rank sweep over n = n_min..n_max of each row of a (k, L) stack
    of finite samples (k may be 0), decided in one pass
    (``_decide_points``).  The arguments are checked as in
    ``_sweep_points``."""
    points = _sweep_points(samples, n_max, columns, n_min)
    ranks, gaps, conds = _decide_points(points, samples, policy)
    ns = [shape[0] for shape, _ in points]
    return [
        RankSweep(tuple(map(SweepPoint, ns, r, g, c)))
        for r, g, c in zip(ranks.T.tolist(), gaps.T.tolist(), conds.T.tolist())
    ]


def _sigmas_in_range(samples: np.ndarray, n_max: int) -> bool:
    """Whether no matrix of a sweep to n_max of a (k, L) stack can have a
    largest singular value past float range: each is at most its
    Frobenius norm, at most max|y| sqrt(n_max L), and a margin of 16
    leaves room for rounding."""
    bound = float(np.abs(samples).max(initial=0.0)) * math.sqrt(n_max * samples.shape[-1])
    return bound < sys.float_info.max / 16


def _plateau_onsets(samples: np.ndarray, n_max: int, columns: str, policy: RankPolicy | None) -> list[int]:
    """``plateau_onset`` of each row's sweep n = 2..n_max of a (k, L) stack,
    without deciding every n of every row.

    An onset is the first n of the trailing constant-rank run, so it
    depends only on the ranks from n_max down to the first change.  The
    walk decides n = n_max for the whole stack, then n_max - 1, n_max - 2,
    ... only for the rows whose rank still equals their n_max rank; a
    row's onset is the last n at which it did.  A row whose n_max rank
    exceeds min(shape) of the next n's matrix leaves without an SVD
    there: a decision counts at most min(shape) singular values, so that
    rank cannot recur.  Each step is one stacked SVD of the live rows'
    views of the full sweep (the dense or tall path chosen by n_max, as
    in ``_rank_sweeps``), and every decision is the one ``_rank_sweeps``
    makes, bit for bit.

    Rows are dropped only when max|y| sqrt(n_max L) lies well inside float
    range; otherwise a skipped n could overflow, and every n of the whole
    stack is decided, so a sweep past float range raises the error
    ``_rank_sweeps`` raises."""
    points = _sweep_points(samples, n_max, columns)
    if not _sigmas_in_range(samples, n_max):
        return [plateau_onset(s) for s in _rank_sweeps(samples, n_max, columns, policy)]
    onsets = np.full(len(samples), n_max)
    live, final = np.arange(len(samples)), None
    for shape, matrices in reversed(points):
        if final is not None:
            # a decision counts at most min(shape) values, so a larger n_max rank cannot recur here
            fits = final <= min(shape)
            live, final = live[fits], final[fits]
        if not live.size:
            break
        [ranks], _, _ = _decide_points([(shape, matrices[live])], samples[live], policy)
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
    signal: Signal,
    n_max: int,
    policy: RankPolicy | None = None,
    *,
    plateau_len: int = 3,
    columns: str = "all",
) -> tuple[OrderEstimate, RankSweep]:
    """Rank sweep over n = 2..n_max with plateau-based order selection.

    The estimate is the final sweep value provided the last
    ``plateau_len`` ranks are all equal; otherwise the result is
    inconclusive and the full sweep is returned for inspection.  The
    default policy is the per-matrix relative threshold
    max(rows, cols) * eps.

    Long signals (``columns="all"`` and L - n_max + 1 >= 16 n_max)
    factor H_{n_max}^T once, by a blocked tall-skinny QR that factors
    blocks of 16 n_max rows and then their stacked R factors, and take
    each spectrum from a small (2 n_max - n) x n matrix with the same
    singular values; everything else runs one dense SVD per n.  Both
    paths give the same ranks, but rounding-level ``gap`` and
    ``condition`` values from the QR path can differ from the dense ones
    in the last bits.
    """
    if plateau_len < 1:
        raise ValueError("plateau_len must be >= 1")
    _check_sweep_length(len(signal), n_max)
    [sweep] = _rank_sweeps(signal.samples[None], n_max, columns, policy)
    ranks = sweep.ranks
    tail = ranks[-plateau_len:]
    conclusive = len(ranks) >= plateau_len and len(set(tail)) == 1
    diagnostics = {
        "plateau_len": plateau_len,
        "columns": columns,
        "policy": (policy.describe() if policy is not None else "default(max(shape)*eps)"),
        "conclusive": conclusive,
    }
    order = ranks[-1] if conclusive else None
    return OrderEstimate(order, METHOD_HOKALMAN, diagnostics), sweep


def plateau_onset(sweep: RankSweep) -> int:
    """First n of the trailing constant-rank run (n_max if the last point
    stands alone).  An empty sweep raises ValueError."""
    ranks = sweep.ranks
    if not ranks:
        raise ValueError("plateau_onset needs a sweep with at least one point; this sweep is empty")
    final = ranks[-1]
    i = len(ranks)
    while i > 0 and ranks[i - 1] == final:
        i -= 1
    return sweep.points[i].n


def _lag_matrix(y: np.ndarray, width: int, start: int) -> np.ndarray:
    """The (len(y) - start) x width matrix with rows (y[n], y[n-1], ...,
    y[n-width+1]) for n = start..len-1, copied C-contiguous from a reversed
    window view: ``@`` on that negative-stride view skips BLAS and sums in
    another order."""
    return np.ascontiguousarray(_windows(y[start - width + 1 :], width)[:, ::-1])


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
    within [1e-300, 1e308] (1e-300 for all-zero or underflowed data).
    Every order at or past the order of a noise-free signal sits under
    it, and the argmin takes the smallest such order.  The floor scales
    with the signal squared, so the selection is invariant under scaling.

    R[j, j]^2 is the residual of regressor column j on the columns before
    it, a sum of squares of the same kind, so the order-p fit counts as
    rank-deficient when some R[j, j]^2 with j < p is at or under the floor.
    """
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    if len(signal) < 2 * p_max + 1:
        raise ValueError(f"signal must have at least 2*p_max + 1 = {2 * p_max + 1} samples")
    y = signal.samples
    k = len(y) - p_max
    w = _windows(y, p_max + 1)  # rows (y[n-p_max], ..., y[n])
    r = np.linalg.qr(np.concatenate((w[:, -2::-1], w[:, -1:]), axis=1), mode="r")
    tail = r[:0:-1, -1]  # R[p_max, -1], ..., R[1, -1]
    with np.errstate(over="ignore"):
        rss = np.cumsum(tail * tail)[::-1].tolist()
    # rss_1 is the largest, so no order overflows unless order 1 does
    if not math.isfinite(rss[0]):
        raise ValueError("the residual sum of squares of the order-1 AR fit overflows float range")
    scale = min(max(k * (p_max + 1) * (EPS / 2) * float(np.abs(y).max()), 1e-150), 1e154)
    floor = scale * scale
    rows = tuple((p, v, k * math.log(max(v, floor) / k) + 2.0 * p) for p, v in enumerate(rss, 1))
    report = AicReport(rows, min(rows, key=lambda row: (row[2], row[0]))[0])
    deficient = int(np.count_nonzero(np.minimum.accumulate(np.abs(r.diagonal()[:p_max])) <= scale))
    diagnostics = {"p_max": p_max, "residual_count": k, "rank_deficient_fits": deficient, "rss_floor": floor}
    return OrderEstimate(report.selected, METHOD_AIC, diagnostics), report


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
            lags = _lag_matrix(signal.samples, m + 1, m)
            cov = lags.T @ lags / len(lags)
            det = float(np.linalg.det(cov)) if np.isfinite(cov).all() else math.nan
            if not math.isfinite(det):
                raise ValueError(f"the determinant of the order-{m} lag covariance overflows float range")
            rows_out.append((m, det))
    return CovDetReport(tuple(rows_out))


def covdet_order(report: CovDetReport, collapse_ratio: float = 1e-6) -> OrderEstimate:
    """Read an order suggestion off the determinant collapse.

    The suggested order is the first m whose determinant magnitude falls
    below ``collapse_ratio`` times the previous one (orders must be
    consecutive for the ratio to be meaningful).  Without a collapse the
    result is inconclusive, mirroring how the determinant table is often
    unreadable in practice.
    """
    prev_m, prev_det = None, None
    for m, det in report.per_order:
        if prev_det is not None and m == prev_m + 1:
            if abs(prev_det) == 0.0 or abs(det) <= collapse_ratio * abs(prev_det):
                return OrderEstimate(
                    m,
                    METHOD_COVDET,
                    {"collapse_ratio": collapse_ratio, "det": det, "prev_det": prev_det},
                )
        prev_m, prev_det = m, det
    return OrderEstimate(None, METHOD_COVDET, {"collapse_ratio": collapse_ratio})


def _sweep_rows(sweep: RankSweep) -> list[tuple]:
    return [(p.n, p.rank, p.decision_gap, p.condition) for p in sweep.points]


def write_sweep_csv(sweep: RankSweep, path: str | Path) -> Path:
    return _write_csv(path, [(None, "n,rank,gap,condition", _sweep_rows(sweep))])


def write_aic_csv(report: AicReport, path: str | Path) -> Path:
    return _write_csv(path, [(None, "p,rss,aic", report.per_order)])


def write_covdet_csv(report: CovDetReport, path: str | Path) -> Path:
    return _write_csv(path, [(None, "m,det", report.per_order)])
