"""Named, seeded experiments that regenerate the canonical figure and
table datasets as CSV artifacts.

Every experiment writes a single CSV: a ``#``-prefixed header block
(name, artifact version, seed, every parameter) followed by one or more
sections, each introduced by ``# section: <name>`` and a column header
row.  Reruns with the same spec are byte-identical; no timestamps are
written.
"""

from __future__ import annotations

import decimal
import itertools
import math
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .estimators import (
    _check_sweep_length,
    _decide_points,
    _order_str,
    _plateau_onsets,
    _sweep_points,
    _sweep_section,
    aic_order,
    covariance_determinants,
    hokalman_order,
)
from .hankel import BOTTOM, RIGHT, build_augmented, build_hankel, build_rectangular_hankel, row_echelon
from .signals import Mode, ModeSum, NoiseSpec, _fmt, _noisy_rows, _write_csv, add_noise, add_offset, gen_high_order, gen_mode_sum, gen_nonhomogeneous, gen_y5, pole_pair_modes

__all__ = ["ExperimentSpec", "ExperimentSummary", "list_experiments", "run_experiment"]


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment name plus parameter overrides and a seed."""

    name: str
    parameters: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.name not in _REGISTRY:
            known = ", ".join(_REGISTRY)
            raise ValueError(f"unknown experiment {self.name!r}; registered: {known}")


class ExperimentSummary(NamedTuple):
    """What ``run_experiment`` wrote: the experiment, its headline and its CSV."""

    name: str
    headline: str
    output_path: Path

    def line(self) -> str:
        return f"{self.name},{self.headline},ok"


Section = tuple[str, str, Sequence[tuple]]  # (section name, column header, data rows)


def __getattr__(name: str):
    # bench/tracer.py wraps experiments.mpmath.svd_r, so the name resolves,
    # importing mpmath on first read; this hook goes when the tracer drops that entry
    if name == "mpmath":
        import mpmath

        return mpmath
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# runners: each takes (params, seed) and returns (headline, sections)


def _run_fig2(params: dict, seed: int) -> tuple[str, list[Section]]:
    spec = ModeSum([Mode(params["b"], params["q"])])
    signal = gen_mode_sum(spec, params["count"])
    est, sweep = hokalman_order(signal, params["n_max"])
    return _order_str(est), [_sweep_section("sweep", sweep)]


def _run_fig3(params: dict, seed: int) -> tuple[str, list[Section]]:
    for key in ("noise_rel_small", "noise_rel_large"):
        if params[key] < 0.0:
            raise ValueError(f"{key} must be >= 0")
    p = params["p"]
    count = params["count"]
    n_max = params["n_max"]
    levels = [0.0, params["noise_rel_small"], params["noise_rel_large"]]
    qs = range(params["q_min"], params["q_max"] + 1)
    cleans = {q: gen_mode_sum(pole_pair_modes(p, q), count).samples for q in qs}
    # noisy row i (level index 1 or 2) of pole pair q is seeded with seed + 97 q + i
    noisy = [i for i in (1, 2) if levels[i] > 0.0]
    if qs and noisy and seed + 97 * qs[0] + noisy[0] < 0:
        raise ValueError(
            f"q_min={qs[0]} seeds a noisy row with seed + 97*q + i = {seed + 97 * qs[0] + noisy[0]}, "
            f"which is negative; this q_min needs a seed >= {-97 * qs[0] - noisy[0]}"
        )
    grid = list(itertools.product(range(len(levels)), qs))
    noises = (
        NoiseSpec(levels[i] * float(np.abs(cleans[q]).max()), seed + 97 * q + i) if levels[i] > 0.0 else None
        for i, q in grid
    )
    samples = _noisy_rows(np.array([cleans[q] for _, q in grid]).reshape(len(grid), count), noises)
    ns = list(range(params["n_min"], n_max + 1))
    ranks = _decide_points(*_sweep_points(samples, n_max, "square", params["n_min"])).rank
    # each grid signal's sweep n = n_min..n_max, in grid order
    rows = zip(
        [levels[i] for i, _ in grid for _ in ns],
        [q for _, q in grid for _ in ns],
        ns * len(grid),
        ranks.T.ravel().tolist(),
    )
    # empirical q0: first q at which the noise-free rank at n_max drops
    # below 2.  The grid's noise-free sweeps (its first len(qs)) hold that
    # rank when they reach n_max; any other q is swept at n_max alone, one
    # q at a time, so the scan still stops at q0.
    grid_ranks = dict(zip(qs, ranks[-1].tolist())) if ns else {}

    def clean_rank(q: int) -> int:
        if q in grid_ranks:
            return grid_ranks[q]
        clean = gen_mode_sum(pole_pair_modes(p, q), count).samples
        return int(_decide_points(*_sweep_points(clean[None], n_max, "square", n_min=n_max)).rank[0, 0])

    q0 = next((q for q in range(1, params["q_scan_max"] + 1) if clean_rank(q) < 2), None)
    headline = f"q0={q0 if q0 is not None else 'none'}"
    return headline, [("rank_grid", "noise,q,n,rank", rows)]


def _run_fig1_table1(params: dict, seed: int) -> tuple[str, list[Section]]:
    signal = gen_y5(params["count"])
    est, sweep = hokalman_order(signal, params["n_max"])
    _, aic_report = aic_order(signal, params["p_max"])
    cov = covariance_determinants(signal, range(params["m_min"], params["m_max"] + 1))
    sections = [
        _sweep_section("hokalman_sweep", sweep),
        ("aic", "p,rss,aic", aic_report.per_order),
        ("covdet", "m,det", cov.per_order),
    ]
    return _order_str(est), sections


def _run_fig4(params: dict, seed: int) -> tuple[str, list[Section]]:
    signal = gen_high_order("sinusoid", params["n0"], params["count"], params["m"])
    est, sweep = hokalman_order(signal, params["n_max"])
    return _order_str(est), [_sweep_section("sweep", sweep)]


# A condition row is written only if its relative error bound is below 1e-15.
_COND_LOG10_RESOLUTION = -15.0
# A decimal number's relative rounding error wobbles tenfold across a decade
# (a binary one's twofold), so it takes about dps + 2 digits to round as
# finely throughout as binary arithmetic of dps decimal digits
# (round((dps + 1) log2 10) bits).
_DECIMAL_GUARD = 2
# The samples come from a power table this many digits wider still, so each
# is its exact value rounded once.
_SAMPLE_GUARD = 10


def _exp_family_conditions(n0: int, m: int, n_values: Sequence[int], dps: int) -> list[tuple[int, float]]:
    """True condition numbers sigma_1 / sigma_n of the square matrices H_n
    of the exponential superposition family, computed in extended precision.

    Double precision saturates near cond ~ 1e16..1e17 (both the SVD and
    the float64 quantization of the samples), so samples and spectra are
    evaluated in stdlib ``decimal`` arithmetic of ``dps`` decimal digits
    (plus two guard digits, which make decimal rounding about as fine as
    binary rounding of dps digits), in a fresh local context.

    For n <= m*n0, H_n = V D V^T with distinct nodes e^(-1/k) and positive
    weights, so it is symmetric positive definite, and every H_n is the
    leading block of H_N (N the largest such n).  One Cholesky factor
    H_N = L L^T and its inverse M = L^-1 therefore serve every n: L_n and
    M_n = L_n^-1 are leading blocks, and M_n^T M_n = H_n^-1.  sigma_1 is
    the Rayleigh quotient of H_n at the top eigenvector of float64(H_n),
    and 1/sigma_n = ||M_n w||^2 / ||w||^2 at the top right singular vector
    w of float64(M_n), both evaluated in the same decimal arithmetic.  A Rayleigh
    quotient's error is quadratic in its vector's error, and float64
    vectors are accurate to about 1e-16 only because the top eigenvalues
    of H_n and of H_n^-1 are well separated; the method relies on that,
    which these geometrically decaying spectra provide.

    For n > m*n0, H_n has rank m*n0 and the condition is +inf (the
    sigma_min = 0 convention), so it is not computed.  A non-positive
    Cholesky pivot means ``dps`` is too low for the requested n and
    raises ValueError, and so does a row whose a-posteriori relative
    error bound n * cond * 10^-dps (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 10) exceeds 1e-15.  A row that
    passes is accurate to about 1e-15 relative, not to the 2^-53 that all
    17 printed digits need, so its last digit or two are not guaranteed
    (at 50 digits rows 2..13 of the (50, 1) family equal a 120-digit run;
    other families were not compared).  A row that prints inf because M_n
    left float range has cond above the largest float.
    """
    order = m * n0
    size = max((n for n in n_values if n <= order), default=0)
    conds = {n: math.inf for n in n_values}
    # fresh contexts, so the caller's rounding or traps cannot leak in
    ctx = decimal.Context(prec=dps + _DECIMAL_GUARD)
    with decimal.localcontext(decimal.Context(prec=ctx.prec + _SAMPLE_GUARD)) as wide:
        # y[n] = (1/n0) sum_k lam_k^n with lam_k = e^(-1/k): one exp per term
        lams = [(Decimal(-1) / k).exp() for k in range(1, order + 1)]
        powers = [Decimal(1)] * len(lams)
        vals = []
        for _ in range(2 * size - 1):
            vals.append(ctx.plus(sum(powers) / n0))
            powers = list(map(wide.multiply, powers, lams))
    with decimal.localcontext(ctx):

        def dot(a, b):
            return sum(map(ctx.multiply, a, b))

        # lower-triangular rows of L (Cholesky of H_size) and of M = L^-1
        chol: list[list] = []
        inv: list[list] = []
        for i in range(size):
            row = []
            for j in range(i):
                row.append((vals[i + j] - dot(row, chol[j])) / chol[j][j])
            pivot = vals[2 * i] - dot(row, row)
            if pivot <= 0:
                raise ValueError(f"cond_dps={dps} is too low: H_{i + 1} is not positive definite at {dps} digits")
            row.append(pivot.sqrt())
            chol.append(row)
            diag = 1 / row[i]
            inv_row = [-diag * dot(row[j:i], [inv[k][j] for k in range(j, i)]) for j in range(i)]
            inv.append(inv_row + [diag])
        samples = np.array([float(v) for v in vals])
        h_float = samples[np.add.outer(np.arange(size), np.arange(size))]
        m_float = np.zeros((size, size))
        for i, row in enumerate(inv):
            m_float[i, : i + 1] = [float(x) for x in row]
        for n in n_values:
            # an entry of M_n past float range makes sigma_1 / sigma_n >= y[0] * entry^2 overflow too
            if n > order or not np.isfinite(m_float[:n, :n]).all():
                continue
            v = list(map(Decimal, np.linalg.eigh(h_float[:n, :n])[1][:, -1].tolist()))
            hv = [dot(vals[i : i + n], v) for i in range(n)]
            top = dot(hv, v) / dot(v, v)
            w = list(map(Decimal, np.linalg.svd(m_float[:n, :n])[2][0].tolist()))
            mw = [dot(inv[i], w) for i in range(n)]
            conds[n] = float(top * dot(mw, mw) / dot(w, w))
    for n in n_values:
        if n > order:
            continue
        log_bound = math.log10(n) + math.log10(min(conds[n], sys.float_info.max)) - dps
        if log_bound > _COND_LOG10_RESOLUTION:
            raise ValueError(
                f"cond_dps={dps} is too low: H_{n} has condition {conds[n]:.3g}, "
                f"resolved at {dps} digits only to about 10^{log_bound:.0f} relative"
            )
    return [(n, conds[n]) for n in n_values]


def _run_fig5(params: dict, seed: int) -> tuple[str, list[Section]]:
    if params["cond_n_max"] < 2:
        raise ValueError("cond_n_max must be >= 2")
    if params["cond_dps"] < 1:
        raise ValueError("cond_dps must be >= 1")
    signal = gen_high_order("exponential", params["n0"], params["count"], params["m"])
    est, sweep = hokalman_order(signal, params["n_max"])
    conds = _exp_family_conditions(
        params["n0"], params["m"], range(2, params["cond_n_max"] + 1), params["cond_dps"]
    )
    sections = [
        _sweep_section("sweep", sweep),
        ("condition_extended", "n,condition", conds),
    ]
    return _order_str(est), sections


def _run_sec33(params: dict, seed: int) -> tuple[str, list[Section]]:
    n = params["n"]
    y, u = gen_nonhomogeneous(params["count"], params["sample_period"])
    matrices = [build_hankel(y, n).entries] + [build_augmented(y, u, n, side).entries for side in (BOTTOM, RIGHT)]
    # one decision for the three matrices of one unscaled row, each at its default cut max(shape) * eps
    decided = _decide_points([(m.shape, m[None]) for m in matrices], np.zeros(1, dtype=int))
    unaug, bottom, right = decided.rank[:, 0].tolist()
    rows = [
        ("unaugmented", n, n, unaug),
        ("augmented_bottom", n + 1, n, bottom),
        ("augmented_right", n, n + 1, right),
    ]
    headline = f"rank={unaug};aug_bottom={bottom};aug_right={right}"
    return headline, [("ranks", "matrix,rows,cols,rank", rows)]


def _noise_amplitude(samples: np.ndarray, snr_db: float) -> float:
    """The uniform noise amplitude sqrt(3) * rms(samples) / 10^(snr_db/20),
    whose noise lies snr_db below the samples."""
    with np.errstate(over="ignore"):
        rms = float(np.sqrt(np.mean(samples**2)))
    try:
        return float(np.sqrt(3.0)) * rms / (10.0 ** (snr_db / 20.0))
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"snr_db={snr_db!r} puts the noise amplitude outside float range") from None


def _run_offset(params: dict, seed: int) -> tuple[str, list[Section]]:
    trials = params["trials"]
    if trials < 0:
        raise ValueError("trials must be >= 0")
    count = params["count"]
    base = gen_mode_sum(ModeSum([Mode(1.0, params["q"])]), count)
    pair = np.stack([base.samples, add_offset(base, params["offset"]).samples])
    amp = _noise_amplitude(base.samples, params["snr_db"])
    # the two noise-free signals, then each trial's one draw added to both
    noises = itertools.chain([None], (NoiseSpec(amp, seed + t) for t in range(trials)))
    samples = _noisy_rows(np.broadcast_to(pair, (1 + trials, 2, count)), noises).reshape(-1, count)
    n_max = params["n_max"]
    _check_sweep_length(count, n_max)  # onsets need every n x n matrix, as in hokalman_order
    onsets = _plateau_onsets(samples[2:], n_max)
    ns = list(range(2, n_max + 1))
    plain, offset = _decide_points(*_sweep_points(samples[:2], n_max, "all")).rank.T.tolist()
    rows_free = zip(["plain"] * len(ns) + ["offset"] * len(ns), ns * 2, plain + offset)
    on_plain, on_offset = onsets[::2], onsets[1::2]
    favourable = sum(o <= p for p, o in zip(on_plain, on_offset))
    rows_onsets = zip(range(trials), on_plain, on_offset)
    sections: list[Section] = [
        ("noise_free_sweep", "variant,n,rank", rows_free),
        ("onsets", "trial,onset_plain,onset_offset", rows_onsets),
    ]
    headline = f"offset_onset<=plain:{favourable}/{trials}"
    return headline, sections


def _run_echelon(params: dict, seed: int) -> tuple[str, list[Section]]:
    count = params["count"]
    base = gen_mode_sum(ModeSum([Mode(1.0, params["q"])]), count)
    amp = _noise_amplitude(base.samples, params["snr_db"])
    noisy = add_noise(base, NoiseSpec(amp, seed))
    ranks = _decide_points(*_sweep_points(noisy.samples[None], params["n_max"], "all")).rank
    rows = []
    for n, rank in enumerate(ranks[:, 0].tolist(), start=2):
        mat = build_rectangular_hankel(noisy, n, count - n + 1)
        _, pivots = row_echelon(mat.entries, params["echelon_tol"])
        rows.append((n, rank, pivots))
    headline = f"svd_rank={rows[-1][1]};echelon_rank={rows[-1][2]}"
    return headline, [("comparison", "n,svd_rank,echelon_rank", rows)]


class _Experiment(NamedTuple):
    name: str
    description: str
    defaults: dict
    default_seed: int
    runner: Callable[[dict, int], tuple[str, list[Section]]]


_REGISTRY: dict[str, _Experiment] = {exp.name: exp for exp in (
    _Experiment(
        "fig2_first_order",
        "Rank sweep of a noise-free first-order exponential response (fig2 dataset; rank stays 1)",
        {"b": 1.0, "q": 0.5, "count": 40, "n_max": 10},
        20,
        _run_fig2,
    ),
    _Experiment(
        "fig3_pole_proximity",
        "Rank grid over matrix size and pole proximity q (dp = 2^-q), noise-free and at two noise amplitudes (fig3 dataset)",
        {
            "p": 10.0, "count": 40, "q_min": 1, "q_max": 16, "n_min": 2, "n_max": 8,
            "noise_rel_small": 1e-6, "noise_rel_large": 1e-5, "q_scan_max": 60,
        },
        30,
        _run_fig3,
    ),
    _Experiment(
        "fig1_table1_y5",
        "Five-mode benchmark: rank sweep, AIC report and covariance determinants (fig1/table1 dataset)",
        {"count": 40, "n_max": 8, "p_max": 10, "m_min": 2, "m_max": 8},
        10,
        _run_fig1_table1,
    ),
    _Experiment(
        "fig4_high_order_sin",
        "Rank sweep for a 50-term sinusoidal superposition (fig4 dataset)",
        {"n0": 50, "m": 1, "count": 119, "n_max": 60},
        40,
        _run_fig4,
    ),
    _Experiment(
        "fig5_high_order_exp",
        "Rank sweep for a 50-term exponential superposition with an extended-precision condition log (fig5 dataset)",
        {"n0": 50, "m": 1, "count": 119, "n_max": 60, "cond_n_max": 10, "cond_dps": 50},
        50,
        _run_fig5,
    ),
    _Experiment(
        "sec33_nonhomogeneous",
        "Forced first-order system: square rank plus bottom/right input-augmented ranks (sec33 dataset; all 2)",
        {"count": 40, "n": 10, "sample_period": 1.0},
        0,
        _run_sec33,
    ),
    _Experiment(
        "offset_effect",
        "Noisy first-order sweeps with and without a unit offset, comparing plateau onsets (offset study)",
        {"q": 0.5, "count": 40, "offset": 1.0, "snr_db": 40.0, "trials": 50, "n_max": 10},
        80,
        _run_offset,
    ),
    _Experiment(
        "echelon_effect",
        "Noisy sweep comparing SVD-policy rank against row-echelon pivot count (echelon study)",
        {"q": 0.5, "count": 40, "snr_db": 40.0, "echelon_tol": 1e-6, "n_max": 10},
        90,
        _run_echelon,
    ),
)}


def list_experiments() -> list[tuple[str, str, dict]]:
    """Registered experiments in stable order: (name, description, defaults)."""
    return [(e.name, e.description, dict(e.defaults)) for e in _REGISTRY.values()]


def _coerce(key: str, default, value):
    """Cast an override to its default's type; a lossy cast (8.7 for an
    integer parameter) or an unparsable string is rejected."""
    kind = type(default)
    try:
        cast = kind(value)
    except (TypeError, ValueError, OverflowError):
        cast = None
    if cast is None or (not isinstance(value, str) and cast != value):
        raise ValueError(f"parameter {key} expects {kind.__name__}, got {value!r}")
    return cast


def run_experiment(spec: ExperimentSpec, output_path: str | Path) -> ExperimentSummary:
    """Run a registered experiment and write its CSV artifact.

    Unknown experiment names and unknown parameter overrides are
    rejected with the list of valid choices; an override or seed that
    does not round-trip through its default's type is rejected too.
    """
    exp = _REGISTRY[spec.name]
    unknown = set(spec.parameters) - set(exp.defaults)
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for {spec.name}; "
            f"valid: {sorted(exp.defaults)}"
        )
    params = dict(exp.defaults)
    for key, value in spec.parameters.items():
        params[key] = _coerce(key, exp.defaults[key], value)
    seed = exp.default_seed if spec.seed is None else _coerce("seed", exp.default_seed, spec.seed)

    headline, sections = exp.runner(params, seed)

    header = [f"experiment: {exp.name}", f"artifact_version: {__version__}", f"seed: {seed}"]
    header += [f"param {key}: {_fmt(params[key])}" for key in sorted(params)]
    return ExperimentSummary(exp.name, headline, _write_csv(output_path, sections, header))
