"""Synthesis of the response families used throughout the toolkit.

Every generator is a pure, deterministic function of its arguments.  A
response is represented as a :class:`Signal`: a finite sampled sequence,
its sample period, and a provenance string describing how it was made.
Signals built from explicit exponential/oscillatory modes also carry the
mode list, so the true model order of the generating system is known and
survives operations (such as adding an offset) that change it in a
predictable way.
"""

from __future__ import annotations

import math
import os
import stat
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Mode",
    "ModeSum",
    "NoiseSpec",
    "Signal",
    "gen_mode_sum",
    "gen_y5",
    "gen_high_order",
    "gen_nonhomogeneous",
    "pole_pair_modes",
    "add_noise",
    "add_offset",
    "rational_mode_sum",
    "write_signal_csv",
    "write_pair_csv",
    "read_signal_csv",
]


@dataclass(frozen=True)
class Mode:
    """One term ``c * exp(-d*t) * cos(w*t)`` of a mode sum.

    ``decay_rate`` and ``angular_frequency`` are per unit time; with the
    default sample period of 1 they are per-sample quantities.
    """

    coefficient: float
    decay_rate: float
    angular_frequency: float = 0.0

    def __post_init__(self) -> None:
        for name in ("coefficient", "decay_rate", "angular_frequency"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"mode {name} must be finite")
        # cos is even, so the sign of the frequency carries no information
        object.__setattr__(self, "angular_frequency", abs(self.angular_frequency))

    @property
    def order_contribution(self) -> int:
        """1 for a pure exponential, 2 for an oscillatory (conjugate-pair) mode."""
        return 1 if self.angular_frequency == 0.0 else 2


@dataclass(frozen=True)
class ModeSum:
    """A canonical set of modes.

    Construction merges modes that share the same (decay_rate,
    angular_frequency) pair by summing their coefficients, then drops
    any mode whose coefficient is exactly zero.  The stored tuple is
    sorted, so two mode lists that differ only by permutation construct
    equal ModeSums.
    """

    modes: tuple[Mode, ...]

    def __init__(self, modes: Iterable[Mode | tuple]) -> None:
        groups: dict[tuple[float, float], list[float]] = {}
        for m in modes:
            if not isinstance(m, Mode):
                m = Mode(*m)
            key = (m.decay_rate, m.angular_frequency)
            groups.setdefault(key, []).append(m.coefficient)
        merged = []
        for (d, w), coeffs in groups.items():
            try:
                c = math.fsum(coeffs)
            except OverflowError:
                raise ValueError(
                    f"the coefficients of the modes with decay_rate={d:g}, "
                    f"angular_frequency={w:g} sum past float range"
                ) from None
            if c != 0.0:
                merged.append(Mode(c, d, w))
        merged.sort(key=lambda m: (m.decay_rate, m.angular_frequency, m.coefficient))
        object.__setattr__(self, "modes", tuple(merged))

    @property
    def true_order(self) -> int:
        """Model order of the generating system (a cos pair counts as 2)."""
        return sum(m.order_contribution for m in self.modes)

    @property
    def description(self) -> str:
        if not self.modes:
            return "0"
        parts = []
        for m in self.modes:
            term = f"{m.coefficient:g}*exp(-{m.decay_rate:g}*t)"
            if m.angular_frequency != 0.0:
                term += f"*cos({m.angular_frequency:g}*t)"
            parts.append(term)
        return " + ".join(parts)


@dataclass(frozen=True)
class NoiseSpec:
    """Zero-mean uniform noise on [-amplitude, +amplitude], seeded."""

    amplitude: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.amplitude >= 0.0 and math.isfinite(self.amplitude)):
            raise ValueError("noise amplitude must be finite and >= 0")
        # a draw on [-a, a] needs its width 2a in float range
        if not math.isfinite(2.0 * self.amplitude):
            raise ValueError(f"noise amplitude must be at most float max / 2, got {self.amplitude!r}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class Signal:
    """A finite real sampled sequence.

    ``true_order`` is the model order of the noise-free synthesis when it
    is known (noise does not reset it; it refers to the underlying
    system).  ``modes`` carries the exact mode structure when the samples
    are a pure mode sum, and is None otherwise.
    """

    samples: np.ndarray
    sample_period: float = 1.0
    provenance: str = ""
    true_order: int | None = None
    modes: ModeSum | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must all be finite")
        if not (self.sample_period > 0.0 and math.isfinite(self.sample_period)):
            raise ValueError("sample_period must be finite and > 0")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return int(self.samples.size)


def _validate_grid(count: int, sample_period: float = 1.0) -> None:
    if count < 1:
        raise ValueError("count must be >= 1")
    if not (sample_period > 0.0 and math.isfinite(sample_period)):
        raise ValueError("sample_period must be finite and > 0")


# r**n rounds to 0 once it is below 2**-1075, half the smallest subnormal
_LOG_UNDERFLOW = -1075 * math.log(2.0)


def gen_mode_sum(spec: ModeSum, count: int, sample_period: float = 1.0) -> Signal:
    """Sample ``sum_i c_i exp(-d_i t) cos(w_i t)`` at t = n*sample_period.

    Each mode is evaluated as ``c * r**n`` with ``r = exp(-d*T)``, which
    keeps dyadic cases (e.g. r = 1/2) exact in floating point.  For
    0 < r < 1 only the samples before r**n underflows to 0 are evaluated
    (np.power is slow on subnormal and zero results): the terms beyond
    are c * (+-0.0), which leave the sum's bits unchanged, as the sum
    never holds -0.0.  A mode or a sum that overflows float range
    raises ValueError.
    """
    _validate_grid(count, sample_period)
    n = np.arange(count, dtype=float)
    out = np.zeros(count)
    with np.errstate(over="ignore"):  # overflow raises below, or in Signal
        for m in spec.modes:
            try:
                r = math.exp(-m.decay_rate * sample_period)
            except OverflowError:  # then r**n overflows from n = 1 on
                r = math.inf
            t = n[: math.ceil(_LOG_UNDERFLOW / math.log(r)) + 2] if 0.0 < r < 1.0 else n
            term = m.coefficient * np.power(r, t)
            if r > 1.0 and not np.isfinite(term).all():
                raise ValueError(f"{m} overflows float range within {count} samples of period {sample_period:g}")
            if m.angular_frequency != 0.0:
                if not math.isfinite(m.angular_frequency * sample_period * (t.size - 1)):
                    raise ValueError(f"{m} has a phase past float range within {count} samples")
                term = term * np.cos(m.angular_frequency * sample_period * t)
            out[: t.size] += term
    return Signal(
        samples=out,
        sample_period=sample_period,
        provenance=f"mode_sum[{spec.description}], T={sample_period:g}",
        true_order=spec.true_order,
        modes=spec,
    )


def gen_y5(count: int) -> Signal:
    """The five-mode benchmark response.

    y[n] = (1/7) * sum_{k=1..7} (-1)^(k+1) sin(2*pi*k/3) exp(-n/(10k)).
    The k = 3 and k = 6 terms have sin(2*pi*k/3) = 0 exactly and are
    dropped at construction, leaving 5 distinct exponential modes.
    """
    half_sqrt3 = math.sqrt(3.0) / 2.0
    modes = []
    for k in range(1, 8):
        rem = k % 3
        s = 0.0 if rem == 0 else (half_sqrt3 if rem == 1 else -half_sqrt3)
        modes.append(Mode((-1.0) ** (k + 1) * s / 7.0, 1.0 / (10.0 * k)))
    spec = ModeSum(modes)
    sig = gen_mode_sum(spec, count)
    return replace(sig, provenance=f"y5_benchmark[{spec.description}], T=1")


def pole_pair_modes(p: float = 10.0, q: int = 1) -> ModeSum:
    """Near-coincident pole pair: 0.5*exp(-n/p) + (0.5+dp)*exp(-n/(p+dp)).

    dp = 2**(-q); as q grows the two poles merge.  Once p + dp rounds to
    p in floating point the two modes coincide and are merged into one.
    """
    if p <= 0:
        raise ValueError("p must be > 0")
    try:
        dp = 2.0 ** (-q)
    except OverflowError:
        raise ValueError(f"q={q} puts the pole spacing 2^-q outside float range") from None
    return ModeSum([
        Mode(0.5, 1.0 / p),
        Mode(0.5 + dp, 1.0 / (p + dp)),
    ])


def gen_high_order(f0: str, n0: int, count: int, m: int = 1, sample_period: float = 1.0) -> Signal:
    """Superposition of m*n0 scaled copies of a base function.

    y[n] = (1/n0) * sum_{k=1..m*n0} f0(n*T / k), with f0 either a
    decaying exponential exp(-x) or a sinusoid sin(x).
    """
    _validate_grid(count, sample_period)
    if f0 not in ("sinusoid", "exponential"):
        raise ValueError(f"f0 must be 'sinusoid' or 'exponential', got {f0!r}")
    if n0 < 1 or m < 1:
        raise ValueError("n0 and m must be >= 1")
    terms = m * n0
    prov = f"high_order[f0={f0}, n0={n0}, m={m}, s_k=k], T={sample_period:g}"
    if f0 == "exponential":
        spec = ModeSum([Mode(1.0 / n0, 1.0 / k) for k in range(1, terms + 1)])
        sig = gen_mode_sum(spec, count, sample_period)
        return replace(sig, provenance=prov)
    t = np.arange(count, dtype=float) * sample_period
    out = np.zeros(count)
    for k in range(1, terms + 1):
        out += np.sin(t / k)
    out /= n0
    return Signal(samples=out, sample_period=sample_period, provenance=prov, true_order=2 * terms)


def gen_nonhomogeneous(count: int, sample_period: float = 1.0) -> tuple[Signal, Signal]:
    """Sampled solution of y'(t) + 0.9 y(t) = exp(-t/8) with y(0) = 0.

    The closed form is y(t) = A exp(-t/8) - A exp(-0.9 t) with
    A = 1/(0.9 - 1/8); the excitation is u[n] = exp(-n*T/8).  The output
    consists of exactly two exponential modes (one pole, one zero).
    """
    amp = 1.0 / (0.9 - 0.125)
    y_modes = ModeSum([Mode(amp, 0.125), Mode(-amp, 0.9)])
    u_modes = ModeSum([Mode(1.0, 0.125)])
    y = gen_mode_sum(y_modes, count, sample_period)
    u = gen_mode_sum(u_modes, count, sample_period)
    y = replace(y, provenance=f"nonhomogeneous_output[{y_modes.description}], T={sample_period:g}")
    u = replace(u, provenance=f"nonhomogeneous_input[exp(-t/8)], T={sample_period:g}")
    return y, u


def _noisy_rows(samples: np.ndarray, noises: Iterable[NoiseSpec | None]) -> np.ndarray:
    """samples (k, ..., L) plus, for each samples[i] whose noises[i] has a
    non-zero amplitude, one seeded uniform draw of L values, added to all
    of its rows alike; every other samples[i] keeps its bits, -0.0
    included.  noises is read in order, one draw at a time, and the draws
    are added in one array pass.  A sum past float range raises
    ValueError, as it does in a Signal."""
    samples = np.asarray(samples, dtype=float)
    # x + (-0.0) is x for every x, -0.0 included, so rows without a draw keep their bits
    noise = np.full(samples.shape[:1] + (1,) * (samples.ndim - 2) + samples.shape[-1:], -0.0)
    for i, spec in enumerate(noises):
        if spec is not None and spec.amplitude != 0.0:
            noise[i] = np.random.default_rng(spec.seed).uniform(-spec.amplitude, spec.amplitude, samples.shape[-1])
    with np.errstate(over="ignore"):
        out = samples + noise
    if not np.isfinite(out).all():
        raise ValueError("samples must all be finite")
    return out


def add_noise(signal: Signal, noise: NoiseSpec) -> Signal:
    """Add an independent seeded uniform draw to every sample.

    Zero amplitude is a bit-identical pass-through.  The underlying true
    order is kept (it describes the noise-free synthesis), but the exact
    mode structure no longer applies and is dropped.
    """
    if noise.amplitude == 0.0:
        return signal
    return Signal(
        samples=_noisy_rows(signal.samples[None], [noise])[0],
        sample_period=signal.sample_period,
        provenance=f"{signal.provenance} + uniform_noise(amp={noise.amplitude:g}, seed={noise.seed})",
        true_order=signal.true_order,
        modes=None,
    )


def add_offset(signal: Signal, offset: float) -> Signal:
    """Shift every sample by a constant.

    A non-zero offset adds a constant (decay-rate-0) mode; when the mode
    structure is known the new true order is re-derived from the merged
    mode set, so offsetting an order-1 decaying response yields order 2
    and offsetting back restores the original order.
    """
    if offset == 0.0:
        return signal
    if not math.isfinite(offset):
        raise ValueError("offset must be finite")
    if signal.modes is not None:
        merged = ModeSum(signal.modes.modes + (Mode(offset, 0.0),))
        true_order: int | None = merged.true_order
    else:
        merged = None
        true_order = None
    return Signal(
        samples=signal.samples + offset,
        sample_period=signal.sample_period,
        provenance=f"{signal.provenance} + offset({offset:g})",
        true_order=true_order,
        modes=merged,
    )


def rational_mode_sum(
    modes: Sequence[tuple[Fraction | int, Fraction | int]], count: int
) -> list[Fraction]:
    """Exact-arithmetic companion generator: samples[n] = sum_i c_i * r_i**n.

    All arithmetic is done with Fractions, so the output is suitable for
    the exact rational rank oracle without any float-to-rational
    laundering.
    """
    _validate_grid(count)
    pairs = [(Fraction(c), Fraction(r)) for c, r in modes]
    out = []
    for n in range(count):
        out.append(sum((c * r**n for c, r in pairs), start=Fraction(0)))
    return out


# ---------------------------------------------------------------------------
# CSV serialization: every CSV file the package writes goes through
# _write_csv, with 17 significant digits for floats.  Signal files use the
# header "n,value" (or "n,y,u") and put their provenance in a one-line
# sidecar next to the data file.


def _fmt(x) -> str:
    """A float with 17 significant digits (round-trips exactly; inf prints
    as ``inf``), anything else with ``str``."""
    return format(x, ".17g") if isinstance(x, float) else str(x)


def _fmt_column(column: tuple) -> Iterable[str]:
    """``map(_fmt, column)``, with one formatting call for a column of
    only ``float``s or only ``int``s.  The type checks are exact, so
    ``bool``, ``np.float64`` and every other type go through ``_fmt``."""
    kinds = set(map(type, column))
    if kinds == {float}:
        return map(format, column, repeat(".17g"))
    if kinds == {int}:
        return map(str, column)
    return map(_fmt, column)


def _write_csv(
    path: str | Path,
    sections: Iterable[tuple[str | None, str, Iterable[tuple]]],
    comments: Iterable[str] = (),
) -> Path:
    """Write ``# <comment>`` lines, then each (name, header, rows) section:
    a ``# section: <name>`` line when name is not None, the header and one
    line per row tuple."""
    lines = [f"# {c}" for c in comments]
    for name, header, rows in sections:
        if name is not None:
            lines.append(f"# section: {name}")
        lines.append(header)
        # Formatting a column at a time is faster than ",".join(map(_fmt, row))
        # row by row.  Chunks keep few row tuples alive at once: all 2000 of
        # a long signal cost about three extra garbage collections per file.
        rows = iter(rows)
        while chunk := list(islice(rows, 256)):
            lines += map(",".join, zip(*map(_fmt_column, zip(*chunk))))
    path = Path(path)
    _write_text(path, "\n".join(lines) + "\n")
    return path


def _write_text(path: Path, text: str) -> None:
    """Write text to path as UTF-8 bytes, with LF line ends on every
    platform, but overwrite an existing file in place and then cut it to
    the written length, instead of opening it with O_TRUNC: ext4
    (auto_da_alloc, its default) flushes a file truncated to zero at
    close.  Only a regular file is cut, so pipes and devices such as
    /dev/null work; symlinks are written through.  Like
    ``Path.write_text``, it is not atomic."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _write_sidecar(path: Path, signals: Sequence[Signal]) -> None:
    """Write ``<path>.provenance.txt`` when path is a regular file; a
    device or pipe such as /dev/null gets no sidecar beside it."""
    if not path.is_file():
        return
    parts = []
    for s in signals:
        line = s.provenance or "unspecified"
        line += f" | sample_period={_fmt(s.sample_period)}"
        if s.true_order is not None:
            line += f" | true_order={s.true_order}"
        parts.append(line)
    sidecar = path.with_name(path.name + ".provenance.txt")
    _write_text(sidecar, " ;; ".join(parts) + "\n")


def write_signal_csv(signal: Signal, path: str | Path) -> Path:
    """Write one sample per row as ``n,value``, plus the provenance sidecar."""
    path = _write_csv(path, [(None, "n,value", zip(range(len(signal)), signal.samples.tolist()))])
    _write_sidecar(path, [signal])
    return path


def write_pair_csv(y: Signal, u: Signal, path: str | Path) -> Path:
    """Write an output/input pair as ``n,y,u``, plus the provenance sidecar."""
    if len(y) != len(u):
        raise ValueError("paired signals must have equal lengths")
    path = _write_csv(path, [(None, "n,y,u", zip(range(len(y)), y.samples.tolist(), u.samples.tolist()))])
    _write_sidecar(path, [y, u])
    return path


def read_signal_csv(path: str | Path) -> Signal:
    """Load a signal written by :func:`write_signal_csv`.

    The header must be ``n,value`` or, for pair files, ``n,y,u``, whose
    output column ``y`` is loaded.  Comment lines starting with ``#`` are skipped.  Every data
    row must hold one number per header field, the ``n`` column must run
    0..L-1 and the loaded value must be finite; a bad row raises
    ValueError naming the file and line.  A leading UTF-8 byte order mark,
    as spreadsheet "CSV UTF-8" exports write, is skipped.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8-sig")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    if text.isascii() and "#" not in text and lines == text.split():
        # a plain file, as write_signal_csv writes it: every line is a row
        # and holds no whitespace to strip
        linenos = range(1, len(lines) + 1)
    else:
        rows = [
            (lineno, line.strip())
            for lineno, line in enumerate(text.splitlines(), start=1)
            if line.strip() and not line.startswith("#")
        ]
        linenos = [lineno for lineno, _ in rows]
        lines = [line for _, line in rows]
    if not lines:
        raise ValueError(f"{path}: empty signal file")
    header = [c.strip() for c in lines[0].split(",")]
    if header not in (["n", "value"], ["n", "y", "u"]):
        raise ValueError(f"{path}: expected header 'n,value' or 'n,y,u', got {lines[0]!r}")
    if len(lines) == 1:
        raise ValueError(f"{path}: no data rows")
    data = lines[1:]
    try:
        table = np.loadtxt(data, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        table = None
    if (
        table is None
        or table.shape[1] != len(header)
        or not np.array_equal(table[:, 0], np.arange(len(data)))
        or not np.isfinite(table[:, 1]).all()
    ):
        raise _bad_row(path, zip(linenos[1:], data), header)
    return Signal(samples=table[:, 1], provenance=f"loaded:{path.name}")


def _bad_row(path: Path, data: Iterable[tuple[int, str]], header: list[str]) -> ValueError:
    """The error for the first data row that is not n followed by numbers
    (one per header field) with a finite loaded value."""
    for index, (lineno, text) in enumerate(data):
        try:
            numbers = np.loadtxt([text], delimiter=",", comments=None, ndmin=1).tolist()
        except ValueError:
            numbers = []
        if len(numbers) != len(header) or numbers[0] != index or not math.isfinite(numbers[1]):
            return ValueError(
                f"{path}:{lineno}: bad row {text!r}: expected {len(header)} numeric fields, "
                f"n = {index} and a finite {header[1]}"
            )
    return ValueError(f"{path}: unreadable signal data")
