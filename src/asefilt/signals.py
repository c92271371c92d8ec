"""Signal and scenario generators for the benchmark experiments.

Everything here is deterministic given a seed.  Seeds may be plain
integers or integer sequences; they are fed to ``numpy.random.default_rng``
unchanged, and the experiment harness derives per-run, per-stream seeds as
``[scenario_seed ^ run_index, stream_id]`` so that runs and streams are
independent but reproducible.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._checks import check_int, check_real, nonnegative_finite, positive_finite, unit_interval
from .dcd import _all_finite

__all__ = [
    "BgNoiseSpec",
    "PdPulseSpec",
    "ScenarioSpec",
    "gen_system",
    "gen_bg_noise",
    "gen_background",
    "iir_shape",
    "gen_pd_pulses",
    "regressors",
    "save_waveform",
    "load_waveform",
]


@dataclass(frozen=True)
class BgNoiseSpec:
    """Bernoulli-Gaussian impulse process: occurrence probability and variance of the Gaussian amplitude."""

    p_r: float
    sigma2: float

    def __post_init__(self) -> None:
        check_real("p_r", self.p_r, "lie in [0, 1]", unit_interval)
        check_real("sigma2", self.sigma2, "be finite and nonnegative", nonnegative_finite)


@dataclass(frozen=True)
class PdPulseSpec:
    """Shape of one synthetic partial-discharge pulse (damped oscillation).

    ``amplitude`` is the exact peak magnitude of the pulse; the template,
    ``exp(-t / decay) * sin(2 pi freq t)`` over ``length`` samples, is
    scaled so its largest sample equals it.  The scaled template is built
    here, once; a ``decay`` and ``freq`` whose template is zero, or too
    small to scale to a finite ``amplitude``, raise ``ValueError``.
    """

    amplitude: float = 10.0
    decay: float = 20.0
    freq: float = 0.05
    length: int = 120

    def __post_init__(self) -> None:
        check_real("amplitude", self.amplitude, "be positive", positive_finite)
        check_real("decay", self.decay, "be positive", positive_finite)
        check_real("freq", self.freq, "lie in (0, 0.5) cycles/sample", lambda v: 0.0 < v < 0.5)
        check_int("length", self.length, 2, "an integer >= 2")
        t = np.arange(self.length, dtype=float)
        # A tiny decay overflows -t / decay to -inf, whose exp is 0.
        with np.errstate(over="ignore"):
            template = np.exp(-t / self.decay) * np.sin(2.0 * math.pi * self.freq * t)
        peak = float(np.max(np.abs(template)))
        if peak == 0.0 or not math.isfinite(self.amplitude / peak):
            raise ValueError(f"decay {self.decay!r} and freq {self.freq!r} give a pulse template"
                             f" too small to scale to amplitude {self.amplitude!r}")
        object.__setattr__(self, "_template", template * (self.amplitude / peak))


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """System-identification scenario: unknown plant plus noise model.

    The input process is pinned to unit-variance white Gaussian noise, the
    only input model used by the experiments.  ``snr_db`` sets the white
    background noise level relative to the clean plant output power, and
    ``impulses`` optionally adds Bernoulli-Gaussian interference on top.
    """

    system_taps: np.ndarray
    horizon: int
    mc_runs: int
    seed: int
    snr_db: float = 0.0
    impulses: BgNoiseSpec | None = None

    def __post_init__(self) -> None:
        taps = np.asarray(self.system_taps, dtype=float)
        if taps.ndim != 1 or taps.size == 0 or not _all_finite(taps):
            raise ValueError("system_taps must be a nonempty finite vector")
        if not np.any(taps != 0.0):
            raise ValueError("system_taps must not be all zero")
        object.__setattr__(self, "system_taps", taps)
        check_int("horizon", self.horizon)
        check_int("mc_runs", self.mc_runs)
        check_int("seed", self.seed, 0, "a nonnegative integer")
        check_real("snr_db", self.snr_db, "be finite")
        background_variance(self.snr_db, float(taps @ taps))


def gen_system(length: int, seed) -> np.ndarray:
    """Draw a random plant: standard normal taps scaled to unit Euclidean norm."""
    check_int("length", length)
    rng = np.random.default_rng(seed)
    taps = rng.standard_normal(length)
    norm = float(np.linalg.norm(taps))
    if norm == 0.0:  # astronomically unlikely, retry deterministically
        taps = rng.standard_normal(length) + 1e-3
        norm = float(np.linalg.norm(taps))
    return taps / norm


def gen_bg_noise(n: int, spec: BgNoiseSpec, seed) -> np.ndarray:
    """Bernoulli-Gaussian impulse train: occurrence mask times Gaussian amplitudes."""
    check_int("n", n, 0, "a nonnegative integer")
    rng = np.random.default_rng(seed)
    mask = rng.random(n) < spec.p_r
    amplitudes = rng.standard_normal(n) * math.sqrt(spec.sigma2)
    return np.where(mask, amplitudes, 0.0)


def background_variance(snr_db: float, signal_power: float) -> float:
    """Noise variance ``signal_power * 10 ** (-snr_db / 10)``; raises
    ``ValueError`` when it is not finite, as a very low ``snr_db`` makes it."""
    try:
        variance = float(signal_power) * 10.0 ** (-float(snr_db) / 10.0)
    except OverflowError:
        variance = math.inf
    if not math.isfinite(variance):
        raise ValueError(f"snr_db {snr_db!r} is too low: the background noise variance is not finite")
    return variance


def gen_background(n: int, snr_db: float, signal_power: float, seed) -> np.ndarray:
    """White Gaussian noise sized so that ``signal_power`` over its variance hits ``snr_db``."""
    check_int("n", n, 0, "a nonnegative integer")
    check_real("signal_power", signal_power, "be positive", positive_finite)
    check_real("snr_db", snr_db, "be finite")
    variance = background_variance(snr_db, signal_power)
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * math.sqrt(variance)


def iir_shape(x: np.ndarray, a1: float = 0.2) -> np.ndarray:
    """First-difference shaping ``y[t] = x[t] - a1 * x[t-1]`` with zero prehistory."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("x must be a vector")
    check_real("a1", a1, "be finite")
    y = x.copy()
    y[1:] -= a1 * x[:-1]
    return y


def gen_pd_pulses(n: int, pulse_rate: float, seed, pulse: PdPulseSpec = PdPulseSpec()) -> np.ndarray:
    """Sparse train of damped-oscillation pulses.

    Each sample independently starts a pulse with probability ``pulse_rate``;
    overlapping pulses superpose.  Each pulse is the scaled template of
    ``pulse``, whose peak magnitude equals ``pulse.amplitude`` exactly.
    """
    check_int("n", n, 0, "a nonnegative integer")
    check_real("pulse_rate", pulse_rate, "lie in [0, 1]", unit_interval)
    template = pulse._template
    rng = np.random.default_rng(seed)
    starts = np.flatnonzero(rng.random(n) < pulse_rate)
    out = np.zeros(n)
    for s in starts:
        stop = min(n, s + pulse.length)
        out[s:stop] += template[: stop - s]
    return out


def regressors(x: np.ndarray, length: int) -> np.ndarray:
    """Tapped-delay-line matrix: row ``t`` is ``[x[t], x[t-1], ..., x[t-length+1]]`` with zero prehistory."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("x must be a vector")
    check_int("length", length)
    # Window t + 1 of the padded signal is x[t - length + 1 : t + 1] with
    # zero prehistory; the tap axis reversed, it is row t.
    padded = np.concatenate([np.zeros(length), x])
    return np.lib.stride_tricks.sliding_window_view(padded, length)[1:, ::-1].copy()


def atomic_write(path, text: str) -> None:
    """Replace ``path`` with ``text`` in one rename, so readers never see a
    partial file.  If the write or the rename fails, the temporary file is
    removed and the exception re-raised."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    fh = open(tmp, "w", newline="")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_CSV_CHUNK_ROWS = 1024


def _array_rows(arrays) -> Iterator[tuple]:
    """Rows ``(i, a[i], b[i], ...)`` of the equal-length ``arrays``, each
    chunk of ``_CSV_CHUNK_ROWS`` rows taken as Python numbers from one
    ``tolist()`` of each array's slice, as ``write_csv`` reads them."""
    n = len(arrays[0])
    return itertools.chain.from_iterable(
        zip(range(start, n), *(a[start:start + _CSV_CHUNK_ROWS].tolist() for a in arrays))
        for start in range(0, n, _CSV_CHUNK_ROWS)
    )


def write_csv(path, header: list[str], rows, fmt: str) -> None:
    """Write ``rows`` under ``header`` atomically; integer and string cells
    are written as ``str`` writes them, every other cell as a float
    formatted by ``fmt``, a ``%``-style conversion such as ``.12g``.

    Every row must have one cell per header entry, or ``ValueError`` is
    raised and no file is written.  Rows are read a chunk of
    ``_CSV_CHUNK_ROWS`` at a time, so only one chunk of cells is alive, and
    one ``%`` on a row template formats a chunk: its field is ``%s`` for an
    integer or string column, ``%`` + ``fmt`` for a float one.  A column
    mixing the two in a chunk, which no CLI table holds (the path serves
    other callers), is formatted a cell at a time and filled in as ``%s``."""
    ncols = len(header)
    parts = [",".join(header) + "\n"]
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, _CSV_CHUNK_ROWS)):
        if set(map(len, chunk)) != {ncols}:
            raise ValueError(f"every row must have {ncols} cells")
        cells = list(itertools.chain.from_iterable(chunk))
        fields = []
        for j in range(ncols):
            column = cells[j::ncols]
            as_is = {issubclass(t, (int, str)) for t in set(map(type, column))}
            if len(as_is) == 2:
                cells[j::ncols] = [str(c) if isinstance(c, (int, str)) else format(float(c), fmt) for c in column]
            fields.append("%" + fmt if as_is == {False} else "%s")
        parts.append((",".join(fields) + "\n") * len(chunk) % tuple(cells))
    atomic_write(path, "".join(parts))


def save_waveform(path, x: np.ndarray) -> None:
    """Write one sample per row as ``index,value`` CSV with a header, at
    round-trip precision."""
    write_csv(path, ["index", "value"], _array_rows([np.asarray(x, dtype=float)]), ".17g")


def load_waveform(path) -> np.ndarray:
    """Read a waveform written by :func:`save_waveform` (or any index,value CSV).

    The file is read as UTF-8.  Raises ``ValueError`` naming ``path``, and
    the row where there is one, for a file that is empty or not UTF-8 CSV,
    a row without a numeric second cell or a non-finite sample."""
    values: list[float] = []
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) is None:
                raise ValueError(f"{path}: empty waveform file")
            for row in reader:
                try:
                    value = float(row[1])
                except (IndexError, ValueError):
                    raise ValueError(f"{path}: malformed row {row!r}") from None
                if not math.isfinite(value):
                    raise ValueError(f"{path}: non-finite sample {row[1]!r} at index {len(values)}")
                values.append(value)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"{path}: {exc}") from None
    return np.asarray(values)
