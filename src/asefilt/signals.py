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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "BgNoiseSpec",
    "PdPulseSpec",
    "ScenarioSpec",
    "gen_system",
    "gen_bg_noise",
    "gen_background",
    "background_variance",
    "iir_shape",
    "gen_pd_pulses",
    "regressors",
    "save_waveform",
    "load_waveform",
    "atomic_write",
    "write_csv",
]


@dataclass(frozen=True)
class BgNoiseSpec:
    """Bernoulli-Gaussian impulse process: occurrence probability and variance of the Gaussian amplitude."""

    p_r: float
    sigma2: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_r <= 1.0):
            raise ValueError(f"p_r must lie in [0, 1], got {self.p_r!r}")
        if not (math.isfinite(self.sigma2) and self.sigma2 >= 0.0):
            raise ValueError(f"sigma2 must be finite and nonnegative, got {self.sigma2!r}")


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
        if not (math.isfinite(self.amplitude) and self.amplitude > 0):
            raise ValueError(f"amplitude must be positive, got {self.amplitude!r}")
        if not (math.isfinite(self.decay) and self.decay > 0):
            raise ValueError(f"decay must be positive, got {self.decay!r}")
        if not (0.0 < self.freq < 0.5):
            raise ValueError(f"freq must lie in (0, 0.5) cycles/sample, got {self.freq!r}")
        if not (isinstance(self.length, int) and self.length >= 2):
            raise ValueError(f"length must be an integer >= 2, got {self.length!r}")
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
        if taps.ndim != 1 or taps.size == 0 or not np.isfinite(taps).all():
            raise ValueError("system_taps must be a nonempty finite vector")
        if not np.any(taps != 0.0):
            raise ValueError("system_taps must not be all zero")
        object.__setattr__(self, "system_taps", taps)
        if not (isinstance(self.horizon, int) and self.horizon >= 1):
            raise ValueError(f"horizon must be a positive integer, got {self.horizon!r}")
        if not (isinstance(self.mc_runs, int) and self.mc_runs >= 1):
            raise ValueError(f"mc_runs must be a positive integer, got {self.mc_runs!r}")
        if not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db!r}")
        background_variance(self.snr_db, float(taps @ taps))


def gen_system(length: int, seed) -> np.ndarray:
    """Draw a random plant: standard normal taps scaled to unit Euclidean norm."""
    if not (isinstance(length, int) and length >= 1):
        raise ValueError(f"length must be a positive integer, got {length!r}")
    rng = np.random.default_rng(seed)
    taps = rng.standard_normal(length)
    norm = float(np.linalg.norm(taps))
    if norm == 0.0:  # astronomically unlikely, retry deterministically
        taps = rng.standard_normal(length) + 1e-3
        norm = float(np.linalg.norm(taps))
    return taps / norm


def gen_bg_noise(n: int, spec: BgNoiseSpec, seed) -> np.ndarray:
    """Bernoulli-Gaussian impulse train: occurrence mask times Gaussian amplitudes."""
    if not (isinstance(n, int) and n >= 0):
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    rng = np.random.default_rng(seed)
    mask = rng.random(n) < spec.p_r
    amplitudes = rng.standard_normal(n) * math.sqrt(spec.sigma2)
    return np.where(mask, amplitudes, 0.0)


def background_variance(snr_db: float, signal_power: float) -> float:
    """Noise variance ``signal_power * 10 ** (-snr_db / 10)``; raises
    ``ValueError`` when it is not finite, as a very low ``snr_db`` makes it."""
    try:
        variance = signal_power * 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        variance = math.inf
    if not math.isfinite(variance):
        raise ValueError(f"snr_db {snr_db!r} is too low: the background noise variance is not finite")
    return variance


def gen_background(n: int, snr_db: float, signal_power: float, seed) -> np.ndarray:
    """White Gaussian noise sized so that ``signal_power`` over its variance hits ``snr_db``."""
    if not (isinstance(n, int) and n >= 0):
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if not (math.isfinite(signal_power) and signal_power > 0):
        raise ValueError(f"signal_power must be positive, got {signal_power!r}")
    variance = background_variance(snr_db, signal_power)
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * math.sqrt(variance)


def iir_shape(x: np.ndarray, a1: float = 0.2) -> np.ndarray:
    """First-difference shaping ``y[t] = x[t] - a1 * x[t-1]`` with zero prehistory."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("x must be a vector")
    y = x.copy()
    y[1:] -= a1 * x[:-1]
    return y


def gen_pd_pulses(n: int, pulse_rate: float, seed, pulse: PdPulseSpec = PdPulseSpec()) -> np.ndarray:
    """Sparse train of damped-oscillation pulses.

    Each sample independently starts a pulse with probability ``pulse_rate``;
    overlapping pulses superpose.  Each pulse is the scaled template of
    ``pulse``, whose peak magnitude equals ``pulse.amplitude`` exactly.
    """
    if not (isinstance(n, int) and n >= 0):
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if not (0.0 <= pulse_rate <= 1.0):
        raise ValueError(f"pulse_rate must lie in [0, 1], got {pulse_rate!r}")
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
    if not (isinstance(length, int) and length >= 1):
        raise ValueError(f"length must be a positive integer, got {length!r}")
    n = x.shape[0]
    out = np.zeros((n, length))
    for k in range(min(length, n)):
        out[k:, k] = x[: n - k]
    return out


def atomic_write(path, text: str) -> None:
    """Replace ``path`` with ``text`` in one rename, so readers never see a partial file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


_CSV_CHUNK_ROWS = 1024


def _format_column(cells: tuple, fmt: str) -> list[str]:
    """Integer and string cells as they are, every other cell as a float formatted by ``fmt``."""
    as_is = [issubclass(t, (int, str)) for t in set(map(type, cells))]
    if not any(as_is):
        return list(map(format, map(float, cells), itertools.repeat(fmt)))
    if all(as_is):
        return list(map(str, cells))
    return [str(c) if isinstance(c, (int, str)) else format(float(c), fmt) for c in cells]


def write_csv(path, header: list[str], rows, fmt: str) -> None:
    """Write ``rows`` under ``header`` atomically; integer and string cells
    are written as they are, every other cell as a float formatted by ``fmt``.

    Every row must have one cell per header entry.  Cells are formatted a
    column at a time, over chunks of rows, so that only one chunk of cell
    objects is alive at once."""
    lines = [",".join(header)]
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, _CSV_CHUNK_ROWS)):
        if any(len(row) != len(header) for row in chunk):
            raise ValueError(f"every row must have {len(header)} cells")
        columns = [_format_column(col, fmt) for col in zip(*chunk)]
        lines.extend(map(",".join, zip(*columns)))
    atomic_write(path, "\n".join(lines) + "\n")


def save_waveform(path, x: np.ndarray) -> None:
    """Write one sample per row as ``index,value`` CSV with a header, at
    round-trip precision."""
    write_csv(path, ["index", "value"], enumerate(np.asarray(x, dtype=float).tolist()), ".17g")


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
