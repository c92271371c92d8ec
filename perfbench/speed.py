"""Machine-speed normalisation for a shared, drifting CPU.

On a shared virtual machine the speed of a core drifts by tens of percent
within seconds, and it drifts alike for all code of one kind.
:class:`SpeedMeter` times a fixed calibration snippet, which does not touch
``asefilt``, on entry, on exit and every ``PERIOD`` seconds in between
while a measurement runs.  The median snippet time over its reference time
is the measurement's slow-down factor, and the benchmark divides every
timing by it, giving figures "at the reference speed".  A change to the
program moves the measured work but not the snippet, so it shows in full;
drift of the machine moves both and cancels.  Raw wall-clock figures are
printed next to the normalised ones.

Two snippets match the two kinds of work the workloads do: ``dispatch``
(many small numpy calls from Python, like the L <= 10 filters and the
imports) and ``mixed``, which adds sweeps over a 256 x 256 matrix to half
of that, like the L=256 filters (dense correlation update plus a
Python-driven solver).
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD = 0.1  # SIGALRM sampling interval inside calls the benchmark cannot split
LOOP_PERIOD = 0.04  # sampling interval inside the benchmark's own step loops
_VEC = np.linspace(0.0, 1.0, 16)
_MAT = np.eye(256)
_ROW = np.linspace(0.0, 1.0, 256)


def _dispatch(loops: int = 5000) -> None:
    vec = _VEC
    acc = 0.0
    for _ in range(loops):
        acc += float(vec @ vec) * 0.5 - acc * 1e-3


def _array(loops: int = 30) -> None:
    for _ in range(loops):
        _MAT.__imul__(0.999)
        _MAT.__iadd__(np.outer(_ROW, _ROW) * 1e-6)


def _mixed() -> None:
    _dispatch(2500)
    _array(15)


SNIPPETS = {"dispatch": _dispatch, "mixed": _mixed}
# Median snippet seconds on the machine the benchmark was defined on
# (2-core x86_64 VM, Python 3.11.7, numpy 2.4.6 with OpenBLAS).
REF_S = {"dispatch": 6.5e-3, "mixed": 5.75e-3}


def snippet(kind: str) -> float:
    """Seconds taken by one run of the calibration snippet ``kind``."""
    t0 = time.perf_counter()
    SNIPPETS[kind]()
    return time.perf_counter() - t0


class SpeedMeter:
    """Samples a calibration snippet on entry, on exit and in between.

    In between, samples come from SIGALRM every ``PERIOD`` seconds when
    ``timer`` is set, else from the measured loop calling :meth:`sample`.
    A stretch of work is divided by the mean factor of the two snippets
    that bracket it, so the correction follows the drift within a block.
    ``snippet_s`` is the time spent on snippets inside the block, to be
    taken off its wall time.
    """

    def __init__(self, kind: str, timer: bool = True) -> None:
        self.kind = kind
        self.timer = timer
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.factors: list[float] = []
        self.snippet_s = 0.0

    def _run(self) -> float:
        t0 = time.perf_counter()
        SNIPPETS[self.kind]()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.factors.append((t1 - t0) / REF_S[self.kind])
        return t1 - t0

    def sample(self, *_signal) -> None:
        self.snippet_s += self._run()

    def __enter__(self) -> "SpeedMeter":
        self._run()
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self._run()

    def local_factors(self, times) -> np.ndarray:
        """Slow-down factor at each time: the mean of the snippets just before and just after it."""
        f = np.array(self.factors)
        i = np.searchsorted(np.array(self.ends), np.asarray(times, dtype=float), side="right")
        return 0.5 * (f[np.clip(i - 1, 0, f.size - 1)] + f[np.clip(i, 0, f.size - 1)])

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Seconds of work in ``[t0, t1]`` at reference speed, snippets left out."""
        stretches = []
        begin = t0
        for start, end in zip(self.starts, self.ends):
            if t0 <= start and end <= t1:
                stretches.append((begin, start))
                begin = end
        stretches.append((begin, t1))
        lo = np.array([a for a, _ in stretches])
        hi = np.array([b for _, b in stretches])
        return float(np.sum((hi - lo) / self.local_factors(0.5 * (lo + hi))))


def bracket(kind: str, n: int = 3) -> list[float]:
    """``n`` snippet times back to back, for work that runs in another process."""
    return [snippet(kind) for _ in range(n)]
