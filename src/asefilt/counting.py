"""Lightweight floating-point operation counters.

Filter steps and the coordinate-descent solver accept an optional counter.
Each counting function adds its work once per call, from a closed-form
cost in the length and in what the call already decided (the gate, a zero
weighting factor or leakage correction, the update mode, the solver's
updates, halvings and bit exhaustion), so the arithmetic itself carries no
instrumentation.  Without a counter (the default) that is one ``None``
check per call.

Two charges of the coordinate-descent step stand above the work
executed: ``length`` adds for the weight update on every step that runs
the solver, though the solve adds only into the at most ``n_updates``
coordinates it moved, and the textbook leakage step's 1 add and 2
multiplies on every step, though the correction is a precomputed
constant of the config.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OpCounter:
    """Running totals of floating-point work actually executed."""

    adds: int = 0
    mults: int = 0
    comparisons: int = 0

    def add(self, adds: int, mults: int, comparisons: int = 0) -> None:
        self.adds += adds
        self.mults += mults
        self.comparisons += comparisons


@dataclass(frozen=True)
class OpsPerIteration:
    """Per-iteration averages derived from an :class:`OpCounter`."""

    adds: float
    mults: float
    comparisons: float


def per_iteration(counter: OpCounter, iterations: int) -> OpsPerIteration:
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    return OpsPerIteration(
        adds=counter.adds / iterations,
        mults=counter.mults / iterations,
        comparisons=counter.comparisons / iterations,
    )
