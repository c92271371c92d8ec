"""Floating-point operation counters and the cost model that fills them.

The filter cores and the DCD solve count nothing: each returns what it
decided.  The cost model is linear in those decisions, so the pure
``*_ops`` functions here price any number of calls at once as ``(adds,
mults, comparisons)`` in closed form, from the length and from counts:
the steps, the applied samples, the samples of nonzero weight ``phi``,
the steps that moved the weights or ran a solve, and the solves'
updates, halvings and exhausted bits.  :func:`step_counts` gives these
counts for one row a core returns, which a public step prices into its
caller's counter per call; the Monte Carlo driver sums them over its
block records on every run and prices each algorithm once.  Two
``dcd_ase`` charges stand above the work executed: ``length`` adds for
the weight update on every solved step, though the solve adds only into
the at most ``n_updates`` coordinates it moved, and the textbook leakage
step's 1 add and 2 multiplies on every step, though the correction is a
precomputed constant of the config.
"""

from __future__ import annotations

from dataclasses import dataclass

from .estimator import AseParams

__all__ = ["OpCounter", "OpsPerIteration"]


@dataclass
class OpCounter:
    """Running totals of floating-point work actually executed."""

    adds: int = 0
    mults: int = 0
    comparisons: int = 0

    def add(self, adds: int, mults: int, comparisons: int = 0) -> None:
        """Add one call's counts to the totals."""
        self.adds += adds
        self.mults += mults
        self.comparisons += comparisons


def step_counts(config, row: tuple) -> tuple:
    """The counts of one step, besides the step itself, from the row its
    core returned, ``(prior_error, applied, phi, moved)`` and, for
    coordinate descent, the solve's ``(updates, halvings)``: ``(applied,
    weighted, moved, updates, halvings, exhausted)``, where a step is
    weighted when ``phi != 0`` and its solve exhausted when it ended at
    depth ``m_bits``."""
    _, applied, phi, moved, updates, halvings = row if len(row) == 6 else (*row, 0, 0)
    exhausted = config.dcd is not None and halvings == config.dcd.m_bits
    return applied, phi != 0.0, moved, updates, halvings, exhausted


def correlation_ops(config, steps, weighted) -> tuple[int, int, int]:
    """The decay of each step; a weighted sample adds phi x, its outer
    product and phi d x."""
    n = config.length
    return weighted * (n * n + n), steps * (n * n + n) + weighted * (n * n + 2 * n + 1), 0


def _weighting_ops(weighting, steps, applied) -> tuple[int, int, int]:
    """The ASE gate of each step and the weight of each applied sample, or
    the Gaussian weight of each step."""
    if isinstance(weighting, AseParams):
        return applied, 4 * applied, steps
    return 0, 0 if weighting is None else 4 * steps, 0


def vss_step_ops(config, weighting, steps, applied, weighted, moved, *_) -> tuple[int, int, int]:
    """Inversion-free steps: the weighting, the statistics update, the
    prior error, the residual theta - R w, and each move: r.r, R r, r.R r,
    the step size and w += mu r."""
    n, (adds, mults, comparisons) = config.length, _weighting_ops(weighting, steps, applied)
    r_adds, r_mults, _ = correlation_ops(config, steps, weighted)
    adds += r_adds + steps * (n + n * n) + moved * (n * n + 2 * n - 1)
    mults += r_mults + steps * (n + n * n) + moved * (n * n + 3 * n + 1)
    return adds, mults, comparisons


def dcd_step_ops(
    config, weighting, steps, applied, injected, solved, updates, halvings, exhausted
) -> tuple[int, int, int]:
    """Coordinate-descent steps, their solves included."""
    n, (adds, mults, comparisons) = config.length, _weighting_ops(weighting, steps, applied)
    # The prior error, the textbook leakage step (1 add, 2 mults, though
    # the correction is precomputed), the R update, lam * residual and
    # the error injection, the correction on the entries it touches (one
    # in shift mode, the diagonal in dense mode) on R and rhs, and L adds
    # for the weight update per solved step, though the solve adds only
    # into the coordinates it moved.
    corrected = config._leak_correction != 0.0
    if config.dcd_update == "shift":
        r_adds, r_mults, touched = steps * n, steps * 2 * n, 1
    else:
        r_adds, r_mults, touched = injected * n * n, steps * n * n + injected * (n * n + n), n
    adds += steps * (n + 1 + 2 * corrected * touched) + r_adds + injected * n + solved * n
    mults += steps * (2 * n + 2 + corrected * touched) + r_mults + injected * (n + 1)
    s_adds, s_mults, s_comparisons = _solves_ops(n, solved, updates, halvings, exhausted)
    return adds + s_adds, mults + s_mults, comparisons + s_comparisons


def solve_ops(n: int, m_bits: int, updates: int, halvings: int) -> tuple[int, int, int]:
    """A size-``n`` DCD solve that made ``updates`` updates and ended at
    depth ``halvings``, which is ``m_bits`` exactly when the bits ran out."""
    return _solves_ops(n, 1, updates, halvings, halvings == m_bits)


def _solves_ops(n: int, solves, updates, halvings, exhausted) -> tuple[int, int, int]:
    """``solves`` size-``n`` DCD solves that made ``updates`` updates and
    ``halvings`` halvings in all, ``exhausted`` of them running out of bits."""
    # Per update: an n-entry scan, a passing significance test (one
    # multiply, one comparison), the column axpy and the increment.  Per
    # halving: a failing test, the bit budget check and the step
    # multiply, which the halving that exhausts the bits skips; that
    # halving also follows one more scan.  Plus each solve's initial h / 2.
    adds = (n + 1) * updates
    return adds, solves + 2 * halvings - exhausted + adds, n * (updates + exhausted) + updates + 2 * halvings


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
