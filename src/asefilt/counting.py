"""Floating-point operation counters and the cost model that fills them.

The filter cores and the DCD solve count nothing: each returns what it
decided.  The pure ``*_ops`` functions here price one call as ``(adds,
mults, comparisons)`` in closed form, from the length and from those
decisions, at the public boundary or in the Monte Carlo driver: a public
step or solve adds its price to the caller's counter per call, the
driver, only when instrumented, prices its block record once per block
after the block's finiteness check.  Two
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


def correlation_ops(config, phi: float) -> tuple[int, int, int]:
    """The decay; a sample adds phi x, its outer product and phi d x."""
    n, weighted = config.length, phi != 0.0
    return weighted * (n * n + n), n * n + n + weighted * (n * n + 2 * n + 1), 0


def _weighting_ops(weighting, applied: bool) -> tuple[int, int, int]:
    """The ASE gate and the weight of an applied sample, or the Gaussian weight."""
    if isinstance(weighting, AseParams):
        return applied, 4 * applied, 1
    return 0, 0 if weighting is None else 4, 0


def vss_step_ops(config, weighting, result: tuple) -> tuple[int, int, int]:
    """An inversion-free step's ``(e, applied, phi, moved)``, the first
    fields of a block record's row: the weighting, the statistics update,
    the prior error, the residual theta - R w, and a move: r.r, R r,
    r.R r, the step size and w += mu r."""
    _, applied, phi, moved = result[:4]
    n, (adds, mults, comparisons) = config.length, _weighting_ops(weighting, applied)
    r_adds, r_mults, _ = correlation_ops(config, phi)
    adds += r_adds + n + n * n + moved * (n * n + 2 * n - 1)
    mults += r_mults + n + n * n + moved * (n * n + 3 * n + 1)
    return adds, mults, comparisons


def dcd_step_ops(config, weighting, result: tuple) -> tuple[int, int, int]:
    """A coordinate-descent step's ``(e, applied, phi, solved, updates,
    halvings)``, its solve included."""
    _, applied, phi, solved, updates, halvings = result
    n, (adds, mults, comparisons) = config.length, _weighting_ops(weighting, applied)
    # The prior error, the textbook leakage step (1 add, 2 mults, though
    # the correction is precomputed), the R update, lam * residual and
    # the error injection, the correction on the entries it touches (one
    # in shift mode, the diagonal in dense mode) on R and rhs, and L adds
    # for the weight update per solved step, though the solve adds only
    # into the coordinates it moved.
    injected, corrected = phi != 0.0, config._leak_correction != 0.0
    if config.dcd_update == "shift":
        r_adds, r_mults, touched = n, 2 * n, 1
    else:
        r_adds, r_mults, touched = injected * n * n, n * n + injected * (n * n + n), n
    adds += n + 1 + r_adds + injected * n + 2 * corrected * touched + solved * n
    mults += n + 2 + r_mults + n + injected * (n + 1) + corrected * touched
    s_adds, s_mults, s_comparisons = solve_ops(n, config.dcd.m_bits, updates, halvings) if solved else (0, 0, 0)
    return adds + s_adds, mults + s_mults, comparisons + s_comparisons


def solve_ops(n: int, m_bits: int, updates: int, halvings: int) -> tuple[int, int, int]:
    """A size-``n`` DCD solve that made ``updates`` updates and ended at
    depth ``halvings``, which is ``m_bits`` exactly when the bits ran out."""
    # Per update: an n-entry scan, a passing significance test (one
    # multiply, one comparison), the column axpy and the increment.  Per
    # halving: a failing test, the bit budget check and the step
    # multiply, which the halving that exhausts the bits skips; that
    # halving also follows one more scan.  Plus the initial h / 2.
    exhausted, adds = halvings == m_bits, (n + 1) * updates
    return adds, 1 + 2 * halvings - exhausted + adds, n * (updates + exhausted) + updates + 2 * halvings


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
