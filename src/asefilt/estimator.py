"""Sinusoidal redescending error estimator.

The estimator behaves like a scaled squared error for small residuals and
saturates for residuals beyond ``pi * c``, which is what makes the filters
built on it shrug off impulsive interference.  Three views of the same
function are exposed: the cost itself, its derivative (the score), and the
score divided by the error (the per-sample weighting factor used in the
weighted least-squares recursions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["AseParams", "ase_cost", "ase_score", "ase_weight"]


@dataclass(frozen=True)
class AseParams:
    """Parameters of the sinusoidal estimator.

    Parameters
    ----------
    c : float
        Positive kernel width.  Residuals with magnitude above ``pi * c``
        contribute a constant cost and a zero score.
    zeta : float
        Small positive regularizer keeping the weighting factor finite at
        zero error.  Default 1e-4.

    Attributes
    ----------
    cutoff : float
        Magnitude ``pi * c`` beyond which the estimator saturates.
    """

    c: float
    zeta: float = 1e-4

    def __post_init__(self) -> None:
        if not (isinstance(self.c, (int, float)) and math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be a positive finite number, got {self.c!r}")
        if not (isinstance(self.zeta, (int, float)) and math.isfinite(self.zeta) and self.zeta > 0):
            raise ValueError(f"zeta must be a positive finite number, got {self.zeta!r}")
        # Set here, not computed on every read: the filters' weighting reads
        # it once or twice per sample.
        object.__setattr__(self, "cutoff", math.pi * self.c)


def ase_cost(e: float, params: AseParams) -> float:
    """Cost of a residual ``e``: ``4 sin^2(e / (2 c))`` inside the cutoff, 4 outside."""
    e = float(e)
    if abs(e) <= params.cutoff:
        s = math.sin(e / (2.0 * params.c))
        return 4.0 * s * s
    return 4.0


def ase_score(e: float, params: AseParams) -> float:
    """Derivative of :func:`ase_cost`: ``(2/c) sin(e/c)`` inside the cutoff, 0 outside."""
    e = float(e)
    if abs(e) <= params.cutoff:
        return (2.0 / params.c) * math.sin(e / params.c)
    return 0.0


def ase_weight(e: float, params: AseParams) -> float:
    """Weighting factor ``ase_score(e) / e`` with a sign-consistent regularizer.

    The denominator is ``e + sign(e) * zeta`` with ``sign(0) = +1``, so the
    regularizer always pushes the denominator away from zero and the result
    is nonnegative everywhere.  Outside the cutoff the weight is exactly 0.
    """
    e = float(e)
    if abs(e) > params.cutoff:
        return 0.0
    denom = e + (params.zeta if e >= 0.0 else -params.zeta)
    return (2.0 / params.c) * math.sin(e / params.c) / denom
