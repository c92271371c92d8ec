"""The one rule for a scalar parameter: what an integer and a real one are.

An integer parameter is an ``int`` that is not a ``bool``; a real one is
an ``int`` or ``float`` (``numpy.float64`` included) that is not a
``bool``.  Each check raises ``ValueError`` naming the parameter.
"""

import math


def check_int(name: str, value, low: int = 1, what: str = "a positive integer") -> None:
    """Reject a ``value`` that is not an integer of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{name} must be {what}, got {value!r}")


def check_real(name: str, value, what: str, ok=math.isfinite) -> None:
    """Reject a ``value`` that is not a real number for which ``ok`` holds;
    ``what`` starts with its verb, as in ``"be finite"``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not ok(value):
        raise ValueError(f"{name} must {what}, got {value!r}")


def positive_finite(v) -> bool:
    return math.isfinite(v) and v > 0


def unit_interval(v) -> bool:
    return 0.0 <= v <= 1.0
