"""The one rule for a scalar parameter: what an integer and a real one are.

An integer parameter is an ``int`` that is not a ``bool``; a real one is
an ``int`` or ``float`` (``numpy.float64`` included) that is not a
``bool``, an ``int`` only within float range.  Each check judges the
value as given, before any conversion, and raises ``ValueError`` naming
the parameter, never ``TypeError`` or ``OverflowError``, and shows the
value it rejects with :func:`_shown`.  A caller converts a real parameter
with ``float()`` only after its check.
"""

import math
import sys


def _shown(value) -> str:
    """``repr(value)``, or for an ``int`` whose digits ``repr`` refuses to
    write, more than ``sys.get_int_max_str_digits()`` (4300 by default),
    its sign and bit length, so that the message still names the parameter."""
    try:
        return repr(value)
    except ValueError:  # raised by an int alone, among the values a check rejects
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"


def check_int(name: str, value, low: int = 1, what: str = "a positive integer") -> None:
    """Reject a ``value`` that is not an integer of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{name} must be {what}, got {_shown(value)}")


def check_real(name: str, value, what: str, ok=math.isfinite) -> None:
    """Reject a ``value`` that is not a real number for which ``ok`` holds;
    ``what`` starts with its verb, as in ``"be finite"``.  An ``int``
    beyond float range is rejected before ``ok``, in whose ``math`` calls
    it would raise ``OverflowError``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, int) and abs(value) > sys.float_info.max or not ok(value)):
        raise ValueError(f"{name} must {what}, got {_shown(value)}")


def positive_finite(v) -> bool:
    return math.isfinite(v) and v > 0


def nonnegative_finite(v) -> bool:
    return math.isfinite(v) and v >= 0.0


def unit_interval(v) -> bool:
    return 0.0 <= v <= 1.0
