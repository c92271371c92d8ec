"""The one rule for a parameter: what an integer, a real and an array one are.

An integer parameter is an ``int`` that is not a ``bool``; a real one is
an ``int`` or ``float`` (``numpy.float64`` included) that is not a
``bool``, an ``int`` only within float range.  Each check judges the
value as given, before any conversion, and raises ``ValueError`` naming
the parameter, never ``TypeError`` or ``OverflowError``, and shows the
value it rejects with :func:`_shown`.  A caller converts a real parameter
with ``float()`` only after its check.

An array argument is checked by shape and finiteness: :func:`check_array`
and :func:`check_square` return it as a float array of the shape they
require, and every finiteness test of an array is :func:`all_finite`,
exact and free of numpy warnings, or :func:`check_finite`, which raises
on it.
"""

import math
import sys

import numpy as np


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


def all_finite(v) -> bool:
    """``np.isfinite(v).all()`` at about half its cost (0.7 against 1.4 us
    from 10 to 256 entries on a 2-vCPU Xeon VM): a count of the finite
    entries, exact for every value and free of numpy warnings.  A dot
    product such as ``v @ v`` would be cheaper still, but it overflows on
    huge finite entries and makes NaN of ``inf * 0``, with a warning each."""
    finite = np.isfinite(v)
    return np.count_nonzero(finite) == finite.size


def check_finite(name: str, v) -> None:
    """Reject an array ``v`` with a non-finite entry."""
    if not all_finite(v):
        raise ValueError(f"{name} must be finite")


def check_array(name: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a float array, rejected unless it has exactly ``shape``
    and finite entries."""
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {value.shape}")
    # check_finite's test, inlined: every public step checks its x here.
    if not all_finite(value):
        raise ValueError(f"{name} must be finite")
    return value


def check_square(name: str, value) -> np.ndarray:
    """``value`` as a float array, rejected unless it is a square matrix of
    at least one entry; its entries are not read."""
    value = np.asarray(value, dtype=float)
    if value.ndim != 2 or value.shape[0] != value.shape[1] or value.shape[0] == 0:
        raise ValueError(f"{name} must be square and non-empty, got shape {value.shape}")
    return value
