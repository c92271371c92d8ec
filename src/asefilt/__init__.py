"""Robust adaptive filtering with a saturating sinusoidal error weighting.

Public API: the estimator functions, the budgeted coordinate-descent
solver, the recursive filter steps, signal generators and the Monte
Carlo experiment harness.  The ``asefilt`` console command exposes the
benchmark experiments.

Each module's ``__all__`` is its part of the public API, written there
only; this package republishes every one of them.
"""

from . import counting, dcd, estimator, filters, harness, signals
from .counting import *  # noqa: F403
from .dcd import *  # noqa: F403
from .estimator import *  # noqa: F403
from .filters import *  # noqa: F403
from .harness import *  # noqa: F403
from .signals import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*counting.__all__, *dcd.__all__, *estimator.__all__, *filters.__all__, *harness.__all__,
           *signals.__all__, "__version__"]
