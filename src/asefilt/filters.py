"""Recursive weighted least-squares filters with a saturating error weighting.

Two families are implemented on top of the same exponentially weighted
statistics ``R(n)`` (input autocorrelation) and ``theta(n)`` (input/output
cross-correlation), in a layout that :func:`filter_init` fixes once per
state and no step converts (see :class:`FilterState`):

* ``iwf_*`` steps solve the normal equations iteratively with a variable
  step size computed from the residual ``theta - R w`` (one multiply-heavy
  but inversion-free update per sample).
* ``dcd_ase_step`` replaces the residual iteration by a budgeted
  dichotomous coordinate descent solve and maintains the solver residual
  across samples.  Its default shift-structured correlation update keeps
  ``R`` as a ring of first rows (:class:`~asefilt.dcd.ShiftMatrix`), so
  each sample costs O(length) in multiplies and in memory traffic.

Robustness comes from the per-sample weighting factor: samples whose prior
error magnitude exceeds ``pi * c`` contribute nothing to the updated
statistics (the matrices still decay), so isolated impulses cannot corrupt
them.  The ``iwf_*`` steps weight the full sample; the coordinate-descent
variant's default shift-structured mode weights the error injection only,
which keeps its O(length) recursions exact (see ``dcd_ase_step``).

All steps mutate the passed state in place and return it together with a
:class:`StepOutput`; states are single-owner and not thread-safe.

Each algorithm is a solver paired with an error weighting.  The four
public steps check their arguments on every call and then run one of two
private trusted cores, ``_vss_step`` (inversion-free) or ``_dcd_step``
(coordinate descent), with a weighting that :func:`_weigh` applies: None
for ``iwf_step``, ``config.ase`` for ``iwf_ase_step`` and
``dcd_ase_step``, the Gaussian kernel width for ``rmcc_step``.  A core
takes ``x`` and ``d`` as :func:`_check_sample` returns them: a finite
float vector of shape ``(length,)`` and a finite Python float.  The Monte
Carlo harness checks each run's inputs once and calls the cores directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counting import OpCounter
from .dcd import MIN_PIVOT, DcdParams, ShiftMatrix, dcd_solve
from .estimator import AseParams, ase_weight

__all__ = [
    "FilterError",
    "NoStepsError",
    "FilterConfig",
    "FilterState",
    "StepOutput",
    "filter_init",
    "correlation_update",
    "iwf_ase_step",
    "dcd_ase_step",
    "iwf_step",
    "rmcc_step",
    "update_ratio",
]

DELTA_SCHEDULES = ("decaying", "constant")
DCD_UPDATE_MODES = ("shift", "dense")
#: Additive guard in the variable-step-size denominator.
VSS_GUARD = 1e-12


class FilterError(Exception):
    """Base class for filter usage errors."""


class NoStepsError(FilterError):
    """Raised when a per-run statistic is requested before any step ran."""


@dataclass(frozen=True)
class FilterConfig:
    """Static configuration shared by all steps of one filter instance.

    Parameters
    ----------
    length : int
        Number of adaptive taps.
    lam : float
        Forgetting factor in (0, 1).
    rho : float
        Positive initial value of the autocorrelation diagonal; also the
        regularization level of the leakage schedules.
    ase : AseParams
        Error-weighting parameters.
    dcd : DcdParams, optional
        Solver budget; required by :func:`dcd_ase_step` only.
    delta_schedule : str
        Leakage sequence of the coordinate-descent variant:
        ``"decaying"`` uses delta(n) = lam**(n+1) * rho, whose
        consecutive-difference correction cancels exactly, while
        ``"constant"`` holds delta(n) = rho and applies the resulting
        (1 - lam) * rho correction every step.
    dcd_update : str
        Correlation update used by :func:`dcd_ase_step`: ``"shift"`` is the
        O(length) tapped-delay-line update (unweighted statistics, error-side
        robustness), ``"dense"`` is the sample-weighted full-rank-one update.
    """

    length: int
    lam: float
    rho: float
    ase: AseParams
    dcd: DcdParams | None = None
    delta_schedule: str = "decaying"
    dcd_update: str = "shift"

    def __post_init__(self) -> None:
        if not (isinstance(self.length, int) and self.length >= 1):
            raise ValueError(f"length must be a positive integer, got {self.length!r}")
        if not (isinstance(self.lam, (int, float)) and 0.0 < self.lam < 1.0):
            raise ValueError(f"lam must lie strictly inside (0, 1), got {self.lam!r}")
        if not (isinstance(self.rho, (int, float)) and math.isfinite(self.rho) and self.rho > 0):
            raise ValueError(f"rho must be positive and finite, got {self.rho!r}")
        if not isinstance(self.ase, AseParams):
            raise ValueError("ase must be an AseParams instance")
        if self.dcd is not None and not isinstance(self.dcd, DcdParams):
            raise ValueError("dcd must be a DcdParams instance or None")
        if self.delta_schedule not in DELTA_SCHEDULES:
            raise ValueError(
                f"delta_schedule must be one of {DELTA_SCHEDULES}, got {self.delta_schedule!r}"
            )
        if self.dcd_update not in DCD_UPDATE_MODES:
            raise ValueError(
                f"dcd_update must be one of {DCD_UPDATE_MODES}, got {self.dcd_update!r}"
            )


@dataclass
class FilterState:
    """Mutable per-filter state; create via :func:`filter_init`.

    Where ``R`` lives is fixed at :func:`filter_init`.  A shift-mode
    coordinate-descent config holds it in ``ring``, a
    :class:`~asefilt.dcd.ShiftMatrix` of first rows, and ``stats`` is the
    ``(1, length)`` ``theta`` row.  Every other config leaves ``ring``
    None and ``stats`` of shape ``(length + 1, length)``: ``R`` in its
    first ``length`` rows and ``theta`` in its last, so the decay is one
    in-place multiply and an applied sample one broadcast add.  A step
    whose update needs the other layout raises :class:`FilterError`.
    """

    w: np.ndarray
    stats: np.ndarray
    residual: np.ndarray
    delta_prev: float
    ring: ShiftMatrix | None = None
    step_index: int = 0
    updates_total: int = 0
    updates_applied: int = 0
    ops: OpCounter | None = None

    @property
    def r_matrix(self) -> np.ndarray:
        """The dense autocorrelation ``R``: the view ``stats[:-1]``, or for
        a ring-held ``R`` a fresh copy, built in O(length^2), whose writes
        do not change the state."""
        return self.stats[:-1] if self.ring is None else self.ring.dense()

    @property
    def theta(self) -> np.ndarray:
        """The cross-correlation ``theta``: a view of the last row of ``stats``."""
        return self.stats[-1]


@dataclass(frozen=True)
class StepOutput:
    """What one step tells the caller: the prior error and whether the
    rank-one statistics update was applied.  The weights are in the
    returned state."""

    prior_error: float
    applied: bool


def filter_init(config: FilterConfig, *, ops: OpCounter | None = None) -> FilterState:
    """Fresh state: zero weights, ``rho * I`` autocorrelation, zero residual."""
    length = config.length
    if config.delta_schedule == "decaying":
        delta_prev = config.lam * config.rho
    else:
        delta_prev = config.rho
    r0 = np.eye(length) * config.rho
    if config.dcd is not None and config.dcd_update == "shift":
        ring, stats = ShiftMatrix(r0), np.zeros((1, length))
    else:
        ring, stats = None, np.vstack([r0, np.zeros(length)])
    return FilterState(
        w=np.zeros(length),
        stats=stats,
        residual=np.zeros(length),
        delta_prev=delta_prev,
        ring=ring,
        ops=ops,
    )


def _check_sample(config: FilterConfig, x, d) -> tuple[np.ndarray, float]:
    x = np.asarray(x, dtype=float)
    if x.shape != (config.length,):
        raise ValueError(f"x must have shape ({config.length},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    d = float(d)
    if not math.isfinite(d):
        raise ValueError(f"d must be finite, got {d!r}")
    return x, d


def _dense_stats(state: FilterState) -> np.ndarray:
    """``stats`` for a dense update of ``R``; a ring-held ``R`` raises."""
    if state.ring is not None:
        raise FilterError("this update needs a dense R; this state holds R as a ring")
    return state.stats


def correlation_update(
    state: FilterState, config: FilterConfig, x: np.ndarray, d: float, phi: float
) -> FilterState:
    """Exponentially weighted statistics update.

    ``R <- lam R + phi x x^T`` and ``theta <- lam theta + phi d x``.  The
    decay always applies; ``phi`` scales the new sample's contribution.
    Both act on the statistics array at once: the decay is one in-place
    multiply and the sample one add of ``u x^T`` with ``u = [phi x; phi d]``,
    whose entries ``(phi x_i) x_j`` and ``(phi d) x_j`` are the products of
    the two separate updates.
    """
    x, d = _check_sample(config, x, d)
    phi = float(phi)
    if not (math.isfinite(phi) and phi >= 0.0):
        raise ValueError(f"phi must be finite and nonnegative, got {phi!r}")
    n = config.length
    stats = _dense_stats(state)
    stats *= config.lam
    if phi != 0.0:
        u = np.empty(n + 1)
        np.multiply(x, phi, out=u[:n])
        u[n] = phi * d
        stats += u[:, None] * x
    if state.ops is not None:
        # The decay; a sample adds phi x, its outer product and phi d x.
        weighted = phi != 0.0
        state.ops.add(weighted * (n * n + n), n * n + n + weighted * (n * n + 2 * n + 1))
    return state


def _decay_only(state: FilterState, config: FilterConfig) -> None:
    stats = _dense_stats(state)
    stats *= config.lam


def _vss_weight_update(state: FilterState, config: FilterConfig, move: bool) -> None:
    """Move the weights along ``theta - R w`` with the step size that
    minimizes the exponentially weighted quadratic in that direction.

    With ``move`` false only the residual is refreshed and the weights
    stay put (used while the delay line is still filling)."""
    r_mat = state.stats[:-1]  # dense: the statistics update before this checked
    r = state.theta - r_mat @ state.w
    state.residual = r
    if not move:
        return
    rr = float(r @ r)
    r_big = r_mat @ r
    den = float(r @ r_big) + VSS_GUARD
    mu = rr / den
    state.w += mu * r


def _weigh(state: FilterState, e: float, weighting: AseParams | float | None) -> tuple[bool, float]:
    """Whether a sample with prior error ``e`` is applied, and its weight ``phi``.

    ``weighting`` is None (weight 1, every sample applied), an
    :class:`~asefilt.estimator.AseParams` (the gate at ``pi * c``, then
    :func:`~asefilt.estimator.ase_weight`) or a Gaussian kernel width
    ``sigma`` (``exp(-e^2 / (2 sigma^2))``, every sample applied).  The
    cost of the gate and the weight is counted here, not by the step.
    """
    if weighting is None:
        return True, 1.0
    if isinstance(weighting, AseParams):
        applied = abs(e) <= weighting.cutoff
        phi = ase_weight(e, weighting) if applied else 0.0
        if state.ops is not None:
            state.ops.add(applied, 4 * applied, comparisons=1)
        return applied, phi
    phi = math.exp(-(e * e) / (2.0 * weighting * weighting))
    if state.ops is not None:
        state.ops.add(0, 4)
    return True, phi


def _vss_step(
    state: FilterState, config: FilterConfig, x: np.ndarray, d: float, weighting
) -> tuple[FilterState, StepOutput]:
    e = d - float(state.w @ x)
    applied, phi = _weigh(state, e, weighting)
    if applied:
        correlation_update(state, config, x, d, phi)
        state.updates_applied += 1
    else:
        _decay_only(state, config)
    # Hold the weights at rest until the delay line has filled once.  With
    # only prehistory-padded regressors absorbed, the regularized
    # least-squares target is dominated by the unexcited directions and a
    # single variable-step move can land arbitrarily far out (a small
    # first input sample alone puts ||w|| near |d / x(0)|), after which a
    # saturating gate never reopens.
    move = state.step_index >= config.length - 1
    _vss_weight_update(state, config, move)
    if state.ops is not None:
        # The prior error, the decay of a skipped sample, the residual
        # theta - R w, and a move: r.r, R r, r.R r, the step size and w += mu r.
        n = config.length
        state.ops.add(
            n + n * n + move * (n * n + 2 * n - 1),
            n + (not applied) * (n * n + n) + n * n + move * (n * n + 3 * n + 1),
        )
    state.updates_total += 1
    state.step_index += 1
    return state, StepOutput(prior_error=e, applied=applied)


def iwf_ase_step(
    state: FilterState, config: FilterConfig, x, d
) -> tuple[FilterState, StepOutput]:
    """One robust inversion-free step.

    Computes the prior error, folds the sample into the statistics with the
    saturating weighting factor when the error magnitude is within
    ``pi * c`` (decay only otherwise), then runs the variable-step weight
    update.  The weights stay at rest for the first ``length - 1`` steps
    while the delay line fills.
    """
    x, d = _check_sample(config, x, d)
    return _vss_step(state, config, x, d, config.ase)


def iwf_step(state: FilterState, config: FilterConfig, x, d) -> tuple[FilterState, StepOutput]:
    """Non-robust baseline: identical to :func:`iwf_ase_step` with the
    weighting factor pinned to 1 and no skip logic."""
    x, d = _check_sample(config, x, d)
    return _vss_step(state, config, x, d, None)


def rmcc_step(
    state: FilterState, config: FilterConfig, x, d, kernel_sigma: float
) -> tuple[FilterState, StepOutput]:
    """Baseline with a Gaussian error weighting ``exp(-e^2 / (2 sigma^2))``.

    Every sample is folded into the statistics (the Gaussian never reaches
    zero), which is what separates its behavior from the saturating
    weighting under strong impulses.
    """
    kernel_sigma = float(kernel_sigma)
    if not (math.isfinite(kernel_sigma) and kernel_sigma > 0):
        raise ValueError(f"kernel_sigma must be positive, got {kernel_sigma!r}")
    x, d = _check_sample(config, x, d)
    return _vss_step(state, config, x, d, kernel_sigma)


def _shift_correlation_update(
    state: FilterState, config: FilterConfig, x: np.ndarray, correction: float
) -> None:
    """O(length) autocorrelation update for tapped-delay-line inputs.

    The first row follows the exact exponentially weighted recursion
    ``row0 <- lam row0 + x[0] x`` and the interior block is the previous
    matrix shifted down-right by one sample; symmetry makes the first
    column the first row.  Because consecutive regressors share all but
    one entry, the shifted block *is* the exponentially weighted sum for
    the interior lags, so the recursion ``R(n) = lam R(n-1) + x x^T``
    holds entry-exactly (the only deviation is the initial ``rho I``
    mass, which the interior keeps undecayed).  The shifted interior
    keeps its leakage mass too, so the leakage ``correction`` tops up the
    leading entry only.

    ``R`` is held as a :class:`~asefilt.dcd.ShiftMatrix`, a ring of the
    last ``length`` first rows, so the shift is one row write: O(length)
    multiplies and O(length) memory traffic.  The previous first row is
    read through the ring's :attr:`~asefilt.dcd.ShiftMatrix.newest` view,
    which equals ``column(0)`` without a gather.  :func:`filter_init` makes
    the ring; a state that holds ``R`` dense raises :class:`FilterError`.

    The sample weighting deliberately does not appear here: scaling the
    rank-one term by a step-dependent factor breaks the shift identity
    (the interior would lag the weighting by one sample per row) and with
    it the exactness of the residual recursion that makes the
    coordinate-descent variant cheap.  Robust weighting is applied on the
    error side instead; see :func:`dcd_ase_step`.
    """
    ring = state.ring
    if ring is None:
        raise FilterError("shift-mode dcd_ase_step needs R as a ring; this state holds R dense")
    row0 = config.lam * ring.newest + x[0] * x
    if correction != 0.0:
        row0[0] += correction
    ring.push(row0)


def dcd_ase_step(
    state: FilterState, config: FilterConfig, x, d
) -> tuple[FilterState, StepOutput]:
    """One low-cost robust step: budgeted coordinate-descent weight update.

    The right-hand side of the normal equations is maintained recursively
    from the previous solver residual (``rhs = lam residual + phi e x``,
    minus the leakage correction), so each step solves a small correction
    problem instead of the full system.  The saturating weighting gates the
    error injection: a sample whose prior error magnitude exceeds
    ``pi * c`` contributes nothing to the right-hand side.

    The two correlation-update modes differ in where the weighting acts:

    * ``"shift"`` (default) keeps the autocorrelation unweighted, which is
      what makes the O(length) shifted update and the residual recursion
      exact.  Equivalently, the filter tracks the normal equations for the
      error-censored desired signal ``d - (1 - phi) e``: outlier samples
      are replaced by the filter's own prediction while the (impulse-free)
      regressor statistics keep accumulating.  ``R`` is held as a ring of
      first rows, which the solver reads one column at a time, so the
      whole step is O(length) in multiplies and in memory traffic.
    * ``"dense"`` applies the weighting to the full rank-one sample update
      on both sides, at O(length^2) multiplies per step.

    In both modes the solver engages only once the delay line has filled
    (``length`` samples); solving against the rank-deficient early
    statistics launches the weights far enough that the error gate then
    blocks recovery.  For the same reason the solve is skipped, with the
    weights held and the right-hand side carried over as the residual,
    while any diagonal entry of ``R`` is below the smallest normal float
    (:data:`~asefilt.dcd.MIN_PIVOT`), as happens when a silent input
    decays it to zero or to a subnormal: at a subnormal pivot every
    coordinate update passes the significance test and the weights run
    away for good.  In shift mode this reads the ring's cached pivot
    check, so it costs O(1).
    """
    _check_solver(config)
    x, d = _check_sample(config, x, d)
    return _dcd_step(state, config, x, d, config.ase)


def _check_solver(config: FilterConfig) -> None:
    if config.dcd is None:
        raise FilterError("dcd_ase_step requires FilterConfig.dcd")


def _dcd_step(
    state: FilterState, config: FilterConfig, x: np.ndarray, d: float, weighting
) -> tuple[FilterState, StepOutput]:
    n = config.length
    e = d - float(state.w @ x)
    applied, phi = _weigh(state, e, weighting)

    lam = config.lam
    if config.delta_schedule == "decaying":
        delta_n = lam * state.delta_prev
    else:
        delta_n = config.rho
    correction = delta_n - lam * state.delta_prev

    shift = config.dcd_update == "shift"
    if shift:
        _shift_correlation_update(state, config, x, correction)
        r_mat = state.ring
    else:
        r_mat = _dense_stats(state)[:-1]
        r_mat *= lam
        if phi != 0.0:
            r_mat += np.outer(phi * x, x)
        if correction != 0.0:
            r_mat[np.diag_indices(n)] += correction

    rhs = lam * state.residual
    if phi != 0.0:
        rhs += (phi * e) * x
    if correction != 0.0:
        if shift:
            rhs[0] -= correction * state.w[0]
        else:
            rhs -= correction * state.w

    held = state.step_index < n - 1 or (
        not r_mat.pivots_normal if shift else r_mat.diagonal().min() < MIN_PIVOT
    )
    if held:
        # Accumulate statistics only while the delay line fills, and while
        # a silent input has decayed part of the diagonal to zero or to a
        # subnormal: such a pivot accepts every coordinate update and the
        # weights run away.
        state.residual = rhs
    else:
        result = dcd_solve(r_mat, rhs, config.dcd, ops=state.ops)
        if result.updates_used:  # w never holds -0.0, so adding zeros is a no-op
            state.w += result.delta_w
        state.residual = result.residual_out

    if state.ops is not None:
        # The prior error, the leakage step, the R update, lam * residual
        # and the error injection, the correction on the entries it touches
        # (one in shift mode, the diagonal in dense mode) on R and rhs, and
        # w += delta_w; the weighting and the solve count themselves.
        injected = phi != 0.0
        corrected = correction != 0.0
        if shift:
            r_adds, r_mults, touched = n, 2 * n, 1
        else:
            r_adds, r_mults, touched = injected * n * n, n * n + injected * (n * n + n), n
        state.ops.add(
            n + 1 + r_adds + injected * n + 2 * corrected * touched + (not held) * n,
            n + 2 + r_mults + n + injected * (n + 1) + corrected * touched,
        )

    state.delta_prev = delta_n
    state.updates_total += 1
    if applied:
        state.updates_applied += 1
    state.step_index += 1
    return state, StepOutput(prior_error=e, applied=applied)


def update_ratio(state: FilterState) -> float:
    """Fraction of steps whose sample was folded into the statistics."""
    if state.updates_total == 0:
        raise NoStepsError("update_ratio is undefined before the first step")
    return state.updates_applied / state.updates_total
