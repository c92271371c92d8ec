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
public steps check their arguments, then run one of two private trusted
cores, ``_vss_step`` (inversion-free) or ``_dcd_step`` (coordinate
descent), with the weighting :func:`_weigh` applies: None for
``iwf_step``, ``config.ase`` for ``iwf_ase_step`` and ``dcd_ase_step``,
the kernel width for ``rmcc_step``.  A core runs a sample's whole
recursion in one body, on ``x`` and ``d`` as :func:`_check_sample`
returns them, and returns the row of what it decided: ``(prior_error,
applied, phi, moved)``, where ``moved`` says whether the weights moved
or the solver ran, and for ``_dcd_step`` also the solve's ``(updates,
halvings)``.  It counts nothing: the public steps and the Monte Carlo
harness both price the row a core returns with the cost model of
:mod:`~asefilt.counting`, a public step per call into ``state.ops`` and
the harness once per block of rows it recorded.  Each condition is
checked once, at the public boundary: a public step and
:func:`correlation_update` check the sample, then that the state holds
``R`` in the layout their update needs, and the cores index
``state.stats`` and ``state.ring`` as they find them.  Finite input can
still overflow, so ``_vss_step``, which only the public steps call, keeps
the check of :func:`correlation_update` on ``phi`` and raises
:class:`ValueError` on a step size that is not finite before the weights
move, and ``_dcd_step`` keeps, unless called with ``checked=False``, the
checks of :meth:`~asefilt.dcd.ShiftMatrix.push` on the new ring row and
:func:`~asefilt.dcd.dcd_solve` on the system.  The Monte Carlo harness
(see :mod:`~asefilt.harness`) builds every state itself with
:func:`filter_init`, so the layout always matches, and runs the cores
unchecked.  It steps batches in lockstep, bit for bit: inversion-free
states through :func:`_vss_steps` on a :class:`_VssBatch`, and
shift-mode coordinate-descent runs through :func:`_dcd_batch_step` on a
:class:`_DcdBatch`, which batches the O(length) recursions and the
solve's first scan and leaves each solve to ``_dcd_solve``, started from
the lead that scan found.  It checks a batch once per block of rows
with its ``finite`` method, and a state with :func:`_state_is_finite`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counting import OpCounter, correlation_ops, dcd_step_ops, vss_step_ops
from .dcd import MIN_PIVOT, DcdParams, ShiftMatrix, _check_system, _dcd_solve
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
        constant ``rho - lam * rho`` correction every step.
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
        # delta(n) - lam * delta(n-1), the same every step: exactly 0.0 when
        # decaying, rho - lam * rho when constant.  Set here, not as a
        # cached_property, whose write to __dict__ slows every attribute read.
        leak = 0.0 if self.delta_schedule == "decaying" else self.rho - self.lam * self.rho
        object.__setattr__(self, "_leak_correction", leak)


@dataclass
class FilterState:
    """Mutable per-filter state; create via :func:`filter_init`.

    Where ``R`` lives is fixed at :func:`filter_init`.  A shift-mode
    coordinate-descent config holds it in ``ring``, a
    :class:`~asefilt.dcd.ShiftMatrix` of first rows, and ``stats`` is the
    ``(1, length)`` ``theta`` row.  Every other config leaves ``ring``
    None and ``stats`` of shape ``(length + 1, length)``: ``R`` in its
    first ``length`` rows and ``theta`` in its last, so the decay is one
    in-place multiply and an applied sample one broadcast add.  A public
    step whose update needs the other layout raises :class:`FilterError`
    before it runs.
    No coordinate-descent step writes ``theta``, so it reads zeros there.
    ``residual`` is ``theta - R w`` or the solver residual, ``step_index``
    counts the steps and ``updates_applied`` those whose sample was
    applied; ``ops`` is the optional :class:`~asefilt.counting.OpCounter`.
    """

    w: np.ndarray
    stats: np.ndarray
    residual: np.ndarray
    ring: ShiftMatrix | None = None
    step_index: int = 0
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
    r0 = np.eye(length) * config.rho
    if config.dcd is not None and config.dcd_update == "shift":
        ring, stats = ShiftMatrix(r0), np.zeros((1, length))
    else:
        ring, stats = None, np.vstack([r0, np.zeros(length)])
    return FilterState(
        w=np.zeros(length),
        stats=stats,
        residual=np.zeros(length),
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


def _check_layout(state: FilterState, ring: bool) -> None:
    """Raise :class:`FilterError` unless ``state`` holds ``R`` as a ring
    exactly when the update needs one (``ring``)."""
    if (state.ring is not None) != ring:
        raise FilterError(f"this state holds R {'dense' if ring else 'as a ring'}; the update needs the other layout")


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
    phi = _check_phi(phi)
    _check_layout(state, False)
    _correlation_update(state, config, x, d, phi)
    if state.ops is not None:
        state.ops.add(*correlation_ops(config, phi))
    return state


def _check_phi(phi) -> float:
    phi = float(phi)
    if not (math.isfinite(phi) and phi >= 0.0):
        raise ValueError(f"phi must be finite and nonnegative, got {phi!r}")
    return phi


def _correlation_update(state: FilterState, config: FilterConfig, x: np.ndarray, d: float, phi: float) -> None:
    """:func:`correlation_update` for ``x``, ``d`` and ``phi`` as its checks return them."""
    n = config.length
    stats = state.stats
    stats *= config.lam
    if phi != 0.0:
        u = np.empty(n + 1)
        np.multiply(x, phi, out=u[:n])
        u[n] = phi * d
        stats += u[:, None] * x


def _weigh(e: float, weighting: AseParams | float | None) -> tuple[bool, float]:
    """Whether a sample with prior error ``e`` is applied, and its weight ``phi``.

    ``weighting`` is None (weight 1, every sample applied), an
    :class:`~asefilt.estimator.AseParams` (the gate at ``pi * c``, then
    :func:`~asefilt.estimator.ase_weight`) or a Gaussian kernel width
    ``sigma`` (``exp(-e^2 / (2 sigma^2))``, every sample applied).
    """
    if weighting is None:
        return True, 1.0
    if isinstance(weighting, AseParams):
        applied = abs(e) <= weighting.cutoff
        phi = ase_weight(e, weighting) if applied else 0.0
        return applied, phi
    return True, math.exp(-(e * e) / (2.0 * weighting * weighting))


def _vss_step(
    state: FilterState, config: FilterConfig, x: np.ndarray, d: float, weighting
) -> tuple[float, bool, float, bool]:
    e = d - float(state.w @ x)
    applied, phi = _weigh(e, weighting)
    _check_phi(phi)
    # A gated sample has phi = 0.0, so the update only decays the statistics.
    _correlation_update(state, config, x, d, phi)
    state.updates_applied += applied
    r_mat = state.stats[:-1]
    r = state.theta - r_mat @ state.w
    state.residual = r
    # Move the weights along r = theta - R w with the step size that
    # minimizes the exponentially weighted quadratic in that direction, but
    # hold them at rest until the delay line has filled once.  With only
    # prehistory-padded regressors absorbed, the regularized least-squares
    # target is dominated by the unexcited directions and a single
    # variable-step move can land arbitrarily far out (a small first input
    # sample alone puts ||w|| near |d / x(0)|), after which a saturating
    # gate never reopens.
    move = state.step_index >= config.length - 1
    if move:
        mu = float(r @ r) / (float(r @ (r_mat @ r)) + VSS_GUARD)
        if not math.isfinite(mu):
            raise ValueError(f"the weight step size must be finite, got {mu!r}")
        state.w += mu * r
    state.step_index += 1
    return e, applied, phi, move


class _VssBatch:
    """Inversion-free states stepped in lockstep by :func:`_vss_steps`.

    ``states`` holds one list of runs per algorithm, ``lams`` and
    ``weightings`` each algorithm's forgetting factor and weighting.  Their
    weights and residuals are stacked into ``w`` and ``residual``, ``(A, B,
    L)``, and their statistics into ``stats``, ``(A, B, L + 1, L)``; each
    state then holds views of its row, so it follows the batch and stays
    inspectable.  The views and buffers every step reuses are made here.
    """

    def __init__(self, states: list[list[FilterState]], lams: list[float], weightings: list) -> None:
        arrays = [np.array([[getattr(st, name) for st in runs] for runs in states]) for name in ("w", "stats", "residual")]
        for a, runs in enumerate(states):
            for b, st in enumerate(runs):
                st.w, st.stats, st.residual = (arr[a, b] for arr in arrays)
        self.w, self.stats, self.residual = arrays
        # One float when the algorithms share lam, as every CLI run does: the
        # same product per element as the broadcast multiply, at less cost.
        self.lam = lams[0] if len(set(lams)) == 1 else np.reshape(lams, (-1, 1, 1, 1))
        self.weightings = weightings
        self.r_mat, self.theta = self.stats[..., :-1, :], self.stats[..., -1, :]
        self.w_col, self.residual_col = self.w[..., None], self.residual[..., None]
        self.u = np.empty(self.stats.shape[:-1])
        self.u_col = self.u[..., None]
        self.outer = np.empty(self.stats.shape)
        self.product = np.empty(self.w.shape + (1,))
        self.product_row = self.product[..., 0]

    def finite(self) -> bool:
        """Whether ``w``, ``stats`` and ``residual`` are finite: if so, every
        state of the batch, which holds views of its row, is finite."""
        return all(np.isfinite(arr).all() for arr in (self.w, self.stats, self.residual))

    def sync(self) -> None:
        """Nothing to move: each state holds views of its rows of the batch."""


def _vss_steps(batch: _VssBatch, xd: np.ndarray, step_index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Unchecked :func:`_vss_step` on every row of ``batch`` at once, bit for bit.

    Row ``b`` of ``xd``, ``(B, L + 1)``, is run ``b``'s sample, its
    regressor row ``x`` followed by ``d``, shared by its algorithms; every
    row has taken ``step_index`` steps, so the weights of all of them move
    or none.  Returns the row ``(prior_error, applied, phi, moved)`` of
    every state, the first three as ``(A, B)`` arrays.  Each product is
    the scalar core's: ``np.vecdot`` for its dots, a stacked ``np.matmul``
    for its ``R`` products, :func:`_weigh` per row, and ``u = phi [x; d]``
    in one multiply.
    """
    n, w, stats, residual, product = xd.shape[-1] - 1, batch.w, batch.stats, batch.residual, batch.product
    x = xd[:, :n]
    e = xd[:, n] - np.vecdot(w, x)
    applied, phi = zip(*[_weigh(v, wt) for row, wt in zip(e.tolist(), batch.weightings) for v in row])
    # Rows with phi = 0.0 only decay, as in the scalar core.
    where = True if 0.0 not in phi else (np.array(phi) != 0.0).reshape(e.shape + (1, 1))
    applied = np.array(applied).reshape(e.shape)
    phi = np.array(phi).reshape(e.shape)
    stats *= batch.lam
    np.multiply(phi[..., None], xd, out=batch.u)
    np.multiply(batch.u_col, x[:, None, :], out=batch.outer)
    np.add(stats, batch.outer, out=stats, where=where)
    np.matmul(batch.r_mat, batch.w_col, out=product)
    np.subtract(batch.theta, batch.product_row, out=residual)
    move = step_index >= n - 1
    if move:
        rr = np.vecdot(residual, residual)
        np.matmul(batch.r_mat, batch.residual_col, out=product)
        w += (rr / (np.vecdot(residual, batch.product_row) + VSS_GUARD))[..., None] * residual
    return e, applied, phi, move


def _public_step(core, price, state: FilterState, config: FilterConfig, x, d, weighting, ring=False) -> StepOutput:
    """The body of a public step after its own checks: ``core`` on the
    checked sample, on a state whose layout of ``R`` is a ring exactly when
    ``ring``, its row priced by ``price`` into ``state.ops`` if any."""
    x, d = _check_sample(config, x, d)
    _check_layout(state, ring)
    row = core(state, config, x, d, weighting)
    if state.ops is not None:
        state.ops.add(*price(config, weighting, row))
    return StepOutput(*row[:2])


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
    return state, _public_step(_vss_step, vss_step_ops, state, config, x, d, config.ase)


def iwf_step(state: FilterState, config: FilterConfig, x, d) -> tuple[FilterState, StepOutput]:
    """Non-robust baseline: identical to :func:`iwf_ase_step` with the
    weighting factor pinned to 1 and no skip logic."""
    return state, _public_step(_vss_step, vss_step_ops, state, config, x, d, None)


def rmcc_step(
    state: FilterState, config: FilterConfig, x, d, kernel_sigma: float
) -> tuple[FilterState, StepOutput]:
    """Baseline with a Gaussian error weighting ``exp(-e^2 / (2 sigma^2))``.

    Every sample is folded into the statistics (the Gaussian never reaches
    zero), which is what separates its behavior from the saturating
    weighting under strong impulses.
    """
    kernel_sigma = float(kernel_sigma)
    _check_kernel_width(kernel_sigma)
    return state, _public_step(_vss_step, vss_step_ops, state, config, x, d, kernel_sigma)


def _check_kernel_width(sigma: float) -> None:
    """Reject a Gaussian kernel width that is not positive and finite, or
    whose ``2 sigma^2``, the denominator of the weight, underflows to zero."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"kernel_sigma must be positive and finite, got {sigma!r}")
    if 2.0 * sigma * sigma == 0.0:
        raise ValueError(f"kernel_sigma {sigma!r} is too small: 2 * kernel_sigma**2 underflows to 0")


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
      exact.  Consecutive tapped-delay-line regressors share all but one
      entry, so the interior of ``R(n) = lam R(n-1) + x x^T`` is the
      previous matrix shifted down-right by one sample, and only the first
      row follows the recursion ``row0 <- lam row0 + x[0] x``; symmetry
      makes the first column the first row.  This holds entry-exactly; the
      only deviation is the initial ``rho I`` mass, which the interior
      keeps undecayed, and as the interior keeps its leakage mass too, the
      leakage correction tops up the leading entry only.  Scaling the
      rank-one term by a step-dependent weight would break the shift
      identity (the interior would lag the weighting by one sample per
      row), so the weighting acts on the error side only.  Equivalently,
      the filter tracks the normal equations for the error-censored
      desired signal ``d - (1 - phi) e``: outlier samples are replaced by
      the filter's own prediction while the (impulse-free) regressor
      statistics keep accumulating.  ``R`` is held as a ring of the last
      ``length`` first rows (:class:`~asefilt.dcd.ShiftMatrix`), so the
      shift is one row write and the solver reads one column at a time:
      the whole step is O(length) in multiplies and in memory traffic.
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

    :func:`filter_init` fixes where ``R`` lives: a ring for a shift-mode
    config, dense otherwise.  A state that holds it in the other layout
    raises :class:`FilterError` before the core runs.
    """
    _check_solver(config)
    return state, _public_step(
        _dcd_step, dcd_step_ops, state, config, x, d, config.ase, config.dcd_update == "shift"
    )


def _check_solver(config: FilterConfig) -> None:
    if config.dcd is None:
        raise FilterError("dcd_ase_step requires FilterConfig.dcd")


def _dcd_step(
    state: FilterState, config: FilterConfig, x: np.ndarray, d: float, weighting, checked=True
) -> tuple[float, bool, float, bool, int, int]:
    n = config.length
    e = d - float(state.w @ x)
    applied, phi = _weigh(e, weighting)

    lam = config.lam
    correction = config._leak_correction
    rhs = lam * state.residual
    if phi != 0.0:
        rhs += (phi * e) * x

    # Accumulate statistics only, with the weights held and rhs carried over
    # as the residual, while the delay line fills, and while a silent input
    # has decayed part of the diagonal to zero or to a subnormal: such a
    # pivot accepts every coordinate update and the weights run away.
    held = state.step_index < n - 1
    if config.dcd_update == "shift":
        r_mat = state.ring
        # The newest row is the previous first row, column(0) without a gather.
        row0 = lam * r_mat.newest + x[0] * x
        if correction != 0.0:
            row0[0] += correction
            rhs[0] -= correction * state.w[0]
        if checked:
            r_mat.push(row0)
        else:
            r_mat._push(row0)
        held = held or not r_mat.pivots_normal
    else:
        r_mat = state.stats[:-1]
        r_mat *= lam
        if phi != 0.0:
            r_mat += np.outer(phi * x, x)
        if correction != 0.0:
            r_mat[np.diag_indices(n)] += correction
            rhs -= correction * state.w
        held = held or r_mat.diagonal().min() < MIN_PIVOT

    # Otherwise solve in place: rhs becomes the residual and the increment
    # goes into w.
    updates = halvings = 0
    if not held:
        if checked:
            _check_system(r_mat, rhs)
        updates, halvings = _dcd_solve(r_mat, rhs, config.dcd, state.w)
    state.residual = rhs

    state.updates_applied += applied
    state.step_index += 1
    return e, applied, phi, not held, updates, halvings


class _DcdBatch:
    """Shift-mode coordinate-descent states of one algorithm stepped in
    lockstep by :func:`_dcd_batch_step`.

    Their weights and residuals are stacked into ``w`` and ``residual``,
    ``(B, L)``, and their rings into ``ring``, one ``(B, 2 L, L)`` buffer
    with one ``head``, since every run pushes a row each sample; ``weak``,
    ``(B, L)``, says whether the pivot in each run's slot is below
    :data:`~asefilt.dcd.MIN_PIVOT`.  Each state then holds views of its
    row, as in :class:`_VssBatch`: its ring follows the shared head before
    its own solve and, with its weak slots, at :meth:`sync`.
    """

    def __init__(self, states: list[FilterState], config: FilterConfig, weighting) -> None:
        self.states, self.config, self.weighting = states, config, weighting
        self.w, self.residual = (np.array([getattr(st, name) for st in states]) for name in ("w", "residual"))
        self.ring = np.array([st.ring._buf for st in states])
        self.weak = np.array([st.ring._weak for st in states])
        self.head = states[0].ring._head
        for b, st in enumerate(states):
            st.w, st.residual = self.w[b], self.residual[b]
            st.ring._bind(self.ring[b])
            st.ring._seek(self.head)
        self.runs = np.arange(len(states))

    def finite(self) -> bool:
        """Whether ``w``, ``residual`` and ``ring`` are finite: if so, every
        state of the batch, which holds views of its row, is finite."""
        return all(np.isfinite(arr).all() for arr in (self.w, self.residual, self.ring))

    def sync(self) -> None:
        """Move every state's ring to the shared head and its weak slots."""
        for st, weak in zip(self.states, self.weak.tolist()):
            st.ring._seek(self.head, weak)


def _dcd_batch_step(batch: _DcdBatch, xd: np.ndarray, step_index: int) -> tuple:
    """Unchecked shift-mode :func:`_dcd_step` on every run of ``batch`` at
    once, bit for bit.

    Row ``b`` of ``xd``, ``(B, L + 1)``, is run ``b``'s regressor row
    followed by ``d``; every run has taken ``step_index`` steps.  The O(L)
    recursions every run makes each sample run batched: the prior error
    (``np.vecdot``), :func:`_weigh` per row, ``rhs = lam residual + (phi
    e) x`` with the add masked where ``phi == 0.0``, the leakage
    correction, the ring push, the weak-pivot slots, the hold test and the
    solve's first scan.  A run whose leading residual does not pass the
    finest threshold there ends its solve as :func:`~asefilt.dcd._dcd_solve`
    would, with the bits exhausted; each other run solves through
    ``_dcd_solve`` on its own ring, since the number of coordinate updates
    differs from run to run, starting from the lead this scan found, so
    the scan is not repeated.  Returns the row ``(prior_error, applied,
    phi, moved, updates, halvings)`` of every run, each of length ``B``.
    """
    config = batch.config
    n, lam, correction, params = config.length, config.lam, config._leak_correction, config.dcd
    w, rhs, ring = batch.w, batch.residual, batch.ring
    x = xd[:, :n]
    e = xd[:, n] - np.vecdot(w, x)
    applied, phi = zip(*[_weigh(v, batch.weighting) for v in e.tolist()])
    # Runs with phi = 0.0 add nothing, as in the scalar core.
    where = True if 0.0 not in phi else (np.array(phi) != 0.0)[:, None]
    phi = np.array(phi)
    rhs *= lam
    np.add(rhs, (phi * e)[:, None] * x, out=rhs, where=where)
    head = (batch.head or n) - 1
    row0 = lam * ring[:, batch.head] + x[:, :1] * x
    if correction != 0.0:
        row0[:, 0] += correction
        rhs[:, 0] -= correction * w[:, 0]
    ring[:, head] = row0
    ring[:, head + n] = row0
    batch.weak[:, head] = row0[:, 0] < MIN_PIVOT
    batch.head = head
    # Every run is held while the delay line fills, and after that a run
    # with a weak pivot.
    moved = ~batch.weak.any(axis=1) if step_index >= n - 1 else np.zeros(len(e), dtype=bool)
    magnitude = np.abs(rhs)
    lead = magnitude.argmax(axis=1)
    runs = batch.runs
    # The first scan of _dcd_solve: at or below the finest threshold no
    # depth passes, and the solve ends with the bits exhausted.
    exhausted = magnitude[runs, lead] <= (0.5 * params._ladder[-1]) * ring[runs, head + lead, 0]
    updates, halvings = np.zeros(len(e), dtype=int), moved * params.m_bits
    # Solve where moved > exhausted, i.e. in the moved runs whose scan passed,
    # each from the lead this scan found.
    leads = lead.tolist()
    for b in np.flatnonzero(moved > exhausted).tolist():
        state = batch.states[b]
        state.ring._seek(head)
        updates[b], halvings[b] = _dcd_solve(state.ring, rhs[b], params, state.w, leads[b])
    return e, applied, phi, moved, updates, halvings


def _state_is_finite(state: FilterState) -> bool:
    """Whether the weights, the residual and ``R`` are finite.

    For a ring-held ``R`` only the newest row is read: each pushed row is
    ``lam`` times the previous one plus finite terms, so a non-finite
    entry, once written, stays in the newest row for good.  A non-finite
    value persists likewise through every other recursion of a step, so
    one check after many trusted steps finds whatever a check after each
    of them would have."""
    r = state.stats if state.ring is None else state.ring.newest
    return bool(np.isfinite(state.w).all() and np.isfinite(state.residual).all() and np.isfinite(r).all())


def update_ratio(state: FilterState) -> float:
    """Fraction of steps whose sample was applied, ``updates_applied / step_index``."""
    if state.step_index == 0:
        raise NoStepsError("update_ratio is undefined before the first step")
    return state.updates_applied / state.step_index
