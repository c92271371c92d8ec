"""Monte Carlo experiment harness.

Two experiments are provided: system identification of a random plant
under optional impulsive interference, and adaptive cancellation of
shaped impulsive noise from a sparse pulse signal.  Both average across
seeded runs, share the noise realizations between algorithms within a
run (paired comparisons), and reduce in run order so results are exactly
reproducible.

Seed derivation: run ``i`` of a scenario with seed ``s`` draws stream
``k`` from ``numpy.random.default_rng([s ^ i, k])`` with stream ids
1 = filter input, 2 = background noise, 3 = impulses, 4 = pulse signal;
the plant itself uses ``[s, 0]`` and is shared by all runs.

One driver, ``_paired_runs``, serves both.  Before any step it checks
each algorithm's solver budget and resolves its RMCC kernel width.  It
draws the runs in chunks of at most ``_CHUNK_BYTES`` of regressor rows
(one run at least) and checks each run's rows and desired signal for
shape and finiteness before the chunk's first step.

Each algorithm kind is resolved once, through the table ``_KINDS``, into
its solver, ``"vss"`` (inversion-free) or ``"dcd"`` (coordinate
descent), and its weighting, None, ``"ase"`` or ``"gaussian"``; no
function reads a kind's name.  A row is an (algorithm, run) pair.  For
each chunk the driver builds its row groups once, by solver alone: the
inversion-free rows form one ``filters._VssBatch``; a shift-mode
coordinate-descent algorithm whose chunk has at least
``_DCD_BATCH_MIN_RUNS`` runs forms a ``filters._DcdBatch``; any other
coordinate-descent algorithm steps one run at a time through the scalar
``_dcd_step``: at L <= 10 a batch of 3 runs or fewer took 1.1 to 2.5
times the scalar time, and no batch holds the dense update.  The chunk
then steps one block of ``_BLOCK_ROWS`` samples at a time, the
coordinate-descent groups first, each group with one call that advances
its rows through the unchecked private cores of :mod:`~asefilt.filters`.
The call writes the rows into the block record: six ``(runs,
algorithms, block)`` arrays of each row's prior error, applied flag,
weight ``phi``, moved flag, and solver updates and halvings (zero for a
row that ran no solve).  A batch's call writes each step's weights into
a buffer of its own, by basic indexing, and copies it into the block's
weights once per block.  The scores, the update ratios and the
operation totals are read from the record: on every run, the
record's integer fields share one array with each row's weighted and
exhausted flags, in the order of :func:`~asefilt.counting.step_counts`,
which one add per block accumulates for the whole chunk; a row's applied
count also gives its state's update ratio, and each algorithm is priced
once, from its totals, by its solver's cost function in
:mod:`~asefilt.counting`.  A call's time is split evenly across the
algorithms of its group.  Every sum adds the runs in run order, so each
result is bit-identical to stepping each run through the public steps.

Finite inputs can still overflow a filter's statistics.  After each
block every group says whether its states are finite, a batch from its
arrays and a run-by-run group state by state; only when one says no does
the driver check each state (``filters._state_is_finite``) and raise one
:class:`~asefilt.filters.FilterError` naming the first failing run, in
run order, its first failing algorithm, in the order given, and the
block's samples.  A finite state can still overflow the scores, so the
curve an experiment reports, the NMSD with a target plant and the
residual MSE without one, must come out finite, or one ``FilterError``
names the algorithm.  numpy's overflow warnings are silenced while the
runs are drawn, while the cores run and while the driver scores them, so
these checks, and the draw check that names the run, are the one report.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from ._checks import all_finite, check_array, check_int, check_real, unit_interval
from .counting import OpCounter, OpsPerIteration, dcd_step_ops, per_iteration, vss_step_ops
from .dcd import DcdParams
from .estimator import AseParams
from .filters import (
    FilterConfig,
    FilterError,
    FilterState,
    _check_kernel_width,
    _check_solver,
    _dcd_batch_step,
    _dcd_step,
    _DcdBatch,
    _state_is_finite,
    _VssBatch,
    _vss_steps,
    filter_init,
    update_ratio,
)
from .signals import (
    BgNoiseSpec,
    PdPulseSpec,
    ScenarioSpec,
    background_variance,
    gen_background,
    gen_bg_noise,
    gen_pd_pulses,
    gen_system,
    iir_shape,
    regressors,
)

__all__ = [
    "ALGORITHMS",
    "AlgoSpec",
    "AncSpec",
    "NominalOps",
    "RunRecord",
    "nmsd",
    "steady_state",
    "make_sysid_scenario",
    "default_algorithms",
    "random_spd_system",
    "run_sysid",
    "run_anc",
    "count_ops",
]

# Each algorithm kind as its (solver, weighting): the solver "vss", the
# inversion-free iterative Wiener filter, or "dcd", coordinate descent; the
# weighting None, "ase", Andrew's sine, or "gaussian", the kernel of
# correntropy.  With _NOMINAL below, the only place a kind's name is read.
_KINDS = {
    "iwf": ("vss", None),
    "iwf_ase": ("vss", "ase"),
    "dcd_ase": ("dcd", "ase"),
    "rmcc": ("vss", "gaussian"),
}
ALGORITHMS = tuple(_KINDS)
NMSD_FLOOR_DB = -400.0
_FLOOR_RATIO = 10.0 ** (NMSD_FLOOR_DB / 10.0)  # 1e-40 exactly
# Rows per block of the driver's loop: the NMSD deviation of a block is
# one vectorized reduction, the block's d values one list, and each
# filter state is checked finite once per block.
_BLOCK_ROWS = 64
# Float64 bytes of regressor rows drawn at once: the runs of one chunk step
# in lockstep, and the next chunk is drawn when they are done.
_CHUNK_BYTES = 4 << 20
# Fewest runs of a chunk whose shift-mode coordinate-descent states step
# batched.  At L = 5 and 10 a batch took 2.4 to 2.5 times the scalar time
# at 1 run, 1.4 to 1.5 at 2, 1.1 at 3 and 0.92 to 0.94 at 4 (README,
# "Monte Carlo driver").
_DCD_BATCH_MIN_RUNS = 5


@dataclass(frozen=True)
class AlgoSpec:
    """One algorithm entry of an experiment.

    ``kernel_sigma`` only applies to the Gaussian-weighted baseline; when
    None it defaults to ten times the background noise deviation of
    the scenario (or 10.0 when the scenario has no background noise).
    An explicit value must be positive and finite, and large enough that
    ``2 sigma^2`` does not underflow to zero.  Only a ``dcd_ase`` config
    may carry ``DcdParams``, which make ``filter_init`` lay ``R`` out for
    the coordinate-descent step.
    """

    kind: str
    config: FilterConfig
    kernel_sigma: float | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ALGORITHMS:
            raise ValueError(f"kind must be one of {ALGORITHMS}, got {self.kind!r}")
        if _KINDS[self.kind][0] != "dcd" and self.config.dcd is not None:
            raise ValueError(f"kind {self.kind!r} takes no DcdParams: its config must have dcd=None")
        if self.kernel_sigma is not None:
            _check_kernel_width(self.kernel_sigma)

    @property
    def name(self) -> str:
        """The label, or the kind when no label is given."""
        return self.label if self.label is not None else self.kind


@dataclass(frozen=True, eq=False)
class AncSpec:
    """Noise-cancellation experiment: sparse pulse signal observed through
    additive impulsive noise, with a shaped version of the same noise as
    the filter reference.

    When ``primary`` and ``reference`` are given they replace the synthetic
    signals (single run); ``clean`` then defines the cancellation target
    for the residual error metric (zeros when unknown).  All three must be
    finite, and ``clean`` is rejected without the other two.
    """

    horizon: int
    mc_runs: int
    seed: int
    filter_length: int = 5
    impulses: BgNoiseSpec = BgNoiseSpec(0.1, 25.0)
    shaping_a1: float = 0.2
    pulse_rate: float = 0.002
    pulse: PdPulseSpec = PdPulseSpec()
    primary: np.ndarray | None = None
    reference: np.ndarray | None = None
    clean: np.ndarray | None = None

    def __post_init__(self) -> None:
        check_int("horizon", self.horizon)
        check_int("mc_runs", self.mc_runs)
        check_int("seed", self.seed, 0, "a nonnegative integer")
        check_int("filter_length", self.filter_length)
        check_real("pulse_rate", self.pulse_rate, "lie in [0, 1]", unit_interval)
        check_real("shaping_a1", self.shaping_a1, "be finite")
        external = [v is not None for v in (self.primary, self.reference)]
        if any(external):
            if not all(external):
                raise ValueError("primary and reference must be given together")
            p = np.asarray(self.primary, dtype=float)
            r = np.asarray(self.reference, dtype=float)
            if p.shape != r.shape or p.ndim != 1:
                raise ValueError("primary and reference must be vectors of equal length")
            if p.size == 0:
                raise ValueError("primary and reference must not be empty")
            if not (all_finite(p) and all_finite(r)):
                raise ValueError("primary and reference must be finite")
            if self.mc_runs != 1:
                raise ValueError("external waveforms require mc_runs == 1")
            object.__setattr__(self, "primary", p)
            object.__setattr__(self, "reference", r)
            if self.clean is not None:
                object.__setattr__(self, "clean", check_array("clean", self.clean, p.shape))
        elif self.clean is not None:
            raise ValueError("clean requires primary and reference")


@dataclass
class RunRecord:
    """Averaged outcome of one algorithm over all Monte Carlo runs.

    ``wall_time`` is the seconds the driver spent in the block calls of
    the algorithm's row group, which step its filters and record their
    rows, each call's time split evenly across the group's algorithms:
    the inversion-free ones share one group, and each coordinate-descent
    algorithm has its own.  ``op_counts`` is the floating-point work the
    algorithm executed per iteration, counted from the block record on
    every run.
    """

    algorithm: str
    nmsd_db: np.ndarray | None
    mse: np.ndarray
    update_ratio: float
    applied_rate: np.ndarray
    wall_time: float
    op_counts: OpsPerIteration


@dataclass(frozen=True)
class NominalOps:
    """Per-iteration operation counts of the textbook implementations."""

    adds: float
    mults: float


def nmsd(w: np.ndarray, w_o: np.ndarray) -> float:
    """Normalized mean-square deviation in dB, floored at -400 dB."""
    w = np.asarray(w, dtype=float)
    w_o = np.asarray(w_o, dtype=float)
    if w.shape != w_o.shape or w.ndim != 1:
        raise ValueError("w and w_o must be vectors of equal length")
    denom = float(w_o @ w_o)
    if denom == 0.0:
        raise ValueError("w_o must be nonzero")
    diff = w - w_o
    ratio = float(diff @ diff) / denom
    return 10.0 * math.log10(max(ratio, _FLOOR_RATIO))


def power_db(ratios: np.ndarray) -> np.ndarray:
    """Power ratios in dB, floored at :data:`NMSD_FLOOR_DB`."""
    return 10.0 * np.log10(np.maximum(ratios, _FLOOR_RATIO))


def steady_state(series: np.ndarray) -> float:
    """Mean over the last tenth of a series (at least one sample)."""
    series = np.asarray(series, dtype=float)
    if series.ndim != 1 or series.size == 0:
        raise ValueError("series must be a nonempty vector")
    tail = max(1, series.size // 10)
    return float(np.mean(series[-tail:]))


def make_sysid_scenario(
    length: int = 10,
    horizon: int = 5000,
    mc_runs: int = 100,
    seed: int = 20240923,
    snr_db: float = 0.0,
    impulse_prob: float = 0.1,
    impulse_var: float = 1e4,
    with_impulses: bool = True,
) -> ScenarioSpec:
    """Standard identification scenario: unit-norm random plant, white input,
    background noise at ``snr_db`` and optional Bernoulli-Gaussian impulses."""
    check_int("seed", seed, 0, "a nonnegative integer")
    taps = gen_system(length, [seed, 0])
    impulses = BgNoiseSpec(impulse_prob, impulse_var) if with_impulses else None
    return ScenarioSpec(
        system_taps=taps,
        horizon=horizon,
        mc_runs=mc_runs,
        seed=seed,
        snr_db=snr_db,
        impulses=impulses,
    )


def default_algorithms(
    length: int,
    kinds: tuple[str, ...] = ALGORITHMS,
    *,
    lam: float = 0.999,
    rho: float = 1e-4,
    c: float = 2.0,
    zeta: float = 1e-4,
    h: float = 2.0,
    m_bits: int = 8,
    n_updates: int = 8,
    kernel_sigma: float | None = None,
    dcd_update: str = "shift",
    delta_schedule: str = "decaying",
) -> list[AlgoSpec]:
    """Build the benchmark algorithm set with shared parameters."""
    ase = AseParams(c=c, zeta=zeta)
    dcd = DcdParams(h=h, m_bits=m_bits, n_updates=n_updates)
    specs = []
    for kind in kinds:
        cfg = FilterConfig(
            length=length,
            lam=lam,
            rho=rho,
            ase=ase,
            # An unknown kind is left to AlgoSpec, which names the kinds.
            dcd=dcd if kind in ALGORITHMS and _KINDS[kind][0] == "dcd" else None,
            delta_schedule=delta_schedule,
            dcd_update=dcd_update,
        )
        specs.append(AlgoSpec(kind=kind, config=cfg, kernel_sigma=kernel_sigma))
    return specs


def _weighting(spec: AlgoSpec, bg_std: float) -> AseParams | float | None:
    """The error weighting ``spec``'s core takes.  Raises here, before any
    step, what the public step would raise on every call for the
    configuration."""
    solver, weighting = _KINDS[spec.kind]
    if solver == "dcd":
        _check_solver(spec.config)
    if weighting == "gaussian":
        sigma = spec.kernel_sigma
        if sigma is None:
            # Wide kernel: only gross outliers (an order of magnitude beyond
            # the nominal error scale) are meaningfully downweighted.
            sigma = 10.0 * bg_std if bg_std > 0.0 else 10.0
        return float(sigma)
    return spec.config.ase if weighting == "ase" else None


def _check_draw(run: int, x_rows, d, horizon: int, length: int) -> list[np.ndarray]:
    """Run ``run``'s regressor rows and desired signal, checked for every
    step of the run; a ``ValueError`` names the run."""
    return [check_array(f"run {run}: {name}", value, shape)
            for name, value, shape in (("x_rows", x_rows, (horizon, length)), ("d", d, (horizon,)))]


def _step_runs(config: FilterConfig, weighting, states: list[FilterState], idx: int, xd: np.ndarray,
               first_step: int, record: tuple, w_block: np.ndarray | None) -> None:
    """Step a coordinate-descent algorithm's ``states`` one run at a time through
    the scalar ``_dcd_step`` over the block ``xd``, writing run ``b``'s
    rows into each record field's ``[b, idx]`` and its weights into
    ``w_block[:, idx, b]``.  Each state counts its own steps."""
    length = config.length
    for b, state in enumerate(states):
        w_rows = None if w_block is None else w_block[:, idx, b]
        rows = []
        # d as Python floats, as the public steps' check converts it.
        for k, (x, d) in enumerate(zip(xd[:, b, :length], xd[:, b, length].tolist())):
            rows.append(_dcd_step(state, config, x, d, weighting, False))
            if w_rows is not None:
                w_rows[k] = state.w
        for field, column in zip(record, zip(*rows)):
            field[b, idx] = column


def _step_batched(core, batch, rows, xd: np.ndarray, first_step: int, record: tuple, w_block: np.ndarray | None) -> None:
    """Step ``batch`` through its batched ``core`` over the block ``xd``
    from step ``first_step`` on, writing its rows into each record field's
    ``[:, rows]`` and its weights into ``w_block[:, rows]``, once for the
    block from a buffer that each step writes by basic indexing; then its
    states follow it."""
    columns = []
    w_steps = None if w_block is None else np.empty((len(xd),) + batch.w.shape)
    for k, sample in enumerate(xd):
        columns.append(core(batch, sample, first_step + k))
        if w_steps is not None:
            w_steps[k] = batch.w
    batch.sync()
    if w_steps is not None:
        w_block[: len(xd), rows] = w_steps
    # A core returns each field per sample as an (algorithms, runs) or (runs,)
    # array, or as one flag; the transpose puts the runs first, the samples last.
    for field, column in zip(record, zip(*columns)):
        field[:, rows] = np.array(column).T


def _states_finite(states: list[FilterState]) -> bool:
    return all(_state_is_finite(state) for state in states)


def _row_groups(algorithms: list[AlgoSpec], weightings: list, states: list[list[FilterState]]) -> list[tuple]:
    """The row groups of a chunk whose algorithms hold ``states``, one list
    of runs each, as ``(indices, step, finite)``: the indices of its
    algorithms; ``step(xd, first_step, record, w_block)``, which steps
    them over one block, ``(block, runs, L + 1)``, and writes their rows of
    the record and of ``w_block``; and ``finite()``, whether all its
    states are finite.  An algorithm's group
    follows from its solver in ``_KINDS`` alone.  The inversion-free group
    comes last, since perfbench's set-up probe stops at the first call
    whose name ends in ``_step``.  The cores are read here, so patching
    them takes effect."""
    groups, vss = [], []
    for idx, spec in enumerate(algorithms):
        if _KINDS[spec.kind][0] == "vss":
            vss.append(idx)
        elif len(states[idx]) >= _DCD_BATCH_MIN_RUNS and spec.config.dcd_update == "shift":
            batch = _DcdBatch(states[idx], spec.config, weightings[idx])
            groups.append(([idx], partial(_step_batched, _dcd_batch_step, batch, idx), batch.finite))
        else:
            step = partial(_step_runs, spec.config, weightings[idx], states[idx], idx)
            groups.append(([idx], step, partial(_states_finite, states[idx])))
    if vss:
        batch = _VssBatch(
            [states[idx] for idx in vss], [algorithms[idx].config.lam for idx in vss], [weightings[idx] for idx in vss]
        )
        groups.append((vss, partial(_step_batched, _vss_steps, batch, vss), batch.finite))
    return groups


def _paired_runs(
    algorithms: list[AlgoSpec],
    length: int,
    horizon: int,
    runs: int,
    bg_std: float,
    draw: Callable[[int], tuple[np.ndarray, np.ndarray, np.ndarray | float]],
    w_o: np.ndarray | None,
) -> tuple[list[RunRecord], list[np.ndarray]]:
    """Paired Monte Carlo driver shared by both experiments.

    ``draw(run)`` returns the run's regressor rows, desired signal and the
    target the prior error is scored against; every algorithm sees the
    same draw.  Runs are drawn in chunks of ``_CHUNK_BYTES`` of regressor
    rows (at least one run), each draw checked once for shape and
    finiteness (``ValueError`` naming the run) before the chunk's first
    step.  The runs of a chunk then step in lockstep, one block of
    ``_BLOCK_ROWS`` samples at a time, each row group of
    :func:`_row_groups` with one call per block, into one block record of
    ``(runs, algorithms, block)`` arrays: the prior error, applied flag,
    ``phi``, moved flag, solver updates and halvings of every row.  The
    scores, the update ratios and the operation totals, whose counts are
    accumulated per block and priced once per algorithm, are read from it.
    After each block every group says whether
    its states are finite, and if one does not, the first failing state
    raises ``FilterError``, naming its run, then algorithm.  With ``w_o`` given,
    the squared weight deviation from it is averaged into an NMSD curve.
    Returns one record per algorithm and each algorithm's prior-error
    trace of run 0.
    """
    if not algorithms:
        raise ValueError("algorithms must not be empty")
    for spec in algorithms:
        if spec.config.length != length:
            raise ValueError(
                f"algorithm {spec.name!r} has length {spec.config.length}, experiment needs {length}"
            )
    weightings = [_weighting(spec, bg_std) for spec in algorithms]
    # Each algorithm's solver bits, at which a solve that ran out of them
    # ends; -1, which no row's halvings equal, for one with no solver.
    m_bits = np.array([[-1 if spec.config.dcd is None else spec.config.dcd.m_bits] for spec in algorithms])
    counts = np.zeros((6, len(algorithms)), dtype=int)
    se_sum, applied_sum = (np.zeros((len(algorithms), horizon)) for _ in range(2))
    dev_sum = np.zeros((len(algorithms), horizon)) if w_o is not None else None
    first_errors = np.empty((len(algorithms), horizon))
    ur_sum = [0.0] * len(algorithms)
    wall = [0.0] * len(algorithms)
    chunk = max(1, min(runs, _CHUNK_BYTES // (8 * horizon * length)))

    for first in range(0, runs, chunk):
        n_runs = min(chunk, runs - first)
        states = [[filter_init(spec.config) for _ in range(n_runs)] for spec in algorithms]
        groups = _row_groups(algorithms, weightings, states)
        # The block record, which every block of the chunk reuses: one
        # (prior_error, applied, phi, moved, updates, halvings) row per run,
        # algorithm and sample.  Its integer fields lie in flags beside each
        # row's weighted and exhausted flags, in the order of
        # counting.step_counts; an inversion-free row never writes its
        # updates and halvings, which stay zero.  One add per block sums the
        # flags into flag_sums, itself summed over the samples once, when
        # the chunk is done: a sum per block cost more.
        err_block, phi_block = np.empty((2, n_runs, len(algorithms), _BLOCK_ROWS))
        flag_block, flag_sums = np.zeros((2, 6, n_runs, len(algorithms), _BLOCK_ROWS), dtype=int)
        # The weights after each step of a block; np.vecdot matches a per-row
        # diff @ diff bit for bit, where einsum or multiply-then-sum would not.
        w_block = np.empty((_BLOCK_ROWS, len(algorithms), n_runs, length)) if w_o is not None else None
        # Each run's regressor rows with d as one more column, time-major,
        # so that each sample of the chunk's runs is one view.
        xd_chunk = np.empty((horizon, n_runs, length + 1))
        target = np.empty((horizon, n_runs))
        # The draw check, the block check and the check of the reported
        # curve below are the one report of an overflow, in the draws, in
        # the cores or in the scoring.
        with np.errstate(over="ignore", invalid="ignore"):
            for b in range(n_runs):
                x_rows, d, target[:, b] = draw(first + b)
                xd_chunk[:, b, :length], xd_chunk[:, b, length] = _check_draw(first + b, x_rows, d, horizon, length)
            for start in range(0, horizon, _BLOCK_ROWS):
                stop = min(start + _BLOCK_ROWS, horizon)
                err, phi, flags = (block[..., : stop - start] for block in (err_block, phi_block, flag_block))
                applied, weighted, moved, updates, halvings, exhausted = flags
                record = (err, applied, phi, moved, updates, halvings)
                for indices, step, _ in groups:
                    t0 = time.perf_counter()
                    step(xd_chunk[start:stop], start, record, w_block)
                    # One call steps the group's algorithms, so its time is split evenly.
                    share = (time.perf_counter() - t0) / len(indices)
                    for idx in indices:
                        wall[idx] += share
                # Only when a group finds a state that is not finite does the
                # per-state check, which alone raises, look for the first one.
                if not all(finite() for _, _, finite in groups):
                    for b in range(n_runs):
                        for idx, spec in enumerate(algorithms):
                            if not _state_is_finite(states[idx][b]):
                                raise FilterError(
                                    f"{spec.name}: run {first + b}: the filter state became non-finite"
                                    f" in the block of samples {start} to {stop - 1}"
                                )
                np.not_equal(phi, 0.0, out=weighted)
                np.equal(halvings, m_bits, out=exhausted)
                flag_sums[..., : stop - start] += flags
                resid = err - target[start:stop].T[:, None]
                sq = resid * resid
                if w_block is not None:
                    diff = w_block[: stop - start]
                    diff -= w_o
                    dev = np.vecdot(diff, diff).T
                # Each sum adds the runs in run order, as one run at a time would.
                for b in range(n_runs):
                    se_sum[:, start:stop] += sq[b]
                    applied_sum[:, start:stop] += applied[b]
                    if w_block is not None:
                        dev_sum[:, start:stop] += dev[b]
                if first == 0:
                    first_errors[:, start:stop] = err[0]
        row_counts = flag_sums.sum(axis=-1)
        counts += row_counts.sum(axis=1)
        for b in range(n_runs):
            for idx in range(len(algorithms)):
                # The batched cores keep no step counts; the record gives every
                # state the counts a scalar core keeps.
                state = states[idx][b]
                state.step_index, state.updates_applied = horizon, int(row_counts[0, b, idx])
                ur_sum[idx] += update_ratio(state)

    records = []
    for idx, spec in enumerate(algorithms):
        price = vss_step_ops if _KINDS[spec.kind][0] == "vss" else dcd_step_ops
        ops = OpCounter(*price(spec.config, weightings[idx], runs * horizon, *counts[:, idx].tolist()))
        nmsd_db = None
        if w_o is not None:
            with np.errstate(over="ignore"):
                nmsd_db = power_db(dev_sum[idx] / (runs * float(w_o @ w_o)))
        mse = se_sum[idx] / runs
        # The curve the experiment reports: the NMSD with a plant, else the residual MSE.
        name, curve = ("residual MSE", mse) if nmsd_db is None else ("NMSD", nmsd_db)
        if not all_finite(curve):
            raise FilterError(f"{spec.name}: the {name} curve is not finite")
        records.append(
            RunRecord(
                algorithm=spec.name,
                nmsd_db=nmsd_db,
                mse=mse,
                update_ratio=ur_sum[idx] / runs,
                applied_rate=applied_sum[idx] / runs,
                wall_time=wall[idx],
                op_counts=per_iteration(ops, runs * horizon),
            )
        )
    return records, list(first_errors)


def run_sysid(
    scenario: ScenarioSpec,
    algorithms: list[AlgoSpec],
) -> list[RunRecord]:
    """Identify the scenario plant with every algorithm and average the
    squared deviation trajectories across runs (in the linear domain,
    converted to dB at the end)."""
    w_o = scenario.system_taps
    length = w_o.shape[0]
    horizon = scenario.horizon
    signal_power = float(w_o @ w_o)
    bg_std = math.sqrt(background_variance(scenario.snr_db, signal_power))

    def draw(run: int) -> tuple[np.ndarray, np.ndarray, float]:
        base = scenario.seed ^ run
        u = np.random.default_rng([base, 1]).standard_normal(horizon)
        x_rows = regressors(u, length)
        d = x_rows @ w_o
        d += gen_background(horizon, scenario.snr_db, signal_power, [base, 2])
        if scenario.impulses is not None:
            d += gen_bg_noise(horizon, scenario.impulses, [base, 3])
        return x_rows, d, 0.0

    records, _ = _paired_runs(algorithms, length, horizon, scenario.mc_runs, bg_std, draw, w_o)
    return records


def run_anc(
    anc: AncSpec,
    algorithms: list[AlgoSpec],
) -> tuple[list[RunRecord], dict[str, np.ndarray]]:
    """Cancel shaped impulsive noise from a sparse pulse signal.

    The observed signal is ``pulses + impulses`` and the filter reference
    is the impulse train passed through the shaping difference filter, so
    the cancellation error converges to the pulse signal.  The ``mse``
    series of each record is the mean squared residual between the
    filter error and the clean pulses.  Returns the records plus the
    first run's waveforms (primary, clean, reference and one denoised
    trace per algorithm).
    """
    length = anc.filter_length
    horizon = anc.horizon if anc.primary is None else anc.primary.shape[0]
    waveforms: dict[str, np.ndarray] = {}

    def draw(run: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        base = anc.seed ^ run
        if anc.primary is not None:
            d = anc.primary
            reference = anc.reference
            clean = anc.clean if anc.clean is not None else np.zeros(horizon)
        else:
            impulses = gen_bg_noise(horizon, anc.impulses, [base, 3])
            reference = iir_shape(impulses, anc.shaping_a1)
            clean = gen_pd_pulses(horizon, anc.pulse_rate, [base, 4], anc.pulse)
            d = clean + impulses
        if run == 0:
            waveforms["primary"] = np.array(d, dtype=float)
            waveforms["clean"] = np.array(clean, dtype=float)
            waveforms["reference"] = np.array(reference, dtype=float)
        return regressors(reference, length), d, clean

    records, errors = _paired_runs(algorithms, length, horizon, anc.mc_runs, 0.0, draw, None)
    for rec, err in zip(records, errors):
        waveforms[f"denoised_{rec.algorithm}"] = err
    return records, waveforms


def random_spd_system(length: int, cond: float, seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random symmetric positive-definite test system.

    Eigenvalues are spread linearly over [1, cond] on a random orthogonal
    basis.  Returns ``(matrix, solution, right_hand_side)``.  A ``cond``
    near the largest float can overflow the matrix or the right-hand side,
    which raises ``ValueError``.
    """
    check_int("length", length)
    check_real("cond", cond, "be >= 1", lambda v: math.isfinite(v) and v >= 1.0)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((length, length)))
    with np.errstate(over="ignore", invalid="ignore"):
        # linspace's last step can overflow on the way to a cond near the
        # largest float, before it writes cond itself as the last entry.
        eigs = np.linspace(1.0, float(cond), length)
        matrix = (q * eigs) @ q.T
        matrix = 0.5 * (matrix + matrix.T)
        solution = rng.standard_normal(length)
        rhs = matrix @ solution
    if not (all_finite(matrix) and all_finite(rhs)):
        raise ValueError(f"cond {cond!r} is too large: the test system overflows")
    return matrix, solution, rhs


# Each kind's solver and the (adds, mults) of its textbook form, from the
# filter length L and, for coordinate descent, the update budget nu and the
# bits mb.  DCD-RMCC, the coordinate-descent solver with the Gaussian
# weighting, has a nominal cost but no filter yet.  The order is that of
# the rows of dcd-bench's dcd_ops.csv.
_NOMINAL = {
    "iwf": ("vss", lambda L: (3 * L * L + 4 * L, 3.5 * L * L + 6 * L)),
    "iwf_ase": ("vss", lambda L: (3 * L * L + 4 * L, 3.5 * L * L + 8 * L + 3)),
    "rmcc": ("vss", lambda L: (3 * L * L + 7 * L + 4, 3 * L * L + 13 * L + 12)),
    "dcd_rmcc": ("dcd", lambda L, nu, mb: (3 * L + 2 * nu * L + mb, 7 * L + 5)),
    "dcd_ase": ("dcd", lambda L, nu, mb: (3 * L + 2 * nu * L + mb + 1, 7 * L + 6)),
}


def count_ops(kind: str, length: int, dcd: DcdParams | None = None) -> NominalOps:
    """Per-iteration addition and multiplication counts of the textbook
    forms of each algorithm, as polynomial functions of the filter length
    and, for the coordinate-descent variants, the solver budget."""
    check_int("length", length)
    if kind not in _NOMINAL:
        raise ValueError(f"unknown algorithm kind {kind!r}")
    solver, cost = _NOMINAL[kind]
    if solver == "vss":
        return NominalOps(*cost(float(length)))
    if dcd is None:
        raise ValueError(f"count_ops({kind!r}) requires DcdParams")
    return NominalOps(*cost(float(length), float(dcd.n_updates), float(dcd.m_bits)))
