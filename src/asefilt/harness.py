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

Validation happens once per run, not once per sample.  Before any step
the driver checks each algorithm's solver budget and resolves its RMCC
kernel width.  It draws the runs in chunks of at most ``_CHUNK_BYTES`` of
regressor rows (one run at least) and checks each run's regressor rows
and desired signal for shape and finiteness before the chunk's first
step.  The runs of a chunk then step in lockstep, one block of
``_BLOCK_ROWS`` samples at a time, through the private trusted cores in
``filters``: one call of the batched ``_vss_steps`` per sample advances
every ``iwf``, ``iwf_ase`` and ``rmcc`` row of the chunk, a row being an
(algorithm, run) pair, and each ``dcd_ase`` run steps through the scalar
``_dcd_step`` over the same block.  The cores skip the per-call checks
of the public step functions and count nothing, and results are
bit-identical to stepping each run through them, since every sum adds
the runs in run order.  The driver keeps one record per block: four
``(algorithms, runs, block)`` arrays holding each row's prior error,
applied flag, weight ``phi`` and whether its weights moved, filled from
the rows the cores return.  The error and applied series come from it.
The stepping loop is the same with and without ``instrument``; an
``instrument`` run then prices the record's rows once, after the block
check, with each family's cost function from :mod:`~asefilt.counting`.
Only the DCD solve prices itself, into the state's counter, since only
the solve knows how deep it halved.  The public steps keep the scalar
cores, through which one row alone steps faster than batched.

Finite inputs can still overflow a filter's statistics.  The driver
checks each state once per block of ``_BLOCK_ROWS`` rows
(``filters._state_is_finite``) and raises one
:class:`~asefilt.filters.FilterError` at the first block of a chunk in
which any state fails, naming the first failing run, in run order, its
first failing algorithm, in the order given, and the block's samples.  The squared weight deviation of the NMSD curves is
likewise computed per block of rows, not per sample.  A finite state can
still overflow the scores, so the curve an experiment reports, the NMSD
with a target plant and the residual MSE without one, must come out
finite, or one ``FilterError`` names the algorithm.  numpy's overflow
warnings are silenced while the cores run and while the driver scores
them, so these checks are the one report.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .counting import OpCounter, OpsPerIteration, dcd_step_ops, per_iteration, vss_step_ops
from .dcd import DcdParams
from .estimator import AseParams
from .filters import (
    FilterConfig,
    FilterError,
    FilterState,
    _check_kernel_width,
    _check_solver,
    _dcd_step,
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
    "NMSD_FLOOR_DB",
    "AlgoSpec",
    "AncSpec",
    "NominalOps",
    "RunRecord",
    "nmsd",
    "power_db",
    "steady_state",
    "make_sysid_scenario",
    "default_algorithms",
    "random_spd_system",
    "run_sysid",
    "run_anc",
    "count_ops",
]

ALGORITHMS = ("iwf", "iwf_ase", "dcd_ase", "rmcc")
NMSD_FLOOR_DB = -400.0
_FLOOR_RATIO = 10.0 ** (NMSD_FLOOR_DB / 10.0)  # 1e-40 exactly
# Rows per block of the driver's loop: the NMSD deviation of a block is
# one vectorized reduction, the block's d values one list, and each
# filter state is checked finite once per block.
_BLOCK_ROWS = 64
# Float64 bytes of regressor rows drawn at once: the runs of one chunk step
# in lockstep, and the next chunk is drawn when they are done.
_CHUNK_BYTES = 4 << 20


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
        if self.kind != "dcd_ase" and self.config.dcd is not None:
            raise ValueError(f"kind {self.kind!r} takes no DcdParams: its config must have dcd=None")
        if self.kernel_sigma is not None:
            _check_kernel_width(self.kernel_sigma)

    @property
    def name(self) -> str:
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
        if not (isinstance(self.horizon, int) and self.horizon >= 1):
            raise ValueError(f"horizon must be a positive integer, got {self.horizon!r}")
        if not (isinstance(self.mc_runs, int) and self.mc_runs >= 1):
            raise ValueError(f"mc_runs must be a positive integer, got {self.mc_runs!r}")
        if not (isinstance(self.filter_length, int) and self.filter_length >= 1):
            raise ValueError(f"filter_length must be a positive integer, got {self.filter_length!r}")
        if not (0.0 <= self.pulse_rate <= 1.0):
            raise ValueError(f"pulse_rate must lie in [0, 1], got {self.pulse_rate!r}")
        if not math.isfinite(self.shaping_a1):
            raise ValueError(f"shaping_a1 must be finite, got {self.shaping_a1!r}")
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
            if not (np.isfinite(p).all() and np.isfinite(r).all()):
                raise ValueError("primary and reference must be finite")
            if self.mc_runs != 1:
                raise ValueError("external waveforms require mc_runs == 1")
            object.__setattr__(self, "primary", p)
            object.__setattr__(self, "reference", r)
            if self.clean is not None:
                c = np.asarray(self.clean, dtype=float)
                if c.shape != p.shape:
                    raise ValueError("clean must match primary in length")
                if not np.isfinite(c).all():
                    raise ValueError("clean must be finite")
                object.__setattr__(self, "clean", c)
        elif self.clean is not None:
            raise ValueError("clean requires primary and reference")


@dataclass
class RunRecord:
    """Averaged outcome of one algorithm over all Monte Carlo runs.

    ``wall_time`` is the seconds spent stepping the algorithm's filters.
    One batched call steps every inversion-free algorithm (``iwf``,
    ``iwf_ase``, ``rmcc``) at once, so its time is split evenly across
    them; each ``dcd_ase`` algorithm is timed on its own.
    """

    algorithm: str
    nmsd_db: np.ndarray | None
    mse: np.ndarray
    update_ratio: float
    applied_rate: np.ndarray
    wall_time: float
    op_counts: OpsPerIteration | None = None


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
            dcd=dcd if kind == "dcd_ase" else None,
            delta_schedule=delta_schedule,
            dcd_update=dcd_update,
        )
        specs.append(AlgoSpec(kind=kind, config=cfg, kernel_sigma=kernel_sigma))
    return specs


def _weighting(spec: AlgoSpec, bg_std: float) -> AseParams | float | None:
    """The error weighting ``spec``'s core takes.  Raises here, before any
    step, what the public step would raise on every call for the
    configuration."""
    if spec.kind == "dcd_ase":
        _check_solver(spec.config)
    if spec.kind == "iwf":
        return None
    if spec.kind == "rmcc":
        sigma = spec.kernel_sigma
        if sigma is None:
            # Wide kernel: only gross outliers (an order of magnitude beyond
            # the nominal error scale) are meaningfully downweighted.
            sigma = 10.0 * bg_std if bg_std > 0.0 else 10.0
        return float(sigma)
    return spec.config.ase


def _check_draw(x_rows, d, horizon: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """One run's regressor rows and desired signal, checked for every step of the run."""
    x_rows = np.asarray(x_rows, dtype=float)
    if x_rows.shape != (horizon, length):
        raise ValueError(f"x_rows must have shape ({horizon}, {length}), got {x_rows.shape}")
    if not np.isfinite(x_rows).all():
        raise ValueError("x_rows must be finite")
    d = np.asarray(d, dtype=float)
    if d.shape != (horizon,):
        raise ValueError(f"d must have shape ({horizon},), got {d.shape}")
    if not np.isfinite(d).all():
        raise ValueError("d must be finite")
    return x_rows, d


def _step_run(cfg: FilterConfig, weighting, state: FilterState, xd: np.ndarray, w_rows: np.ndarray | None) -> list[tuple]:
    """Step one ``dcd_ase`` run's ``state`` through ``_dcd_step`` over the
    samples ``xd``, regressor rows with ``d`` as one more column, and
    return its rows of the block record, one ``(prior_error, applied, phi,
    moved)`` per sample; with ``w_rows``, write the weights after each step
    into it."""
    length = xd.shape[-1] - 1
    rows = []
    # d as Python floats, as the public steps' check converts it.
    for k, (x, d) in enumerate(zip(xd[:, :length], xd[:, length].tolist())):
        rows.append(_dcd_step(state, cfg, x, d, weighting))
        if w_rows is not None:
            w_rows[k] = state.w
    return rows


def _paired_runs(
    algorithms: list[AlgoSpec],
    length: int,
    horizon: int,
    runs: int,
    bg_std: float,
    draw: Callable[[int], tuple[np.ndarray, np.ndarray, np.ndarray | float]],
    w_o: np.ndarray | None,
    instrument: bool,
) -> tuple[list[RunRecord], list[np.ndarray]]:
    """Paired Monte Carlo driver shared by both experiments.

    ``draw(run)`` returns the run's regressor rows, desired signal and the
    target the prior error is scored against; every algorithm sees the
    same draw.  Runs are drawn in chunks of ``_CHUNK_BYTES`` of regressor
    rows (at least one run), each draw checked once for shape and
    finiteness (``ValueError``) before the chunk's first step.  The runs
    of a chunk then step in lockstep, one block of ``_BLOCK_ROWS`` samples
    at a time, into one block record of ``(algorithms, runs, block)``
    arrays: the prior error, applied flag, ``phi`` and moved flag of every
    row.  The scores, the update ratios and, with ``instrument``, the
    operation totals are read from it.  Every filter state is checked
    finite after each block (``FilterError``, naming the first failing
    run, then algorithm).  With ``w_o`` given, the squared weight
    deviation from it is averaged into an NMSD curve.  Returns one record
    per algorithm and each algorithm's prior-error trace of run 0.
    """
    if not algorithms:
        raise ValueError("algorithms must not be empty")
    for spec in algorithms:
        if spec.config.length != length:
            raise ValueError(
                f"algorithm {spec.name!r} has length {spec.config.length}, experiment needs {length}"
            )
    # The inversion-free algorithms step together through the batched
    # _vss_steps, the coordinate-descent ones one run at a time through
    # _dcd_step.  Both are looked up when called, so patching them takes effect.
    vss = [idx for idx, spec in enumerate(algorithms) if spec.kind != "dcd_ase"]
    dcd = [idx for idx, spec in enumerate(algorithms) if spec.kind == "dcd_ase"]
    weightings = [_weighting(spec, bg_std) for spec in algorithms]
    counters = [OpCounter() if instrument else None for _ in algorithms]
    se_sum, applied_sum, dev_sum = (np.zeros((len(algorithms), horizon)) for _ in range(3))
    first_errors = np.empty((len(algorithms), horizon))
    ur_sum = [0.0] * len(algorithms)
    wall = [0.0] * len(algorithms)
    chunk = max(1, min(runs, _CHUNK_BYTES // (8 * horizon * length)))

    for first in range(0, runs, chunk):
        n_runs = min(chunk, runs - first)
        # Each run's regressor rows with d as one more column, time-major,
        # so that each sample of the chunk's runs is one view.
        xd_chunk = np.empty((horizon, n_runs, length + 1))
        target = np.empty((horizon, n_runs))
        for b in range(n_runs):
            x_rows, d, target[:, b] = draw(first + b)
            xd_chunk[:, b, :length], xd_chunk[:, b, length] = _check_draw(x_rows, d, horizon, length)
        states = [[filter_init(spec.config, ops=counter) for _ in range(n_runs)] for spec, counter in zip(algorithms, counters)]
        if vss:
            batch = _VssBatch(
                [states[idx] for idx in vss],
                [algorithms[idx].config.lam for idx in vss],
                [weightings[idx] for idx in vss],
            )
        applied_count = np.zeros((len(algorithms), n_runs), dtype=int)
        # The weights after each step of a block; np.vecdot matches a per-row
        # diff @ diff bit for bit, where einsum or multiply-then-sum would not.
        w_block = np.empty((_BLOCK_ROWS, len(algorithms), n_runs, length)) if w_o is not None else None
        # The block check and the check of the reported curve below are the
        # one report of an overflow, in the cores or in the scoring.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, horizon, _BLOCK_ROWS):
                stop = min(start + _BLOCK_ROWS, horizon)
                # The block record: one (prior_error, applied, phi, moved)
                # row per algorithm, run and sample.
                shape = (len(algorithms), n_runs, stop - start)
                err, phi = np.empty((2,) + shape)
                applied, moved = np.empty((2,) + shape, dtype=bool)
                for idx in dcd:
                    for b, state in enumerate(states[idx]):
                        t0 = time.perf_counter()
                        rows = _step_run(algorithms[idx].config, weightings[idx], state, xd_chunk[start:stop, b],
                                         None if w_block is None else w_block[:, idx, b])
                        wall[idx] += time.perf_counter() - t0
                        err[idx, b], applied[idx, b], phi[idx, b], moved[idx, b] = zip(*rows)
                if vss:
                    t0 = time.perf_counter()
                    columns = []
                    for k, t in enumerate(range(start, stop)):
                        columns.append(_vss_steps(batch, xd_chunk[t], t >= length - 1))
                        if w_block is not None:
                            w_block[k, vss] = batch.w
                    # One call steps them all, so its time is split evenly.
                    share = (time.perf_counter() - t0) / len(vss)
                    for idx in vss:
                        wall[idx] += share
                    # Each column is (algorithms, runs); the record puts the samples last.
                    *cols, moved_cols = zip(*columns)
                    err[vss], applied[vss], phi[vss] = (np.array(col).transpose(1, 2, 0) for col in cols)
                    moved[vss] = moved_cols
                for b in range(n_runs):
                    for idx, spec in enumerate(algorithms):
                        if not _state_is_finite(states[idx][b]):
                            raise FilterError(
                                f"{spec.name}: run {first + b}: the filter state became non-finite"
                                f" in the block of samples {start} to {stop - 1}"
                            )
                if instrument:
                    for idx, spec in enumerate(algorithms):
                        price = dcd_step_ops if spec.kind == "dcd_ase" else vss_step_ops
                        for row in zip(*(field[idx].ravel().tolist() for field in (err, applied, phi, moved))):
                            counters[idx].add(*price(spec.config, weightings[idx], row))
                applied_count += applied.sum(axis=-1)
                resid = err - target[start:stop].T
                sq = resid * resid
                if w_block is not None:
                    diff = w_block[: stop - start]
                    diff -= w_o
                    dev = np.vecdot(diff, diff).T
                # Each sum adds the runs in run order, as one run at a time would.
                for b in range(n_runs):
                    se_sum[:, start:stop] += sq[:, b]
                    applied_sum[:, start:stop] += applied[:, b]
                    if w_block is not None:
                        dev_sum[:, start:stop] += dev[b]
                if first == 0:
                    first_errors[:, start:stop] = err[:, 0]
        for b in range(n_runs):
            for idx in range(len(algorithms)):
                # The batched core keeps no step counts; the record gives every
                # state the counts a scalar core keeps.
                state = states[idx][b]
                state.step_index, state.updates_applied = horizon, int(applied_count[idx, b])
                ur_sum[idx] += update_ratio(state)

    records = []
    for idx, spec in enumerate(algorithms):
        nmsd_db = None
        if w_o is not None:
            with np.errstate(over="ignore"):
                nmsd_db = power_db(dev_sum[idx] / (runs * float(w_o @ w_o)))
        mse = se_sum[idx] / runs
        # The curve the experiment reports: the NMSD with a plant, else the residual MSE.
        name, curve = ("residual MSE", mse) if nmsd_db is None else ("NMSD", nmsd_db)
        if not np.isfinite(curve).all():
            raise FilterError(f"{spec.name}: the {name} curve is not finite")
        records.append(
            RunRecord(
                algorithm=spec.name,
                nmsd_db=nmsd_db,
                mse=mse,
                update_ratio=ur_sum[idx] / runs,
                applied_rate=applied_sum[idx] / runs,
                wall_time=wall[idx],
                op_counts=per_iteration(counters[idx], runs * horizon) if instrument else None,
            )
        )
    return records, list(first_errors)


def run_sysid(
    scenario: ScenarioSpec,
    algorithms: list[AlgoSpec],
    *,
    instrument: bool = False,
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

    records, _ = _paired_runs(
        algorithms, length, horizon, scenario.mc_runs, bg_std, draw, w_o, instrument
    )
    return records


def run_anc(
    anc: AncSpec,
    algorithms: list[AlgoSpec],
    *,
    instrument: bool = False,
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

    records, errors = _paired_runs(
        algorithms, length, horizon, anc.mc_runs, 0.0, draw, None, instrument
    )
    for rec, err in zip(records, errors):
        waveforms[f"denoised_{rec.algorithm}"] = err
    return records, waveforms


def random_spd_system(length: int, cond: float, seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random symmetric positive-definite test system.

    Eigenvalues are spread linearly over [1, cond] on a random orthogonal
    basis.  Returns ``(matrix, solution, right_hand_side)``.
    """
    if not (isinstance(length, int) and length >= 1):
        raise ValueError(f"length must be a positive integer, got {length!r}")
    if not (math.isfinite(cond) and cond >= 1.0):
        raise ValueError(f"cond must be >= 1, got {cond!r}")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((length, length)))
    eigs = np.linspace(1.0, float(cond), length)
    matrix = (q * eigs) @ q.T
    matrix = 0.5 * (matrix + matrix.T)
    solution = rng.standard_normal(length)
    return matrix, solution, matrix @ solution


def count_ops(kind: str, length: int, dcd: DcdParams | None = None) -> NominalOps:
    """Per-iteration addition and multiplication counts of the textbook
    forms of each algorithm, as polynomial functions of the filter length
    and, for the coordinate-descent variants, the solver budget."""
    if not (isinstance(length, int) and length >= 1):
        raise ValueError(f"length must be a positive integer, got {length!r}")
    L = float(length)
    if kind == "rmcc":
        return NominalOps(adds=3 * L * L + 7 * L + 4, mults=3 * L * L + 13 * L + 12)
    if kind == "iwf":
        return NominalOps(adds=3 * L * L + 4 * L, mults=3.5 * L * L + 6 * L)
    if kind == "iwf_ase":
        return NominalOps(adds=3 * L * L + 4 * L, mults=3.5 * L * L + 8 * L + 3)
    if kind in ("dcd_rmcc", "dcd_ase"):
        if dcd is None:
            raise ValueError(f"count_ops({kind!r}) requires DcdParams")
        nu = float(dcd.n_updates)
        mb = float(dcd.m_bits)
        if kind == "dcd_rmcc":
            return NominalOps(adds=3 * L + 2 * nu * L + mb, mults=7 * L + 5)
        return NominalOps(adds=3 * L + 2 * nu * L + mb + 1, mults=7 * L + 6)
    raise ValueError(f"unknown algorithm kind {kind!r}")
