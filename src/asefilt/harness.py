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
kernel width, and before each run's first step it checks the run's
regressor rows and desired signal for shape and finiteness.  It then
steps each filter through one of the two private trusted cores in
``filters``, ``_vss_step`` or ``_dcd_step``, with the algorithm's error
weighting bound; the cores skip the per-call checks of the public step
functions, and results are bit-identical to stepping through them.  The
squared weight deviation of the NMSD curves is computed per block of
rows, not per sample.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .counting import OpCounter, OpsPerIteration, per_iteration
from .dcd import DcdParams
from .estimator import AseParams
from .filters import (
    FilterConfig,
    FilterState,
    _check_solver,
    _dcd_step,
    _vss_step,
    filter_init,
    update_ratio,
)
from .signals import (
    BgNoiseSpec,
    PdPulseSpec,
    ScenarioSpec,
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
_FLOOR_RATIO = 1e-40
# Rows per block of the driver's loop: the NMSD deviation of a block is
# one vectorized reduction, and the block's d values one list.
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class AlgoSpec:
    """One algorithm entry of an experiment.

    ``kernel_sigma`` only applies to the Gaussian-weighted baseline; when
    None it defaults to ten times the background noise deviation of
    the scenario (or 10.0 when the scenario has no background noise).
    An explicit value must be positive and finite.
    """

    kind: str
    config: FilterConfig
    kernel_sigma: float | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ALGORITHMS:
            raise ValueError(f"kind must be one of {ALGORITHMS}, got {self.kind!r}")
        sigma = self.kernel_sigma
        if sigma is not None and not (math.isfinite(sigma) and sigma > 0):
            raise ValueError(f"kernel_sigma must be positive and finite, got {sigma!r}")

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
    """Averaged outcome of one algorithm over all Monte Carlo runs."""

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


def _make_stepper(
    spec: AlgoSpec, bg_std: float
) -> Callable[[FilterState, np.ndarray, float], tuple[FilterState, object]]:
    """The trusted solver core of ``spec`` with its config and error
    weighting bound.

    Raises here, before any step, what the public step would raise on
    every call for the configuration."""
    cfg = spec.config
    weighting = None if spec.kind == "iwf" else cfg.ase
    if spec.kind == "rmcc":
        sigma = spec.kernel_sigma
        if sigma is None:
            # Wide kernel: only gross outliers (an order of magnitude beyond
            # the nominal error scale) are meaningfully downweighted.
            sigma = 10.0 * bg_std if bg_std > 0.0 else 10.0
        weighting = float(sigma)
    # The cores are looked up by name on each call, never bound in an
    # import-time table, so that patching the module attribute takes effect.
    if spec.kind == "dcd_ase":
        _check_solver(cfg)
        return lambda st, x, d: _dcd_step(st, cfg, x, d, weighting)
    return lambda st, x, d: _vss_step(st, cfg, x, d, weighting)


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
    same draw, checked once for shape and finiteness (``ValueError``)
    before its first step.  With ``w_o`` given, the squared weight
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
    steppers = [_make_stepper(spec, bg_std) for spec in algorithms]
    counters = [OpCounter() if instrument else None for _ in algorithms]
    se_sum = [np.zeros(horizon) for _ in algorithms]
    applied_sum = [np.zeros(horizon) for _ in algorithms]
    dev_sum = [np.zeros(horizon) for _ in algorithms]
    ur_sum = [0.0 for _ in algorithms]
    wall = [0.0 for _ in algorithms]
    first_errors = []
    # The weights after each step of a block; np.vecdot matches a per-row
    # diff @ diff bit for bit, where einsum or multiply-then-sum would not.
    w_block = np.empty((_BLOCK_ROWS, length)) if w_o is not None else None

    for run in range(runs):
        x_rows, d, target = draw(run)
        x_rows, d = _check_draw(x_rows, d, horizon, length)
        for idx, spec in enumerate(algorithms):
            state = filter_init(spec.config, ops=counters[idx])
            step = steppers[idx]
            err = np.empty(horizon)
            applied = np.empty(horizon, dtype=bool)
            t0 = time.perf_counter()
            for start in range(0, horizon, _BLOCK_ROWS):
                stop = min(start + _BLOCK_ROWS, horizon)
                # d as Python floats, as the public steps' check converts it.
                rows = zip(x_rows[start:stop], d[start:stop].tolist())
                block_err = []
                block_applied = []
                for t, (x, d_t) in enumerate(rows):
                    state, out = step(state, x, d_t)
                    block_err.append(out.prior_error)
                    block_applied.append(out.applied)
                    if w_block is not None:
                        w_block[t] = state.w
                err[start:stop] = block_err
                applied[start:stop] = block_applied
                if w_block is not None:
                    diff = w_block[: stop - start] - w_o
                    dev_sum[idx][start:stop] += np.vecdot(diff, diff)
            wall[idx] += time.perf_counter() - t0
            ur_sum[idx] += update_ratio(state)
            resid = err - target
            se_sum[idx] += resid * resid
            applied_sum[idx] += applied
            if run == 0:
                first_errors.append(err)

    records = []
    for idx, spec in enumerate(algorithms):
        nmsd_db = None
        if w_o is not None:
            mean_dev = dev_sum[idx] / (runs * float(w_o @ w_o))
            nmsd_db = 10.0 * np.log10(np.maximum(mean_dev, _FLOOR_RATIO))
        records.append(
            RunRecord(
                algorithm=spec.name,
                nmsd_db=nmsd_db,
                mse=se_sum[idx] / runs,
                update_ratio=ur_sum[idx] / runs,
                applied_rate=applied_sum[idx] / runs,
                wall_time=wall[idx],
                op_counts=per_iteration(counters[idx], runs * horizon) if instrument else None,
            )
        )
    return records, first_errors


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
    bg_std = math.sqrt(signal_power * 10.0 ** (-scenario.snr_db / 10.0))

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
