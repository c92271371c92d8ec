"""The benchmark's three workloads, their main calls and their output checks.

Every workload drives the public ``asefilt`` API or CLI with inputs made
from the workload seed, writes its outputs under the benchmark's output
directory, and reports what it did as a :class:`CallResult`.

* ``sysid-mc`` -- ``asefilt sysid`` with default settings: the researcher's
  paired Monte Carlo experiment, dominated by per-sample Python dispatch
  in ``harness`` and ``filters``.
* ``stream-L256`` -- one impulsive identification stream at L=256 fed
  sample by sample through ``filter_init`` and each step function, every
  call timed: the real-time user, dominated by the O(L^2) correlation
  update and the coordinate-descent solver.  No Monte Carlo driver.
* ``anc-io`` -- ``asefilt anc`` on a single long run writing every
  waveform CSV, ``mse.csv`` and the SVG: the second driver plus the
  output layers.

``sysid-mc`` and ``anc-io`` also stream their first run's inputs through
``iwf_ase_step`` and ``dcd_ase_step`` to give per-step latency at their
own filter length.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import asefilt  # noqa: E402
from asefilt import cli, filters, harness, signals, svgplot  # noqa: E402
from asefilt.counting import OpCounter  # noqa: E402
from speed import LOOP_PERIOD, SpeedMeter  # noqa: E402

if not Path(asefilt.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"asefilt imported from {asefilt.__file__}, not from {ROOT / 'src'}")

DEFAULT_SEED = 20240923
KINDS = harness.ALGORITHMS
LATENCY_KINDS = ("iwf_ase", "dcd_ase")
SYSID_IMPULSES = signals.BgNoiseSpec(0.1, 1e4)


@dataclass
class CallResult:
    """One main call: filter steps done, wall seconds, output digests and checks.

    ``wall`` is raw wall-clock time with the calibration snippets taken
    off; ``factor`` is the machine's slow-down over the call and
    ``latencies_us`` are at reference speed (``speed.py``).
    """

    steps: int
    wall: float
    factor: float
    exit_code: int
    digests: dict[str, str]
    bytes_written: int
    latencies_us: dict[str, np.ndarray] = field(default_factory=dict)
    quality: list[tuple[str, bool]] = field(default_factory=list)


def _reset(outdir: Path) -> None:
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)


def _outputs(outdir: Path) -> tuple[dict[str, str], int]:
    """Digests of the deterministic outputs (CSV and SVG) and bytes of every file written."""
    digests = {}
    total = 0
    for path in sorted(outdir.iterdir()):
        total += path.stat().st_size
        if path.suffix in (".csv", ".svg"):
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests, total


def _read_columns(path: Path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def _stepper(kind: str, kernel_sigma: float):
    # Looked up on the module at call time so that a traced wrapper is seen.
    fn = getattr(filters, f"{kind}_step")
    if kind == "rmcc":
        return lambda state, cfg, x, d: fn(state, cfg, x, d, kernel_sigma)
    return fn


def stream(specs, x_rows, d, kernel_sigma, *, counters=None, meter=None):
    """Feed every algorithm sample by sample from a fresh state.

    Returns the final states, the prior-error trace of each algorithm and,
    per algorithm, the start time and wall time (microseconds) of every
    step call.  With a ``meter``, a calibration snippet runs between two
    calls every ``LOOP_PERIOD`` seconds.
    """
    n = len(d)
    pc = time.perf_counter
    states, errors, latencies = {}, {}, {}
    for spec in specs:
        cfg = spec.config
        ops = counters[spec.kind] if counters is not None else None
        state = filters.filter_init(cfg, ops=ops)
        step = _stepper(spec.kind, kernel_sigma)
        err = np.empty(n)
        began = np.empty(n)
        lat = np.empty(n)
        last = pc()
        for t in range(n):
            t0 = pc()
            if meter is not None and t0 - last > LOOP_PERIOD:
                meter.sample()
                t0 = last = pc()
            began[t] = t0
            state, out = step(state, cfg, x_rows[t], d[t])
            lat[t] = pc() - t0
            err[t] = out.prior_error
        states[spec.kind] = state
        errors[spec.kind] = err
        latencies[spec.kind] = (began, lat * 1e6)
    return states, errors, latencies


def sysid_inputs(scenario, run: int = 0):
    """Run ``run`` of a sysid scenario, derived exactly as ``run_sysid`` does."""
    w_o = scenario.system_taps
    length = w_o.shape[0]
    base = scenario.seed ^ run
    u = np.random.default_rng([base, 1]).standard_normal(scenario.horizon)
    x_rows = signals.regressors(u, length)
    d = x_rows @ w_o
    power = float(w_o @ w_o)
    d += signals.gen_background(scenario.horizon, scenario.snr_db, power, [base, 2])
    if scenario.impulses is not None:
        d += signals.gen_bg_noise(scenario.horizon, scenario.impulses, [base, 3])
    return x_rows, d


def sysid_kernel_sigma(scenario) -> float:
    """The RMCC kernel width ``run_sysid`` resolves by default: 10x the background deviation."""
    w_o = scenario.system_taps
    return 10.0 * math.sqrt(float(w_o @ w_o) * 10.0 ** (-scenario.snr_db / 10.0))


def anc_inputs(anc, length: int):
    """Run 0 of an ANC experiment, derived exactly as ``run_anc`` does."""
    impulses = signals.gen_bg_noise(anc.horizon, anc.impulses, [anc.seed, 3])
    reference = signals.iir_shape(impulses, anc.shaping_a1)
    clean = signals.gen_pd_pulses(anc.horizon, anc.pulse_rate, [anc.seed, 4], anc.pulse)
    return signals.regressors(reference, length), clean + impulses


@dataclass(frozen=True)
class Workload:
    name: str
    length: int
    horizon: int
    runs: int
    latency_horizon: int
    why: str

    def impulse_settings(self) -> dict:
        return {"impulse_prob": SYSID_IMPULSES.p_r, "impulse_var": SYSID_IMPULSES.sigma2}

    def inputs(self) -> dict:
        return {
            "L": self.length,
            "horizon": self.horizon,
            "runs": self.runs,
            "algorithms": list(KINDS),
            "latency_horizon": self.latency_horizon,
            **self.impulse_settings(),
        }

    @property
    def steps(self) -> int:
        return self.runs * self.horizon * len(KINDS)

    @property
    def calibration(self) -> str:
        """Calibration snippet matching the work: dense L x L sweeps join the dispatch at large L."""
        return "mixed" if self.length >= 64 else "dispatch"

    def main_call(self, seed: int, outdir: Path, tracer=None) -> CallResult:
        """Run the workload once; with a tracer, open spans around the benchmark's own phases."""
        raise NotImplementedError

    def latency_inputs(self, seed: int, horizon: int):
        """Inputs of a ``horizon``-sample stream at this workload's length: run 0 of its scenario."""
        scenario = harness.make_sysid_scenario(length=self.length, horizon=horizon, mc_runs=1, seed=seed)
        x_rows, d = sysid_inputs(scenario)
        return x_rows, d, sysid_kernel_sigma(scenario)

    def latencies(self, seed: int, result: CallResult) -> dict[str, np.ndarray]:
        """Per-step latency of ``iwf_ase`` and ``dcd_ase`` at this workload's length, at reference speed."""
        x_rows, d, sigma = self.latency_inputs(seed, self.latency_horizon)
        specs = harness.default_algorithms(self.length, LATENCY_KINDS)
        with SpeedMeter(self.calibration, timer=False) as meter:
            latencies = stream(specs, x_rows, d, sigma, meter=meter)[2]
        return {k: lat / meter.local_factors(began) for k, (began, lat) in latencies.items()}

    def count_ops(self) -> dict[str, tuple[float, float]]:
        """Exact per-step (mults, adds) of each algorithm from an OpCounter pass.

        Uses the default seed, not the workload seed, so the counts are a
        fixed property of the code and repeat exactly between runs.
        """
        x_rows, d, sigma = self.latency_inputs(DEFAULT_SEED, self.latency_horizon)
        counters = {kind: OpCounter() for kind in KINDS}
        specs = harness.default_algorithms(self.length, KINDS)
        stream(specs, x_rows, d, sigma, counters=counters)
        n = len(d)
        return {k: (c.mults / n, c.adds / n) for k, c in counters.items()}


class CliWorkload(Workload):
    """A workload whose main call is one ``asefilt <subcommand>`` invocation."""

    subcommand = ""

    def argv(self, seed: int, outdir: Path) -> list[str]:
        return [self.subcommand, "--runs", str(self.runs), "--horizon", str(self.horizon),
                "--seed", str(seed), "--out", str(outdir)]

    def main_call(self, seed: int, outdir: Path, tracer=None) -> CallResult:
        _reset(outdir)
        with SpeedMeter(self.calibration) as meter:
            t0 = time.perf_counter()
            span = tracer.open("cli.main") if tracer is not None else None
            code = cli.main(self.argv(seed, outdir))
            if span is not None:
                tracer.close(span)
            t1 = time.perf_counter()
            wall = t1 - t0 - meter.snippet_s
        digests, nbytes = _outputs(outdir)
        quality = self.quality(outdir) if code == 0 else []
        factor = wall / meter.reference_seconds(t0, t1)
        return CallResult(self.steps, wall, factor, code, digests, nbytes, quality=quality)


class SysidMc(CliWorkload):
    subcommand = "sysid"

    def quality(self, outdir: Path) -> list[tuple[str, bool]]:
        cols = _read_columns(outdir / "nmsd.csv")
        steady = {k: harness.steady_state(cols[k]) for k in KINDS}
        return [
            (f"steady NMSD {k} {steady[k]:.2f} dB < iwf {steady['iwf']:.2f} dB", steady[k] < steady["iwf"])
            for k in ("iwf_ase", "dcd_ase")
        ]


class AncIo(CliWorkload):
    subcommand = "anc"

    def impulse_settings(self) -> dict:
        spec = harness.AncSpec(horizon=1, mc_runs=1, seed=0)
        return {"impulse_prob": spec.impulses.p_r, "impulse_var": spec.impulses.sigma2}

    def quality(self, outdir: Path) -> list[tuple[str, bool]]:
        cols = _read_columns(outdir / "mse.csv")
        db = {k: anc_settled_mse_db(cols[k]) for k in ("iwf", "iwf_ase")}
        return [(f"settled MSE iwf_ase {db['iwf_ase']:.2f} dB < iwf {db['iwf']:.2f} dB", db["iwf_ase"] < db["iwf"])]

    def latency_inputs(self, seed: int, horizon: int):
        anc = harness.AncSpec(horizon=horizon, mc_runs=1, seed=seed, filter_length=self.length)
        x_rows, d = anc_inputs(anc, self.length)
        return x_rows, d, 10.0  # run_anc's kernel width: no background noise -> 10.0


def anc_settled_mse_db(mse: np.ndarray) -> float:
    """Cancellation MSE in dB once the filters have settled: the mean after the first 30%.

    The acceptance test's pulse check allows the same 30% to converge.  The
    last-tenth mean that ``asefilt anc`` prints spans only a handful of
    pulses in a single run, so one pulse can flip the comparison.
    """
    return 10.0 * math.log10(max(float(np.mean(mse[int(0.3 * mse.size):])), 1e-40))


class StreamL256(Workload):
    def main_call(self, seed: int, outdir: Path, tracer=None) -> CallResult:
        _reset(outdir)
        with SpeedMeter(self.calibration, timer=False) as meter:
            t0 = time.perf_counter()
            scenario = harness.make_sysid_scenario(
                length=self.length, horizon=self.horizon, mc_runs=1, seed=seed
            )
            specs = harness.default_algorithms(self.length, KINDS)
            x_rows, d = sysid_inputs(scenario)
            states, errors, latencies = stream(specs, x_rows, d, sysid_kernel_sigma(scenario), meter=meter)
            span = tracer.open("stream.record") if tracer is not None else None
            for kind, err in errors.items():
                signals.save_waveform(outdir / f"error_{kind}.csv", err)
            iters = np.arange(self.horizon)
            chart = svgplot.line_chart(
                [(k, iters, 20.0 * np.log10(np.maximum(np.abs(e), 1e-20))) for k, e in errors.items()],
                title=f"Prior error, L={self.length} stream",
                xlabel="sample",
                ylabel="|prior error| (dB)",
            )
            (outdir / "error.svg").write_text(chart)
            if span is not None:
                tracer.close(span)
            t1 = time.perf_counter()
            wall = t1 - t0 - meter.snippet_s
        digests, nbytes = _outputs(outdir)
        factor = wall / meter.reference_seconds(t0, t1)
        normalized = {k: lat / meter.local_factors(began) for k, (began, lat) in latencies.items()}
        result = CallResult(self.steps, wall, factor, 0, digests, nbytes, latencies_us=normalized)
        result.quality = self.quality(scenario, states)
        return result

    def latencies(self, seed: int, result: CallResult) -> dict[str, np.ndarray]:
        return {k: result.latencies_us[k] for k in LATENCY_KINDS}

    def quality(self, scenario, states) -> list[tuple[str, bool]]:
        checks = []
        for kind, state in states.items():
            checks.append((f"{kind} weights finite", bool(np.all(np.isfinite(state.w)))))
            ratio = filters.update_ratio(state)
            checks.append((f"{kind} update ratio {ratio:.4f} in [0, 1]", 0.0 <= ratio <= 1.0))
        for kind in LATENCY_KINDS:
            final = harness.nmsd(states[kind].w, scenario.system_taps)
            checks.append((f"{kind} final NMSD {final:.2f} dB < 0 dB", final < 0.0))
        return checks


FULL = {
    "sysid-mc": SysidMc(
        "sysid-mc", length=10, horizon=1000, runs=10, latency_horizon=6000,
        why="asefilt sysid defaults (L=10, 4 algorithms, impulses p=0.1 var 1e4), 10 runs x 1000 "
        "samples: per-sample dispatch in harness and filters; batching over runs shows here",
    ),
    "stream-L256": StreamL256(
        "stream-L256", length=256, horizon=2000, runs=1, latency_horizon=2000,
        why="one L=256 impulsive sysid stream of 2000 samples, 4 algorithms stepped one call at a "
        "time with each call timed: correlation update and DCD solve dominate; no harness",
    ),
    "anc-io": AncIo(
        "anc-io", length=5, horizon=20000, runs=1, latency_horizon=6000,
        why="asefilt anc (L=5, 4 algorithms, impulses p=0.1 var 25), one run of 20000 samples "
        "writing every waveform CSV, mse.csv and the SVG: run_anc plus the cli and svgplot output",
    ),
}

TINY = {
    "sysid-mc": SysidMc("sysid-mc", length=10, horizon=600, runs=2, latency_horizon=300, why=""),
    "stream-L256": StreamL256("stream-L256", length=256, horizon=700, runs=1, latency_horizon=700, why=""),
    # The MSE ordering needs the full horizon: in shorter runs an early
    # transient of iwf_ase can still be under way after 30% of the run.
    "anc-io": AncIo("anc-io", length=5, horizon=20000, runs=1, latency_horizon=300, why=""),
}

SCALES = {"full": FULL, "tiny": TINY}
VERSION = asefilt.__version__
