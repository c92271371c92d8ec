"""asefilt benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload sysid-mc --seed 20240923 --seconds 10 --trace 0

Workloads are ``sysid-mc``, ``stream-L256`` and ``anc-io`` (see
``workloads.py``).  The main call of the workload is repeated for
``--seconds`` seconds (at least three times) and its outputs are checked
on every repeat.

``--trace 0`` reports the end-to-end metrics: set-up time (median of
fresh-interpreter probes), filter steps per second, peak resident memory
and per-step latency percentiles of ``iwf_ase`` and ``dcd_ase``.
``--trace 1`` repeats the untraced main call as a reference, then runs it
once more with every layer boundary wrapped (``spans.py``) and reports
per-layer times, counts and ratios, exact operation counts from an
``OpCounter`` pass, and the tracing overhead.  Spans are written to
``.perfbench_out/<workload>/spans.npz``.

Every timing is reported at the reference machine speed (``speed.py``):
calibration snippets that bracket the measured work correct for the drift
of a shared CPU.  The raw wall-clock figures are printed as well.

Metric names and units come from ``BENCHMARK.json``.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  BLAS threads
are capped at the number of usable cores before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MIN_REPEATS = 3
SETUP_PROBES = 15
SIGNAL_GENERATORS = ("gen_system", "gen_bg_noise", "gen_background", "gen_pd_pulses", "iir_shape", "regressors")
HARNESS_CALLS = ("run_sysid", "run_anc", "make_sysid_scenario", "default_algorithms")


def cap_blas_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        raw = os.environ.get(var, "")
        if not (raw.isdigit() and 1 <= int(raw) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


NPROC = cap_blas_threads()
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, summarize  # noqa: E402
from workloads import KINDS, LATENCY_KINDS, cli, filters, harness, signals, svgplot  # noqa: E402


class Checks:
    """Output checks, counted against the number attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def __call__(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(label)

    def call(self, result, reference) -> dict:
        """Check one main call against the first one; returns the reference digests."""
        self("main call exits with code 0", result.exit_code == 0)
        self("main call writes deterministic outputs", bool(result.digests))
        if reference is None:
            for label, ok in result.quality:
                self(label, ok)
            return result.digests
        self("outputs byte-identical to the first call of this seed", result.digests == reference)
        return reference


def machine() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "asefilt": workloads.VERSION,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def measure_setup(w, seed: int, scale: str, outdir: Path) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to the workload's first filter step.

    Returns raw seconds and the same at reference speed; the probe runs in
    another process, so the calibration snippets bracket it.
    """
    raw, normalized = [], []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "probe.py"), "--workload", w.name, "--seed", str(seed),
               "--scale", scale, "--out", str(outdir)]
        before = speed.bracket("dispatch")
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        seconds = float(proc.stdout.strip().splitlines()[-1]) - t0
        factor = statistics.median(before + speed.bracket("dispatch")) / speed.REF_S["dispatch"]
        raw.append(seconds)
        normalized.append(seconds / factor)
    return raw, normalized


def repeat_untraced(w, seed: int, seconds: float, outdir: Path, checks: Checks, latency: bool):
    """Repeat the main call for ``seconds`` (at least MIN_REPEATS times)."""
    rates, raw_rates = [], []
    latencies = {k: [] for k in LATENCY_KINDS}
    reference = None
    deadline = time.perf_counter() + seconds
    while len(rates) < MIN_REPEATS or time.perf_counter() < deadline:
        result = w.main_call(seed, outdir)
        reference = checks.call(result, reference)
        raw_rates.append(result.steps / result.wall)
        rates.append(raw_rates[-1] * result.factor)
        if latency:
            for kind, lat in w.latencies(seed, result).items():
                latencies[kind].append(lat)
    print(f"repeats = {len(rates)}, raw samples_per_s per repeat = {[round(r, 1) for r in raw_rates]}")
    print(f"samples_per_s at reference speed per repeat = {[round(r, 1) for r in rates]}")
    pct = {}
    for kind, parts in latencies.items():
        if parts:
            pooled = np.concatenate(parts)
            print(f"{kind}: {pooled.size} step calls timed")
            for q in (50, 99):
                pct[f"{kind}.step_p{q}_us"] = float(np.percentile(pooled, q))
    return rates, pct, reference


def end_to_end(w, seed: int, seconds: float, scale: str, outdir: Path, checks: Checks) -> dict:
    raw_setup, setup = measure_setup(w, seed, scale, outdir)
    print(f"raw setup_s per probe = {[round(s, 4) for s in raw_setup]}")
    print(f"setup_s at reference speed per probe = {[round(s, 4) for s in setup]}")
    rates, pct, _ = repeat_untraced(w, seed, seconds, outdir, checks, latency=True)
    metrics = {
        "setup_s": statistics.median(setup),
        "samples_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update(pct)
    return metrics


def _tally_step(tally: dict):
    def on_result(result):
        tally["applied"] = tally.get("applied", 0) + bool(result[1].applied)

    return on_result


def _tally_solve(tally: dict):
    def on_result(result):
        tally["updates"] = tally.get("updates", 0) + result.updates_used
        tally["exhausted"] = tally.get("exhausted", 0) + bool(result.exhausted_bits)

    return on_result


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    for kind in KINDS:
        name = f"filters.{kind}.step"
        on_result = _tally_step(tracer.tally(name))
        for module in (harness, filters):
            tracer.patch(module, f"{kind}_step", name, on_result)
    tracer.patch(filters, "correlation_update", "filters.correlation_update")
    tracer.patch(filters, "ase_weight", "estimator.ase_weight")
    tracer.patch(filters, "dcd_solve", "dcd.dcd_solve", _tally_solve(tracer.tally("dcd.dcd_solve")))
    for fn in SIGNAL_GENERATORS:
        for module in (harness, signals):
            tracer.patch(module, fn, f"signals.{fn}")
    for fn in HARNESS_CALLS:
        for module in (cli, harness):
            tracer.patch(module, fn, f"harness.{fn}")
    for module in (cli, svgplot):
        tracer.patch(module, "line_chart", "svgplot.line_chart")


def write_seconds(tracer: Tracer) -> float:
    """Time spent writing outputs, charts excluded.

    For a CLI call this is the part of ``cli.main`` after the Monte Carlo
    driver returns; for the stream it is the ``stream.record`` span.
    """
    a = tracer.arrays()
    names = np.array(tracer.names)[a["name_id"]] if len(a["name_id"]) else np.array([], dtype=str)
    total = 0.0
    for idx in np.flatnonzero((names == "cli.main") | (names == "stream.record")):
        children = np.flatnonzero(a["parent"] == idx)
        begin = a["start"][idx]
        if names[idx] == "cli.main":
            drivers = [c for c in children if names[c] in ("harness.run_sysid", "harness.run_anc")]
            begin = max((a["end"][c] for c in drivers), default=begin)
        charts = [c for c in children if names[c] == "svgplot.line_chart" and a["start"][c] >= begin]
        total += a["end"][idx] - begin - float(sum(a["dur"][c] for c in charts))
    return float(total)


def bytes_per_step(w, kind: str) -> int:
    """Computed, not measured: float64 bytes of R read plus written by one correlation update.

    The shift update copies the (L-1)^2 interior block; every other update
    rescales the dense L^2 matrix.
    """
    spec = harness.default_algorithms(w.length, (kind,))[0]
    n = w.length - 1 if spec.kind == "dcd_ase" and spec.config.dcd_update == "shift" else w.length
    return 2 * 8 * n * n


def per_layer(w, seed: int, seconds: float, outdir: Path, checks: Checks) -> dict:
    rates, _, reference = repeat_untraced(w, seed, seconds, outdir, checks, latency=False)
    counts = w.count_ops()
    tracer = Tracer()
    install(tracer)
    try:
        result = w.main_call(seed, outdir, tracer)
    finally:
        restored = tracer.restore()
    checks("every traced name restored to its original object", restored)
    checks.call(result, reference)  # traced outputs byte-identical to the untraced ones
    if tracer.missing:
        print(f"not traced (name not found): {', '.join(tracer.missing)}")
    (OUT / w.name).mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / w.name / "spans.npz")

    s = summarize(tracer)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    scale = 1.0 / result.factor  # span times at reference speed

    def seconds_in(prefix: str, key: str = "total_s") -> float:
        return scale * sum(v[key] for k, v in s.items() if k.startswith(prefix))

    def per_call_us(name: str, key: str = "total_s") -> float:
        e = s.get(name, empty)
        return scale * e[key] / e["calls"] * 1e6 if e["calls"] else 0.0

    def calls(name: str) -> int:
        return s.get(name, empty)["calls"]

    untraced = statistics.median(rates)
    traced = result.steps / result.wall * result.factor
    print(f"tracing: {len(tracer.start)} spans, untraced samples_per_s = {untraced:.1f} (median of {len(rates)}),"
          f" speed factor of the traced call = {result.factor:.4f}")
    m = {
        "harness.self_us_per_sample": 1e6 * seconds_in("harness.", "self_s") / result.steps,
        "filters.correlation_update_us": per_call_us("filters.correlation_update"),
        "dcd.solve_us": per_call_us("dcd.dcd_solve"),
        "dcd.solves": calls("dcd.dcd_solve"),
        "estimator.ase_weight_us": per_call_us("estimator.ase_weight"),
        "estimator.ase_weight_calls": calls("estimator.ase_weight"),
        "signals.gen_s": seconds_in("signals."),
        "cli.write_s": scale * write_seconds(tracer),
        "cli.bytes_written": result.bytes_written,
        "svgplot.line_chart_s": seconds_in("svgplot."),
        "trace.samples_per_s": traced,
        "trace.overhead_share": 1.0 - traced / untraced,
    }
    solve = tracer.tallies.get("dcd.dcd_solve", {})
    n_solves = max(calls("dcd.dcd_solve"), 1)
    m["dcd.updates_per_solve"] = solve.get("updates", 0) / n_solves
    m["dcd.exhausted_share"] = solve.get("exhausted", 0) / n_solves
    for kind in KINDS:
        name = f"filters.{kind}.step"
        m[f"filters.{kind}.step_us"] = per_call_us(name)
        m[f"filters.{kind}.self_us"] = per_call_us(name, "self_s")
        m[f"filters.{kind}.update_ratio"] = tracer.tallies[name].get("applied", 0) / max(calls(name), 1)
        m[f"filters.{kind}.bytes_per_step"] = bytes_per_step(w, kind)
        m[f"counting.{kind}.mults_per_step"], m[f"counting.{kind}.adds_per_step"] = counts[kind]
    return m


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[x["name"] for x in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="'tiny' shrinks every input for smoke tests")
    args = parser.parse_args(argv)

    w = workloads.SCALES[args.scale][args.workload]
    outdir = OUT / w.name / ("traced" if args.trace else "untraced")
    print(f"workload = {w.name}: {workloads.FULL[w.name].why}")
    print(f"inputs = {json.dumps(w.inputs())}")
    print(f"machine = {json.dumps(machine())}")
    print(f"seed = {args.seed}, seconds = {args.seconds}, trace = {args.trace}, scale = {args.scale}")

    checks = Checks()
    if args.trace:
        values, wanted = per_layer(w, args.seed, args.seconds, outdir, checks), spec["per_layer"]
    else:
        values, wanted = end_to_end(w, args.seed, args.seconds, args.scale, outdir, checks), spec["end_to_end"]

    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        note = " (computed from L)" if metric["name"].endswith("bytes_per_step") else ""
        print(f"{metric['name']} = {value:.6g} {metric['unit']}{note}")
    failed = len(checks.failed)
    print(f"failed_share = {failed}/{checks.attempted} = {failed / checks.attempted:.6g}")
    for label in checks.failed:
        print(f"FAILED: {label}")
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
