"""Benchmark command line: sysid | anc | dcd-bench | sweep.

Options resolve as flag > config file > built-in default.  The config
file is INI-style with one section per subcommand; unknown sections or
keys are rejected by name.  Each subcommand plans, then runs: its plan
checks every option and input file before the output directory exists
(a rejection, ``ValueError`` included, exits 2), a failed run exits 3,
the run step creates the output directory only after its runs, and
``main`` writes ``summary.txt`` from the options and the lines the run
returns.  All CSV and SVG outputs are deterministic for a fixed seed
and written atomically.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._checks import check_int
from .dcd import DcdParams, dcd_solve
from .filters import DCD_UPDATE_MODES, DELTA_SCHEDULES, FilterError
from .harness import (
    _KINDS,
    _NOMINAL,
    ALGORITHMS,
    AlgoSpec,
    AncSpec,
    count_ops,
    default_algorithms,
    make_sysid_scenario,
    power_db,
    random_spd_system,
    run_anc,
    run_sysid,
    steady_state,
)
from .signals import (
    BgNoiseSpec,
    PdPulseSpec,
    ScenarioSpec,
    _array_rows,
    atomic_write,
    load_waveform,
    save_waveform,
    write_csv,
)
from .svgplot import line_chart

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
OUTDIR_ENV = "ASEFILT_OUTDIR"
DEFAULT_OUTDIR = "asefilt-out"
REPORT_FMT = ".12g"


class ConfigError(Exception):
    """Bad command line or config file contents."""


@dataclass(frozen=True)
class Option:
    """One flag and config key: ``typ`` parses its value (``bool`` by
    configparser's spellings), and it sets the library keyword ``param``,
    or its own name when ``param`` is None."""

    name: str
    typ: type  # int | float | str | bool
    default: object
    help: str = ""
    choices: tuple | None = None
    param: str | None = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


def _parse_scalar(opt: Option, raw: str):
    raw = raw.strip()
    try:
        value = configparser.ConfigParser.BOOLEAN_STATES[raw.lower()] if opt.typ is bool else opt.typ(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"invalid {opt.typ.__name__} value {raw!r} for key '{opt.name}'") from None
    if opt.choices is not None and value not in opt.choices:
        raise ConfigError(f"key '{opt.name}' must be one of {opt.choices}, got {value!r}")
    return value


_FILTER_OPTS = [
    Option("lambda", float, 0.999, "forgetting factor in (0, 1)", param="lam"),
    Option("rho", float, 1e-4, "initial correlation diagonal / leakage level"),
    Option("c", float, 2.0, "error-weighting kernel width"),
    Option("zeta", float, 1e-4, "weighting-factor regularizer"),
    Option("kernel_sigma", float, None, "Gaussian baseline kernel width (default: auto)"),
    Option("h", float, 2.0, "coordinate-descent step range"),
    Option("m_bits", int, 8, "coordinate-descent step halvings"),
    Option("n_updates", int, 8, "coordinate-descent update budget per sample"),
    Option("dcd_update", str, "shift", "correlation update of the DCD variant", DCD_UPDATE_MODES),
    Option("delta_schedule", str, "decaying", "leakage schedule of the DCD variant", DELTA_SCHEDULES),
]

_SCENARIO_OPTS = [
    Option("length", int, 10, "adaptive filter taps"),
    Option("horizon", int, 5000, "iterations per run"),
    Option("runs", int, 100, "Monte Carlo runs", param="mc_runs"),
    Option("seed", int, 20240923, "scenario seed"),
    Option("snr_db", float, 0.0, "background SNR in dB"),
    Option("impulse_prob", float, 0.1, "impulse probability per sample"),
    Option("impulse_var", float, 1e4, "impulse amplitude variance"),
    Option("impulses", bool, True, "enable impulsive interference", param="with_impulses"),
]

_PULSE_OPTS = [
    Option("pulse_amplitude", float, 10.0, "peak amplitude of one pulse", param="amplitude"),
    Option("pulse_decay", float, 20.0, "pulse envelope time constant, samples", param="decay"),
    Option("pulse_freq", float, 0.05, "pulse oscillation, cycles/sample", param="freq"),
    Option("pulse_length", int, 120, "pulse template length, samples", param="length"),
]

_ALGO_OPTS = [
    Option("algos", str, ",".join(ALGORITHMS), "comma-separated algorithm list"),
    Option("algo", str, None, "run a single algorithm (overrides --algos)"),
    Option("instrument", bool, False, "write the executed operation counts: summary.txt lines, and ops.csv for sysid"),
]

_OUT_OPT = Option("out", str, None, f"output directory (default: ${OUTDIR_ENV} or ./{DEFAULT_OUTDIR})")

SCHEMAS: dict[str, list[Option]] = {
    "sysid": [*_SCENARIO_OPTS, *_FILTER_OPTS, *_ALGO_OPTS, _OUT_OPT],
    "anc": [
        Option("length", int, 5, "adaptive filter taps"),
        Option("horizon", int, 20000, "samples per run"),
        Option("runs", int, 10, "Monte Carlo runs"),
        Option("seed", int, 20240923, "experiment seed"),
        Option("impulse_prob", float, 0.1, "impulse probability per sample"),
        Option("impulse_var", float, 25.0, "impulse amplitude variance"),
        Option("shaping", float, 0.2, "reference-channel difference coefficient"),
        Option("pulse_rate", float, 0.002, "pulse starts per sample"),
        *_PULSE_OPTS,
        Option("primary_file", str, None, "CSV waveform replacing the synthetic primary channel"),
        Option("reference_file", str, None, "CSV waveform replacing the synthetic reference channel"),
        Option("clean_file", str, None, "CSV waveform with the known clean signal"),
        *_FILTER_OPTS,
        *_ALGO_OPTS,
        _OUT_OPT,
    ],
    "dcd-bench": [
        Option("length", int, 10, "size of the SPD systems and of dcd_ops.csv"),
        Option("systems", int, 100, "number of random SPD systems"),
        Option("seed", int, 20240923, "bench seed"),
        Option("cond", float, 100.0, "condition number of the test systems"),
        Option("m_bits", int, 16, "step halvings of the SPD solves and of dcd_ops.csv"),
        Option("h", float, None, "step range of the SPD solves (default: auto per system)"),
        Option("nu_list", str, "1,2,4,8", "comma-separated update budgets to sweep"),
        Option("embedded", bool, True, "also run the budgets in the adaptive filter, always at L=10, h=2, m_bits=8"),
        Option("embedded_runs", int, 5, "Monte Carlo runs of the embedded benchmark"),
        Option("embedded_horizon", int, 2000, "iterations of the embedded benchmark"),
        _OUT_OPT,
    ],
}
SCHEMAS["sweep"] = [
    Option("param", str, None, "swept parameter", ("c", "lambda", "rho", "snr_db", "impulse_prob", "n_updates")),
    Option("values", str, None, "comma-separated sweep values; a list starting with a minus sign takes the = form, --values=-10,0"),
    *[o for o in SCHEMAS["sysid"] if o.name not in ("algos", "instrument")],
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asefilt", description="Robust adaptive filtering benchmarks"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, schema in SCHEMAS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI config file with a [%s] section" % name)
        for opt in schema:
            if opt.typ is bool:
                p.add_argument(
                    opt.flag, dest=opt.name, action=argparse.BooleanOptionalAction,
                    default=None, help=opt.help,
                )
            else:
                p.add_argument(
                    opt.flag, dest=opt.name, default=None, help=opt.help, metavar=opt.typ.__name__.upper(),
                )
    return parser


def _load_config_file(path: str) -> configparser.ConfigParser:
    """The checked config file; its values are literal (no ``%`` interpolation)."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as f:
            cp.read_file(f)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:  # missing, a directory, not UTF-8, not INI
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for section in cp.sections():
        if section not in SCHEMAS:
            raise ConfigError(f"unknown config section [{section}] in {path}")
        known = {opt.name for opt in SCHEMAS[section]}
        for key in cp[section]:
            if key not in known:
                raise ConfigError(f"unknown config key '{key}' in [{section}]")
    return cp


def resolve_options(subcommand: str, args: argparse.Namespace) -> dict:
    """Merge CLI flags, config file and defaults into one options dict."""
    schema = SCHEMAS[subcommand]
    file_section = {}
    if args.config is not None:
        cp = _load_config_file(args.config)
        if cp.has_section(subcommand):
            file_section = dict(cp[subcommand])
    opts = {}
    for opt in schema:
        cli_value = getattr(args, opt.name)
        if cli_value is not None:
            opts[opt.name] = cli_value if opt.typ is bool else _parse_scalar(opt, str(cli_value))
        elif opt.name in file_section:
            opts[opt.name] = _parse_scalar(opt, file_section[opt.name])
        else:
            opts[opt.name] = opt.default
    if opts.get("out") is None:
        opts["out"] = os.environ.get(OUTDIR_ENV) or DEFAULT_OUTDIR
    return opts


def _parse_algo_list(opts: dict) -> tuple[str, ...]:
    if opts.get("algo"):
        names = [opts["algo"]]
    else:
        names = [a.strip() for a in str(opts["algos"]).split(",") if a.strip()]
    if not names:
        raise ConfigError("no algorithms selected")
    for name in names:
        if name not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm '{name}' (choose from {', '.join(ALGORITHMS)})")
    return tuple(sorted(set(names), key=ALGORITHMS.index))


def _keywords(options: list[Option], opts: dict) -> dict:
    """The library keywords that ``options`` set, with their resolved values."""
    return {o.param or o.name: opts[o.name] for o in options}


def _build_algorithms(opts: dict, kinds: tuple[str, ...]) -> list[AlgoSpec]:
    return default_algorithms(opts["length"], kinds, **_keywords(_FILTER_OPTS, opts))


def _sysid_scenario(opts: dict) -> ScenarioSpec:
    return make_sysid_scenario(**_keywords(_SCENARIO_OPTS, opts))


def _prepare_outdir(opts: dict) -> Path:
    outdir = Path(opts["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _summary_header(subcommand: str, opts: dict) -> list[str]:
    lines = [f"subcommand = {subcommand}"]
    for key in sorted(opts):
        value = opts[key]
        if value is None:
            value = "auto" if key in ("kernel_sigma", "h") else ""
        lines.append(f"{key} = {value}")
    lines.append("")
    return lines


def _record_table(records, metric_name: str, metric_values) -> list[str]:
    lines = [f"algorithm  {metric_name}  update_ratio  steady_update_ratio  wall_time_s"]
    for rec, metric in zip(records, metric_values):
        steady_ur = steady_state(rec.applied_rate)
        lines.append(
            f"{rec.algorithm}  {metric:.4f}  {rec.update_ratio:.6f}  "
            f"{steady_ur:.6f}  {rec.wall_time:.3f}"
        )
    return lines


def _ops_lines(records, opts: dict) -> list[str]:
    """One line of each record's executed operations, with ``instrument``."""
    return [
        f"{rec.algorithm} measured per-iteration: adds={rec.op_counts.adds:.2f} "
        f"mults={rec.op_counts.mults:.2f} comparisons={rec.op_counts.comparisons:.2f}"
        for rec in records if opts["instrument"]
    ]


def _write_curves(outdir: Path, name: str, chart_name: str, labels: list[str], curves: list[np.ndarray],
                  title: str, ylabel: str, to_chart=None) -> None:
    """Write the CSV ``name``, one ``iteration`` column and then one column
    per curve (all of one length), and its chart ``chart_name``, the curves
    (mapped through ``to_chart`` if given) against the iteration.

    The rows are drawn from the curves one ``write_csv`` chunk at a time,
    each as Python floats from a ``tolist()`` of the curves' slices, so
    only one chunk of cells is alive at once."""
    iters = np.arange(len(curves[0]))
    write_csv(outdir / name, ["iteration", *labels], _array_rows(curves), REPORT_FMT)
    series = [(label, iters, to_chart(curve) if to_chart else curve) for label, curve in zip(labels, curves)]
    atomic_write(outdir / chart_name, line_chart(series, title=title, xlabel="iteration", ylabel=ylabel))


def plan_sysid(opts: dict) -> tuple[list[AlgoSpec], ScenarioSpec]:
    return _build_algorithms(opts, _parse_algo_list(opts)), _sysid_scenario(opts)


def cmd_sysid(opts: dict, plan) -> list[str]:
    algos, scenario = plan
    records = run_sysid(scenario, algos)
    outdir = _prepare_outdir(opts)
    _write_curves(
        outdir, "nmsd.csv", "nmsd.svg", [rec.algorithm for rec in records], [rec.nmsd_db for rec in records],
        "Identification learning curves", "NMSD (dB)",
    )
    if opts["instrument"]:
        ops_rows = []
        for rec, spec in zip(records, algos):
            nominal = count_ops(spec.kind, opts["length"], spec.config.dcd)
            ops_rows.append(
                [rec.algorithm, rec.op_counts.adds, rec.op_counts.mults,
                 rec.op_counts.comparisons, nominal.adds, nominal.mults]
            )
        header = ["algorithm", "measured_adds", "measured_mults", "measured_comparisons",
                  "nominal_adds", "nominal_mults"]
        write_csv(outdir / "ops.csv", header, ops_rows, REPORT_FMT)
    steadies = [steady_state(rec.nmsd_db) for rec in records]
    return _record_table(records, "steady_nmsd_db", steadies) + _ops_lines(records, opts)


def _load_external_waveforms(opts: dict):
    primary = reference = clean = None
    if opts["primary_file"] or opts["reference_file"]:
        if not opts["primary_file"]:
            raise ConfigError("missing primary channel file (--primary-file)")
        if not opts["reference_file"]:
            raise ConfigError("missing reference channel file (--reference-file)")
        try:
            primary = load_waveform(opts["primary_file"])
            reference = load_waveform(opts["reference_file"])
            if opts["clean_file"]:
                clean = load_waveform(opts["clean_file"])
        except OSError as exc:  # missing, a directory or unreadable
            raise ConfigError(f"cannot read waveform file: {exc}") from None
    elif opts["clean_file"]:
        raise ConfigError("clean_file requires primary_file and reference_file")
    return primary, reference, clean


def plan_anc(opts: dict) -> tuple[list[AlgoSpec], AncSpec]:
    algos = _build_algorithms(opts, _parse_algo_list(opts))
    primary, reference, clean = _load_external_waveforms(opts)
    # Judged as without files, though the files then fix one run, as
    # AncSpec judges --horizon and the other flags such a run never reads.
    check_int("mc_runs", opts["runs"])
    anc = AncSpec(
        horizon=opts["horizon"],
        mc_runs=1 if primary is not None else opts["runs"],
        seed=opts["seed"],
        filter_length=opts["length"],
        impulses=BgNoiseSpec(opts["impulse_prob"], opts["impulse_var"]),
        shaping_a1=opts["shaping"],
        pulse_rate=opts["pulse_rate"],
        pulse=PdPulseSpec(**_keywords(_PULSE_OPTS, opts)),
        primary=primary,
        reference=reference,
        clean=clean,
    )
    if primary is not None:
        # The files fix the run, and the summary reports it: one run of their length.
        opts.update(runs=1, horizon=anc.primary.size)
    return algos, anc


def cmd_anc(opts: dict, plan) -> list[str]:
    algos, anc = plan
    records, waveforms = run_anc(anc, algos)
    # The mean over a finite curve can still overflow; checked before --out is made.
    with np.errstate(over="ignore"):
        steadies = [power_db(steady_state(rec.mse)) for rec in records]
    for rec, steady in zip(records, steadies):
        if not math.isfinite(steady):
            raise FilterError(f"{rec.algorithm}: the steady-state residual MSE is not finite")
    outdir = _prepare_outdir(opts)
    labels = [rec.algorithm for rec in records]
    _write_curves(
        outdir, "mse.csv", "anc.svg", labels, [rec.mse for rec in records],
        "Cancellation residual", "residual MSE (dB)", power_db,
    )
    for key in ("primary", "clean", "reference", *(f"denoised_{label}" for label in labels)):
        save_waveform(outdir / f"{key}.csv", waveforms[key])
    return _record_table(records, "steady_mse_db", steadies) + _ops_lines(records, opts)


def _parse_list(raw: str, what: str, parse) -> list:
    """The comma-separated items of ``raw``, each through ``parse``; an
    empty list or a value given twice, compared as parsed, is rejected."""
    items = [s.strip() for s in str(raw).split(",") if s.strip()]
    if not items:
        raise ConfigError(f"{what} must not be empty")
    try:
        values = [parse(s) for s in items]
    except ValueError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from None
    if len(set(values)) < len(values):
        raise ConfigError(f"{what} must not repeat a value, got {values}")
    return values


def _plan_sweep_runs(opts: dict, param: str, values: list, kind: str) -> list[tuple]:
    """One ``(value, algorithms, scenario)`` of ``kind`` per value of ``param``."""
    runs = []
    for value in values:
        run_opts = {**opts, param: value}
        runs.append((value, _build_algorithms(run_opts, (kind,)), _sysid_scenario(run_opts)))
    return runs


def _sweep_labels(param: str, runs: list[tuple]) -> list[str]:
    """``param=value`` per run: ``str`` of an int, ``:g`` of a float where unique, else its repr."""
    short = [f"{v:g}" if isinstance(v, float) else str(v) for v, _, _ in runs]
    return [f"{param}={s if short.count(s) == 1 else repr(v)}" for s, (v, _, _) in zip(short, runs)]


def _run_sweep(param: str, runs: list[tuple]) -> tuple[list, tuple[list, list], list[str]]:
    """Run each planned value; return the records, the table of each
    value's steady NMSD and update ratio as ``(header, rows)``, and one
    summary line per value."""
    records = [run_sysid(scenario, algos)[0] for _, algos, scenario in runs]
    rows = [[value, steady_state(rec.nmsd_db), rec.update_ratio] for (value, _, _), rec in zip(runs, records)]
    labels = _sweep_labels(param, runs)
    lines = [f"{label}  steady_nmsd_db={nm:.3f}  update_ratio={ur:.4f}" for label, (_, nm, ur) in zip(labels, rows)]
    return records, ([param, "steady_nmsd_db", "update_ratio"], rows), lines


def plan_dcd_bench(opts: dict) -> tuple[list[int], list[tuple], list[tuple] | None]:
    """The budgets; every system the bench solves, each drawn once here
    after the ``seed`` check, which checks ``length`` and ``cond``, as
    ``(matrix, solution, rhs, params)`` with the checked step range and
    bits of its solves; and the embedded runs unless ``--no-embedded``."""
    nu_list = _parse_list(opts["nu_list"], "nu_list", int)
    if any(nu < 1 for nu in nu_list):
        raise ConfigError("nu_list entries must be >= 1")
    if opts["systems"] < 1:
        raise ConfigError(f"systems must be >= 1, got {opts['systems']}")
    check_int("seed", opts["seed"], 0, "a nonnegative integer")
    systems = []
    for i in range(opts["systems"]):
        r_matrix, x_star, rhs = random_spd_system(opts["length"], opts["cond"], [opts["seed"], 7, i])
        h = opts["h"]
        if h is None:
            h = 2.0 ** math.ceil(math.log2(max(2.0 * float(np.max(np.abs(x_star))), 1e-6)))
        systems.append((r_matrix, x_star, rhs, DcdParams(h=h, m_bits=opts["m_bits"])))
    if not opts["embedded"]:
        return nu_list, systems, None
    sysid_opts = {opt.name: opt.default for opt in SCHEMAS["sysid"]}
    sysid_opts.update(runs=opts["embedded_runs"], horizon=opts["embedded_horizon"], seed=opts["seed"])
    return nu_list, systems, _plan_sweep_runs(sysid_opts, "n_updates", nu_list, "dcd_ase")


def cmd_dcd_bench(opts: dict, plan) -> list[str]:
    nu_list, systems, embedded = plan
    length = opts["length"]

    # Each system is solved at every budget; each budget's errors are kept
    # in system order.
    errs = {nu: [] for nu in nu_list}
    for r_matrix, x_star, rhs, params in systems:
        for nu, nu_errs in errs.items():
            result = dcd_solve(r_matrix, rhs, replace(params, n_updates=nu * length))
            nu_errs.append(float(np.max(np.abs(result.delta_w - x_star))))
    acc_rows = [[nu, max(nu_errs), sum(nu_errs) / len(nu_errs)] for nu, nu_errs in errs.items()]

    ops_rows = []
    for nu in nu_list:
        dcd = DcdParams(h=2.0, m_bits=opts["m_bits"], n_updates=nu)
        for kind in _NOMINAL:
            nominal = count_ops(kind, length, dcd)
            ops_rows.append([kind, nu, nominal.adds, nominal.mults])
    tables = {
        "dcd_accuracy.csv": (["n_updates_per_tap", "max_abs_err", "mean_abs_err"], acc_rows),
        "dcd_ops.csv": (["algorithm", "n_updates", "adds", "mults"], ops_rows),
    }

    lines = ["accuracy sweep (max over systems of ||dcd - exact||_inf):"]
    for nu, mx, mean in acc_rows:
        lines.append(f"n_updates={nu}/tap  max_err={mx:.3e}  mean_err={mean:.3e}")
    if embedded is not None:
        _, tables["dcd_embedded.csv"], embedded_lines = _run_sweep("n_updates", embedded)
        lines += ["", "embedded in the adaptive filter:", *embedded_lines]

    outdir = _prepare_outdir(opts)
    for name, table in tables.items():
        write_csv(outdir / name, *table, REPORT_FMT)
    return lines


def plan_sweep(opts: dict) -> tuple[str, list[tuple]]:
    param = opts["param"]
    if not param:
        raise ConfigError("sweep requires --param")
    if not opts["values"]:
        raise ConfigError("sweep requires --values (comma-separated)")
    values = _parse_list(opts["values"], "sweep values", int if param == "n_updates" else float)
    kind = _parse_algo_list({"algos": "iwf_ase", **opts})[0]
    # Every value would give the same run where the kind does not read param.
    solver, weighting = _KINDS[kind]
    if (param == "c" and weighting != "ase") or (param == "n_updates" and solver != "dcd"):
        raise ConfigError(f"{kind} does not read {param}: every value of the sweep would give the same run")
    return kind, _plan_sweep_runs(opts, param, values, kind)


def cmd_sweep(opts: dict, plan) -> list[str]:
    kind, runs = plan
    param = opts["param"]
    records, table, lines = _run_sweep(param, runs)
    outdir = _prepare_outdir(opts)
    write_csv(outdir / "sweep.csv", *table, REPORT_FMT)
    _write_curves(
        outdir, "sweep_curves.csv", "sweep.svg", _sweep_labels(param, runs),
        [rec.nmsd_db for rec in records], f"{kind}: sweep over {param}", "NMSD (dB)",
    )
    return [f"algorithm = {kind}", *lines]


# subcommand -> (plan step, run step)
_COMMANDS = {
    "sysid": (plan_sysid, cmd_sysid),
    "anc": (plan_anc, cmd_anc),
    "dcd-bench": (plan_dcd_bench, cmd_dcd_bench),
    "sweep": (plan_sweep, cmd_sweep),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_CONFIG
    plan_step, run_step = _COMMANDS[args.subcommand]
    try:
        opts = resolve_options(args.subcommand, args)
        try:
            plan = plan_step(opts)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        lines = _summary_header(args.subcommand, opts) + run_step(opts, plan)
        atomic_write(Path(opts["out"]) / "summary.txt", "\n".join(lines) + "\n")
        return EXIT_OK
    except ConfigError as exc:
        print(f"asefilt: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"asefilt: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
