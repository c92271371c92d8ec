"""Benchmark command line: sysid | anc | dcd-bench | sweep.

Options resolve as flag > config file > built-in default.  The config
file is INI-style with one section per subcommand; unknown sections or
keys are rejected by name.  All CSV and SVG outputs are deterministic
for a fixed seed and written atomically.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dcd import DcdParams, dcd_solve
from .filters import DCD_UPDATE_MODES, DELTA_SCHEDULES
from .harness import (
    _FLOOR_RATIO,
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
    name: str
    typ: str  # int | float | str | bool
    default: object
    help: str = ""
    choices: tuple | None = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


def _parse_scalar(opt: Option, raw: str):
    raw = raw.strip()
    try:
        if opt.typ == "int":
            value = int(raw)
        elif opt.typ == "float":
            value = float(raw)
        elif opt.typ == "bool":
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                value = True
            elif low in ("0", "false", "no", "off"):
                value = False
            else:
                raise ValueError(raw)
        else:
            value = raw
    except ValueError:
        raise ConfigError(f"invalid {opt.typ} value {raw!r} for key '{opt.name}'") from None
    if opt.choices is not None and value not in opt.choices:
        raise ConfigError(f"key '{opt.name}' must be one of {opt.choices}, got {value!r}")
    return value


_FILTER_OPTS = [
    Option("lambda", "float", 0.999, "forgetting factor in (0, 1)"),
    Option("rho", "float", 1e-4, "initial correlation diagonal / leakage level"),
    Option("c", "float", 2.0, "error-weighting kernel width"),
    Option("zeta", "float", 1e-4, "weighting-factor regularizer"),
    Option("kernel_sigma", "float", None, "Gaussian baseline kernel width (default: auto)"),
    Option("h", "float", 2.0, "coordinate-descent step range"),
    Option("m_bits", "int", 8, "coordinate-descent step halvings"),
    Option("n_updates", "int", 8, "coordinate-descent update budget per sample"),
    Option("dcd_update", "str", "shift", "correlation update of the DCD variant", DCD_UPDATE_MODES),
    Option("delta_schedule", "str", "decaying", "leakage schedule of the DCD variant", DELTA_SCHEDULES),
]

_ALGO_OPTS = [
    Option("algos", "str", ",".join(ALGORITHMS), "comma-separated algorithm list"),
    Option("algo", "str", None, "run a single algorithm (overrides --algos)"),
    Option("instrument", "bool", False, "count executed float operations"),
]

_OUT_OPT = Option("out", "str", None, f"output directory (default: ${OUTDIR_ENV} or ./{DEFAULT_OUTDIR})")

SCHEMAS: dict[str, list[Option]] = {
    "sysid": [
        Option("length", "int", 10, "adaptive filter taps"),
        Option("horizon", "int", 5000, "iterations per run"),
        Option("runs", "int", 100, "Monte Carlo runs"),
        Option("seed", "int", 20240923, "scenario seed"),
        Option("snr_db", "float", 0.0, "background SNR in dB"),
        Option("impulse_prob", "float", 0.1, "impulse probability per sample"),
        Option("impulse_var", "float", 1e4, "impulse amplitude variance"),
        Option("impulses", "bool", True, "enable impulsive interference"),
        *_FILTER_OPTS,
        *_ALGO_OPTS,
        _OUT_OPT,
    ],
    "anc": [
        Option("length", "int", 5, "adaptive filter taps"),
        Option("horizon", "int", 20000, "samples per run"),
        Option("runs", "int", 10, "Monte Carlo runs"),
        Option("seed", "int", 20240923, "experiment seed"),
        Option("impulse_prob", "float", 0.1, "impulse probability per sample"),
        Option("impulse_var", "float", 25.0, "impulse amplitude variance"),
        Option("shaping", "float", 0.2, "reference-channel difference coefficient"),
        Option("pulse_rate", "float", 0.002, "pulse starts per sample"),
        Option("pulse_amplitude", "float", 10.0, "peak amplitude of one pulse"),
        Option("pulse_decay", "float", 20.0, "pulse envelope time constant, samples"),
        Option("pulse_freq", "float", 0.05, "pulse oscillation, cycles/sample"),
        Option("pulse_length", "int", 120, "pulse template length, samples"),
        Option("primary_file", "str", None, "CSV waveform replacing the synthetic primary channel"),
        Option("reference_file", "str", None, "CSV waveform replacing the synthetic reference channel"),
        Option("clean_file", "str", None, "CSV waveform with the known clean signal"),
        *_FILTER_OPTS,
        *_ALGO_OPTS,
        _OUT_OPT,
    ],
    "dcd-bench": [
        Option("length", "int", 10, "size of the SPD systems and of dcd_ops.csv"),
        Option("systems", "int", 100, "number of random SPD systems"),
        Option("seed", "int", 20240923, "bench seed"),
        Option("cond", "float", 100.0, "condition number of the test systems"),
        Option("m_bits", "int", 16, "step halvings of the SPD solves and of dcd_ops.csv"),
        Option("h", "float", None, "step range of the SPD solves (default: auto per system)"),
        Option("nu_list", "str", "1,2,4,8", "comma-separated update budgets to sweep"),
        Option("embedded", "bool", True, "also run the budgets in the adaptive filter, always at L=10, h=2, m_bits=8"),
        Option("embedded_runs", "int", 5, "Monte Carlo runs of the embedded benchmark"),
        Option("embedded_horizon", "int", 2000, "iterations of the embedded benchmark"),
        _OUT_OPT,
    ],
}
SCHEMAS["sweep"] = [
    Option("param", "str", None, "swept parameter", ("c", "lambda", "rho", "snr_db", "impulse_prob", "n_updates")),
    Option("values", "str", None, "comma-separated sweep values"),
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
            if opt.typ == "bool":
                p.add_argument(
                    opt.flag, dest=opt.name, action=argparse.BooleanOptionalAction,
                    default=None, help=opt.help,
                )
            else:
                p.add_argument(
                    opt.flag, dest=opt.name, default=None, help=opt.help, metavar=opt.typ.upper(),
                )
    return parser


def _load_config_file(path: str) -> configparser.ConfigParser:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
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
            opts[opt.name] = cli_value if opt.typ == "bool" else _parse_scalar(opt, str(cli_value))
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


def _build_algorithms(opts: dict, kinds: tuple[str, ...], length: int) -> list[AlgoSpec]:
    try:
        return default_algorithms(
            length,
            kinds,
            lam=opts["lambda"],
            rho=opts["rho"],
            c=opts["c"],
            zeta=opts["zeta"],
            h=opts["h"],
            m_bits=opts["m_bits"],
            n_updates=opts["n_updates"],
            kernel_sigma=opts["kernel_sigma"],
            dcd_update=opts["dcd_update"],
            delta_schedule=opts["delta_schedule"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _sysid_scenario(opts: dict) -> ScenarioSpec:
    try:
        return make_sysid_scenario(
            length=opts["length"],
            horizon=opts["horizon"],
            mc_runs=opts["runs"],
            seed=opts["seed"],
            snr_db=opts["snr_db"],
            impulse_prob=opts["impulse_prob"],
            impulse_var=opts["impulse_var"],
            with_impulses=opts["impulses"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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


def _ops_lines(records) -> list[str]:
    lines = []
    for rec in records:
        if rec.op_counts is not None:
            lines.append(
                f"{rec.algorithm} measured per-iteration: adds={rec.op_counts.adds:.2f} "
                f"mults={rec.op_counts.mults:.2f} comparisons={rec.op_counts.comparisons:.2f}"
            )
    return lines


def _write_curves(path: Path, labels: list[str], curves: list[np.ndarray]) -> None:
    """One ``iteration`` column, then one column per curve (all of one length).

    The rows are drawn from the arrays lazily, so ``write_csv`` holds one
    chunk of cells at a time; a ``tolist()`` copy of four 10 000-sample
    curves costs about 1 MiB more at the peak."""
    rows = zip(range(len(curves[0])), *curves)
    write_csv(path, ["iteration", *labels], rows, REPORT_FMT)


def cmd_sysid(opts: dict) -> int:
    kinds = _parse_algo_list(opts)
    algos = _build_algorithms(opts, kinds, opts["length"])
    records = run_sysid(_sysid_scenario(opts), algos, instrument=opts["instrument"])
    outdir = _prepare_outdir(opts)

    iters = np.arange(opts["horizon"])
    labels = [rec.algorithm for rec in records]
    _write_curves(outdir / "nmsd.csv", labels, [rec.nmsd_db for rec in records])

    chart = line_chart(
        [(rec.algorithm, iters, rec.nmsd_db) for rec in records],
        title="Identification learning curves",
        xlabel="iteration",
        ylabel="NMSD (dB)",
    )
    atomic_write(outdir / "nmsd.svg", chart)

    steadies = [steady_state(rec.nmsd_db) for rec in records]
    lines = _summary_header("sysid", opts)
    lines += _record_table(records, "steady_nmsd_db", steadies)
    lines += _ops_lines(records)
    atomic_write(outdir / "summary.txt", "\n".join(lines) + "\n")

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
    return EXIT_OK


def _load_external_waveforms(opts: dict):
    primary = reference = clean = None
    if opts["primary_file"] or opts["reference_file"]:
        if not opts["primary_file"]:
            raise ConfigError("missing primary channel file (--primary-file)")
        if not opts["reference_file"]:
            raise ConfigError("missing reference channel file (--reference-file)")
        for key in ("primary_file", "reference_file", "clean_file"):
            path = opts[key]
            if path and not os.path.exists(path):
                raise ConfigError(f"waveform file not found: {path}")
        try:
            primary = load_waveform(opts["primary_file"])
            reference = load_waveform(opts["reference_file"])
            if opts["clean_file"]:
                clean = load_waveform(opts["clean_file"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    elif opts["clean_file"]:
        raise ConfigError("clean_file requires primary_file and reference_file")
    return primary, reference, clean


def cmd_anc(opts: dict) -> int:
    kinds = _parse_algo_list(opts)
    algos = _build_algorithms(opts, kinds, opts["length"])
    primary, reference, clean = _load_external_waveforms(opts)
    try:
        pulse = PdPulseSpec(
            amplitude=opts["pulse_amplitude"],
            decay=opts["pulse_decay"],
            freq=opts["pulse_freq"],
            length=opts["pulse_length"],
        )
        anc = AncSpec(
            horizon=opts["horizon"],
            mc_runs=1 if primary is not None else opts["runs"],
            seed=opts["seed"],
            filter_length=opts["length"],
            impulses=BgNoiseSpec(opts["impulse_prob"], opts["impulse_var"]),
            shaping_a1=opts["shaping"],
            pulse_rate=opts["pulse_rate"],
            pulse=pulse,
            primary=primary,
            reference=reference,
            clean=clean,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    records, waveforms = run_anc(anc, algos, instrument=opts["instrument"])
    outdir = _prepare_outdir(opts)

    horizon = records[0].mse.shape[0]
    labels = [rec.algorithm for rec in records]
    _write_curves(outdir / "mse.csv", labels, [rec.mse for rec in records])

    for key in ("primary", "clean", "reference"):
        save_waveform(outdir / f"{key}.csv", waveforms[key])
    for rec in records:
        save_waveform(outdir / f"denoised_{rec.algorithm}.csv", waveforms[f"denoised_{rec.algorithm}"])

    iters = np.arange(horizon)
    chart = line_chart(
        [(rec.algorithm, iters, power_db(rec.mse)) for rec in records],
        title="Cancellation residual",
        xlabel="iteration",
        ylabel="residual MSE (dB)",
    )
    atomic_write(outdir / "anc.svg", chart)

    steadies = [10.0 * math.log10(max(steady_state(rec.mse), _FLOOR_RATIO)) for rec in records]
    lines = _summary_header("anc", opts)
    lines += _record_table(records, "steady_mse_db", steadies)
    lines += _ops_lines(records)
    atomic_write(outdir / "summary.txt", "\n".join(lines) + "\n")
    return EXIT_OK


def _parse_int_list(raw: str, what: str) -> list[int]:
    items = [s.strip() for s in str(raw).split(",") if s.strip()]
    if not items:
        raise ConfigError(f"{what} must not be empty")
    try:
        return [int(s) for s in items]
    except ValueError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from None


def cmd_dcd_bench(opts: dict) -> int:
    nu_list = _parse_int_list(opts["nu_list"], "nu_list")
    if any(nu < 1 for nu in nu_list):
        raise ConfigError("nu_list entries must be >= 1")
    length = opts["length"]
    if opts["systems"] < 1:
        raise ConfigError(f"systems must be >= 1, got {opts['systems']}")
    try:
        random_spd_system(length, opts["cond"], 0)  # checks length and cond
        DcdParams(h=2.0 if opts["h"] is None else opts["h"], m_bits=opts["m_bits"])
        scenario = None
        if opts["embedded"]:
            scenario = make_sysid_scenario(
                horizon=opts["embedded_horizon"], mc_runs=opts["embedded_runs"], seed=opts["seed"]
            )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    outdir = _prepare_outdir(opts)

    acc_rows = []
    for nu in nu_list:
        errs = []
        for i in range(opts["systems"]):
            r_matrix, x_star, rhs = random_spd_system(length, opts["cond"], [opts["seed"], 7, i])
            if opts["h"] is not None:
                h = opts["h"]
            else:
                amp = max(2.0 * float(np.max(np.abs(x_star))), 1e-6)
                h = 2.0 ** math.ceil(math.log2(amp))
            params = DcdParams(h=h, m_bits=opts["m_bits"], n_updates=nu * length)
            result = dcd_solve(r_matrix, rhs, params)
            errs.append(float(np.max(np.abs(result.delta_w - x_star))))
        acc_rows.append([nu, max(errs), sum(errs) / len(errs)])
    header = ["n_updates_per_tap", "max_abs_err", "mean_abs_err"]
    write_csv(outdir / "dcd_accuracy.csv", header, acc_rows, REPORT_FMT)

    ops_rows = []
    for nu in nu_list:
        dcd = DcdParams(h=2.0, m_bits=opts["m_bits"], n_updates=nu)
        for kind in ("iwf", "iwf_ase", "rmcc", "dcd_rmcc", "dcd_ase"):
            nominal = count_ops(kind, length, dcd)
            ops_rows.append([kind, nu, nominal.adds, nominal.mults])
    write_csv(outdir / "dcd_ops.csv", ["algorithm", "n_updates", "adds", "mults"], ops_rows, REPORT_FMT)

    lines = _summary_header("dcd-bench", opts)
    lines.append("accuracy sweep (max over systems of ||dcd - exact||_inf):")
    for nu, mx, mean in acc_rows:
        lines.append(f"n_updates={nu}/tap  max_err={mx:.3e}  mean_err={mean:.3e}")

    if scenario is not None:
        emb_rows = []
        for nu in nu_list:
            algos = default_algorithms(10, ("dcd_ase",), n_updates=nu)
            rec = run_sysid(scenario, algos)[0]
            emb_rows.append([nu, steady_state(rec.nmsd_db), rec.update_ratio])
        header = ["n_updates", "steady_nmsd_db", "update_ratio"]
        write_csv(outdir / "dcd_embedded.csv", header, emb_rows, REPORT_FMT)
        lines.append("")
        lines.append("embedded in the adaptive filter:")
        for nu, nm, ur in emb_rows:
            lines.append(f"n_updates={nu}  steady_nmsd_db={nm:.3f}  update_ratio={ur:.4f}")

    atomic_write(outdir / "summary.txt", "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_sweep(opts: dict) -> int:
    param = opts["param"]
    if not param:
        raise ConfigError("sweep requires --param")
    if not opts["values"]:
        raise ConfigError("sweep requires --values (comma-separated)")
    raw_values = [s.strip() for s in str(opts["values"]).split(",") if s.strip()]
    if not raw_values:
        raise ConfigError("sweep values must not be empty")
    try:
        values = [int(s) if param == "n_updates" else float(s) for s in raw_values]
    except ValueError as exc:
        raise ConfigError(f"invalid sweep values: {exc}") from None
    # Check --algo (iwf_ase by default) and every value before any run or output.
    kind = _parse_algo_list({"algos": "iwf_ase", **opts})[0]
    plan = []
    for value in values:
        run_opts = {**opts, param: value}
        plan.append((value, _build_algorithms(run_opts, (kind,), opts["length"]), _sysid_scenario(run_opts)))
    outdir = _prepare_outdir(opts)

    curves = []
    rows = []
    for value, algos, scenario in plan:
        rec = run_sysid(scenario, algos)[0]
        label = f"{param}={value:g}"
        curves.append((label, np.arange(opts["horizon"]), rec.nmsd_db))
        rows.append([value, steady_state(rec.nmsd_db), rec.update_ratio])

    write_csv(outdir / "sweep.csv", [param, "steady_nmsd_db", "update_ratio"], rows, REPORT_FMT)
    _write_curves(outdir / "sweep_curves.csv", [c[0] for c in curves], [c[2] for c in curves])
    atomic_write(
        outdir / "sweep.svg",
        line_chart(curves, title=f"{kind}: sweep over {param}", xlabel="iteration", ylabel="NMSD (dB)"),
    )
    lines = _summary_header("sweep", opts)
    lines.append(f"algorithm = {kind}")
    for value, nm, ur in rows:
        lines.append(f"{param}={value:g}  steady_nmsd_db={nm:.3f}  update_ratio={ur:.4f}")
    atomic_write(outdir / "summary.txt", "\n".join(lines) + "\n")
    return EXIT_OK


_COMMANDS = {
    "sysid": cmd_sysid,
    "anc": cmd_anc,
    "dcd-bench": cmd_dcd_bench,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_CONFIG
    try:
        opts = resolve_options(args.subcommand, args)
        return _COMMANDS[args.subcommand](opts)
    except ConfigError as exc:
        print(f"asefilt: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"asefilt: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
