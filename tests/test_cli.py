"""End-to-end CLI tests (in-process via main)."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from asefilt import cli
from asefilt.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from asefilt.harness import count_ops, default_algorithms, make_sysid_scenario, run_sysid
from asefilt.signals import PdPulseSpec, load_waveform, save_waveform


def run_cli(*argv):
    return main(list(argv))


def read_header(path):
    return path.read_text().splitlines()[0]


def test_sysid_default_layout(tmp_path):
    out = tmp_path / "o"
    rc = run_cli("sysid", "--horizon", "60", "--runs", "1", "--out", str(out))
    assert rc == EXIT_OK
    lines = (out / "nmsd.csv").read_text().splitlines()
    assert lines[0] == "iteration,iwf,iwf_ase,dcd_ase,rmcc"
    assert len(lines) == 61
    summary = (out / "summary.txt").read_text()
    assert "steady_nmsd_db" in summary
    assert (out / "nmsd.svg").read_text().startswith("<svg")


def test_sysid_single_algo_flag(tmp_path):
    out = tmp_path / "o"
    rc = run_cli("sysid", "--horizon", "40", "--runs", "1", "--algo", "iwf", "--out", str(out))
    assert rc == EXIT_OK
    assert read_header(out / "nmsd.csv") == "iteration,iwf"


def test_sysid_algos_subset_canonical_order(tmp_path):
    out = tmp_path / "o"
    rc = run_cli(
        "sysid", "--horizon", "40", "--runs", "1", "--algos", "rmcc,iwf", "--out", str(out)
    )
    assert rc == EXIT_OK
    assert read_header(out / "nmsd.csv") == "iteration,iwf,rmcc"


def test_sysid_unknown_algorithm(tmp_path, capsys):
    rc = run_cli("sysid", "--algos", "iwf,quantum", "--out", str(tmp_path / "o"))
    assert rc == EXIT_CONFIG
    assert "quantum" in capsys.readouterr().err


def test_sysid_repeat_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ("sysid", "--horizon", "80", "--runs", "2", "--seed", "321")
    assert run_cli(*args, "--out", str(a)) == EXIT_OK
    assert run_cli(*args, "--out", str(b)) == EXIT_OK
    assert (a / "nmsd.csv").read_bytes() == (b / "nmsd.csv").read_bytes()
    assert (a / "nmsd.svg").read_bytes() == (b / "nmsd.svg").read_bytes()


def test_config_file_and_flag_precedence(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[sysid]\nhorizon = 50\nruns = 1\nalgo = iwf\n")
    out = tmp_path / "o"
    rc = run_cli("sysid", "--config", str(cfgfile), "--horizon", "30", "--out", str(out))
    assert rc == EXIT_OK
    lines = (out / "nmsd.csv").read_text().splitlines()
    assert len(lines) == 31  # flag beats config file
    assert lines[0] == "iteration,iwf"  # config key still applies


def test_config_file_unknown_key_is_named(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[sysid]\nhorizont = 50\n")
    rc = run_cli("sysid", "--config", str(cfgfile), "--out", str(tmp_path / "o"))
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "horizont" in err


def test_config_file_unknown_section(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[sysyd]\nhorizon = 50\n")
    rc = run_cli("sysid", "--config", str(cfgfile), "--out", str(tmp_path / "o"))
    assert rc == EXIT_CONFIG
    assert "sysyd" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, literal_out",
    [
        (None, None),
        ("directory", None),
        (b"[sysid]\nruns = 1\xff\n", None),
        (b"runs = 1\n", None),
        (b"[sysid]\nout = res%1\n", "res%1"),
    ],
    ids=["missing", "directory", "undecodable", "no-section", "percent"],
)
def test_config_file_is_checked_and_read_literally(tmp_path, capsys, monkeypatch, content, literal_out):
    """A config file that is missing, is a directory, cannot be decoded or
    cannot be parsed exits 2 naming it, before any output exists; a value
    is read literally, ``%`` included."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ASEFILT_OUTDIR", raising=False)
    cfgfile = tmp_path / "run.cfg"
    if content == "directory":
        cfgfile.mkdir()
    elif content is not None:
        cfgfile.write_bytes(content)
    rc = run_cli("sysid", "--config", str(cfgfile), "--runs", "1", "--horizon", "20", "--algo", "iwf")
    err = capsys.readouterr().err
    made = sorted(path.name for path in tmp_path.iterdir() if path != cfgfile)
    if literal_out is None:
        assert rc == EXIT_CONFIG
        assert err.startswith(f"asefilt: configuration error: cannot read config file {cfgfile}: ")
        assert made == []
    else:
        assert (rc, err, made) == (EXIT_OK, "", [literal_out])
        assert (tmp_path / literal_out / "nmsd.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sysid", "--algos", ","], "no algorithms selected"),
        (["anc", "--reference-file", "r.csv"], "missing primary channel file (--primary-file)"),
        (["anc", "--clean-file", "c.csv"], "clean_file requires primary_file and reference_file"),
        (["sysid", "--seed=-5"], "seed must be a nonnegative integer, got -5"),
        (["anc", "--seed=-5"], "seed must be a nonnegative integer, got -5"),
        (["sweep", "--param", "c", "--values", "1,2", "--seed=-5"], "seed must be a nonnegative integer, got -5"),
        (["dcd-bench", "--seed=-5"], "seed must be a nonnegative integer, got -5"),
    ],
)
def test_planning_rejects_incomplete_inputs(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert run_cli(*argv, "--out", str(out)) == EXIT_CONFIG
    assert capsys.readouterr().err == f"asefilt: configuration error: {message}\n"
    assert not out.exists()


def test_bad_flag_value_exits_2(tmp_path, capsys):
    rc = run_cli("sysid", "--runs", "many", "--out", str(tmp_path / "o"))
    assert rc == EXIT_CONFIG
    capsys.readouterr()


def test_anc_layout(tmp_path):
    out = tmp_path / "o"
    rc = run_cli(
        "anc", "--horizon", "1200", "--runs", "1", "--algos", "iwf,iwf_ase", "--out", str(out)
    )
    assert rc == EXIT_OK
    for name in (
        "mse.csv",
        "primary.csv",
        "clean.csv",
        "reference.csv",
        "denoised_iwf.csv",
        "denoised_iwf_ase.csv",
        "anc.svg",
        "summary.txt",
    ):
        assert (out / name).exists(), name
    assert read_header(out / "mse.csv") == "iteration,iwf,iwf_ase"


def test_anc_missing_reference_file_is_named(tmp_path, capsys):
    primary = tmp_path / "p.csv"
    save_waveform(primary, np.zeros(64))
    rc = run_cli(
        "anc", "--primary-file", str(primary), "--runs", "1", "--out", str(tmp_path / "o")
    )
    assert rc == EXIT_CONFIG
    assert "reference" in capsys.readouterr().err


def test_anc_nonexistent_waveform_path_is_named(tmp_path, capsys):
    primary = tmp_path / "p.csv"
    save_waveform(primary, np.zeros(64))
    missing = tmp_path / "ref_gone.csv"
    rc = run_cli(
        "anc",
        "--primary-file",
        str(primary),
        "--reference-file",
        str(missing),
        "--runs",
        "1",
        "--out",
        str(tmp_path / "o"),
    )
    assert rc == EXIT_CONFIG
    assert "ref_gone.csv" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["primary", "reference"])
def test_anc_nonfinite_waveform_sample_is_config_error(tmp_path, capsys, bad):
    files = {}
    for key in ("primary", "reference"):
        x = np.ones(64)
        if key == bad:
            x[10] = np.nan
        files[key] = tmp_path / f"{key}.csv"
        save_waveform(files[key], x)
    rc = run_cli(
        "anc",
        "--primary-file",
        str(files["primary"]),
        "--reference-file",
        str(files["reference"]),
        "--length",
        "2",
        "--out",
        str(tmp_path / "o"),
    )
    assert rc == EXIT_CONFIG
    assert f"{bad}.csv" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_anc_nonfinite_shaping_is_config_error(tmp_path, capsys, value):
    out = tmp_path / "o"
    rc = run_cli("anc", "--shaping", value, "--runs", "1", "--horizon", "100", "--out", str(out))
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and "shaping" in err
    assert not out.exists()


def test_snr_db_whose_noise_variance_overflows_is_config_error(tmp_path, capsys):
    out = tmp_path / "o"
    rc = run_cli("sysid", "--runs", "1", "--horizon", "50", "--snr-db", "-3100", "--out", str(out))
    assert rc == EXIT_CONFIG
    assert "snr_db -3100.0 is too low" in capsys.readouterr().err
    assert not out.exists()


def test_anc_header_only_waveform_is_config_error(tmp_path, capsys):
    files = []
    for key in ("primary", "reference"):
        files.append(tmp_path / f"{key}.csv")
        save_waveform(files[-1], np.zeros(0))
    rc = run_cli(
        "anc",
        "--primary-file",
        str(files[0]),
        "--reference-file",
        str(files[1]),
        "--out",
        str(tmp_path / "o"),
    )
    assert rc == EXIT_CONFIG
    assert "empty" in capsys.readouterr().err


@pytest.mark.parametrize("algos", ["rmcc", "iwf"])
@pytest.mark.parametrize("sigma", ["-1", "0", "nan"])
def test_bad_kernel_sigma_is_config_error(tmp_path, capsys, sigma, algos):
    out = tmp_path / "o"
    rc = run_cli(
        "sysid", "--algos", algos, "--kernel-sigma", sigma, "--horizon", "20", "--runs", "1",
        "--out", str(out),
    )
    assert rc == EXIT_CONFIG
    assert "kernel_sigma" in capsys.readouterr().err
    assert not out.exists()


def test_kernel_sigma_whose_square_underflows_is_config_error(tmp_path, capsys):
    out = tmp_path / "o"
    rc = run_cli("sysid", "--kernel-sigma", "1e-300", "--horizon", "20", "--runs", "1", "--out", str(out))
    assert rc == EXIT_CONFIG
    assert "kernel_sigma 1e-300 is too small" in capsys.readouterr().err
    assert not out.exists()


def test_anc_overflowing_waveforms_are_a_runtime_error(tmp_path, capsys):
    """Finite waveform files near 1e160 overflow the filter statistics; the
    driver's block check reports it as one runtime error, exit 3."""
    rng = np.random.default_rng(12)
    ref = 1e160 * rng.standard_normal(300)
    p, r = tmp_path / "p.csv", tmp_path / "r.csv"
    save_waveform(p, 0.5 * ref)
    save_waveform(r, ref)
    with np.errstate(over="ignore", invalid="ignore"):
        rc = run_cli(
            "anc", "--primary-file", str(p), "--reference-file", str(r), "--runs", "1",
            "--out", str(tmp_path / "o"),
        )
    assert rc == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("asefilt: error: iwf: run 0: the filter state became non-finite")
    assert "block of samples 0 to 63" in err and "Traceback" not in err


def test_anc_huge_shaping_overflow_is_one_runtime_error(tmp_path, capsys):
    """A finite but huge --shaping overflows R.  The block check is the one
    report: exit 3 with its message, and no numpy warning, which tier-1's
    warning filter would otherwise turn into a different error."""
    out = tmp_path / "o"
    rc = run_cli("anc", "--shaping", "1e307", "--runs", "1", "--horizon", "100", "--out", str(out))
    assert rc == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err == "asefilt: error: iwf: run 0: the filter state became non-finite in the block of samples 0 to 63\n"
    assert not out.exists()


def test_anc_overflowing_draw_is_one_runtime_error_naming_the_run(tmp_path, capsys):
    """--shaping 1e308 overflows the shaped reference itself.  The draw
    check is the one report: exit 3 naming run 0, and no numpy warning,
    which tier-1's warning filter would otherwise turn into the error."""
    out = tmp_path / "o"
    rc = run_cli("anc", "--shaping", "1e308", "--runs", "1", "--horizon", "100", "--out", str(out))
    assert rc == EXIT_RUNTIME
    assert capsys.readouterr().err == "asefilt: error: run 0: x_rows must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value", [("--pulse-decay", "1e-3"), ("--pulse-decay", "1e-320"), ("--pulse-freq", "1e-320")]
)
def test_anc_vanishing_pulse_template_is_config_error(tmp_path, capsys, flag, value):
    """A decay that underflows every template sample to 0, or a frequency
    whose template is too small to scale to the amplitude, is one
    configuration error naming decay and freq, with no numpy warning."""
    out = tmp_path / "o"
    rc = run_cli("anc", flag, value, "--runs", "1", "--horizon", "100", "--out", str(out))
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("asefilt: configuration error: decay ") and err.count("\n") == 1
    assert "freq" in err and "Traceback" not in err
    assert not out.exists()


def test_sysid_overflowing_mse_stays_quiet_beside_a_finite_nmsd(tmp_path, capsys):
    """Impulses of variance 1e308 overflow the squared prior error, a score
    sysid never writes.  The robust filters reject them, so the NMSD stays
    finite and the run succeeds without a numpy warning, which tier-1's
    warning filter would turn into an error."""
    out = tmp_path / "o"
    rc = run_cli(
        "sysid", "--impulse-var", "1e308", "--runs", "2", "--horizon", "300",
        "--algos", "iwf_ase,dcd_ase", "--out", str(out),
    )
    assert rc == EXIT_OK
    assert capsys.readouterr().err == ""
    cells = [cell for row in (out / "nmsd.csv").read_text().splitlines()[1:] for cell in row.split(",")]
    assert np.isfinite(np.array(cells, dtype=float)).all()


def test_anc_overflowing_residual_mse_is_one_runtime_error(tmp_path, capsys):
    """A +-1e160 primary waveform leaves the robust filters' states finite
    (they reject every sample) but squares to inf in the residual MSE that
    mse.csv would hold: exit 3 naming the algorithm, and no output."""
    rng = np.random.default_rng(3)
    p, r = tmp_path / "p.csv", tmp_path / "r.csv"
    save_waveform(p, 1e160 * np.sign(rng.standard_normal(300)))
    save_waveform(r, rng.standard_normal(300))
    out = tmp_path / "o"
    rc = run_cli(
        "anc", "--primary-file", str(p), "--reference-file", str(r), "--algos", "iwf_ase,dcd_ase",
        "--out", str(out),
    )
    assert rc == EXIT_RUNTIME
    assert capsys.readouterr().err == "asefilt: error: iwf_ase: the residual MSE curve is not finite\n"
    assert not out.exists()


def test_anc_overflowing_steady_mse_is_one_runtime_error(tmp_path, capsys):
    """A +-3e153 primary waveform gives mse.csv cells near 9e306, each
    finite, whose steady-state mean overflows: exit 3 naming the first
    algorithm, with no numpy warning and no output."""
    rng = np.random.default_rng(3)
    p, r = tmp_path / "p.csv", tmp_path / "r.csv"
    save_waveform(p, 3e153 * np.sign(rng.standard_normal(300)))
    save_waveform(r, 0.5 * rng.standard_normal(300))
    out = tmp_path / "o"
    rc = run_cli(
        "anc", "--primary-file", str(p), "--reference-file", str(r), "--algos", "iwf_ase,dcd_ase",
        "--out", str(out),
    )
    assert rc == EXIT_RUNTIME
    assert capsys.readouterr().err == "asefilt: error: iwf_ase: the steady-state residual MSE is not finite\n"
    assert not out.exists()


def test_anc_directory_as_waveform_file_is_config_error(tmp_path, capsys):
    primary, folder = tmp_path / "p.csv", tmp_path / "ref_dir"
    save_waveform(primary, np.zeros(64))
    folder.mkdir()
    out = tmp_path / "o"
    rc = run_cli("anc", "--primary-file", str(primary), "--reference-file", str(folder), "--out", str(out))
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("asefilt: configuration error: cannot read waveform file") and "ref_dir" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "content",
    [
        b"index,value\n0,1.0\n1,\xff\n",
        b"index,value\n0,1.0\n1,abc\n",
        b"",
        b"index,value\n0,1.0\n1\n",
        b"index,value\n0," + b"1" * 200_000 + b"\n",  # above the csv module's field size limit
    ],
    ids=["not-utf8", "not-a-number", "zero-bytes", "one-cell-row", "oversized-field"],
)
def test_anc_unreadable_waveform_content_names_the_file(tmp_path, capsys, content):
    """Bad content in a waveform file is a configuration error that names
    the file, raised before the output directory is made."""
    primary, reference = tmp_path / "p.csv", tmp_path / "bad_ref.csv"
    save_waveform(primary, np.zeros(64))
    reference.write_bytes(content)
    out = tmp_path / "o"
    rc = run_cli("anc", "--primary-file", str(primary), "--reference-file", str(reference), "--out", str(out))
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("asefilt: configuration error: ") and "bad_ref.csv" in err
    assert not out.exists()


def test_sysid_filter_longer_than_horizon(tmp_path):
    out = tmp_path / "o"
    rc = run_cli("sysid", "--horizon", "3", "--length", "6", "--runs", "1", "--out", str(out))
    assert rc == EXIT_OK
    assert len((out / "nmsd.csv").read_text().splitlines()) == 4


def test_anc_external_waveforms_run(tmp_path):
    rng = np.random.default_rng(6)
    ref = rng.standard_normal(500)
    primary = np.convolve(ref, [0.5, -0.2], mode="full")[:500]
    p, r = tmp_path / "p.csv", tmp_path / "r.csv"
    save_waveform(p, primary)
    save_waveform(r, ref)
    out = tmp_path / "o"
    rc = run_cli(
        "anc",
        "--primary-file",
        str(p),
        "--reference-file",
        str(r),
        "--runs",
        "1",
        "--algos",
        "iwf",
        "--out",
        str(out),
    )
    assert rc == EXIT_OK
    assert (out / "denoised_iwf.csv").exists()


def test_anc_clean_file_is_the_target(tmp_path):
    """With --clean-file the residual MSE scores the prior error against
    the given clean waveform, which clean.csv holds as read."""
    rng = np.random.default_rng(8)
    ref = rng.standard_normal(300)
    clean = np.sin(0.1 * np.arange(300))
    files = {key: tmp_path / f"in_{key}.csv" for key in ("primary", "reference", "clean")}
    save_waveform(files["primary"], clean + np.convolve(ref, [0.5, -0.2], mode="full")[:300])
    save_waveform(files["reference"], ref)
    save_waveform(files["clean"], clean)
    out = tmp_path / "o"
    rc = run_cli(
        "anc", "--primary-file", str(files["primary"]), "--reference-file", str(files["reference"]),
        "--clean-file", str(files["clean"]), "--algos", "iwf", "--out", str(out),
    )
    assert rc == EXIT_OK
    assert (out / "clean.csv").read_bytes() == files["clean"].read_bytes()
    mse = np.loadtxt(out / "mse.csv", delimiter=",", skiprows=1)[:, 1]
    np.testing.assert_allclose(mse, (load_waveform(out / "denoised_iwf.csv") - clean) ** 2, rtol=1e-10)


def test_dcd_bench_fixed_h_without_embedded(tmp_path, monkeypatch):
    """--h fixes the step range of every SPD solve, and --no-embedded runs
    no adaptive filter and writes no dcd_embedded.csv."""

    def no_run(*args, **kwargs):
        raise AssertionError("ran the embedded benchmark")

    monkeypatch.setattr(cli, "run_sysid", no_run)
    out = tmp_path / "o"
    assert run_cli("dcd-bench", "--systems", "2", "--h", "2", "--no-embedded", "--out", str(out)) == EXIT_OK
    assert sorted(path.name for path in out.iterdir()) == ["dcd_accuracy.csv", "dcd_ops.csv", "summary.txt"]
    assert "h = 2.0" in (out / "summary.txt").read_text().splitlines()


def test_dcd_bench_draws_each_system_once(tmp_path, monkeypatch):
    """The plan draws every SPD system, which checks --cond, and the run
    solves those same systems: one run draws --systems of them in all."""
    draws = []
    draw = cli.random_spd_system
    monkeypatch.setattr(cli, "random_spd_system", lambda *args: draws.append(args) or draw(*args))
    out = tmp_path / "o"
    assert run_cli("dcd-bench", "--systems", "3", "--no-embedded", "--out", str(out)) == EXIT_OK
    assert len(draws) == 3
    assert len((out / "dcd_accuracy.csv").read_text().splitlines()) == 1 + 4


def test_dcd_bench_layout(tmp_path):
    out = tmp_path / "o"
    rc = run_cli(
        "dcd-bench",
        "--systems",
        "4",
        "--embedded-runs",
        "1",
        "--embedded-horizon",
        "200",
        "--out",
        str(out),
    )
    assert rc == EXIT_OK
    for name in ("dcd_accuracy.csv", "dcd_ops.csv", "dcd_embedded.csv", "summary.txt"):
        assert (out / name).exists(), name
    acc = (out / "dcd_accuracy.csv").read_text().splitlines()
    assert acc[0] == "n_updates_per_tap,max_abs_err,mean_abs_err"
    assert len(acc) == 1 + 4  # one aggregate row per nu in {1,2,4,8}


def test_dcd_bench_empty_sweep_list(tmp_path, capsys):
    rc = run_cli("dcd-bench", "--nu-list", " , ", "--out", str(tmp_path / "o"))
    assert rc == EXIT_CONFIG
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--systems", "0"),
        ("--length", "0"),
        ("--cond", "0.5"),
        ("--cond", "nan"),
        ("--cond", "1e308"),
        ("--m-bits", "0"),
        ("--h", "-1"),
        ("--embedded-runs", "0"),
        ("--embedded-horizon", "0"),
        ("--nu-list", "1,1"),
        ("--nu-list", "2,4,2"),
        ("--nu-list", "0"),
        ("--nu-list", "1,x"),
    ],
)
def test_dcd_bench_bad_option_is_config_error(tmp_path, capsys, flag, value):
    out = tmp_path / "o"
    rc = run_cli("dcd-bench", "--systems", "2", "--embedded-horizon", "50", flag, value, "--out", str(out))
    assert rc == EXIT_CONFIG
    assert not out.exists()  # rejected before any output is written
    assert "configuration error" in capsys.readouterr().err


def test_sweep_cutoff_ordering(tmp_path):
    """Under impulsive noise a moderate cutoff must beat a huge one."""
    out = tmp_path / "o"
    rc = run_cli(
        "sweep",
        "--param",
        "c",
        "--values",
        "2,200",
        "--horizon",
        "600",
        "--runs",
        "1",
        "--out",
        str(out),
    )
    assert rc == EXIT_OK
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "c,steady_nmsd_db,update_ratio"
    steady = [float(line.split(",")[1]) for line in rows[1:]]
    assert steady[0] < steady[1]
    assert (out / "sweep_curves.csv").exists()
    assert (out / "sweep.svg").exists()


def test_sweep_labels_are_unique(tmp_path):
    """Values equal to 6 significant digits get their repr, in the curves
    header, the summary and the chart legend; the rest keep ``:g``."""
    out = tmp_path / "o"
    rc = run_cli(
        "sweep", "--param", "c", "--values", "2.0000001,2.0000002,3", "--runs", "1", "--horizon", "50",
        "--out", str(out),
    )
    assert rc == EXIT_OK
    labels = ["c=2.0000001", "c=2.0000002", "c=3"]
    assert read_header(out / "sweep_curves.csv") == ",".join(["iteration", *labels])
    summary = (out / "summary.txt").read_text().splitlines()
    assert [line.split("  ")[0] for line in summary[-3:]] == labels
    svg = (out / "sweep.svg").read_text()
    assert all(f">{label}<" in svg for label in labels)
    runs = [(value, None, None) for value in (1, 8, 1000000)]
    assert cli._sweep_labels("n_updates", runs) == ["n_updates=1", "n_updates=8", "n_updates=1000000"]
    runs = [(value, None, None) for value in (0.5, 1e-07, 1.00000001e-07)]
    assert cli._sweep_labels("c", runs) == ["c=0.5", "c=1e-07", "c=1.00000001e-07"]


def test_sweep_negative_values_take_the_equals_form(tmp_path):
    """argparse reads ``-10,0`` after a separate ``--values`` as a flag; the
    ``=`` form, which the help text names, runs."""
    out = tmp_path / "o"
    rc = run_cli("sweep", "--param", "snr_db", "--values=-10,0", "--runs", "1", "--horizon", "50", "--out", str(out))
    assert rc == EXIT_OK
    assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 2
    assert "--values=-10,0" in next(opt.help for opt in cli.SCHEMAS["sweep"] if opt.name == "values")


def test_sweep_requires_values(tmp_path, capsys):
    rc = run_cli("sweep", "--param", "c", "--values", " ", "--out", str(tmp_path / "o"))
    assert rc == EXIT_CONFIG
    capsys.readouterr()


@pytest.mark.parametrize(
    "param, values",
    [
        ("c", "1,-1"), ("c", "-1"), ("n_updates", "2,0"), ("impulse_prob", "0.1,2"), ("snr_db", "-4000"),
        ("c", "2,2"), ("c", "2,3,2.0"), ("n_updates", "4,4"), (None, "1,2"), ("c", ","), ("c", "a"),
    ],
)
def test_sweep_bad_value_is_rejected_before_any_run(tmp_path, capsys, monkeypatch, param, values):
    """Every value is checked before the first run: a bad later value
    exits 2 without running the good ones or creating the output directory."""
    calls = []
    monkeypatch.setattr(cli, "run_sysid", lambda *a, **k: calls.append(a))
    out = tmp_path / "o"
    param_flag = ["--param", param] if param else []
    rc = run_cli("sweep", *param_flag, "--values", values, "--algo", "dcd_ase", "--out", str(out))
    assert rc == EXIT_CONFIG
    assert calls == []
    assert not out.exists()
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--param", "c", "--values", "1,2", "--runs", "1", "--horizon", "50"],
        ["dcd-bench", "--systems", "2", "--embedded-runs", "1", "--embedded-horizon", "50"],
    ],
)
def test_failed_run_leaves_no_output_directory(tmp_path, capsys, monkeypatch, argv):
    """sweep and dcd-bench, like sysid and anc, create the output directory
    only after their runs: a run that fails exits 3 and leaves none."""

    def failing_run(*args, **kwargs):
        raise RuntimeError("the run failed")

    monkeypatch.setattr(cli, "run_sysid", failing_run)
    out = tmp_path / "o"
    assert run_cli(*argv, "--out", str(out)) == EXIT_RUNTIME
    assert capsys.readouterr().err == "asefilt: error: the run failed\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "param, values, algo",
    [("n_updates", "1,8", None), ("c", "1,5", "rmcc"), ("c", "1,5", "iwf")],
)
def test_sweep_rejects_a_parameter_the_kind_does_not_read(tmp_path, capsys, monkeypatch, param, values, algo):
    """A sweep over a parameter its kind never reads would write one
    identical row per value: it exits 2 before any run, naming both."""
    calls = []
    monkeypatch.setattr(cli, "run_sysid", lambda *a, **k: calls.append(a))
    out = tmp_path / "o"
    algo_flag = ["--algo", algo] if algo else []
    rc = run_cli("sweep", "--param", param, "--values", values, *algo_flag, "--runs", "2", "--horizon", "300",
                 "--out", str(out))
    assert rc == EXIT_CONFIG
    assert calls == []
    assert not out.exists()
    err = capsys.readouterr().err
    assert "configuration error" in err and param in err and (algo or "iwf_ase") in err


def test_sweep_unknown_algorithm(tmp_path, capsys):
    out = tmp_path / "o"
    rc = run_cli("sweep", "--param", "c", "--values", "1,2", "--algo", "quantum", "--out", str(out))
    assert rc == EXIT_CONFIG
    assert not out.exists()
    assert "unknown algorithm 'quantum' (choose from" in capsys.readouterr().err


def test_sweep_rejects_unknown_param(tmp_path, capsys):
    rc = run_cli("sweep", "--param", "bogus", "--values", "1,2", "--out", str(tmp_path / "o"))
    assert rc == EXIT_CONFIG
    capsys.readouterr()


def test_outdir_env_fallback(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("ASEFILT_OUTDIR", str(target))
    rc = run_cli("sysid", "--horizon", "30", "--runs", "1", "--algo", "iwf")
    assert rc == EXIT_OK
    assert (target / "nmsd.csv").exists()


def test_out_path_collision_is_runtime_error(tmp_path, capsys):
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory")
    rc = run_cli("sysid", "--horizon", "30", "--runs", "1", "--out", str(blocker))
    assert rc == EXIT_RUNTIME
    capsys.readouterr()


def test_missing_subcommand_exits_2(capsys):
    assert run_cli() == EXIT_CONFIG
    capsys.readouterr()


def test_sysid_instrument_writes_ops_csv(tmp_path):
    """One ops.csv row per algorithm in canonical order: the measured
    per-iteration counts of an instrumented run, then the nominal counts."""
    out = tmp_path / "o"
    rc = run_cli(
        "sysid", "--horizon", "120", "--runs", "2", "--algos", "rmcc,dcd_ase,iwf", "--instrument",
        "--out", str(out),
    )
    assert rc == EXIT_OK
    lines = (out / "ops.csv").read_text().splitlines()
    assert lines[0] == "algorithm,measured_adds,measured_mults,measured_comparisons,nominal_adds,nominal_mults"
    specs = default_algorithms(10, ("iwf", "dcd_ase", "rmcc"))
    records = run_sysid(make_sysid_scenario(horizon=120, mc_runs=2), specs)
    assert [line.split(",")[0] for line in lines[1:]] == ["iwf", "dcd_ase", "rmcc"]
    for line, rec, spec in zip(lines[1:], records, specs):
        cells = line.split(",")
        measured = (rec.op_counts.adds, rec.op_counts.mults, rec.op_counts.comparisons)
        assert cells[1:4] == [format(v, ".12g") for v in measured]
        nominal = count_ops(spec.kind, 10, spec.config.dcd)
        assert [float(c) for c in cells[4:]] == [nominal.adds, nominal.mults]
    summary = (out / "summary.txt").read_text().splitlines()
    measured_lines = [line for line in summary if "measured per-iteration" in line]
    assert [line.split()[0] for line in measured_lines] == ["iwf", "dcd_ase", "rmcc"]


def test_config_file_booleans(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[sysid]\nhorizon = 40\nruns = 1\nimpulses = no\ninstrument = on\n")
    out = tmp_path / "o"
    assert run_cli("sysid", "--config", str(cfgfile), "--out", str(out)) == EXIT_OK
    summary = (out / "summary.txt").read_text().splitlines()
    assert "impulses = False" in summary
    assert "instrument = True" in summary
    assert (out / "ops.csv").exists()


def test_config_file_bad_boolean_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[sysid]\nimpulses = maybe\n")
    out = tmp_path / "o"
    assert run_cli("sysid", "--config", str(cfgfile), "--out", str(out)) == EXIT_CONFIG
    assert "invalid bool value 'maybe' for key 'impulses'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "options, call",
    [(cli._FILTER_OPTS, default_algorithms), (cli._SCENARIO_OPTS, make_sysid_scenario), (cli._PULSE_OPTS, PdPulseSpec)],
    ids=["filter", "scenario", "pulse"],
)
def test_schema_options_match_library_keywords(options, call):
    """Each option names a keyword of the call it feeds, and its default is
    that keyword's default, so a renamed keyword or a drifted default fails
    here rather than at run time."""
    params = inspect.signature(call).parameters
    for opt in options:
        keyword = opt.param or opt.name
        assert keyword in params, (opt.name, keyword)
        assert params[keyword].default == opt.default, (opt.name, keyword)


@pytest.mark.parametrize("subcommand", list(cli.SCHEMAS))
def test_help_lists_every_schema_flag(subcommand, capsys):
    assert run_cli(subcommand, "--help") == EXIT_OK
    text = capsys.readouterr().out
    for opt in cli.SCHEMAS[subcommand]:
        if opt.typ is bool:
            shown = f"{opt.flag}, --no-{opt.flag[2:]}"
        else:
            shown = f"{opt.flag} {({int: 'INT', float: 'FLOAT', str: 'STR'})[opt.typ]}"
        assert shown in text, shown


def test_module_entry_point_runs():
    """``python -m asefilt.cli --help`` runs the module's entry-point line."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-m", "asefilt.cli", "--help"], env=env, capture_output=True, text=True)
    assert result.returncode == EXIT_OK, result.stderr
    assert "sysid" in result.stdout
