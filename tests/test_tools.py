"""Smoke tests of the scripts under ``tools/``."""

import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_layer_times_routes_match_the_broadcast_product():
    """``tools/layer_times.py --repeat 1`` prints a row per scalar length
    and per batch shape, and in every row each route's rank-one product,
    the library's zero-padded matmul among them, equals the broadcast's
    bit for bit, signed zeros aside, so a BLAS that rounds the padded
    product differently fails here."""
    done = subprocess.run(
        [sys.executable, str(TOOLS / "layer_times.py"), "--repeat", "1"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert len(rows) == 7 + 7 * 3
    for row in rows:
        matches = {key: value for key, value in row.items() if key.endswith("_matches")}
        assert len(matches) == (3 if "B" in row else 2), row
        assert all(value is True for value in matches.values()), row


def test_output_times_prints_a_positive_time_per_writer():
    """``tools/output_times.py --repeat 1`` prints one JSON row per writer,
    each of whose times is positive."""
    done = subprocess.run(
        [sys.executable, str(TOOLS / "output_times.py"), "--repeat", "1"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [row["writer"] for row in rows] == ["write_csv", "save_waveform", "line_chart"]
    for row in rows:
        times = [value for key, value in row.items() if key.endswith("_ms")]
        assert times and all(value > 0 for value in times), row


def test_loc_counts_every_module_and_sums_the_total():
    """``tools/loc.py`` prints a row per module of ``src/asefilt`` and a
    total row equal to the sum of each column."""
    done = subprocess.run(
        [sys.executable, str(TOOLS / "loc.py")], capture_output=True, text=True, check=True, timeout=120,
    )
    header, *rows, total = [line.split() for line in done.stdout.splitlines()]
    assert header == ["module", "code", "doc", "comment"]
    package = TOOLS.parent / "src" / "asefilt"
    assert [row[0] for row in rows] == sorted(path.stem for path in package.glob("*.py"))
    assert total[0] == "total"
    assert [int(cell) for cell in total[1:]] == [sum(int(row[col]) for row in rows) for col in (1, 2, 3)]


def test_step_times_prints_a_positive_time_per_layer():
    """``tools/step_times.py --repeat 1`` prints one JSON row per algorithm
    and length, each with a positive time for every layer."""
    done = subprocess.run(
        [sys.executable, str(TOOLS / "step_times.py"), "--repeat", "1"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert [(row["kind"], row["L"]) for row in rows] == [
        (kind, length) for kind in ("iwf_ase", "dcd_ase") for length in (10, 64, 256)
    ]
    layers = ["public_us", "validation_us", "core_us", "in_core_checks_us", "step_output_us",
              "all_finite_us", "isfinite_all_us"]
    for row in rows:
        assert sorted(row) == sorted(["kind", "L", *layers]), row
        assert all(row[key] > 0 for key in layers), row
