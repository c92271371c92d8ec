"""Smoke tests of the scripts under ``tools/``."""

import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_layer_times_prints_every_row_group_with_positive_times():
    """``tools/layer_times.py --repeat 1`` prints, in order, a public-step
    row per kind and length, a dense-update row per scalar length and per
    batch shape, each timing the two routes ``filters._matmul_route``
    chooses between, and a row per writer; every time in them is
    positive."""
    done = subprocess.run(
        [sys.executable, str(TOOLS / "layer_times.py"), "--repeat", "1"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    lengths = [10, 16, 32, 48, 64, 128, 256]
    steps, scalar, batch, writers = rows[:6], rows[6:13], rows[13:34], rows[34:]
    assert [(row["kind"], row["L"]) for row in steps] == [
        (kind, length) for kind in ("iwf_ase", "dcd_ase") for length in (10, 64, 256)
    ]
    assert [row["L"] for row in scalar] == lengths
    assert [(row["A"], row["B"], row["L"]) for row in batch] == [(3, b, length) for b in (1, 4, 10) for length in lengths]
    assert [row["writer"] for row in writers] == ["write_csv", "save_waveform", "line_chart"]
    updates = ["update_broadcast_us", "update_matmul_us"]
    keys = [
        (steps, ["kind", "L", "public_us", "validation_us", "core_us", "in_core_checks_us", "step_output_us",
                 "all_finite_us", "isfinite_all_us"]),
        (scalar, ["L", *updates, "decay_us", "outer_broadcast_us", "outer_matmul_us", "add_us",
                  "matvec_rw_us", "matvec_rr_us", "dot_wx_us", "matmul_rw_us", "matmul_wx_us"]),
        (batch, ["A", "B", "L", *updates]),
        (writers[:1], ["writer", "rows", "columns", "fmt", "numpy_cells_ms", "float_cells_ms"]),
        (writers[1:2], ["writer", "rows", "fmt", "best_ms"]),
        (writers[2:], ["writer", "series", "points", "best_ms"]),
    ]
    for group, names in keys:
        for row in group:
            assert sorted(row) == sorted(names), row
            times = [value for key, value in row.items() if key.endswith(("_us", "_ms"))]
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
