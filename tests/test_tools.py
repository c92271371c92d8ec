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
