"""Smoke tests for the benchmark itself.

A tiny-size run of every workload, untraced and traced, must print every
metric that ``BENCHMARK.json`` names, with its unit, and fail no output
check; the operation counts must repeat exactly; and without the package
sources the benchmark must fail without printing a result.

    python3 -m pytest -q perfbench/smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "20240923", "--seconds", "0",
           "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric(workload, trace, kind):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert f"failed_share = 0/{result['attempted']} = 0" in lines
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    for metric in SPEC[kind]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])
        if kind == "end_to_end":
            assert got["value"] > 0
        assert any(line.startswith(f"{metric['name']} = ") and line.split()[3] == metric["unit"] for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_operation_counts_repeat_exactly(workload):
    sys.path.insert(0, str(HERE))
    import workloads

    w = workloads.TINY[workload]
    assert w.count_ops() == w.count_ops()


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
