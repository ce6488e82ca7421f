"""Smoke test of the benchmark harness.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload for a second (one worker, one pass), checks that the
report names every metric of BENCHMARK.json with its unit, and checks the
op_tail_ms percentile rule on known samples.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import block_tail, tail_percentile  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE.relative_to(ROOT) / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    return result


@pytest.mark.parametrize("samples, expected", [
    (list(range(100, 0, -1)), (90, 90, 10)),
    (list(range(1, 1000)), (90, 900, 99)),     # p99 would leave only 9
    (list(range(1, 1001)), (99, 990, 10)),
    (list(range(1, 21)), (50, 10, 10)),
    (list(range(1, 20)), (50, 10, 9)),         # too few: median, 9 beyond
    ([7.0], (50, 7.0, 0)),
])
def test_tail_percentile_rule(samples, expected):
    assert tail_percentile(samples) == expected


def test_tail_is_the_median_over_fixed_blocks():
    samples = list(range(1, 277)) + [1000.0] * 5   # last block incomplete
    assert block_tail(samples, 138) == (90, (125 + 263) / 2, 13, 2)
    assert block_tail(samples[:50], 138) == (50, 25, 25, 1)   # one short block


@pytest.mark.parametrize("workload", ["reproduce", "products", "solve"])
def test_every_end_to_end_metric_is_printed(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", "0")
    result = _result(proc)
    report = proc.stdout.splitlines()
    for metric in SPEC["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name} ") and line.split()[2] == unit
                   for line in report), name
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert any(line.startswith("failed_frac ") for line in report)
    assert any("QUADRICS_STEP_BOUND in the workers: unset" in line
               for line in report)
    if workload != "products":
        assert result["correct"]


def test_traced_run_reports_every_layer_metric():
    result = _result(_bench("--workload", "solve", "--seed", "3",
                            "--seconds", "1", "--trace", "1"))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["engine.solve.calls"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "solve", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
