"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q

Each workload runs once untraced and once traced; every metric that
BENCHMARK.json names must come out as a number, and the traced run's
time accounting must close: per step, the layers' self times plus the
CLI's own share add up to the step's wall time.
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
_runs = {}


def run_tiny(workload, trace):
    """Last two stdout lines (detail, result) of one tiny run, cached."""
    key = (workload, trace)
    if key not in _runs:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
             "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        _runs[key] = json.loads(lines[-2])["detail"], json.loads(lines[-1])
    return _runs[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    detail, result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, detail["failures"]
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
    assert detail["ops_failed_frac"] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_add_up_to_step_wall_time(workload):
    detail, result = run_tiny(workload, 1)
    assert {s["step"] for s in detail["steps"]} == {"gen-synth", "fit", "score", "evaluate", "report"}
    for step in detail["steps"]:
        covered = step["cli_self_s"] + sum(step["layer_self_s"].values())
        assert covered == pytest.approx(step["wall_s"], rel=1e-9, abs=1e-9), step
        assert step["cli_self_s"] >= 0.0
    self_times = sum(m["value"] for name, m in result["metrics"].items() if name.endswith(".self_s"))
    assert self_times == pytest.approx(sum(s["wall_s"] for s in detail["steps"]), rel=1e-9)


def test_rows_needed_never_exceed_rows_scored():
    _, result = run_tiny("mc-default", 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["density.rows_scored"] > 0
    assert 0.0 < metrics["density.useful_ratio"] <= 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
