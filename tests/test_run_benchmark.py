"""scripts/run_benchmark.py: a smoke test at small sizes, and its
``--json`` output at the default sizes against committed goldens, both
tasks."""
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import abstain

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_benchmark.py"
GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = {
    "multiclass": {"SR", "Entropy", "Delta", "Beta", "SMP", "PV", "BALD", "MD", "RDE", "DDU",
                   "NUQ", "HUQ-MD", "HUQ-RDE", "HUQ-DDU", "HUQ2-MD", "HUQ2-RDE", "HUQ2-DDU"},
    "multilabel": {"MP-mean", "MP-max", "MD", "RDE", "DDU", "NUQ", "MP (label-wise)"},
}


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("run_benchmark", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("task", sorted(EXPECTED))
def test_every_method_row_present_and_finite(script, task, tmp_path, capsys):
    out = tmp_path / "table.json"
    assert script.main(["--task", task, "--seeds", "2", "--n-train", "160",
                        "--n-validation", "80", "--n-test", "80", "--classes", "3",
                        "--labels", "4", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["task"] == task and payload["seeds"] == [0, 1]
    assert set(payload["table"]) == EXPECTED[task]
    for name, spans in payload["table"].items():
        for span in ("full", "first_50"):
            assert len(spans[span]) == 2 and all(math.isfinite(v) for v in spans[span]), name
    printed = capsys.readouterr().out
    assert all(name in printed for name in EXPECTED[task])


@pytest.mark.parametrize("task", sorted(EXPECTED))
def test_json_matches_golden(task, tmp_path):
    """``--seeds 2 --json`` at the default sizes (d=8) writes the bytes of
    tests/golden/benchmark_<task>_s2.json.  It runs in a fresh interpreter
    at one BLAS thread; the goldens read the same at two.  A change that
    means to move a quality number regenerates the golden with that
    command and lists every changed number."""
    src = str(Path(abstain.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "table.json"
    subprocess.run([sys.executable, str(SCRIPT), "--task", task, "--seeds", "2", "--json", str(out)],
                   env=env, check=True, capture_output=True)
    assert out.read_bytes() == (GOLDEN / f"benchmark_{task}_s2.json").read_bytes()
