"""scripts/compare_benchmark.py on the committed run_benchmark goldens."""
import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = {task: ROOT / "tests" / "golden" / f"benchmark_{task}_s2.json"
          for task in ("multiclass", "multilabel")}


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("compare_benchmark", ROOT / "scripts" / "compare_benchmark.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ROW = re.compile(r"(.*\S) +([+-]\d\.\d{4}) \[([+-]\d\.\d{4}), ([+-]\d\.\d{4})\]")


def _rows(printed):
    """{method: (mean, lo, hi)} as printed."""
    return {m[1]: m.groups()[1:] for m in map(ROW.fullmatch, printed.splitlines()) if m}


@pytest.mark.parametrize("task", sorted(GOLDEN))
def test_golden_against_itself_is_zero(script, task, capsys):
    golden = json.loads(GOLDEN[task].read_text())
    for values in script.paired_deltas(golden, golden, golden["seeds"]).values():
        assert values.tolist() == [0.0, 0.0]
        assert script.bootstrap_interval(values) == (0.0, 0.0)
    assert script.main([str(GOLDEN[task]), str(GOLDEN[task])]) == 0
    rows = _rows(capsys.readouterr().out)
    assert set(rows) == set(golden["table"])
    assert set(rows.values()) == {("+0.0000", "+0.0000", "+0.0000")}


def test_one_shifted_method_moves_by_its_shift(script, tmp_path, capsys):
    golden = json.loads(GOLDEN["multiclass"].read_text())
    shifted = json.loads(GOLDEN["multiclass"].read_text())
    shifted["table"]["HUQ2-MD"]["first_50"] = [v + 0.01 for v in shifted["table"]["HUQ2-MD"]["first_50"]]
    new = tmp_path / "new.json"
    new.write_text(json.dumps(shifted))
    for name, values in script.paired_deltas(golden, shifted, golden["seeds"]).items():
        shift = 0.01 if name == "HUQ2-MD" else 0.0
        assert values.mean() == pytest.approx(shift, rel=1e-12, abs=0.0)
        assert script.bootstrap_interval(values) == pytest.approx((shift, shift), rel=1e-12, abs=0.0)
    assert script.main([str(GOLDEN["multiclass"]), str(new)]) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows.pop("HUQ2-MD") == ("+0.0100", "+0.0100", "+0.0100")
    assert set(rows.values()) == {("+0.0000", "+0.0000", "+0.0000")}


def test_dumps_of_different_tasks_are_refused(script, capsys):
    assert script.main([str(GOLDEN["multiclass"]), str(GOLDEN["multilabel"])]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "multiclass dump" in captured.err
