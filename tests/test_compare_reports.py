import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"
_spec = importlib.util.spec_from_file_location("compare_reports", _PATH)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)


def _report(**residuals):
    checks = [{"name": name, "module": "m", "residual": r, "tolerance": 1e-6,
               "passed": r < 1e-6} for name, r in residuals.items()]
    return json.dumps({"seed": 0, "checks": checks, "passed": True}, indent=2)


def test_seed_lists_and_ranges():
    assert compare_reports.parse_seeds("0-3") == [0, 1, 2, 3]
    assert compare_reports.parse_seeds("1,4,7-9") == [1, 4, 7, 8, 9]
    with pytest.raises(ValueError):
        compare_reports.parse_seeds("a-b")


def test_differences_name_each_check_whose_residual_verdict_or_presence_differs():
    old = _report(a=1e-9, b=2e-9, c=3e-9)
    new = _report(a=1e-9, b=2e-5, d=3e-9)
    assert compare_reports.differences(old, new) == [
        "b: passed True -> False, residual 2e-09 -> 2e-05",
        "c: only in the parent",
        "d: only in the change",
    ]
    assert compare_reports.differences(old, old.replace("\n", " ")) == [
        "stdout differs in layout only"]
    assert compare_reports.differences(old, "Traceback\nValueError: x") == [
        "output is not a JSON report on one side: '}' -> 'ValueError: x'"]
