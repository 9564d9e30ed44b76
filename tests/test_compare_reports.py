import importlib.util
import json
import os
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


def _geometry_report(**values):
    report = {"k": 3, "metric_compatibility_residual": 2e-11, "n": 6, "passed": True,
              "probes": 20, "seed": 0, "three_way_residual": 3e-11, "tolerance": 1e-6}
    return json.dumps(report | values, indent=2)


def test_differences_name_the_one_key_in_which_two_grassmann_verify_reports_differ():
    old, new = _geometry_report(), _geometry_report(three_way_residual=4e-11)
    assert compare_reports.differences(old, new) == ["three_way_residual: 3e-11 -> 4e-11"]


def test_each_seed_runs_verify_all_and_grassmann_verify_and_names_the_command_that_differs(
        monkeypatch, tmp_path, capsys):
    for tree in ("a", "b"):
        (tmp_path / tree / "src" / "kernelconnect").mkdir(parents=True)
    calls = []

    def run_report(tree, command, seed):
        calls.append((os.path.basename(tree), command[:2], seed))
        if command[0] == "grassmann":
            drift = 4e-11 if tree.endswith("b") and seed == 1 else 3e-11
            return 0, _geometry_report(seed=seed, three_way_residual=drift)
        return 0, _report(a=1e-9)

    monkeypatch.setattr(compare_reports, "run_report", run_report)
    code = compare_reports.main([str(tmp_path / "a"), str(tmp_path / "b"), "--seeds", "0-1"])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "seed 1: grassmann verify: three_way_residual: 3e-11 -> 4e-11",
        "2 seeds: 1 identical, 1 differ",
    ]
    assert [(c[1], c[2]) for c in calls[:4]] == [
        (("verify", "all"), 0), (("verify", "all"), 0),
        (("grassmann", "verify"), 0), (("grassmann", "verify"), 0)]
    assert compare_reports.COMMANDS[1] == ("grassmann", "verify", "--n", "6", "--k", "3")
