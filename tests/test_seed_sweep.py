import importlib.util
import warnings
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "seed_sweep.py"
_spec = importlib.util.spec_from_file_location("seed_sweep", _PATH)
seed_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seed_sweep)


def test_a_sweep_of_two_seeds_of_one_module_passes_and_names_its_worst_check(capsys):
    assert seed_sweep.main(["--seeds", "0-1", "--modules", "grassmann"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["check", "worst", "seed", "failed"]
    assert [line.split()[0] for line in lines[1:-1]] == [
        "grassmann/metric_compatibility", "grassmann/three_way_agreement",
        "homogeneous/formula_vs_generic", "reductive/axioms_residual"]
    assert lines[-1].startswith("2 seeds, 4 checks: 0 failed at some seed, 0 seeds raised; "
                                "worst residual/tolerance ")


def test_the_sweep_keeps_each_checks_worst_seed_and_counts_its_failures():
    def run_suite(seed, modules):
        if seed == 3:
            raise ValueError("bad input")
        if seed == 4:  # numpy meeting an overflow: an error in the sweep
            warnings.warn("overflow encountered in multiply", RuntimeWarning)
        return {"checks": [
            {"name": "ratio", "residual": seed * 1e-7, "tolerance": 1e-6, "passed": True},
            {"name": "margin", "residual": seed - 1.0, "tolerance": 0.0, "passed": seed < 1},
            {"name": "nan", "residual": float("nan") if seed else 0.0, "tolerance": 1.0,
             "passed": not seed},
        ]}

    worst, raised = seed_sweep.sweep(run_suite, [0, 1, 2, 3, 4])
    assert worst["ratio"] == (pytest.approx(0.2), 2, 0, True)
    assert worst["margin"] == (1.0, 2, 2, False)
    score, seed, failed, ratio = worst["nan"]
    assert score != score and (seed, failed, ratio) == (1, 2, True)  # the first NaN is kept
    assert raised == [(3, "ValueError: bad input"),
                      (4, "RuntimeWarning: overflow encountered in multiply")]


def test_a_bad_seed_range_or_module_is_a_usage_error():
    for argv in (["--seeds", "a-b"], ["--modules", "nope"], ["--tree", str(_PATH)]):
        with pytest.raises(SystemExit) as exc:
            seed_sweep.main(argv)
        assert exc.value.code == 2


def test_a_sweep_that_runs_no_check_fails_and_says_so(capsys):
    # the rkhs module has no check: a sweep of it verifies nothing, which is not a pass
    assert seed_sweep.main(["--seeds", "0-1", "--modules", "rkhs"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1].startswith("2 seeds, 0 checks: 0 failed at some seed, ")
    assert err == "no check ran: the sweep verified nothing\n"
