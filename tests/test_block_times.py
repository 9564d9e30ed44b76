import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "block_times.py"
_spec = importlib.util.spec_from_file_location("block_times", _PATH)
block_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(block_times)


def test_one_seed_times_every_verify_block_and_the_whole_suite(capsys):
    assert block_times.main(["--seeds", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["block", "cpu_ms", "share"]
    from kernelconnect import verify

    blocks = [fn.__name__ for fns in verify.BLOCKS.values() for fn in fns]
    assert sorted(line.split()[0] for line in lines[1:-1]) == sorted(blocks)
    ms = [float(line.split()[1]) for line in lines[1:-1]]
    assert ms == sorted(ms, reverse=True) and min(ms) >= 0.0
    assert lines[-1].split()[0] == "run_suite"
    assert lines[-1].endswith("median CPU ms over 1 seeds 3..3")


def test_the_blocks_are_the_checks_of_the_report():
    # every check of run_suite comes from exactly one block of verify's table, and no block is
    # left out; the table has one row per module, in MODULE_NAMES's order, and its key is the one
    # source of its checks' module
    from kernelconnect import MODULE_NAMES, verify

    assert tuple(verify.BLOCKS) == MODULE_NAMES
    # pinned by name: a block left out of the table would leave the report without a failure
    assert {module: [fn.__name__ for fn in fns] for module, fns in verify.BLOCKS.items()} == {
        "kernels": ["_admissibility_checks"],
        "rkhs": [],
        "connections": ["_backend_agreement_checks", "_fock_form_check", "_disk_sign_checks",
                        "_leibniz_checks", "_transport_checks"],
        "grassmann": ["_grassmann_checks", "_homogeneous_checks", "_reductive_checks"],
        "cpmaps": ["_stinespring_checks"],
    }
    report = verify.run_suite(0)
    assert report["transport_observed_order"] == verify._transport_checks(0)[1]
    names = sorted((c["name"], c["module"]) for c in report["checks"])
    from_blocks = []
    for module, fn in ((module, fn) for module, fns in verify.BLOCKS.items() for fn in fns):
        out = fn(0)
        checks = out[0] if isinstance(out, tuple) else out
        assert not any("module" in c for c in checks)
        from_blocks += [(c["name"], module) for c in checks]
    assert sorted(from_blocks) == names


def test_a_bad_seed_range_or_tree_is_a_usage_error():
    for argv in (["--seeds", "a-b"], ["--seeds", "5-4"], ["--tree", str(_PATH)]):
        with pytest.raises(SystemExit) as exc:
            block_times.main(argv)
        assert exc.value.code == 2


_ROOT = str(_PATH.parents[1])


def _table(ms):
    """The table that one run prints, for {block: CPU ms} with "run_suite" among them."""
    rows = [f"{name}  {t:6.2f}  0.0%" for name, t in ms.items() if name != "run_suite"]
    return "\n".join(["block  cpu_ms  share", *rows, f"run_suite  {ms['run_suite']:6.2f}  x"])


def test_against_alternates_the_trees_and_prints_both_medians_and_the_wins(capsys, monkeypatch,
                                                                            tmp_path):
    # three pairs of runs, one process each, the tree that goes first alternating; the second
    # tree's costliest block first, run_suite last; a block of one tree alone still has its row
    other = str(tmp_path)
    (tmp_path / "src" / "kernelconnect").mkdir(parents=True)
    times = {_ROOT: iter([{"a": 1.0, "b": 5.0, "run_suite": 9.0},
                          {"a": 3.0, "b": 4.0, "run_suite": 8.0},
                          {"a": 2.0, "b": 6.0, "run_suite": 7.0}]),
             other: iter([{"a": 2.0, "c": 1.0, "run_suite": 10.0}] * 3)}
    calls = []

    def run(argv, **kwargs):
        tree = argv[argv.index("--tree") + 1]
        calls.append((tree, argv[argv.index("--seeds") + 1]))
        return subprocess.CompletedProcess(argv, 0, _table(next(times[tree])), "")

    monkeypatch.setattr(block_times.subprocess, "run", run)
    assert block_times.main(["--seeds", "4-5", "--against", other, "--runs", "3"]) == 0
    assert calls == [(_ROOT, "4-5"), (other, "4-5"), (other, "4-5"), (_ROOT, "4-5"),
                     (_ROOT, "4-5"), (other, "4-5")]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:4] == ["block", "cpu_ms", "against", "wins"]
    assert [line.split() for line in lines[1:]] == [
        ["a", "2.00", "2.00", "1/3"], ["c", "nan", "1.00", "0/3"], ["b", "5.00", "nan", "0/3"],
        ["run_suite", "8.00", "10.00", "3/3"]]


def test_against_times_two_checkouts_in_their_own_processes(capsys):
    assert block_times.main(["--seeds", "3", "--against", _ROOT, "--runs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    from kernelconnect import verify

    blocks = [fn.__name__ for fns in verify.BLOCKS.values() for fn in fns]
    assert sorted(line.split()[0] for line in lines[1:-1]) == sorted(blocks)
    assert lines[-1].split()[0] == "run_suite"
    assert all(line.split()[3] in ("0/1", "1/1") for line in lines[1:])


def test_a_bad_against_tree_or_run_count_is_a_usage_error():
    for argv in (["--against", str(_PATH)], ["--against", _ROOT, "--runs", "0"]):
        with pytest.raises(SystemExit) as exc:
            block_times.main(argv)
        assert exc.value.code == 2
