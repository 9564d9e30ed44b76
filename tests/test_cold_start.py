import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "cold_start.py"
_spec = importlib.util.spec_from_file_location("cold_start", _PATH)
cold_start = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cold_start)

_ROOT = str(_PATH.parents[1])
PACKAGE = {"kernelconnect", "kernelconnect.cli", "kernelconnect.numerics"}


def _table(out: str) -> dict:
    """{command: {module or "wall": ms}} from the table that main prints."""
    table = {}
    for line in out.splitlines()[1:]:
        *command, module, ms = line.split()
        table.setdefault(" ".join(command), {})[module] = float(ms)
    return table


def test_one_run_lists_the_modules_each_command_imports_and_its_wall_time(capsys):
    assert cold_start.main(["--runs", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["command", "module", "ms", "(medians", "of", "1",
                                           "uncached", "runs)"]
    table = _table(out)
    layers = {command: {m for m in modules if m != "wall"} for command, modules in table.items()}
    assert layers == {
        "--help": PACKAGE,
        "verify all": PACKAGE | {f"kernelconnect.{m}" for m in ("kernels", "connections",
                                                                "grassmann", "cpmaps", "verify")},
        "kernel gram": PACKAGE | {"kernelconnect.kernels"},
        "connect transport": PACKAGE | {"kernelconnect.kernels", "kernelconnect.connections"},
        "grassmann verify": PACKAGE | {"kernelconnect.kernels", "kernelconnect.connections",
                                       "kernelconnect.grassmann"},
    }
    assert all(row["wall"] > 0.0 and min(row.values()) >= 0.0 for row in table.values())


def _report(times: dict) -> str:
    """A `-X importtime` report of {module: self us}, among lines that the tool skips."""
    lines = ["import time: self [us] | cumulative | imported package",
             "import time:       120 |        120 | numpy.core",
             "import time:       300 |        300 | kernelconnectx"]
    return "\n".join(lines + [f"import time: {us:9d} | {us:10d} | {'  ' * m.count('.')}{m}"
                              for m, us in times.items()]) + "\n"


def test_self_times_reads_the_packages_modules_in_import_order():
    times = {"kernelconnect": 500, "kernelconnect.numerics": 3250, "kernelconnect.cli": 7000}
    assert list(cold_start.self_times(_report(times)).items()) == [
        ("kernelconnect", 0.5), ("kernelconnect.numerics", 3.25), ("kernelconnect.cli", 7.0)]


def test_each_run_imports_a_fresh_copy_of_the_trees_sources_without_bytecode(monkeypatch):
    seen = []

    def run(argv, env, cwd, **kwargs):
        package = Path(env["PYTHONPATH"]) / "kernelconnect"
        seen.append((tuple(argv[1:4]), env["PYTHONDONTWRITEBYTECODE"], cwd == env["PYTHONPATH"],
                     tuple(sorted(p.name for p in package.iterdir())), env["PYTHONPATH"]))
        return subprocess.CompletedProcess(argv, 0, "", _report({"kernelconnect": 10}))

    monkeypatch.setattr(cold_start.subprocess, "run", run)
    assert cold_start.main(["--runs", "1"]) == 0
    sources = tuple(sorted(p.name for p in (Path(_ROOT) / "src" / "kernelconnect").glob("*.py")))
    assert len(seen) == len(cold_start.COMMANDS) and "__init__.py" in sources
    assert {entry[:4] for entry in seen} == {(("-X", "importtime", "-m"), "1", True, sources)}
    assert not any(entry[4].startswith(_ROOT) for entry in seen)  # the tree is never imported


def test_against_alternates_the_trees_command_by_command_and_prints_both_medians(capsys,
                                                                                 monkeypatch,
                                                                                 tmp_path):
    # three pairs: the tree that goes first alternates; a module of one tree alone keeps its row
    other = tmp_path / "other"
    (other / "src" / "kernelconnect").mkdir(parents=True)
    (other / "src" / "kernelconnect" / "__init__.py").write_text("")
    first = iter([1000, 3000, 2000])
    calls = []

    def run(argv, env, **kwargs):
        side = Path(env["PYTHONPATH"]).name
        calls.append((side, argv[5]))
        times = ({"kernelconnect.cli": next(first)} if side == "0" else
                 {"kernelconnect.cli": 2000, "kernelconnect.rkhs": 1000})
        return subprocess.CompletedProcess(argv, 0, "", _report(times))

    monkeypatch.setattr(cold_start.subprocess, "run", run)
    monkeypatch.setattr(cold_start, "COMMANDS", (("--help",),))
    assert cold_start.main(["--against", str(other), "--runs", "3"]) == 0
    assert calls == [("0", "--help"), ("1", "--help"), ("1", "--help"), ("0", "--help"),
                     ("0", "--help"), ("1", "--help")]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:5] == ["command", "module", "ms", "against", "wins"]
    rows = [line.split() for line in lines[1:]]
    assert rows[:2] == [["--help", "kernelconnect.cli", "2.00", "2.00", "1/3"],
                        ["--help", "kernelconnect.rkhs", "nan", "1.00", "0/3"]]
    assert rows[2][:2] == ["--help", "wall"]


@pytest.mark.parametrize("argv", [["--tree", str(_PATH)], ["--against", str(_PATH)],
                                  ["--runs", "0"]])
def test_a_bad_tree_or_run_count_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        cold_start.main(argv)
    assert exc.value.code == 2


def test_a_run_that_fails_is_a_usage_error_that_names_its_command(capsys, monkeypatch):
    def run(argv, **kwargs):
        return subprocess.CompletedProcess(argv, 1, "", "error: boom\n")

    monkeypatch.setattr(cold_start.subprocess, "run", run)
    with pytest.raises(SystemExit) as exc:
        cold_start.main(["--runs", "1"])
    assert exc.value.code == 2
    assert "`--help` exited 1: error: boom" in capsys.readouterr().err
