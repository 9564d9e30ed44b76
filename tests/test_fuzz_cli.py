import importlib.util
from pathlib import Path

from kernelconnect import cli

_PATH = Path(__file__).resolve().parents[1] / "tools" / "fuzz_cli.py"
_spec = importlib.util.spec_from_file_location("fuzz_cli", _PATH)
fuzz_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fuzz_cli)


def test_a_short_batch_of_draws_passes(capsys):
    assert fuzz_cli.main(["--seed", "0", "--draws", "60"]) == 0
    assert capsys.readouterr().out.splitlines() == ["60 draws at seed 0: 0 failed"]


def _every_handler(monkeypatch, handler):
    for _, subcommands in cli._COMMANDS.values():
        for name, (help_, _, *rest) in list(subcommands.items()):
            monkeypatch.setitem(subcommands, name, (help_, handler, *rest))


def _raise(args):
    raise RuntimeError("boom")


def _print_nan(args):
    print('{"value": NaN}')
    return 0


def test_a_handler_that_raises_writes_nan_or_exits_3_is_reported(monkeypatch, capsys):
    # negative controls: each fault fails the draws that reach a handler, each named with its argv
    for handler, reason in [(_raise, "RuntimeError escaped main: boom"),
                            (_print_nan, "exit 0 wrote a non-finite number: 'NaN'"),
                            (lambda args: 3, "exit code 3")]:
        _every_handler(monkeypatch, handler)
        assert fuzz_cli.main(["--seed", "0", "--draws", "20"]) == 1
        monkeypatch.undo()
        lines = capsys.readouterr().out.splitlines()
        assert lines[:-1] and all(line.startswith("FAIL kernelconnect ") and f": {reason}" in line
                                  for line in lines[:-1])
        assert lines[-1] == f"20 draws at seed 0: {len(lines) - 1} failed"


def test_an_option_without_a_pool_is_reported(monkeypatch, capsys):
    monkeypatch.setitem(cli._COMMANDS["kernel"][1]["eval"][4], "--new", {})
    assert fuzz_cli.main(["--seed", "0", "--draws", "60"]) == 1
    assert "no pool for option '--new'" in capsys.readouterr().out


def test_the_non_finite_pattern_reads_json_and_complex_cells_only():
    hits = ["NaN", "-Infinity", "[Infinity]", "nan+0i", "1+infi", "-inf-nani", '"nan"']
    misses = ["info", "min_eigenvalue", "finite", "nanometre", "inflate", "1.5e+308"]
    assert all(fuzz_cli._NON_FINITE.search(s) for s in hits)
    assert not any(fuzz_cli._NON_FINITE.search(s) for s in misses)
