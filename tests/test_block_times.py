import importlib.util
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
    assert sorted(line.split()[0] for line in lines[1:-1]) == sorted(block_times.BLOCKS)
    ms = [float(line.split()[1]) for line in lines[1:-1]]
    assert ms == sorted(ms, reverse=True) and min(ms) >= 0.0
    assert lines[-1].split()[0] == "run_suite"
    assert lines[-1].endswith("median CPU ms over 1 seeds 3..3")


def test_the_blocks_are_the_checks_of_the_report():
    # every check of run_suite comes from exactly one listed block, and no block is left out
    from kernelconnect import verify

    names = sorted(c["name"] for c in verify.run_suite(0)["checks"])
    from_blocks = []
    for fn, seeded in block_times.BLOCKS.values():
        out = getattr(verify, fn)(*((0,) if seeded else ()))
        from_blocks += [c["name"] for c in (out[0] if isinstance(out, tuple) else out)]
    assert sorted(from_blocks) == names


def test_a_bad_seed_range_or_tree_is_a_usage_error():
    for argv in (["--seeds", "a-b"], ["--seeds", "5-4"], ["--tree", str(_PATH)]):
        with pytest.raises(SystemExit) as exc:
            block_times.main(argv)
        assert exc.value.code == 2
