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
    from kernelconnect import verify

    blocks = [fn.__name__ for fns in verify.BLOCKS.values() for fn in fns]
    assert sorted(line.split()[0] for line in lines[1:-1]) == sorted(blocks)
    ms = [float(line.split()[1]) for line in lines[1:-1]]
    assert ms == sorted(ms, reverse=True) and min(ms) >= 0.0
    assert lines[-1].split()[0] == "run_suite"
    assert lines[-1].endswith("median CPU ms over 1 seeds 3..3")


def test_the_blocks_are_the_checks_of_the_report():
    # every check of run_suite comes from exactly one block of verify's table, and no block is
    # left out; the table has one row per module, in MODULE_NAMES's order
    from kernelconnect import MODULE_NAMES, verify

    assert tuple(verify.BLOCKS) == MODULE_NAMES
    # pinned by name: a block left out of the table would leave the report without a failure
    assert {module: [fn.__name__ for fn in fns] for module, fns in verify.BLOCKS.items()} == {
        "kernels": ["_admissibility_checks"],
        "rkhs": ["_universality_checks"],
        "connections": ["_backend_agreement_checks", "_fock_form_check", "_disk_sign_checks",
                        "_leibniz_checks", "_transport_checks"],
        "grassmann": ["_grassmann_checks", "_homogeneous_checks", "_reductive_checks"],
        "cpmaps": ["_stinespring_checks"],
    }
    report = verify.run_suite(0)
    assert report["transport_observed_order"] == verify._transport_checks(0)[1]
    names = sorted(c["name"] for c in report["checks"])
    from_blocks = []
    for fn in (fn for fns in verify.BLOCKS.values() for fn in fns):
        out = fn(0)
        from_blocks += [c["name"] for c in (out[0] if isinstance(out, tuple) else out)]
    assert sorted(from_blocks) == names


def test_a_bad_seed_range_or_tree_is_a_usage_error():
    for argv in (["--seeds", "a-b"], ["--seeds", "5-4"], ["--tree", str(_PATH)]):
        with pytest.raises(SystemExit) as exc:
            block_times.main(argv)
        assert exc.value.code == 2
