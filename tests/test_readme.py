"""The README's command-line examples run, and every exported name exists."""

import importlib
import pathlib
import pkgutil
import shlex

import numpy as np
import pytest

import kernelconnect
from kernelconnect.cli import main
from kernelconnect.cpmaps import random_unital_cpmap
from kernelconnect.numerics import matrix_to_csv_text

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _command_line_examples() -> list:
    """The `kernelconnect ...` lines of the first code block under "## Command line"."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    return [line.strip() for line in block.splitlines() if line.startswith("kernelconnect ")]


def test_readme_has_command_line_examples():
    assert len(_command_line_examples()) >= 8


@pytest.mark.parametrize("line", _command_line_examples())
def test_readme_command_line_example_exits_0(line, tmp_path, monkeypatch, capsys):
    psi = random_unital_cpmap(3, 2, 4, np.random.default_rng(0))
    (tmp_path / "choi.csv").write_text(matrix_to_csv_text(psi.choi))
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line)[1:]
    code = main(argv)
    assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(
    m.name for m in pkgutil.iter_modules(kernelconnect.__path__) if m.name != "__main__"))
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"kernelconnect.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
