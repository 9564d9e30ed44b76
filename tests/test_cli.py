import json

import numpy as np
import pytest

from kernelconnect import verify
from kernelconnect.cli import main, parse_kernel_spec
from kernelconnect.kernels import Kernel, make_bergman_disk
from kernelconnect.numerics import matrix_from_csv_text, write_matrix_csv
from kernelconnect.cpmaps import random_unital_cpmap


@pytest.fixture
def choi_csv(tmp_path):
    psi = random_unital_cpmap(3, 2, 4, np.random.default_rng(0))
    path = tmp_path / "choi.csv"
    write_matrix_csv(path, psi.choi)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kernel_spec_round_trips_to_canonical_string():
    for spec in ("bergman-disk:nu=2", "bergman-halfplane:nu=1", "fock:dim=3",
                 "universal:n=4,k=2"):
        assert parse_kernel_spec(spec).name == spec


def test_unknown_kernel_spec_exits_2(capsys):
    code, _, err = run_cli(capsys, "kernel", "eval", "--kernel", "bogus:x=1",
                           "--point", "0.5")
    assert code == 2
    assert "grammar" in err


def test_malformed_complex_literal_exits_2(capsys):
    code, _, err = run_cli(capsys, "kernel", "eval",
                           "--kernel", "bergman-disk:nu=2", "--point", "zap")
    assert code == 2
    assert "complex literal" in err


@pytest.mark.parametrize("spec", ["bergman-disk:nu=nan", "bergman-disk:nu=inf",
                                  "bergman-halfplane:nu=nan", "bergman-halfplane:nu=inf"])
def test_non_finite_nu_exits_2(capsys, spec):
    code, out, err = run_cli(capsys, "kernel", "eval", "--kernel", spec, "--point", "0.5+0.5i")
    assert code == 2 and out == ""
    assert "nu must be finite" in err


def test_kernel_eval_json(capsys):
    code, out, _ = run_cli(capsys, "kernel", "eval", "--kernel", "bergman-disk:nu=2",
                           "--point", "0.5")
    assert code == 0
    rep = json.loads(out)
    assert rep["kernel"] == "bergman-disk:nu=2"
    assert rep["value"][0][0].startswith("1.7777777777777")


def test_kernel_gram_csv(capsys):
    code, out, _ = run_cli(capsys, "kernel", "gram", "--kernel", "bergman-disk:nu=2",
                           "--points", "0;0.5;-0.5", "--format", "csv")
    assert code == 0
    assert matrix_from_csv_text(out).shape == (3, 3)


def test_rkhs_universality_passes(capsys):
    code, out, _ = run_cli(capsys, "rkhs", "universality",
                           "--kernel", "fock:dim=2", "--points", "0,0;0.5,0.1i")
    assert code == 0
    rep = json.loads(out)
    assert rep["residual"] < rep["tolerance"]
    assert "min_eig" in rep


def test_connect_covderiv_reports_three_backends(capsys):
    code, out, _ = run_cli(capsys, "connect", "covderiv",
                           "--kernel", "bergman-disk:nu=2",
                           "--point", "0.5", "--direction", "1")
    assert code == 0
    rep = json.loads(out)
    for key in ("closed", "direct", "sampled", "max_disagreement"):
        assert key in rep
    assert rep["max_disagreement"] < 1e-6


def test_connect_transport_csv_table(capsys):
    code, out, _ = run_cli(capsys, "connect", "transport",
                           "--kernel", "bergman-disk:nu=1",
                           "--start", "0", "--end", "0.5", "--steps", "64",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # vector + 4-row convergence table
    errs = [float(line.split(",")[1]) for line in lines[1:]]
    assert errs == sorted(errs, reverse=True)


def test_connect_transport_zero_steps_exits_2(capsys):
    code, _, err = run_cli(capsys, "connect", "transport", "--kernel", "bergman-disk:nu=1",
                           "--start", "0", "--end", "0.5", "--steps", "0")
    assert code == 2
    assert "--steps must be >= 1" in err


def test_grassmann_verify_n_below_2_exits_2(capsys):
    code, _, err = run_cli(capsys, "grassmann", "verify", "--n", "1", "--k", "1")
    assert code == 2
    assert "--n must be >= 2" in err


@pytest.mark.parametrize("k", ["0", "4"])
def test_grassmann_verify_k_out_of_range_exits_2(capsys, k):
    code, _, err = run_cli(capsys, "grassmann", "verify", "--n", "4", "--k", k)
    assert code == 2
    assert "--k must be between 1 and n-1" in err


def test_grassmann_verify(capsys):
    code, out, _ = run_cli(capsys, "grassmann", "verify", "--n", "4", "--k", "2",
                           "--probes", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["three_way_residual"] < 1e-6


def test_cp_dilate(capsys, choi_csv):
    code, out, _ = run_cli(capsys, "cp", "dilate", "--choi", choi_csv, "--n", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["r"] == 4
    assert rep["isometry_residual"] < 1e-12


def test_cp_covderiv(capsys, choi_csv):
    code, out, _ = run_cli(capsys, "cp", "covderiv", "--choi", choi_csv, "--n", "3")
    assert code == 0
    assert json.loads(out)["max_disagreement"] < 1e-6


def test_verify_module_filter_and_seed(capsys):
    code, out, _ = run_cli(capsys, "verify", "kernels", "--seed", "7")
    assert code == 0
    rep = json.loads(out)
    assert rep["seed"] == 7
    assert rep["modules"] == ["kernels"]
    assert all(c["module"] == "kernels" for c in rep["checks"])


def test_verify_unknown_module_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "astrology")
    assert code == 2
    assert "unknown modules" in err


def test_verify_negative_control_names_failing_check(capsys, monkeypatch):
    def flipped_disk(nu):
        k = make_bergman_disk(nu)
        return Kernel(k.fiber_dim, k.domain, k.eval, lambda s, t, x: -k.d2(s, t, x),
                      name=k.name + "[flipped]")

    monkeypatch.setattr(verify, "make_bergman_disk", flipped_disk)
    code, out, _ = run_cli(capsys, "verify", "connections")
    assert code == 1
    rep = json.loads(out)
    failing = [c["name"] for c in rep["checks"] if not c["passed"]]
    assert any("bergman-disk" in name for name in failing)


def test_verify_report_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", "kernels", "rkhs", "--seed", "42")
    _, out2, _ = run_cli(capsys, "verify", "kernels", "rkhs", "--seed", "42")
    assert out1 == out2


def test_env_var_overrides_default_tolerance(capsys, monkeypatch):
    monkeypatch.setenv("KERNEL_CONNECT_TOL", "1e-3")
    code, out, _ = run_cli(capsys, "rkhs", "universality",
                           "--kernel", "bergman-disk:nu=2", "--points", "0;0.5")
    assert code == 0
    assert json.loads(out)["tolerance"] == 1e-3


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "kernel", "eval", "--kernel", "fock:dim=2",
                           "--point", "0,0", "--output", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["kernel"] == "fock:dim=2"
