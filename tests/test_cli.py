import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernelconnect import cli, connections, verify
from kernelconnect.cli import KERNEL_SPEC_GRAMMAR, _spectrum_json, main, parse_kernel_spec
from kernelconnect.kernels import Kernel, VectorDomain, make_bergman_disk, positivity_certificate
from kernelconnect.numerics import (
    hermitian_eigh,
    matrix_from_csv_text,
    matrix_to_csv_text,
    parse_complex,
)
from kernelconnect.rkhs import build_rkhs
from kernelconnect.cpmaps import random_unital_cpmap


@pytest.fixture
def choi_csv(tmp_path):
    psi = random_unital_cpmap(3, 2, 4, np.random.default_rng(0))
    path = tmp_path / "choi.csv"
    path.write_text(matrix_to_csv_text(psi.choi))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kernel_spec_round_trips_to_canonical_string():
    for spec in ("bergman-disk:nu=2", "bergman-halfplane:nu=1", "fock:dim=3"):
        assert parse_kernel_spec(spec).name == spec


@settings(max_examples=100, deadline=None, derandomize=True)
@given(nu=st.floats(min_value=1.0, allow_nan=False, allow_infinity=False))
def test_kernel_name_keeps_nu_exactly(nu):
    families = ("bergman-disk", "bergman-halfplane") if nu < 1024 else ("bergman-disk",)
    for family in families:
        name = parse_kernel_spec(f"{family}:nu={nu!r}").name
        assert float(name.partition(":nu=")[2]) == nu


# one spec and one point of its domain per family of KERNEL_SPEC_GRAMMAR
SPEC_EXAMPLES = {
    "bergman-disk": ("bergman-disk:nu=2", "0.5"),
    "bergman-halfplane": ("bergman-halfplane:nu=1", "1i"),
    "fock": ("fock:dim=2", "0.5,0.1i"),
}


def test_every_grammar_family_evaluates_through_kernel_eval(capsys):
    alternatives = KERNEL_SPEC_GRAMMAR.partition(": ")[2].split("|")
    assert [alt.strip().partition(":")[0] for alt in alternatives] == list(SPEC_EXAMPLES)
    for spec, point in SPEC_EXAMPLES.values():
        code, out, _ = run_cli(capsys, "kernel", "eval", "--kernel", spec, "--point", point)
        assert code == 0
        assert json.loads(out)["kernel"] == spec


@pytest.mark.parametrize("spec", ["universal:n=4,k=2", "cp:{choi}", "cp:{choi},n=3"])
def test_point_free_families_are_not_kernel_specs(capsys, choi_csv, spec):
    code, out, err = run_cli(capsys, "kernel", "eval", "--kernel", spec.format(choi=choi_csv),
                             "--point", "1")
    assert code == 2 and out == ""
    assert "unknown kernel spec" in err and KERNEL_SPEC_GRAMMAR in err


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


@pytest.mark.parametrize("command", ["gram", "universality"])
def test_rkhs_reports_the_grams_condition_number_from_its_certificate(capsys, command):
    argv = ["rkhs", command, "--kernel", "bergman-disk:nu=2", "--points", "0;0.5;-0.5"]
    code, out, _ = run_cli(capsys, *argv, *(["--format", "json"] if command == "gram" else []))
    rep = json.loads(out)
    pts = [np.array([0.0]), np.array([0.5]), np.array([-0.5])]
    gram = build_rkhs(make_bergman_disk(2), pts).gram
    values = hermitian_eigh(gram)[0]
    assert code == 0 and rep["min_eig"] == positivity_certificate(gram)[1] == values[0]
    assert rep["condition_number"] == values[-1] / values[0]
    assert _spectrum_json(SimpleNamespace(eigenvalues=np.array([-1e-15, 2.0]))) == {
        "min_eig": -1e-15, "condition_number": None}


def test_connect_covderiv_reports_three_backends(capsys):
    code, out, _ = run_cli(capsys, "connect", "covderiv",
                           "--kernel", "bergman-disk:nu=2",
                           "--point", "0.5", "--direction", "1")
    assert code == 0
    rep = json.loads(out)
    for key in ("closed", "direct", "sampled", "max_disagreement"):
        assert key in rep
    assert rep["max_disagreement"] < 1e-6


@pytest.mark.parametrize("point", ["0.95", "0.97", "0.99", "0.999"])
def test_connect_covderiv_agrees_near_the_unit_circle(capsys, point):
    code, out, _ = run_cli(capsys, "connect", "covderiv", "--kernel", "bergman-disk:nu=2",
                           "--point", point, "--direction", "1")
    assert code == 0
    assert json.loads(out)["max_disagreement"] < 1e-6


@pytest.mark.parametrize("point", ["0.3+0.01i", "0.3+0.001i"])
def test_connect_covderiv_agrees_near_the_real_axis(capsys, point):
    code, out, _ = run_cli(capsys, "connect", "covderiv", "--kernel", "bergman-halfplane:nu=2",
                           "--point", point, "--direction", "1")
    assert code == 0
    assert json.loads(out)["max_disagreement"] < 1e-6


def test_connect_covderiv_near_the_circle_keeps_its_stencil_inside(capsys):
    # the stencil step shrinks with the distance to the circle: no point leaves the disk
    code, out, err = run_cli(capsys, "connect", "covderiv", "--kernel", "bergman-disk:nu=2",
                             "--point", "0.9999", "--direction", "1")
    assert err == "" and json.loads(out)["max_disagreement"] < 1e-5
    assert code == 0


def test_connect_covderiv_judges_the_spread_relative_to_the_derivative(capsys):
    # at |s| = 0.9999 the value is about 1e4 and the spread about 2.4e-6: 2.4e-10 relative
    argv = ("connect", "covderiv", "--kernel", "bergman-disk:nu=2", "--point", "0.9999",
            "--direction", "1")
    code, out, _ = run_cli(capsys, *argv, "--tol", "1e-9")
    rep = json.loads(out)
    scale = max(abs(parse_complex(rep[b][0])) for b in ("closed", "direct", "sampled"))
    # the absolute rule would fail it; the relative rule passes it
    assert code == 0 and 1e-9 < rep["max_disagreement"] < 1e-9 * scale
    assert run_cli(capsys, *argv, "--tol", "1e-11")[0] == 1


@pytest.mark.parametrize("direction, value", [("0", 0.0), ("1e-9", 4e-9 / 3), ("1e-300", 0.0)])
def test_connect_covderiv_takes_a_zero_or_tiny_direction(capsys, direction, value):
    code, out, _ = run_cli(capsys, "connect", "covderiv", "--kernel", "bergman-disk:nu=2",
                           "--point", "0.5", "--direction", direction)
    assert code == 0
    rep = json.loads(out)
    for backend in ("closed", "direct", "sampled"):
        assert abs(parse_complex(rep[backend][0]) - value) < 1e-11


@pytest.mark.parametrize("argv, flag, literal", [
    (("connect", "transport", "--kernel", "bergman-disk:nu=1", "--start", "0"),
     "--end", "-0.4+0.3i"),
    (("connect", "covderiv", "--kernel", "bergman-disk:nu=2", "--point", "0.5"),
     "--direction", "-1-0.5i"),
])
def test_negative_literal_reads_as_a_value(capsys, argv, flag, literal):
    joined = run_cli(capsys, *argv, f"{flag}={literal}")
    split = run_cli(capsys, *argv, flag, literal)
    assert joined[0] == 0 and split == joined
    code, out, err = run_cli(capsys, *argv, flag, literal.replace("i", "j"))
    assert code == 2 and out == "" and "complex literal" in err


def test_connect_transport_reports_the_drift_of_the_metric(capsys):
    # exact transport keeps v* kappa(s,s) v: 1 at s = 0, and 0.75 * (4/3) at s = 0.5
    code, out, _ = run_cli(capsys, "connect", "transport", "--kernel", "bergman-disk:nu=1",
                           "--start", "0", "--end", "0.5", "--steps", "256")
    assert code == 0
    assert 0 <= json.loads(out)["metric_drift"] < 1e-12


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


@pytest.mark.parametrize("end, steps, verdict", [
    (0.5, 256, 0),  # the README example, where RK4 is in its asymptotic range
    (0.9999, 512, 1),  # near the circle the ladder converges slower than RK4's rate
])
def test_connect_transport_error_estimate_tracks_exact_error(capsys, end, steps, verdict):
    # on the nu=1 disk, transport from 0 to r carries 1 to sqrt(1 - r^2) exactly
    code, out, _ = run_cli(capsys, "connect", "transport", "--kernel", "bergman-disk:nu=1",
                           "--start", "0", "--end", str(end), "--steps", str(steps),
                           "--tol", "0.01")
    assert code == verdict
    rep = json.loads(out)
    exact_error = abs(complex(rep["vector"][0].replace("i", "j")) - np.sqrt(1 - end**2))
    estimate = rep["convergence"][-1]["error"]
    assert rep["convergence"][-1]["steps"] == steps
    assert exact_error / 2 < estimate < 2 * exact_error


def _transport_one_jet_per_rung(k, curve, v0, rungs):
    """connections._transport as separate runs, each rung integrated from its own jet."""
    runs = [connections._transport(k, curve, v0, [n]) for n in rungs]
    return [v for (v,), _ in runs], runs[0][1]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("steps", ["1", "3", "100", "257", "512"])
@pytest.mark.parametrize("spec, start, end", [
    ("bergman-disk:nu=1", "0", "0.5"),
    ("fock:dim=2", "0.1,0.2i", "-0.5+0.3i,0.4"),
])
def test_connect_transport_reads_one_jet_for_its_whole_ladder(capsys, monkeypatch, spec, start,
                                                              end, steps, fmt):
    # the rungs' nodes j / (2n) are members of their union bit for bit, so one jet at the union
    # gives the bytes of one jet per rung; at --steps 1 and 100 the rungs do not nest
    argv = ["connect", "transport", "--kernel", spec, "--start", start, "--end", end,
            "--steps", steps, "--format", fmt]
    jets, jet = [], Kernel.diagonal_jet
    monkeypatch.setattr(Kernel, "diagonal_jet",
                        lambda self, *a, **kw: jets.append(a) or jet(self, *a, **kw))
    one_jet = run_cli(capsys, *argv)
    assert len(jets) == 1
    monkeypatch.setattr(cli, "_transport", _transport_one_jet_per_rung)
    assert run_cli(capsys, *argv) == one_jet


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


@pytest.mark.parametrize("argv, message", [
    (["kernel", "eval", "--kernel", "bergman-disk:nu=2", "--point", "1.5"], "unit circle"),
    (["kernel", "eval", "--kernel", "fock:dim=2", "--point", "0"], "expected dimension 2"),
    (["kernel", "eval", "--kernel", "bergman-disk:nu=2", "--point", "0",
      "--point2", "2"], "unit circle"),
    (["kernel", "gram", "--kernel", "bergman-halfplane:nu=1", "--points", "1i;-1i"],
     "must be positive"),
    (["rkhs", "universality", "--kernel", "fock:dim=2", "--points", "0,0;1"],
     "expected dimension 2"),
    (["connect", "covderiv", "--kernel", "fock:dim=2", "--point", "0,0",
      "--direction", "1"], "tangent dimension"),
    (["connect", "transport", "--kernel", "bergman-disk:nu=1", "--start", "0",
      "--end", "1.5"], "unit circle"),
    (["connect", "transport", "--kernel", "bergman-disk:nu=1", "--start", "0",
      "--end", "0.5", "--vector", "1,1"], "--vector must have 1 entries"),
    (["grassmann", "verify", "--probes", "0"], "--probes must be >= 1"),
    (["connect", "covderiv", "--kernel", "bergman-disk:nu=2", "--point", "0.5",
      "--direction", "1", "--tol", "inf"], "tolerance must be finite and > 0"),
    (["connect", "covderiv", "--kernel", "bergman-disk:nu=2", "--point", "0.5",
      "--direction", "1", "--tol", "nan"], "tolerance must be finite and > 0"),
    (["kernel", "gram", "--kernel", "bergman-disk:nu=2", "--points", "0;0.5", "--tol", "-1"],
     "tolerance must be finite and > 0"),
    (["connect", "transport", "--kernel", "bergman-disk:nu=1", "--start", "0",
      "--end", "0.5", "--tol", "0"], "tolerance must be finite and > 0"),
    (["verify", "all", "--seed", "-1"], "--seed must be >= 0"),
    (["grassmann", "verify", "--seed", "-10"], "--seed must be >= 0"),
    (["kernel", "gram", "--kernel", "bergman-disk:nu=2", "--points", ";"],
     "--points needs at least one point"),
    (["rkhs", "gram", "--kernel", "bergman-disk:nu=2", "--points", ";"],
     "--points needs at least one point"),
    (["rkhs", "universality", "--kernel", "bergman-disk:nu=2", "--points", " ; "],
     "--points needs at least one point"),
    # numpy's abs of an array puts |s| below the guard circle, the disk's edge distance does not
    (["connect", "covderiv", "--kernel", "bergman-disk:nu=2",
      "--point=-0.6631062061875492-0.7485239871350519i", "--direction", "1"], "unit circle"),
])
def test_bad_input_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("argv, message", [
    (["cp", "kernel", "--choi", "{choi}", "--seed", "-1"], "--seed must be >= 0"),
    (["cp", "covderiv", "--choi", "{choi}", "--seed", "-1"], "--seed must be >= 0"),
    (["cp", "dilate", "--choi", "{choi}", "--n", "0"], "n must be >= 1, got 0"),
    (["cp", "dilate", "--choi", "{choi}", "--n", "-1"], "n must be >= 1, got -1"),
])
def test_bad_cp_input_exits_2(capsys, choi_csv, argv, message):
    code, out, err = run_cli(capsys, *[a.format(choi=choi_csv) for a in argv])
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("text, n, code, message", [
    ("", None, 2, "empty CSV matrix"),
    ("1,0\n0\n", None, 2, "ragged CSV matrix"),
    ("1,x\n0,1\n", None, 2, "cannot parse complex literal 'x'"),
    ("1,0,0\n0,1,0\n", "1", 2, "Choi matrix is not square: shape (2, 3)"),
    ("-1,0\n0,1\n", "1", 1, "map is not CP"),  # a verdict on the map, not bad input
])
def test_a_choi_csv_that_is_no_square_matrix_exits_2(capsys, tmp_path, text, n, code, message):
    path = tmp_path / "choi.csv"
    path.write_text(text)
    argv = ["cp", "dilate", "--choi", str(path)] + (["--n", n] if n else [])
    exit_code, out, err = run_cli(capsys, *argv)
    assert exit_code == code and out == "" and message in err


def test_an_unwritable_output_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "verify", "kernels", "--output", str(path))
    assert code == 2 and out == "" and not path.exists()
    assert f"cannot write {str(path)!r}" in err


@pytest.mark.parametrize("spec, point", [
    ("bergman-disk:nu=1e300", "0.5"),
    ("bergman-halfplane:nu=200", "0.001i"),
    ("fock:dim=1", "30"),
])
def test_non_finite_kernel_value_exits_1(capsys, spec, point):
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_cli(capsys, "kernel", "eval", "--kernel", spec, "--point", point)
    assert code == 1 and out == ""
    assert "kernel value is not finite" in err


@pytest.mark.parametrize("argv", [
    ["kernel", "eval", "--kernel", "bergman-disk:nu=2", "--point", "0.5", "--tol", "1"],
    ["connect", "covderiv", "--kernel", "bergman-disk:nu=2", "--point", "0.5",
     "--direction", "1", "--format", "csv"],
])
def test_dropped_options_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_connect_transport_exits_1_when_its_own_table_shows_it_wrong(capsys):
    code, out, _ = run_cli(capsys, "connect", "transport", "--kernel", "bergman-disk:nu=1",
                           "--start", "0", "--end", "0.99999", "--steps", "4")
    assert code == 1
    rep = json.loads(out)
    assert rep["tolerance"] == 1e-6
    assert rep["convergence"][-1]["error"] >= rep["tolerance"]


def test_connect_transport_readme_example_passes(capsys):
    code, out, _ = run_cli(capsys, "connect", "transport", "--kernel", "bergman-disk:nu=1",
                           "--start", "0", "--end", "0.5", "--steps", "256")
    assert code == 0
    rep = json.loads(out)
    assert rep["convergence"][-1]["error"] < rep["tolerance"] == 1e-6


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


def test_verify_check_that_raises_exits_1(capsys, monkeypatch):
    def zero_fock(beta):
        dim = np.asarray(beta).shape[0]
        return Kernel(1, VectorDomain(dim), lambda s, t: np.zeros((1, 1)), name="zero")

    monkeypatch.setattr(verify, "make_fock", zero_fock)
    code, out, err = run_cli(capsys, "verify", "connections")
    assert code == 1 and out == ""
    assert "singular" in err


def test_verify_report_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", "kernels", "rkhs", "--seed", "42")
    _, out2, _ = run_cli(capsys, "verify", "kernels", "rkhs", "--seed", "42")
    assert out1 == out2


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "kernel", "eval", "--kernel", "fock:dim=2",
                           "--point", "0,0", "--output", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["kernel"] == "fock:dim=2"


def test_env_tolerance_is_not_read_by_commands_without_it(capsys, monkeypatch):
    monkeypatch.setenv("KERNEL_CONNECT_TOL", "abc")
    code, out, _ = run_cli(capsys, "verify", "kernels")
    assert code == 0 and json.loads(out)["passed"]


def test_non_finite_kernel_derivative_exits_1(capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_cli(capsys, "connect", "covderiv", "--kernel", "fock:dim=1",
                                 "--point", "26.6", "--direction", "1")
    assert code == 1 and out == ""
    assert "fock:dim=1: kernel derivative is not finite" in err
