import json
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernelconnect import cli, connections, verify
from kernelconnect.cli import KERNEL_SPEC_GRAMMAR, main, parse_kernel_spec
from kernelconnect.kernels import Kernel, VectorDomain, make_bergman_disk, positivity_certificate
from kernelconnect.kernels import _psd_spectra
from kernelconnect.numerics import (
    format_complex,
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


def test_a_tab_after_the_sign_reads_as_the_literal_without_it(capsys, tmp_path, choi_csv):
    point = ["kernel", "eval", "--kernel", "bergman-disk:nu=2", "--point"]
    tabbed = run_cli(capsys, *point, "0.1+\t0.2i")
    assert tabbed[0] == 0 and tabbed == run_cli(capsys, *point, "0.1+0.2i")
    path = tmp_path / "tabbed.csv"
    path.write_text(re.sub(r"(?<=\d)([+-])", "\\1\t", open(choi_csv).read()))
    assert "\t" in path.read_text()
    dilate = ["cp", "dilate", "--n", "3", "--choi"]
    tabbed = run_cli(capsys, *dilate, str(path))
    assert tabbed[0] == 0 and tabbed == run_cli(capsys, *dilate, choi_csv)


def test_kernel_gram_csv(capsys):
    code, out, _ = run_cli(capsys, "kernel", "gram", "--kernel", "bergman-disk:nu=2",
                           "--points", "0;0.5;-0.5", "--format", "csv")
    assert code == 0
    assert matrix_from_csv_text(out).shape == (3, 3)


def test_rkhs_universality_is_no_command(capsys):
    # its fiber-projection identity held for any invertible diagonal blocks, so it tested no kernel
    with pytest.raises(SystemExit) as exc:
        main(["rkhs", "universality", "--kernel", "fock:dim=2", "--points", "0,0;0.5,0.1i"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "universality" in err


def test_rkhs_gram_reports_the_grams_condition_number_from_its_certificate(capsys):
    argv = ["rkhs", "gram", "--kernel", "bergman-disk:nu=2", "--points", "0;0.5;-0.5",
            "--format", "json"]
    code, out, _ = run_cli(capsys, *argv)
    rep = json.loads(out)
    pts = [np.array([0.0]), np.array([0.5]), np.array([-0.5])]
    gram = build_rkhs(make_bergman_disk(2), pts).gram
    values = _psd_spectra(gram[None])[0][0]  # the certificate's spectrum, from eigenvalues alone
    assert code == 0 and rep["min_eig"] == positivity_certificate(gram)[1] == values[0]
    assert rep["condition_number"] == values[-1] / values[0]
    full = hermitian_eigh(gram)[0]
    assert np.abs(values - full).max() <= 1e-13 * max(1.0, np.abs(full).max())


def test_rkhs_gram_reports_no_condition_number_when_its_smallest_eigenvalue_is_not_positive(
        capsys, monkeypatch):
    monkeypatch.setattr(cli.kc, "build_rkhs", lambda k, pts: SimpleNamespace(
        kernel=k, gram=np.eye(2), eigenvalues=np.array([-1e-15, 2.0])))
    code, out, _ = run_cli(capsys, "rkhs", "gram", "--kernel", "bergman-disk:nu=2",
                           "--points", "0;0.5", "--format", "json")
    rep = json.loads(out)
    assert code == 0 and (rep["min_eig"], rep["condition_number"]) == (-1e-15, None)


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


@pytest.mark.parametrize("direction, value", [("0", 0.0), ("1e-9", 4e-9 / 3), ("1e-300", 0.0),
                                              ("1e-320", 0.0)])
def test_connect_covderiv_takes_a_zero_or_tiny_direction(capsys, direction, value):
    code, out, _ = run_cli(capsys, "connect", "covderiv", "--kernel", "bergman-disk:nu=2",
                           "--point", "0.5", "--direction", direction)
    assert code == 0
    rep = json.loads(out)
    for backend in ("closed", "direct", "sampled"):
        assert abs(parse_complex(rep[backend][0]) - value) < 1e-11


def test_connect_covderiv_takes_a_long_direction_without_overflow(capsys):
    # the three values are about 1.3e200: their norms must not square them
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "connect", "covderiv", "--kernel", "bergman-disk:nu=2",
                                 "--point", "0.5", "--direction", "1e200")
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert 0 < rep["max_disagreement"] < 1e-6 * abs(parse_complex(rep["closed"][0]))


def test_connect_covderiv_names_a_direction_that_overflows_the_stencil_weights(capsys):
    code, _, err = run_cli(capsys, "connect", "covderiv", "--kernel", "bergman-disk:nu=2",
                           "--point", "0.5", "--direction", "1e305")
    assert code == 1 and "overflows the stencil weights" in err


@pytest.mark.parametrize("argv, flag, literal", [
    (("connect", "transport", "--kernel", "bergman-disk:nu=1", "--start", "0"),
     "--end", "-0.4+0.3i"),
    (("connect", "covderiv", "--kernel", "bergman-disk:nu=2", "--point", "0.5"),
     "--direction", "-1-0.5i"),
    (("kernel", "eval", "--kernel", "bergman-disk:nu=2"), "--point", "-0.4+0.3i"),
    (("kernel", "eval", "--kernel", "bergman-disk:nu=2", "--point", "0.1"),
     "--point2", "-0.4-0.3i"),
    (("kernel", "gram", "--kernel", "bergman-disk:nu=2"), "--points", "-0.4+0.3i;0.2"),
    (("connect", "transport", "--kernel", "bergman-disk:nu=1", "--end", "0.5"),
     "--start", "-0.4+0.3i"),
    (("connect", "transport", "--kernel", "bergman-disk:nu=1", "--start", "0", "--end", "0.5"),
     "--vector", "-1+0.5i"),
])
def test_negative_literal_reads_as_a_value(capsys, argv, flag, literal):
    joined = run_cli(capsys, *argv, f"{flag}={literal}")
    split = run_cli(capsys, *argv, flag, literal)
    assert joined[0] == 0 and split == joined
    code, out, err = run_cli(capsys, *argv, flag, literal.replace("i", "j"))
    assert code == 2 and out == "" and "complex literal" in err


# each leaf command, with its required options, and its parsed defaults: the handler's name and
# whichever of these options the command has
_PINNED = ("tol", "format", "seed", "steps", "n", "k", "probes", "section")
LEAF_DEFAULTS = {
    "kernel eval --kernel k --point 0": {"fn": "_cmd_kernel_eval", "format": "json"},
    "kernel gram --kernel k --points 0": {"fn": "_cmd_kernel_gram", "tol": 1e-9,
                                          "format": "json"},
    "rkhs gram --kernel k --points 0": {"fn": "_cmd_rkhs_gram", "format": "csv"},
    "connect covderiv --kernel k --point 0 --direction 1": {
        "fn": "_cmd_connect_covderiv", "tol": 1e-6, "section": "constant"},
    "connect transport --kernel k --start 0 --end 1": {
        "fn": "_cmd_connect_transport", "tol": 1e-6, "format": "json", "steps": 256},
    "grassmann verify": {"fn": "_cmd_grassmann_verify", "tol": 1e-6, "seed": 42, "n": 4, "k": 2,
                         "probes": 20},
    "cp dilate --choi c": {"fn": "_cmd_cp_dilate", "tol": 1e-10, "format": "json", "n": None},
    "cp kernel --choi c": {"fn": "_cmd_cp_kernel", "format": "json", "seed": 42, "n": None},
    "cp covderiv --choi c": {"fn": "_cmd_cp_covderiv", "tol": 1e-6, "seed": 42, "n": None},
    "verify": {"fn": "_cmd_verify", "seed": 42},
}


def test_each_leaf_command_parses_to_its_pinned_defaults():
    parsed = {}
    for argv in LEAF_DEFAULTS:
        args = vars(cli.build_parser().parse_args(argv.split()))
        parsed[argv] = {"fn": args["fn"].__name__, **{k: args[k] for k in _PINNED if k in args}}
    assert parsed == LEAF_DEFAULTS


def test_json_matrices_hold_format_complex_of_each_entry():
    edge = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, -1.5]
    m = np.array([[complex(a, b) for b in edge] for a in edge])
    for a in (m, m.T, m[:1], m[:, :1], m[1::3, ::2], m.real):
        assert cli._matrix_json(a) == [[format_complex(z) for z in row] for row in a]
        assert cli._vector_json(a[-1]) == [format_complex(z) for z in a[-1]]
    assert cli._vector_json(complex(-0.0, 5e-324)) == ["-0+4.9406564584124654e-324i"]


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
    _, out, _ = run_cli(capsys, "connect", "transport", "--kernel", "bergman-disk:nu=1",
                        "--start", "0", "--end", "0.5", "--steps", "64")
    assert lines[0].split(",") == json.loads(out)["vector"]


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


def _transport_without_batch(k, curve, v0, steps, transport=connections._transport):
    """connections._transport restated: parallel_transport's vector on the curve without its batch,
    node by node, and kappa(s, s) at the two ends from a jet of those two nodes alone."""
    ends = [0.0, 1.0]
    plain = connections.Curve(gamma=curve.gamma, velocity=curve.velocity)
    return (transport(k, plain, v0, steps)[0],
            k.diagonal_jet(list(map(curve.gamma, ends)), list(map(curve.velocity, ends)))[0])


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("steps, rungs", [
    ("1", (1, 2)), ("3", (1, 3)), ("100", (12, 25, 50, 100)), ("257", (32, 64, 128, 257)),
    ("512", (64, 128, 256, 512)),
])
@pytest.mark.parametrize("spec, start, end", [
    ("bergman-disk:nu=1", "0", "0.5"),
    ("fock:dim=2", "0.1,0.2i", "-0.5+0.3i,0.4"),
])
def test_connect_transport_reads_one_jet_per_rung(capsys, monkeypatch, spec, start, end, steps,
                                                  rungs, fmt):
    # each rung of n steps reads one jet of its own 2n + 1 nodes j / (2n), in ascending order;
    # --steps 1 borrows a 2-step rung; the bytes are those of transport without the curve's batch
    argv = ["connect", "transport", "--kernel", spec, "--start", start, "--end", end,
            "--steps", steps, "--format", fmt]
    jets, jet = [], Kernel.diagonal_jet
    monkeypatch.setattr(Kernel, "diagonal_jet",
                        lambda self, *a, **kw: jets.append(a) or jet(self, *a, **kw))
    batched = run_cli(capsys, *argv)
    assert [len(points) for points, _ in jets] == [2 * n + 1 for n in rungs]
    monkeypatch.setattr(connections, "_transport", _transport_without_batch)
    assert run_cli(capsys, *argv) == batched


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
    (["rkhs", "gram", "--kernel", "fock:dim=2", "--points", "0,0;1"], "expected dimension 2"),
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
    (["rkhs", "gram", "--kernel", "bergman-disk:nu=2", "--points", " ; "],
     "--points needs at least one point"),
    # coinciding sample points (within 1e-12) are bad input to rkhs gram
    (["rkhs", "gram", "--kernel", "bergman-disk:nu=2", "--points", "0.1;0.1"],
     "duplicate sample points at indices 0 and 1"),
    (["rkhs", "gram", "--kernel", "bergman-disk:nu=2", "--points", "0.3;0.1;0.1+0.0000000000001i"],
     "duplicate sample points at indices 1 and 2"),
    # any ASCII whitespace may follow the sign; float() alone would reject the tab
    (["kernel", "eval", "--kernel", "bergman-disk:nu=2", "--point", "1.5+\t0i"], "unit circle"),
    (["kernel", "gram", "--kernel", "bergman-disk:nu=2", "--points", "0.1+\t0.2i;0;1+\t0i"],
     "unit circle"),
    (["kernel", "eval", "--kernel", "bergman-disk:nu=2", "--point", "0.1+\u00a00.2i"],
     "complex literal"),
    # the digits are ASCII: float() reads Arabic-Indic ones, the literal grammar does not
    (["kernel", "eval", "--kernel", "bergman-disk:nu=2", "--point", "\u0660.\u0665"],
     "complex literal"),
    # a spec sets exactly its family's fields, each once
    (["kernel", "eval", "--kernel", "bergman-disk:nu=2,mu=3", "--point", "0.1"],
     f"must set exactly nu, each once as field=value; {KERNEL_SPEC_GRAMMAR}"),
    (["kernel", "eval", "--kernel", "bergman-disk:nu=2,nu=3", "--point", "0.1"],
     f"must set exactly nu, each once as field=value; {KERNEL_SPEC_GRAMMAR}"),
    # a Fock kernel needs a coordinate: dim=0 is a spec error, as a negative dim is
    (["kernel", "eval", "--kernel", "fock:dim=0", "--point", "0"],
     f"'fock:dim=0': beta must be a non-empty square matrix, got shape (0, 0); "
     f"{KERNEL_SPEC_GRAMMAR}"),
    (["kernel", "eval", "--kernel", "fock:dim=-1", "--point", "0"],
     "cannot parse kernel spec 'fock:dim=-1'"),
    # numpy's abs of an array puts |s| below the guard circle, the disk's edge distance does not
    (["connect", "covderiv", "--kernel", "bergman-disk:nu=2",
      "--point=-0.6631062061875492-0.7485239871350519i", "--direction", "1"], "unit circle"),
])
def test_bad_input_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


_TRANSPORT = ["connect", "transport", "--kernel", "bergman-disk:nu=1", "--start", "0",
              "--end", "0.5"]


# one past each size limit: before the limits each of these ran, bounded by the host memory alone
@pytest.mark.parametrize("argv, message", [
    (["kernel", "eval", "--kernel", "fock:dim=17", "--point", ",".join(["0"] * 17)],
     "cannot parse kernel spec 'fock:dim=17': fock:dim must be at most 16, got 17"),
    (_TRANSPORT + ["--steps", "32769"], "--steps must be at most 32768, got 32769"),
    (["grassmann", "verify", "--n", "65", "--k", "1", "--probes", "1"],
     "--n must be at most 64, got 65"),
    (["grassmann", "verify", "--probes", "257"], "--probes must be at most 256, got 257"),
    (["kernel", "gram", "--kernel", "bergman-disk:nu=2", "--points", ";".join(["0.1"] * 1025)],
     "--points must be at most 1024, got 1025"),
    (["rkhs", "gram", "--kernel", "bergman-disk:nu=2", "--points", ";".join(["0.1"] * 1025)],
     "--points must be at most 1024, got 1025"),
    (["rkhs", "gram", "--kernel", "bergman-disk:nu=2",
      "--points", ";".join(["0.1"] * 1025) + ";;"], "--points must be at most 1024, got 1025"),
])
def test_a_size_one_past_its_limit_exits_2_naming_the_option_and_its_limit(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("argv", [
    ["kernel", "eval", "--kernel", "fock:dim=16", "--point", ",".join(["0"] * 16)],
    _TRANSPORT + ["--steps", "32768"],
    ["grassmann", "verify", "--n", "64", "--k", "1", "--probes", "1"],
    ["grassmann", "verify", "--probes", "256"],
])
def test_a_size_at_its_limit_is_taken(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out


# each leaf command with the options that it requires, and verify
_LEAVES = {
    ("kernel", "eval"): ["--kernel", "bergman-disk:nu=2", "--point", "0.1"],
    ("kernel", "gram"): ["--kernel", "bergman-disk:nu=2", "--points", "0.1"],
    ("rkhs", "gram"): ["--kernel", "bergman-disk:nu=2", "--points", "0.1"],
    ("connect", "covderiv"): ["--kernel", "bergman-disk:nu=2", "--point", "0.1",
                              "--direction", "1"],
    ("connect", "transport"): _TRANSPORT[2:],
    ("grassmann", "verify"): [],
    ("cp", "dilate"): ["--choi", "{choi}"],
    ("cp", "kernel"): ["--choi", "{choi}"],
    ("cp", "covderiv"): ["--choi", "{choi}"],
    ("verify",): [],
}


def _one_past_each_declared_bound() -> list:
    """(argv, message) one past each "min" and "max" of an option in cli._COMMANDS, and of the
    verify parser: a count of points for --points, an integer otherwise."""
    tables = {(command, name): options for command, (_, leaves) in cli._COMMANDS.items()
              for name, (*_, options) in leaves.items()}
    assert set(tables) | {("verify",)} == set(_LEAVES)
    parsed = cli.build_parser().parse_args(["verify"])
    tables[("verify",)] = {o: {"min": lo, "max": hi} for o, (lo, hi) in parsed.limits.items()}
    assert tables[("verify",)]
    cases = []
    for leaf, options in tables.items():
        for option, keywords in options.items():
            for bound, past, words in (("min", -1, "must be >="), ("max", 1, "must be at most")):
                if keywords.get(bound) is None:
                    continue
                value = keywords[bound] + past
                text = ";".join(["0.1"] * value) if option == "--points" else str(value)
                base = _LEAVES[leaf]  # a required option's value is replaced, not repeated
                i = base.index(option) if option in base else len(base)
                argv = [*leaf, *base[:i], option, text, *base[i + 2:]]
                cases.append((argv, f"{option} {words} {keywords[bound]}, got {value}"))
    return cases


_BOUND_CASES = _one_past_each_declared_bound()


@pytest.mark.parametrize("argv, message", _BOUND_CASES,
                         ids=[f"{argv[0]} {argv[1]}: {message}" for argv, message in _BOUND_CASES])
def test_one_past_each_declared_bound_exits_2_naming_the_option_and_the_bound(
        capsys, choi_csv, argv, message):
    code, out, err = run_cli(capsys, *[a.format(choi=choi_csv) for a in argv])
    assert code == 2 and out == ""
    assert f"error: {message}" in err


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
    ("1+\t0i,0\n0,1+\t\u0660i\n", None, 2, "cannot parse complex literal '1+\\t\u0660i'"),
    ("1+\t0i,0,0\n0,1-\t0i,0\n", "1", 2, "Choi matrix is not square: shape (2, 3)"),
    ("1,0,0\n0,1,0\n", "1", 2, "Choi matrix is not square: shape (2, 3)"),
    ("-1,0\n0,1\n", "1", 1, "map is not CP"),  # a verdict on the map, not bad input
])
def test_a_choi_csv_that_is_no_square_matrix_exits_2(capsys, tmp_path, text, n, code, message):
    path = tmp_path / "choi.csv"
    path.write_text(text)
    argv = ["cp", "dilate", "--choi", str(path)] + (["--n", n] if n else [])
    exit_code, out, err = run_cli(capsys, *argv)
    assert exit_code == code and out == "" and message in err


@pytest.mark.parametrize("command", ["dilate", "kernel", "covderiv"])
def test_a_choi_csv_that_is_not_hermitian_exits_1(capsys, tmp_path, command):
    # C + 0.3 (E_01 - E_10) has C's Hermitian part, which alone was decomposed: a map, exit 0
    c = random_unital_cpmap(2, 2, 2, np.random.default_rng(0)).choi.copy()
    c[0, 1] += 0.3
    c[1, 0] -= 0.3
    path = tmp_path / "choi.csv"
    path.write_text(matrix_to_csv_text(c))
    code, out, err = run_cli(capsys, "cp", command, "--choi", str(path))
    assert code == 1 and out == ""
    assert "Choi matrix is not Hermitian (||C - C*|| / max(1, ||C||) = " in err


@pytest.mark.parametrize("command", ["dilate", "kernel", "covderiv"])
def test_a_choi_csv_whose_unitality_residual_overflows_exits_1_without_a_runtime_warning(
        capsys, tmp_path, command):
    # 1e154 I: under -W error::RuntimeWarning dilate and kernel escaped with numpy's overflow
    # warning from the residual's norm, before the unitality check could name it
    path = tmp_path / "choi.csv"
    path.write_text(matrix_to_csv_text(1e154 * np.eye(4)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "cp", command, "--choi", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: map is not unital (||sum K K* - I|| = inf); ")


@pytest.mark.parametrize("command", ["dilate", "kernel", "covderiv"])
def test_a_choi_csv_one_past_its_size_limit_exits_2_and_one_at_it_is_taken(
        capsys, tmp_path, command):
    # the 49 x 49 Choi matrix of a unital map M_7 -> M_7: before the limit each command ran it
    for size, (n, m) in ((49, (7, 7)), (48, (1, 48))):
        path = tmp_path / f"choi-{size}.csv"
        path.write_text(matrix_to_csv_text(
            random_unital_cpmap(n, m, n * m, np.random.default_rng(size)).choi))
        code, out, err = run_cli(capsys, "cp", command, "--choi", str(path), "--n", str(n))
        if size == 49:
            assert code == 2 and out == ""
            assert "error: --choi size must be at most 48, got 49" in err
        else:
            assert code == 0 and out


def test_rkhs_gram_exits_1_on_a_gram_that_is_not_psd_and_kernel_gram_takes_repeats(
        capsys, monkeypatch):
    # kappa(s,t) = s + conj(t) is Hermitian-symmetric but indefinite: a verdict, not bad input
    bad = Kernel(1, VectorDomain(1, name="C"),
                 lambda s, t: np.array([[complex(s[0]) + np.conj(complex(t[0]))]]))
    monkeypatch.setattr(cli, "parse_kernel_spec", lambda spec: bad)
    code, out, err = run_cli(capsys, "rkhs", "gram", "--kernel", "x", "--points", "1;-1;2")
    assert code == 1 and out == "" and "Gram matrix is not PSD" in err
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "kernel", "gram", "--kernel", "bergman-disk:nu=2",
                           "--points", "0.1;0.1")
    assert code == 0 and json.loads(out)["is_psd"]


def test_a_memory_error_in_a_handler_exits_1_with_one_error_line(capsys, monkeypatch):
    # numpy's "Unable to allocate" is a MemoryError; raised here, no allocation is made
    message = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"

    def unable(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli.kc, "make_evaluator", unable)
    code, out, err = run_cli(capsys, "connect", "covderiv", "--kernel", "bergman-disk:nu=2",
                             "--point", "0.3", "--direction", "1")
    assert (code, out, err) == (1, "", f"error: {message}\n")


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


@pytest.mark.parametrize("argv, message", [
    (("connect", "covderiv", "--kernel", "bergman-disk:nu=3", "--point", "0.9999",
      "--direction", "1e296"), "bergman-disk:nu=3: kernel derivative is not finite"),
    (("kernel", "eval", "--kernel", "fock:dim=1", "--point", "30"),
     "fock:dim=1: kernel value is not finite"),
], ids=["covderiv", "kernel-eval"])
def test_an_overflow_exits_1_without_a_runtime_warning(capsys, argv, message):
    # under -W error::RuntimeWarning numpy's overflow warning escaped as a traceback, before the
    # library's finiteness check could name the value
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and err == f"error: {message}\n"
