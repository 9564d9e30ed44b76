"""The package's lazy attributes, and the modules that `import kernelconnect` and each CLI
command load: a command imports only the layers that it runs."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import kernelconnect
from kernelconnect.cpmaps import random_unital_cpmap
from kernelconnect.numerics import matrix_to_csv_text

SRC_ENV = {**os.environ,
           "PYTHONPATH": str(Path(kernelconnect.__file__).resolve().parent.parent)}

EXPORTS = {  # the package's public names, by the submodule that defines them
    "numerics": "DEFAULT_STEP DEFAULT_TOL NumericsError format_complex hermitian_eigh "
                "hermitian_solve matrix_from_csv_text matrix_to_csv_text parse_complex "
                "random_unitary read_matrix_csv",
    "kernels": "BundleMorphism DomainError Kernel UnitaryDomain VectorDomain admissibility_report "
               "feature_kernel gram_matrix make_bergman_disk make_bergman_halfplane make_fock "
               "positivity_certificate pull_back_kernel",
    "rkhs": "RKHSElement SampledRKHS build_rkhs evaluate_element project_fiber "
            "universality_residual",
    "connections": "ConnectionEvaluator Curve Section connection_form connection_forms "
                   "covariant_derivative_closed_form covariant_derivative_direct "
                   "gauge_pullback_connection intertwining_residual leibniz_residual "
                   "make_evaluator parallel_transport",
    "grassmann": "GrassDomain GrassTangent HermitianProjector conditional_expectation "
                 "coordinate_projector fiber_basis homogeneous_covariant_derivative "
                 "homogeneous_kernel maurer_cartan random_grass_tangent reductive_axioms_residual "
                 "reductive_covariant_derivative universal_covariant_derivative universal_kernel",
    "cpmaps": "CPMap StinespringTriple choi_from_kraus cp_classifying_morphism "
              "cp_covariant_derivative cp_kernel kraus_from_choi lambda_kernel "
              "pullback_identity_residual random_unital_cpmap stinespring_dilate verify_dilation",
    "verify": "MODULE_NAMES run_suite",
}
NAMES = {name: module for module, names in EXPORTS.items() for name in names.split()}
BASE = {"cli", "kernels", "numerics"}
ALL = {"cli", "kernels", "numerics", "rkhs", "connections", "grassmann", "cpmaps", "verify"}


def _loaded(code: str) -> set:
    """The kernelconnect submodules that a fresh interpreter holds after it runs code."""
    code += ("\nimport json, sys\nprint(json.dumps(sorted(m.partition('.')[2] for m in sys.modules"
             " if m.startswith('kernelconnect.'))))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=SRC_ENV)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_no_submodule():
    assert _loaded("import kernelconnect") == set()
    assert _loaded("import kernelconnect as kc; kc.MODULE_NAMES; kc.__version__; dir(kc)") == set()


def test_a_name_loads_the_module_that_defines_it_and_the_layers_below():
    assert _loaded("import kernelconnect as kc; kc.format_complex") == {"numerics"}
    assert _loaded("from kernelconnect import make_fock") == {"kernels", "numerics"}
    assert _loaded("import kernelconnect as kc; kc.Curve") == {"kernels", "numerics",
                                                                 "connections"}


@pytest.fixture(scope="module")
def choi_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("choi") / "choi.csv"
    path.write_text(matrix_to_csv_text(random_unital_cpmap(3, 2, 4, np.random.default_rng(0)).choi))
    return str(path)


@pytest.mark.parametrize("argv, modules", [
    (["kernel", "eval", "--kernel", "bergman-disk:nu=2", "--point", "0.1+0.2i"], BASE),
    (["kernel", "gram", "--kernel", "fock:dim=2", "--points", "0,0;0.1,0.2i", "--format", "csv"],
     BASE),
    (["rkhs", "gram", "--kernel", "bergman-disk:nu=2", "--points", "0;0.3"], BASE | {"rkhs"}),
    (["connect", "covderiv", "--kernel", "bergman-disk:nu=2", "--point", "0.5", "--direction",
      "1"], BASE | {"connections"}),
    (["connect", "transport", "--kernel", "bergman-disk:nu=1", "--start", "0", "--end", "0.5",
      "--steps", "8", "--tol", "0.1"], BASE | {"connections"}),
    (["cp", "kernel", "--choi", "CHOI", "--n", "3"], ALL - {"verify", "rkhs"}),
    (["grassmann", "verify", "--n", "3", "--k", "1", "--probes", "1"],
     BASE | {"connections", "grassmann"}),
    (["verify", "kernels"], ALL - {"rkhs"}),
])
def test_each_command_loads_only_the_layers_it_runs(choi_csv, argv, modules):
    argv = [choi_csv if a == "CHOI" else a for a in argv]
    code = f"from kernelconnect.cli import main\nassert main({argv!r}) == 0"
    assert _loaded(code) == modules


@pytest.mark.parametrize("argv, exit_code", [
    (["--help"], 0),
    (["rkhs", "gram", "--bogus"], 2),  # argparse rejects it
    (["rkhs", "universality"], 2),  # no such command
    (["verify", "bogus"], 2),  # the handler rejects it, before any layer runs
])
def test_help_and_usage_errors_load_only_cli_and_numerics(argv, exit_code):
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "kernelconnect", *argv],
                          capture_output=True, text=True, env=SRC_ENV)
    assert proc.returncode == exit_code, proc.stderr
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert {m for m in imported if m.startswith("kernelconnect.")} == {"kernelconnect.cli",
                                                                       "kernelconnect.numerics"}


def test_all_is_the_public_api_and_each_name_resolves():
    assert sorted(kernelconnect.__all__) == sorted(NAMES) and len(NAMES) == 70
    for name, module in NAMES.items():
        defined = getattr(import_module(f"kernelconnect.{module}"), name)
        assert getattr(kernelconnect, name) is defined
    assert set(NAMES) <= set(dir(kernelconnect))


def test_moved_names_keep_their_old_paths_and_identity():
    # grassmann_agreement lives beside the routes it compares, random_unitary beside the draws
    # of numerics; verify and cpmaps re-export them, and the package keeps its 70 names
    from kernelconnect import cpmaps, grassmann, numerics, verify

    assert verify.grassmann_agreement is grassmann.grassmann_agreement
    assert cpmaps.random_unitary is numerics.random_unitary is kernelconnect.random_unitary
    assert "grassmann_agreement" in verify.__all__ and "random_unitary" in cpmaps.__all__
    assert len(kernelconnect.__all__) == 70 and "grassmann_agreement" not in kernelconnect.__all__


def test_star_import_binds_the_public_names():
    scope = {}
    exec("from kernelconnect import *", scope)
    assert set(scope) - {"__builtins__"} == set(NAMES)


def test_submodules_resolve_lazily():
    code = ("import sys, kernelconnect as kc\n"
            "assert kc.grassmann is sys.modules['kernelconnect.grassmann']\n"
            "assert kc.verify is sys.modules['kernelconnect.verify']\n"
            "assert callable(kc.grassmann.grass_section_coordinates)\n"
            "assert callable(kc.verify.grassmann_agreement)\n"
            "from kernelconnect.verify import MODULE_NAMES\n"
            "assert MODULE_NAMES is kc.MODULE_NAMES\n")
    assert _loaded(code) == ALL - {"cli", "rkhs"}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        kernelconnect.no_such_name
    assert not hasattr(kernelconnect, "numpy")
    with pytest.raises(ImportError):
        exec("from kernelconnect import no_such_name", {})
