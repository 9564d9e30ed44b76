"""Acceptance suite: every closed-form connection formula cross-checked
against independent numeric oracles at the pinned tolerances and runtimes.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import kernelconnect
from kernelconnect import verify
from kernelconnect.kernels import (
    VectorDomain,
    admissibility_report,
    make_bergman_disk,
    make_bergman_halfplane,
    make_fock,
    make_rank_one_kernel,
)

SEED = 42
# subprocesses import the same checkout as this process, with or without PYTHONPATH
SRC_ENV = {**os.environ,
           "PYTHONPATH": str(Path(kernelconnect.__file__).resolve().parent.parent)}


def _by_prefix(checks, prefix):
    out = [c for c in checks if c["name"].startswith(prefix)]
    assert out, f"no checks named {prefix}*"
    return out


def test_backend_agreement_on_all_builtin_kernels():
    # closed-form vs direct < 1e-8 and direct vs sampled < 1e-6 over
    # 50 probes per kernel (disk nu=1,2,3; half-plane nu=1,2; Fock on C^3)
    start = time.monotonic()
    checks = verify._backend_agreement_checks(SEED)
    elapsed = time.monotonic() - start
    assert len(_by_prefix(checks, "backend_agreement/closed_vs_direct")) == 6
    for c in checks:
        assert c["residual"] < c["tolerance"], c["name"]
    assert elapsed < 5.0


def test_fock_connection_form_is_inner_product_with_base_point():
    checks = verify._fock_form_check(SEED)
    assert all(c["residual"] < 1e-8 for c in checks)


def test_disk_sign_fixed_by_direct_oracle_and_flagged_in_report():
    checks = verify._disk_sign_checks(SEED)
    oracle = next(c for c in checks if c["name"] == "disk_sign/direct_oracle_value")
    assert oracle["residual"] < 1e-6  # direct derivative lands on +4/3
    grid = next(c for c in checks if "oracle_grid" in c["name"])
    assert grid["residual"] < grid["tolerance"]
    report = verify.run_suite(seed=SEED, modules=["kernels"])
    assert any("opposite sign" in note for note in report["notes"])


def test_universality_residual_on_every_builtin_kernel():
    start = time.monotonic()
    checks = verify._universality_checks(SEED)
    elapsed = time.monotonic() - start
    assert len(checks) == 4  # disk, half-plane, Fock, universal
    for c in checks:
        assert c["residual"] < 1e-8, c["name"]
    assert elapsed < 2.0


def test_degenerate_and_builtin_admissibility_reports():
    # both report numbers vanish together on the rank-1 degenerate kernel
    deg = make_rank_one_kernel(
        lambda s: np.array([1.0, complex(np.asarray(s).flat[0])]),
        fiber_dim=2, domain=VectorDomain(1, name="C"))
    pts = [np.array([z]) for z in (0.1, 0.4 - 0.2j, -0.3 + 0.1j, 0.25j)]
    rep = admissibility_report(deg, pts)
    assert abs(rep["min_sigma"]) < 1e-8
    assert abs(rep["embedding_lower_bound"]) < 1e-8
    # and both exceed 0.5 together on all built-ins
    rng = np.random.default_rng(SEED)
    builtins = [
        (make_bergman_disk(2), [np.array([z]) for z in (0.0, 0.4, 0.5j)]),
        (make_bergman_halfplane(1),
         [np.array([z]) for z in (0.4j, 0.3 + 0.4j, -0.2 + 0.35j)]),
        (make_fock(np.eye(2)),
         [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(4)]),
    ]
    for k, sample in builtins:
        rep = admissibility_report(k, sample)
        assert rep["min_sigma"] > 0.5, k.name
        assert rep["embedding_lower_bound"] > 0.5, k.name


def test_grassmann_three_way_agreement():
    start = time.monotonic()
    rep = verify.grassmann_agreement(4, 2, probes=20, seed=SEED)
    elapsed = time.monotonic() - start
    assert rep["three_way_residual"] < 1e-6
    assert rep["metric_compatibility_residual"] < 1e-6
    assert elapsed < 3.0


def test_homogeneous_bundle_formula_vs_generic_pipeline():
    checks = verify._homogeneous_checks(SEED)
    assert all(c["residual"] < 1e-6 for c in checks)


def test_stinespring_dilations_and_cp_connection():
    start = time.monotonic()
    checks = {c["name"]: c for c in verify._stinespring_checks(SEED)}
    elapsed = time.monotonic() - start
    assert checks["stinespring/isometry"]["residual"] < 1e-12
    assert checks["stinespring/dilation_identity"]["residual"] < 1e-10
    assert checks["stinespring/rank_equals_choi_rank"]["residual"] == 0.0
    assert checks["stinespring/pullback_identity"]["residual"] < 1e-10
    assert checks["stinespring/covariant_derivative_vs_generic"]["residual"] < 1e-6
    assert elapsed < 5.0


def test_leibniz_rule_on_every_backend_and_builtin():
    checks = verify._leibniz_checks(SEED)
    assert len(checks) == 9  # 3 kernels x 3 backends
    for c in checks:
        assert c["residual"] < 1e-6, c["name"]


@pytest.mark.parametrize("seed", [6, 11, 43, 57])
def test_leibniz_passes_at_seeds_with_probes_near_the_disk_boundary(seed):
    # at the default stencil step these seeds put |s| near 0.9 and fail
    for c in verify._leibniz_checks(seed):
        assert c["passed"], (c["name"], c["residual"])


def test_parallel_transport_convergence_order():
    _, slope = verify._transport_checks()
    assert slope >= 3.7


def test_reductive_axioms_on_block_unitaries():
    checks = verify._reductive_checks(SEED)
    assert all(c["residual"] < 1e-12 for c in checks)


def test_cli_verify_all_is_deterministic_and_green():
    cmd = [sys.executable, "-m", "kernelconnect", "verify", "all", "--seed", "42"]
    outputs = []
    for _ in range(2):
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=SRC_ENV)
        elapsed = time.monotonic() - start
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert elapsed < 30.0
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_import_does_not_load_scipy_integrate():
    code = "import kernelconnect, sys; assert 'scipy.integrate' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=SRC_ENV)
    assert proc.returncode == 0, proc.stderr
