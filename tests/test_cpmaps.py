import numpy as np
import pytest

from kernelconnect import cpmaps
from kernelconnect.connections import Section, covariant_derivative_direct
from kernelconnect.cpmaps import (
    CPMap,
    choi_from_kraus,
    cp_covariant_derivative,
    cp_kernel,
    kraus_from_choi,
    lambda_kernel,
    pullback_identity_residual,
    random_unital_cpmap,
    random_unitary,
    stinespring_dilate,
    verify_dilation,
)
from kernelconnect.grassmann import fiber_basis
from kernelconnect.kernels import DomainError
from kernelconnect.numerics import NumericsError


def _example_map(seed=0, n=3, m=2, r=4):
    return random_unital_cpmap(n, m, r, np.random.default_rng(seed))


def test_identity_channel_choi():
    # the identity on M_2 has the rank-1 Choi matrix of the maximally
    # entangled vector sum_i e_i (x) e_i
    psi = choi_from_kraus([np.eye(2)])
    x = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)
    assert np.linalg.norm(psi.choi - np.outer(x, x.conj())) < 1e-14
    assert psi.choi_rank == 1


def test_apply_matches_kraus_sum():
    rng = np.random.default_rng(1)
    ks = [rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
          for _ in range(3)]
    psi = choi_from_kraus(ks)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    direct = sum(k @ a @ k.conj().T for k in ks)
    assert np.linalg.norm(psi.apply(a) - direct) < 1e-10


def test_choi_kraus_round_trip():
    psi = _example_map(seed=2)
    again = CPMap(psi.input_dim, psi.output_dim, psi.choi)
    a = np.random.default_rng(3).standard_normal((3, 3))
    assert np.linalg.norm(psi.apply(a) - again.apply(a)) < 1e-10


def test_redundant_kraus_family_collapses():
    # splitting one Kraus operator in two scaled copies keeps the Choi rank
    k = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    psi = choi_from_kraus([k / np.sqrt(2), k / np.sqrt(2)])
    assert psi.choi_rank == 1


def test_non_cp_choi_rejected():
    with pytest.raises(NumericsError):
        kraus_from_choi(np.diag([1.0, -1.0, 1.0, 1.0]).astype(complex), 2, 2)


def test_non_unital_map_rejected_by_dilation():
    psi = choi_from_kraus([np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)])
    with pytest.raises(NumericsError):
        stinespring_dilate(psi)


def test_stinespring_isometry_and_dilation():
    psi = _example_map(seed=4)
    triple = stinespring_dilate(psi)
    assert triple.isometry_residual() < 1e-12
    assert verify_dilation(psi, triple) < 1e-10
    assert triple.r == psi.choi_rank


def test_lambda_kernel_projector():
    psi = _example_map(seed=5)
    triple = stinespring_dilate(psi)
    _, s0 = lambda_kernel(psi, triple)
    assert s0.rank == psi.output_dim
    assert np.linalg.norm(s0.p @ triple.v - triple.v) < 1e-12


def test_pullback_recovers_cp_kernel():
    psi = _example_map(seed=6)
    triple = stinespring_dilate(psi)
    pairs = [(random_unitary(3, seed=30 + i), random_unitary(3, seed=40 + i))
             for i in range(4)]
    assert pullback_identity_residual(psi, triple, pairs) < 1e-10


def test_cp_covariant_derivative_matches_generic():
    psi = _example_map(seed=7)
    k = cp_kernel(psi)
    w0 = np.ones(psi.output_dim, dtype=complex)
    sigma_fn = lambda u: w0 + psi.apply(u) @ (0.5 * w0)
    rng = np.random.default_rng(8)
    for i in range(5):
        u = random_unitary(3, seed=50 + i)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = 0.5 * (a - a.conj().T)
        formula = cp_covariant_derivative(psi, sigma_fn, u, a)
        generic = covariant_derivative_direct(k, Section(F=sigma_fn), u, a)
        assert np.linalg.norm(formula - generic) < 1e-6


def test_a_cpmap_derives_its_kraus_operators_from_its_choi_matrix(monkeypatch):
    psi = _example_map(seed=21)
    n, m = psi.input_dim, psi.output_dim
    want = kraus_from_choi(psi.choi, n, m)
    got = CPMap(n, m, psi.choi)
    assert len(got.kraus) == len(want) == 4
    assert all(np.array_equal(a, b) for a, b in zip(got.kraus, want))
    # a Choi matrix of the wrong shape is rejected before any eigendecomposition
    calls = []
    monkeypatch.setattr(cpmaps, "hermitian_eigh", lambda *args: calls.append(args))
    with pytest.raises(NumericsError, match=r"Choi matrix shape \(7, 7\) != \(6,6\)"):
        CPMap(n, m, np.eye(7))
    assert calls == []


def test_cp_covariant_derivative_rejects_bad_direction():
    psi = _example_map(seed=9)
    with pytest.raises(DomainError, match=r"U\(n\): tangent not anti-Hermitian"):
        cp_covariant_derivative(psi, lambda u: np.ones(2), np.eye(3), np.eye(3))


@pytest.mark.parametrize("u, message", [
    (2 * np.eye(3), r"U\(n\): not unitary"),
    (np.full((3, 3), np.nan), r"U\(n\): point is not finite"),
], ids=["non-unitary", "nan"])
def test_cp_covariant_derivative_checks_its_group_point(u, message):
    psi = _example_map(seed=9)
    a = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 1j]], dtype=complex)
    with pytest.raises(DomainError, match=message):
        cp_covariant_derivative(psi, lambda u: psi.apply(u) @ np.ones(2), u, a)


def test_cp_kernel_identity_on_diagonal():
    psi = _example_map(seed=10)
    k = cp_kernel(psi)
    u = random_unitary(3, seed=11)
    assert np.linalg.norm(k(u, u) - np.eye(psi.output_dim)) < 1e-12


def test_cp_and_lambda_kernels_keep_their_explicit_formula_bits():
    psi = _example_map(seed=12)
    triple = stinespring_dilate(psi)
    k_lam, s0 = lambda_kernel(psi, triple)
    b = fiber_basis(s0)
    k = cp_kernel(psi)
    u, v = random_unitary(3, seed=13), random_unitary(3, seed=14)
    a = random_unitary(3, seed=15)
    a = a - a.conj().T
    assert np.array_equal(k(u, v), psi.apply(u.conj().T @ v))
    assert np.array_equal(k.d2(u, v, a), psi.apply(u.conj().T @ v @ a))
    assert np.array_equal(k_lam(u, v), b.conj().T @ triple.lam(u.conj().T @ v) @ b)
    assert np.array_equal(k_lam.d2(u, v, a),
                          b.conj().T @ triple.lam(u.conj().T @ v @ a) @ b)


def test_random_unitary_deterministic_and_unitary():
    u1 = random_unitary(4, seed=12)
    u2 = random_unitary(4, seed=12)
    assert np.array_equal(u1, u2)
    assert np.linalg.norm(u1.conj().T @ u1 - np.eye(4)) < 1e-12


def test_random_unital_cpmap_is_unital():
    psi = _example_map(seed=13)
    assert psi.unitality_residual() < 1e-12
