import re
from dataclasses import replace

import numpy as np
import pytest

from kernelconnect import cpmaps, numerics
from kernelconnect.connections import Section, covariant_derivative_direct, make_evaluator
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
from kernelconnect.grassmann import coordinate_projector, fiber_basis, homogeneous_kernel
from kernelconnect.kernels import Domain, DomainError, Kernel, UnitaryDomain, pull_back_kernel
from kernelconnect.numerics import NumericsError, hermitian_eigh


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


def test_apply_has_the_bits_of_its_kraus_loop():
    # one stacked product, summed in Kraus order from zero, against the one-operator loop
    for seed, (n, m, r) in enumerate([(3, 2, 4), (2, 2, 1), (2, 3, 3), (3, 1, 2)]):
        rng = np.random.default_rng(seed)
        ks = [rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)) for _ in range(r)]
        psi = choi_from_kraus(ks)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        want = np.zeros((m, m), dtype=complex)
        for k in kraus_from_choi(psi.choi, n, m):
            want += k @ a @ k.conj().T
        assert psi.kraus.shape == (psi.choi_rank, m, n)
        assert psi.apply(a).tobytes() == want.tobytes(), (n, m, r)


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


@pytest.mark.parametrize("size", [300.0, 1.0, 1e-9])
def test_cp_backends_step_along_the_unit_direction_at_every_tangent_size(size):
    # the stencil runs along a / |a| with its weights times |a|: its error does not grow with |a|
    # (1.0e-6 relative here at |a| = 300 along a itself), and a tiny a is not a collapsed sample
    psi = _example_map(seed=0)
    k, rng = cp_kernel(psi), np.random.default_rng(0)
    w0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    sigma = Section(F=lambda u: w0 + psi.apply(u) @ (0.5 * w0))
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = (g - g.conj().T) * (size / np.max(np.abs(g - g.conj().T)))
    us = [random_unitary(3, seed=5 + i) for i in range(3)]
    for u in us:
        want = cp_covariant_derivative(psi, sigma.F, u, a)
        for backend in ("direct", "sampled"):
            got = make_evaluator(k, backend)(sigma, u, a)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want), backend


def test_cp_backends_give_exactly_zero_along_a_zero_tangent():
    psi = _example_map(seed=0)
    sigma = Section(F=lambda u: np.ones(2) + psi.apply(u) @ np.ones(2))
    us = [random_unitary(3, seed=5 + i) for i in range(3)]
    zero = [np.zeros((3, 3))] * 3
    assert np.array_equal(cpmaps._cp_covariant(psi, sigma, us, zero), np.zeros((3, 2)))
    for backend in ("direct", "sampled"):
        got = make_evaluator(cp_kernel(psi), backend).evaluate(sigma, us, zero)
        assert np.array_equal(got, np.zeros((3, 2))), backend


def _cp_probes(count, seed):
    rng = np.random.default_rng(seed)
    us = [random_unitary(3, seed=seed + 100 + i) for i in range(count)]
    xs = [0.5 * (a - a.conj().T) for a in (rng.standard_normal((3, 3))
                                           + 1j * rng.standard_normal((3, 3)) for _ in us)]
    return us, xs


def test_the_cp_oracle_and_the_direct_backend_build_one_stencil(monkeypatch):
    # the oracle's fresh UnitaryDomain(3) equals the kernel's: one slot serves both, counted where
    # a stencil is computed
    psi = _example_map(seed=27)
    w0 = np.array([1.0, -0.5j])
    sigma = Section(F=lambda u: w0 + psi.apply(u) @ (0.5 * w0))
    us, xs = _cp_probes(3, seed=28)
    rules, rule = [], Domain._rule
    monkeypatch.setattr(Domain, "_rule", lambda self, *args: rules.append(self) or rule(self, *args))
    cpmaps._cp_covariant(psi, sigma, us, xs)
    make_evaluator(cp_kernel(psi), "direct").evaluate(sigma, us, xs)
    assert len(rules) == 1


def test_cp_core_members_have_the_bits_of_the_one_probe_function():
    # the section read by one batch call per stack, or point by point, or one probe at a time
    psi = _example_map(seed=25)
    w0 = np.array([1.0, -0.5j])
    sigma_fn = lambda u: w0 + psi.apply(u) @ (0.5 * w0)  # noqa: E731 - also on (..., n, n) stacks
    us, xs = _cp_probes(9, seed=26)
    batch, loop = Section(F=sigma_fn, batch=sigma_fn), Section(F=sigma_fn)
    stacked = cpmaps._cp_covariant(psi, batch, us, xs)
    assert stacked.shape == (9, 2)
    assert stacked.tobytes() == cpmaps._cp_covariant(psi, loop, us, xs).tobytes()
    for u, a, got in zip(us, xs, stacked):
        assert got.tobytes() == cp_covariant_derivative(psi, sigma_fn, u, a).tobytes()
    direct = make_evaluator(cp_kernel(psi), "direct")
    assert direct.evaluate(batch, us, xs).tobytes() == direct.evaluate(loop, us, xs).tobytes()


def test_cp_covariant_derivative_raises_on_a_non_finite_value_at_its_point():
    # NaN only at u = I: the stencil is finite, and the derivative read [nan, nan]
    psi = random_unital_cpmap(3, 2, 4, np.random.default_rng(27))
    sigma_fn = lambda u: np.full(2, np.nan) if np.array_equal(u, np.eye(3)) else psi.apply(u)[0]
    a = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 1j]], dtype=complex)
    with pytest.raises(NumericsError, match="section value or derivative is not finite"):
        cp_covariant_derivative(psi, sigma_fn, np.eye(3, dtype=complex), a)


def _group_kernels():
    psi = _example_map(seed=28)
    triple = stinespring_dilate(psi)
    p = coordinate_projector(3, 1)
    k_lam = lambda_kernel(psi, triple)[0]
    theta = cpmaps.cp_classifying_morphism(psi, triple)
    pulled = pull_back_kernel(theta, k_lam, 2, UnitaryDomain(3))  # the pullback identity's
    return [cp_kernel(psi), k_lam, homogeneous_kernel(3, p), pulled]


@pytest.mark.parametrize("k", _group_kernels(), ids=lambda k: k.name)
@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 3, 4), (4, 1, 5), (3, 2, 3)],
                         ids=lambda s: "L{}-a{}-b{}".format(*s))
def test_group_kernel_blocks_have_the_bits_of_a_per_pair_eval_loop(k, shape):
    # Phi of the (L, a, 1) and (L, 1, b) stacks and one stacked product, against the loop over
    # eval, pair by pair
    n_blocks, a, b = shape
    us = np.array([random_unitary(3, seed=300 + i) for i in range(n_blocks * (a + b))])
    ss = list(us[:n_blocks * a].reshape(n_blocks, a, 3, 3))
    ts = list(us[n_blocks * a:].reshape(n_blocks, b, 3, 3))
    loop = Kernel(k.fiber_dim, k.domain, k.eval, k.d2, name=k.name)  # no batch: eval per pair
    got = k._values(ss, ts)
    assert got.shape == (n_blocks, a * k.fiber_dim, b * k.fiber_dim)
    assert np.array_equal(got, loop._values(ss, ts))
    if n_blocks == 1:
        assert np.array_equal(k.block(list(ss[0]), list(ts[0])), got[0])


@pytest.mark.parametrize("k", _group_kernels(), ids=lambda k: k.name)
def test_a_group_kernels_evaluate_makes_no_eval_call(k):
    never = replace(k, eval=lambda u, v: pytest.fail("eval called pair by pair"))
    us, xs = _cp_probes(4, seed=29)
    m = k.fiber_dim
    sigma = Section(F=lambda u: np.asarray(u)[:m, 0])
    for backend in ("closed-form", "direct", "sampled"):
        got = make_evaluator(never, backend).evaluate(sigma, us, xs)
        assert np.array_equal(got, make_evaluator(k, backend).evaluate(sigma, us, xs)), backend


@pytest.mark.parametrize("k", _group_kernels(), ids=lambda k: k.name)
def test_a_group_kernels_analytic_d2_agrees_with_the_stencil(k):
    # the closed form reads d2 off the diagonal only, Phi(u)* (u a (x) I_r) W; the direct
    # backend differentiates kappa(u, .) by the stencil.  Off the diagonal d2 is never read,
    # so this is the one test of its formula: a d2 along (a u) W is off by 6-8 here
    us, xs = _cp_probes(8, seed=31)
    z = np.random.default_rng(32).standard_normal(3) * (1.0 + 2.0j)
    m = k.fiber_dim
    sigma = Section(F=lambda u: (np.asarray(u) @ z)[:m])
    closed = make_evaluator(k, "closed-form").evaluate(sigma, us, xs)
    direct = make_evaluator(k, "direct").evaluate(sigma, us, xs)
    assert np.max(np.abs(closed)) > 1.0
    assert np.max(np.abs(closed - direct)) <= 1e-9


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


def _dilation(u, w):
    """(u (x) I_r) W for an (n r, M) matrix W: u times W read as n x rM, read back as n r x M."""
    return (u @ w.reshape(len(u), -1)).reshape(-1, w.shape[1])


def test_cp_and_lambda_kernels_keep_their_explicit_formula_bits():
    # the feature formula Phi(u)* Phi(v), and its d2 Phi(u)* (v a (x) I_r) W, bit for bit; the
    # values against Psi(u* v) and B* (u* v (x) I_r) B, which are computed another way
    psi = _example_map(seed=12)
    triple = stinespring_dilate(psi)
    k_lam, s0 = lambda_kernel(psi, triple)
    b, v0 = fiber_basis(s0), triple.v
    k = cp_kernel(psi)
    u, v = random_unitary(3, seed=13), random_unitary(3, seed=14)
    a = random_unitary(3, seed=15)
    a = a - a.conj().T
    for kernel, w in ((k, v0), (k_lam, b)):
        assert np.array_equal(kernel(u, v), _dilation(u, w).conj().T @ _dilation(v, w))
        assert np.array_equal(kernel.d2(u, v, a), _dilation(u, w).conj().T @ _dilation(v @ a, w))
    for got, want in ((k(u, v), psi.apply(u.conj().T @ v)),
                      (k.d2(u, v, a), psi.apply(u.conj().T @ v @ a)),
                      (k_lam(u, v), b.conj().T @ triple.lam(u.conj().T @ v) @ b),
                      (k_lam.d2(u, v, a), b.conj().T @ triple.lam(u.conj().T @ v @ a) @ b)):
        assert np.linalg.norm(got - want) <= 1e-14 * max(1.0, np.linalg.norm(want))


def test_random_unitary_deterministic_and_unitary():
    u1 = random_unitary(4, seed=12)
    u2 = random_unitary(4, seed=12)
    assert np.array_equal(u1, u2)
    assert np.linalg.norm(u1.conj().T @ u1 - np.eye(4)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_stacked_unitaries_have_the_bits_of_one_seed_at_a_time(n):
    seeds = [12, 0, 7, 12, 2**40 + 3]
    stacked = numerics._random_unitaries(n, seeds)
    assert stacked.shape == (len(seeds), n, n)
    for seed, u in zip(seeds, stacked):
        assert u.tobytes() == random_unitary(n, seed).tobytes()
        # the one-seed formula: its own generator, two (n, n) draws, QR, phases fixed
        rng = np.random.default_rng(seed)
        q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        d = np.diagonal(r)
        assert u.tobytes() == (q * (d / np.abs(d))).tobytes()
    with pytest.raises(ValueError, match="n must be >= 1"):
        numerics._random_unitaries(0, seeds)


def test_random_unital_cpmap_is_unital():
    psi = _example_map(seed=13)
    total = (psi.kraus @ psi.kraus.conj().transpose(0, 2, 1)).sum(axis=0)
    assert np.linalg.norm(total - np.eye(psi.output_dim)) < 1e-12


def _matrix_unit(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def test_dilation_and_unitality_residuals_keep_the_verdicts_of_their_loops():
    # one stacked expression over the n^2 matrix units and the Kraus stack, against the loops
    for seed, (n, m, r) in enumerate([(3, 2, 4), (2, 2, 1), (2, 3, 3), (3, 1, 2)]):
        psi = _example_map(seed, n, m, r)
        for triple in (stinespring_dilate(psi), cpmaps.StinespringTriple(
                stinespring_dilate(psi).v * 1.01, r=psi.choi_rank, input_dim=n, output_dim=m)):
            units = [_matrix_unit(n, i, j) for i in range(n) for j in range(n)]
            want = max(float(np.linalg.norm(psi.apply(a) - triple.v.conj().T @ triple.lam(a)
                                            @ triple.v)) for a in units)
            got = verify_dilation(psi, triple)
            assert (got < 1e-10) == (want < 1e-10) and abs(got - want) <= 1e-15 + 1e-12 * want


def test_choi_kraus_and_normalization_stacks_have_the_bits_of_their_loops():
    for seed, (n, m, r) in enumerate([(3, 2, 4), (2, 2, 1), (2, 3, 3), (3, 1, 2)]):
        rng = np.random.default_rng(seed)
        ks = [rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)) for _ in range(r)]
        choi = np.zeros((n * m, n * m), dtype=complex)
        for k in ks:
            x = k.T.reshape(n * m)
            choi += np.outer(x, x.conj())
        psi = choi_from_kraus(ks)
        assert psi.choi.tobytes() == choi.tobytes()
        values, vectors = np.linalg.eigh(0.5 * (choi + choi.conj().T))
        cut = cpmaps.CHOI_RANK_TAU * max(float(values[-1]), 1.0)
        want = [(np.sqrt(lam) * vec).reshape(n, m).T for lam, vec in zip(values, vectors.T)
                if lam > cut][::-1]
        assert psi.kraus.tobytes() == np.array(want).tobytes()
        total = np.zeros((m, m), dtype=complex)
        for k in ks:
            total += k @ k.conj().T
        values, vectors = np.linalg.eigh(0.5 * (total + total.conj().T))
        inv_sqrt = (vectors * (1.0 / np.sqrt(values))) @ vectors.conj().T
        drawn = random_unital_cpmap(n, m, r, np.random.default_rng(seed))
        assert drawn.choi.tobytes() == choi_from_kraus([inv_sqrt @ k for k in ks]).choi.tobytes()


@pytest.mark.parametrize("n, m, r", [(3, 2, 4), (2, 2, 1), (2, 3, 3), (3, 1, 2)])
def test_stacked_cpmaps_have_the_bits_of_sequential_draws_and_leave_the_generator_alike(n, m, r):
    stacked_rng, loop_rng = np.random.default_rng(31), np.random.default_rng(31)
    stacked = cpmaps._random_unital_cpmaps(n, m, r, stacked_rng, 6)
    for got in stacked:
        # the one-map formula, drawn operator by operator from the same generator
        ks = [loop_rng.standard_normal((m, n)) + 1j * loop_rng.standard_normal((m, n))
              for _ in range(r)]
        k = np.array(ks)
        values, vectors = hermitian_eigh((k @ k.conj().transpose(0, 2, 1)).sum(axis=0, initial=0.0))
        want = choi_from_kraus([(vectors * (1.0 / np.sqrt(values))) @ vectors.conj().T @ k
                                for k in ks])
        assert (got.input_dim, got.output_dim) == (n, m)
        assert got.choi.tobytes() == want.choi.tobytes()
        assert got.kraus.shape == want.kraus.shape and got.kraus.strides == want.kraus.strides
        assert got.kraus.tobytes() == want.kraus.tobytes()
    assert stacked_rng.bit_generator.state == loop_rng.bit_generator.state
    assert stacked_rng.standard_normal() == loop_rng.standard_normal()


def test_stacked_maps_are_the_one_map_draws_of_one_stream():
    # verify's 21 maps from one draw and one Choi assembly, against 21 random_unital_cpmap calls on
    # the same stream, and against the Kraus operators of a CPMap built from each Choi
    stacked_rng, loop_rng = np.random.default_rng(41), np.random.default_rng(41)
    stacked = cpmaps._random_unital_cpmaps(3, 2, 4, stacked_rng, 21)
    for got, want in zip(stacked, [random_unital_cpmap(3, 2, 4, loop_rng) for _ in range(21)]):
        assert type(got) is CPMap and (got.input_dim, got.output_dim) == (3, 2)
        assert got.choi.tobytes() == want.choi.tobytes()
        for kraus in (want.kraus, CPMap(3, 2, got.choi.copy()).kraus):
            assert got.kraus.shape == kraus.shape and got.kraus.strides == kraus.strides
            assert got.kraus.tobytes() == kraus.tobytes()
    assert stacked_rng.bit_generator.state == loop_rng.bit_generator.state


def test_a_choi_matrix_with_a_negative_eigenvalue_is_rejected_at_construction():
    with pytest.raises(NumericsError, match=r"not PSD \(min eigenvalue -1.000e\+00\)"):
        CPMap(2, 2, np.diag([1.0, -1.0, 1.0, 1.0]))


def test_a_choi_matrix_that_is_not_hermitian_is_rejected():
    # C + 0.3 (E_01 - E_10) has C's Hermitian part, which alone was decomposed: psi again
    c = _example_map(0, 2, 2, 2).choi.copy()
    c[0, 1] += 0.3
    c[1, 0] -= 0.3
    assert abs(np.linalg.norm(c - c.conj().T) - 0.6 * np.sqrt(2)) < 1e-15
    for scale in (1.0, 1e300):  # no overflow at the largest scale: C over its largest entry
        with pytest.raises(NumericsError, match=r"Choi matrix is not Hermitian \(\|\|C - C\*\|\| / "
                                                r"max\(1, \|\|C\|\|\) = [0-9.]+e-01\); map is not CP"):
            CPMap(2, 2, scale * c)
        with pytest.raises(NumericsError, match="Choi matrix is not Hermitian"):
            kraus_from_choi(scale * c, 2, 2)
    # within 1e-10 (relative) of Hermitian, and exactly Hermitian at the largest scale, is taken
    c = _example_map(0, 2, 2, 2).choi.copy()
    c[0, 1] += 1e-11
    assert CPMap(2, 2, c).choi_rank == 2
    assert CPMap(2, 2, 1e300 * np.eye(4)).choi_rank == 4


@pytest.mark.parametrize("n, m, r", [(1, 2, 1), (2, 5, 2), (1, 3, 1)])
def test_a_kraus_count_that_cannot_give_a_unital_map_is_refused_before_the_draw(n, m, r):
    # sum K K* has rank at most r n < m: no rescaling makes it I_m
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=re.escape(
            f"a unital map needs n_kraus * input_dim >= output_dim, got {r} * {n} < {m}")):
        random_unital_cpmap(n, m, r, rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
    stinespring_dilate(random_unital_cpmap(n, m, -(-m // n), rng))  # the fewest that can: unital


def test_the_dilation_residual_builds_no_kronecker_product(monkeypatch):
    # lam(a) = a (x) I_r is an (n r, n r) matrix per unit a; a times V read as n x r m is not
    maps = cpmaps._random_unital_cpmaps(3, 2, 4, np.random.default_rng(43), 6)
    triples, _ = cpmaps._dilate(maps)
    units = np.eye(9, dtype=complex).reshape(-1, 3, 3)
    want = max(float(np.max(np.linalg.norm(p.apply(units) - t.v.conj().T @ t.lam(units) @ t.v,
                                           axis=(-2, -1)))) for p, t in zip(maps, triples))
    monkeypatch.setattr(cpmaps.StinespringTriple, "lam", None)
    assert cpmaps._dilation_residual(maps, triples) == want


def _mixed_maps():
    """Unital maps of unequal Choi rank and of two shapes, interleaved in one list."""
    rng = np.random.default_rng(43)
    maps = [random_unital_cpmap(n, m, r, rng)
            for n, m, r in [(3, 2, 4), (3, 2, 1), (2, 3, 3), (3, 2, 2), (3, 2, 4), (2, 3, 3)]]
    return maps + [choi_from_kraus([np.eye(2) / np.sqrt(2)] * 2)]  # a redundant family: rank 1


def test_stacked_dilations_have_the_bits_of_their_one_map_calls():
    maps = cpmaps._random_unital_cpmaps(3, 2, 4, np.random.default_rng(43), 6)
    assert [p.kraus.shape for p in maps] == [(4, 2, 3)] * 6
    triples, iso = cpmaps._dilate(maps)
    assert iso == max(t.isometry_residual() for t in triples)
    for psi, triple in zip(maps, triples):
        n, m, r = psi.input_dim, psi.output_dim, psi.choi_rank
        assert (triple.r, triple.input_dim, triple.output_dim) == (r, n, m)
        assert triple.v.tobytes() == stinespring_dilate(psi).v.tobytes()
        # the one-map formula: V read from the (n, r, m) Kraus layout
        assert triple.v.tobytes() == psi.kraus.conj().transpose(2, 0, 1).reshape(n * r, m).tobytes()
        units = np.eye(n * n, dtype=complex).reshape(-1, n, n)
        diff = psi.apply(units) - triple.v.conj().T @ triple.lam(units) @ triple.v
        assert verify_dilation(psi, triple) == float(np.max(np.linalg.norm(diff, axis=(-2, -1))))
    for stack in (triples, [cpmaps.StinespringTriple(t.v * 1.01, t.r, t.input_dim, t.output_dim)
                            for t in triples]):
        dil = cpmaps._dilation_residual(maps, stack)
        assert dil == max(verify_dilation(p, t) for p, t in zip(maps, stack))
    assert dil > 1e-3
    with pytest.raises(NumericsError, match="map is not unital"):
        cpmaps._dilate(maps + [CPMap(3, 2, 0.5 * maps[0].choi)])  # one shape, not unital


def test_maps_of_unequal_kraus_shape_are_refused_by_name():
    maps = _mixed_maps()
    triples = [stinespring_dilate(p) for p in maps]
    shapes = "(4, 2, 3), (1, 2, 3), (3, 3, 2), (2, 2, 3), (1, 2, 2)"
    for stacked in (lambda: cpmaps._dilate(maps), lambda: cpmaps._dilation_residual(maps, triples)):
        with pytest.raises(ValueError, match=re.escape(f"unequal Kraus shapes {shapes}: ")):
            stacked()
    assert cpmaps._dilation_residual(maps[:1], triples[:1]) == verify_dilation(maps[0], triples[0])


@pytest.mark.parametrize("stacked, message", [
    (lambda: cpmaps._dilate([]), "empty stack of CP maps"),
    (lambda: cpmaps._dilation_residual([], []), "empty stack of CP maps"),
    (lambda: numerics._random_unitaries(3, []), "empty stack of seeds"),
], ids=["dilate", "dilation_residual", "random_unitaries"])
def test_an_empty_stack_is_refused_by_name(stacked, message):
    # numpy's unpacking, reshape and indexing errors surfaced here
    with pytest.raises(ValueError, match=f"^{message}: "):
        stacked()


def test_a_unitary_conjugation_dilates_onto_all_of_its_space():
    # Choi rank 1 and m = n: V is unitary, and S0 = Ran(V V*) is all of C^n, a projector of rank n
    psi = choi_from_kraus([random_unitary(3, seed=5)])
    triple = stinespring_dilate(psi)
    assert triple.r == 1 and np.linalg.norm(triple.v @ triple.v.conj().T - np.eye(3)) < 1e-14
    _, s0 = lambda_kernel(psi, triple)
    assert s0.rank == 3 and fiber_basis(s0).shape == (3, 3)
    pairs = [(random_unitary(3, seed=60 + i), random_unitary(3, seed=70 + i)) for i in range(3)]
    assert pullback_identity_residual(psi, triple, pairs) < 1e-13


def test_pullback_identity_checks_its_pairs_once_and_keeps_the_bits_of_its_loop(monkeypatch):
    psi = _example_map(seed=6)
    triple = stinespring_dilate(psi)
    pairs = [(random_unitary(3, seed=30 + i), random_unitary(3, seed=40 + i)) for i in range(5)]
    k_lam, _ = lambda_kernel(psi, triple)
    theta = cpmaps.cp_classifying_morphism(psi, triple)
    pulled = pull_back_kernel(theta, k_lam, 2, UnitaryDomain(3))
    want = max(float(np.linalg.norm(pulled.eval(s, t) - cp_kernel(psi)(s, t))) for s, t in pairs)
    stacks, stack = [], UnitaryDomain.stack
    monkeypatch.setattr(UnitaryDomain, "stack",
                        lambda self, points: stacks.append(len(points)) or stack(self, points))
    got = pullback_identity_residual(psi, triple, pairs)
    monkeypatch.undo()
    assert got == want
    # the source side checks the 10 unitaries once; the pulled kernel's batch checks the images
    # of each slot's five once, for the lambda kernel's batch
    assert stacks == [10, 5, 5]
    with pytest.raises(DomainError, match=r"U\(n\): not unitary.*\(point 4 of 4\)"):
        pullback_identity_residual(psi, triple, pairs[:1] + [(pairs[1][0], 2 * pairs[1][1])])
    with pytest.raises(ValueError, match="need at least one pair of unitaries"):
        pullback_identity_residual(psi, triple, [])


def test_the_pullback_identity_makes_no_eval_call_on_its_pulled_kernel(monkeypatch):
    # zeta, delta and the lambda kernel's batch once per slot: a call of the pulled kernel's eval
    # is a fall back to the per-pair loop
    psi = _example_map(seed=8)
    triple = stinespring_dilate(psi)
    pairs = [(random_unitary(3, seed=80 + i), random_unitary(3, seed=90 + i)) for i in range(8)]
    want = pullback_identity_residual(psi, triple, pairs)
    pulled, made = cpmaps.pull_back_kernel, []
    monkeypatch.setattr(cpmaps, "pull_back_kernel", lambda *a, **kw: made.append(1) or replace(
        pulled(*a, **kw), eval=lambda s, t: pytest.fail("eval called pair by pair")))
    assert pullback_identity_residual(psi, triple, pairs) == want < 1e-10
    assert made == [1]
