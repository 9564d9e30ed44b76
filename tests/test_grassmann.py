import gc
import pickle
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from kernelconnect import grassmann
from kernelconnect.connections import Section, covariant_derivative_direct, make_evaluator
from kernelconnect.cpmaps import random_unitary
from kernelconnect.grassmann import (
    GrassDomain,
    GrassTangent,
    HermitianProjector,
    conditional_expectation,
    coordinate_projector,
    fiber_basis,
    grass_section_coordinates,
    grassmann_agreement,
    homogeneous_covariant_derivative,
    homogeneous_kernel,
    maurer_cartan,
    random_grass_tangent,
    reductive_axioms_residual,
    reductive_covariant_derivative,
    universal_covariant_derivative,
    universal_kernel,
)
from kernelconnect.kernels import Domain, DomainError, Kernel, UnitaryDomain
from kernelconnect.numerics import NumericsError, hermitian_eigh
from kernelconnect.rkhs import build_rkhs


def _random_point(n, k, seed):
    u = random_unitary(n, seed)
    return HermitianProjector(u @ coordinate_projector(n, k).p @ u.conj().T, k)


def test_projector_validation():
    with pytest.raises(DomainError, match="^projector is not Hermitian$"):
        HermitianProjector(np.array([[0.5, 0.5j], [0.5j, 0.5]]), 1)
    with pytest.raises(DomainError, match="^matrix is not idempotent$"):
        HermitianProjector(np.array([[0.5, 0.0], [0.0, 0.0]], dtype=complex), 1)
    with pytest.raises(DomainError, match="^trace 2.000000 does not match declared rank 1$"):
        HermitianProjector(np.eye(2, dtype=complex), 1)  # trace 2, declared rank 1


def test_a_projector_scans_its_matrix_for_finiteness_once(monkeypatch):
    from kernelconnect import kernels

    p, scans, finite = coordinate_projector(4, 2).p, [], kernels._finite
    monkeypatch.setattr(kernels, "_finite", lambda a: scans.append(np.shape(a)) or finite(a))
    HermitianProjector(p, 2)
    assert scans == [(4, 4)]


@pytest.mark.parametrize("make", [
    lambda p: HermitianProjector(np.full((2, 2), np.nan), 1),
    lambda p: HermitianProjector(np.where(p.p == 1, np.nan, p.p), 2),
    lambda p: GrassTangent(p, np.full((4, 4), np.nan)),
    lambda p: GrassTangent(p, np.where(np.eye(4) == 1, np.inf, 0.0)),
])
def test_a_non_finite_projector_or_generator_is_rejected_first(make):
    # every residual of a NaN matrix is NaN, and NaN > tol is False: each check would pass
    with pytest.raises(DomainError, match="(projector|generator) is not finite"):
        make(coordinate_projector(4, 2))


def test_tangent_validation():
    p = coordinate_projector(4, 2)
    a = np.zeros((4, 4), dtype=complex)
    a[0, 1] = 1.0
    a[1, 0] = -1.0
    with pytest.raises(DomainError):
        GrassTangent(p, a)  # anti-Hermitian but block-diagonal


@pytest.mark.parametrize("block, scale, raises", [
    ("hermitian", 0.49e-10, None), ("hermitian", 0.51e-10, "not anti-Hermitian"),  # 2 scale
    ("diagonal", 0.99e-10, None), ("diagonal", 1.01e-10, "diagonal blocks"),  # |PAP| = scale
])
def test_tangent_checks_decide_at_1e_10(block, scale, raises):
    p = coordinate_projector(4, 2)
    a = np.zeros((4, 4), dtype=complex)
    a[0, 2], a[2, 0] = 1.0 + 2.0j, -1.0 + 2.0j  # in the reductive complement
    if block == "hermitian":
        a[3, 3] = scale  # |A + A*| = 2 scale, |QAQ| = scale
    else:
        a[0, 1], a[1, 0] = scale / np.sqrt(2), -scale / np.sqrt(2)  # anti-Hermitian, in P's block
    if raises is None:
        assert np.array_equal(GrassTangent(p, a).generator, a)
    else:
        with pytest.raises(DomainError, match=raises):
            GrassTangent(p, a)


def _three_probes():
    points = [_random_point(4, 2, seed=20 + i) for i in range(3)]
    rng = np.random.default_rng(3)
    return points, [random_grass_tangent(p, rng) for p in points]


def _swap(entries, i, value):
    return [value if j == i else e for j, e in enumerate(entries)]


@pytest.mark.parametrize("bad, message", [
    (lambda ps: ps[1].p, r"point is not a HermitianProjector \(point 2 of 3\)"),
    (lambda ps: coordinate_projector(4, 1),
     r"expected a rank-2 projector in C\^4, got rank 1 in C\^4 \(point 2 of 3\)"),
    (lambda ps: coordinate_projector(5, 2),
     r"expected a rank-2 projector in C\^4, got rank 2 in C\^5 \(point 2 of 3\)"),
])
def test_a_grassmann_stack_names_its_first_point_that_is_not_in_the_domain(bad, message):
    points, tangents = _three_probes()
    points = _swap(points, 1, bad(points))
    for call in (lambda d: d.stack(points), lambda d: d.jets(points, tangents)):
        with pytest.raises(DomainError, match=r"^Gr\(2,4\): " + message + "$"):
            call(GrassDomain(4, 2))


@pytest.mark.parametrize("n, k", [(3, 0), (3, 3), (1, 1), (2, 0)])
def test_a_grassmannian_of_one_point_is_refused_at_construction(n, k):
    # Gr(0, n) and Gr(n, n) have no tangent to step along: every backend failed late there
    for build in (GrassDomain, universal_kernel):
        with pytest.raises(DomainError, match=rf"^Gr\({k},{n}\): the rank must satisfy 0 < k < n$"):
            build(n, k)
    # a projector of rank 0 or n is still a projector, with a basis of k columns
    point = HermitianProjector(np.eye(n) if k else np.zeros((n, n)), k)
    assert fiber_basis(point).shape == (n, k)


@pytest.mark.parametrize("bad, message", [
    (lambda ps, xs: xs[1].generator, r"tangent is not a GrassTangent \(probe 2 of 3\)"),
    (lambda ps, xs: xs[0], r"tangent is anchored at another point \(probe 2 of 3\)"),
    (lambda ps, xs: random_grass_tangent(coordinate_projector(5, 2), np.random.default_rng(0)),
     r"tangent is anchored at another point \(probe 2 of 3\)"),
])
def test_grassmann_jets_name_their_first_tangent_that_is_not_at_its_point(bad, message):
    points, tangents = _three_probes()
    with pytest.raises(DomainError, match=r"^Gr\(2,4\): " + message + "$"):
        GrassDomain(4, 2).jets(points, _swap(tangents, 1, bad(points, tangents)))
    with pytest.raises(DomainError, match=r"^Gr\(2,4\): tangent is "):  # one probe: no entry named
        GrassDomain(4, 2).jets((points[1],), (bad(points, tangents),))


def test_a_tangent_anchored_at_a_projector_off_by_more_than_1e_10_is_rejected():
    point = _random_point(4, 2, seed=7)
    e = _exp(random_grass_tangent(point, np.random.default_rng(0)).generator, 4e-7)
    near = HermitianProjector(e @ point.p @ e.conj().T, 2)
    off = np.abs(near.p - point.p)
    # a relative test, numpy's default rtol = 1e-5, would accept this base
    assert 1e-7 < off.max() and (off <= 1e-10 + 1e-5 * np.abs(point.p)).all()
    with pytest.raises(DomainError, match="anchored at another point"):
        GrassDomain(4, 2).jets((point,), (random_grass_tangent(near, np.random.default_rng(1)),))
    # an equal projector object is the same point
    x = random_grass_tangent(point, np.random.default_rng(1)).generator
    GrassDomain(4, 2).jets((point,), (GrassTangent(HermitianProjector(point.p.copy(), 2), x),))


def test_fiber_basis_is_orthonormal_and_deterministic():
    point = _random_point(5, 2, seed=11)
    b1 = fiber_basis(point)
    b2 = fiber_basis(point)
    assert np.array_equal(b1, b2)
    assert np.linalg.norm(b1.conj().T @ b1 - np.eye(2)) < 1e-12
    assert np.linalg.norm(b1 @ b1.conj().T - point.p) < 1e-12


def test_conditional_expectation_properties():
    p = coordinate_projector(4, 2)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    e = conditional_expectation(p, x)
    assert np.linalg.norm(conditional_expectation(p, e) - e) < 1e-14
    # complement directions are annihilated
    a = random_grass_tangent(p, rng).generator
    assert np.linalg.norm(conditional_expectation(p, a)) < 1e-14


def test_reductive_axioms_on_block_unitaries():
    point = coordinate_projector(4, 2)
    unitaries = [scipy.linalg.block_diag(random_unitary(2, seed=2 * i),
                                         random_unitary(2, seed=2 * i + 1))
                 for i in range(5)]
    assert reductive_axioms_residual(point, unitaries, n_probes=10, seed=1) < 1e-12


def test_reductive_residual_has_the_bits_of_its_loop_over_unitaries():
    # at a rotated projector, where the residuals are rounding errors (at a coordinate projector
    # and block-diagonal unitaries they are exactly 0)
    u = random_unitary(4, seed=9)
    point = HermitianProjector(u @ coordinate_projector(4, 2).p @ u.conj().T, 2)
    unitaries = [u @ scipy.linalg.block_diag(random_unitary(2, seed=2 * i),
                                             random_unitary(2, seed=2 * i + 1)) @ u.conj().T
                 for i in range(6)]
    rng = np.random.default_rng(3)
    # E fixes the subgroup: ||E(g) - g||
    want = max(float(np.linalg.norm(conditional_expectation(point, g) - g)) for g in unitaries)
    for _ in range(5):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        ex = conditional_expectation(point, x)
        want = max(want, float(np.linalg.norm(conditional_expectation(point, ex) - ex)))
        for g in unitaries:
            lhs = conditional_expectation(point, g @ x @ g.conj().T)
            want = max(want, float(np.linalg.norm(lhs - g @ ex @ g.conj().T)))
    assert 0.0 < want < 1e-12
    assert reductive_axioms_residual(point, unitaries, n_probes=5, seed=3) == want


def test_reductive_axioms_reject_noncommuting_unitary():
    with pytest.raises(DomainError):
        reductive_axioms_residual(coordinate_projector(4, 2), [random_unitary(4, seed=3)])


@pytest.mark.parametrize("first", [True, False], ids=["nan-first", "nan-second"])
def test_reductive_axioms_reject_a_non_finite_unitary_in_either_order(first):
    # the NaN commute test read False and Python's max dropped a NaN that was not first: [I, U_nan]
    # returned 0.0, a pass
    u_nan = np.full((4, 4), np.nan)
    unitaries = [u_nan, np.eye(4)] if first else [np.eye(4), u_nan]
    with pytest.raises(DomainError, match="unitary is not finite"):
        reductive_axioms_residual(coordinate_projector(4, 2), unitaries, n_probes=3)


def test_homogeneous_core_members_have_the_bits_of_the_one_probe_function():
    # phi read by one batch call per stack, or point by point, or one probe at a time
    n, rng = 3, np.random.default_rng(23)
    p = coordinate_projector(n, 1)
    z0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    phi = lambda u: (p.p @ (np.asarray(u).conj().swapaxes(-1, -2) @ z0)[..., None])[..., 0]  # noqa
    us = [random_unitary(n, seed=60 + i) for i in range(7)]
    xs = [random_grass_tangent(p, rng).generator for _ in us]
    stacked = grassmann._homogeneous(Section(F=phi, batch=phi), p, us, xs)
    assert stacked.shape == (7, n)
    assert stacked.tobytes() == grassmann._homogeneous(Section(F=phi), p, us, xs).tobytes()
    for u, x, got in zip(us, xs, stacked):
        assert got.tobytes() == homogeneous_covariant_derivative(phi, p, u, x).tobytes()
        assert phi(u).tobytes() == (p.p @ (u.conj().T @ z0)).tobytes()  # its one-point formula


def test_the_homogeneous_oracle_and_the_direct_backend_build_one_stencil(monkeypatch):
    # the oracle's fresh UnitaryDomain(3) equals the kernel's: one slot serves both, counted where
    # a stencil is computed
    n, rng = 3, np.random.default_rng(29)
    p = coordinate_projector(n, 1)
    z0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    phi, b = lambda u: p.p @ (np.asarray(u).conj().T @ z0), fiber_basis(p)
    us = [random_unitary(n, seed=70 + i) for i in range(3)]
    xs = [random_grass_tangent(p, rng).generator for _ in us]
    rules, rule = [], Domain._rule
    monkeypatch.setattr(Domain, "_rule", lambda self, *args: rules.append(self) or rule(self, *args))
    grassmann._homogeneous(Section(F=phi), p, us, xs)
    sigma = Section(F=lambda u: b.conj().T @ phi(u))  # in the fiber coordinates of B
    make_evaluator(homogeneous_kernel(n, p), "direct").evaluate(sigma, us, xs)
    assert len(rules) == 1


def test_homogeneous_derivative_raises_on_a_non_finite_value_at_its_point():
    # NaN only at u itself: the stencil is finite, and the NaN range test let it through
    p = coordinate_projector(3, 1)
    z0 = np.ones(3, dtype=complex)
    phi = lambda u: np.full(3, np.nan) if np.array_equal(u, np.eye(3)) else p.p @ (u.conj().T @ z0)
    x = random_grass_tangent(p, np.random.default_rng(24)).generator
    with pytest.raises(NumericsError, match="section value or derivative is not finite"):
        homogeneous_covariant_derivative(phi, p, np.eye(3, dtype=complex), x)


def test_maurer_cartan_requires_complement_direction():
    g = random_unitary(4, seed=4)
    with pytest.raises(DomainError):
        maurer_cartan(coordinate_projector(4, 2), g, 1j * np.eye(4))


def test_universal_kernel_is_identity_on_diagonal():
    q = universal_kernel(4, 2)
    point = _random_point(4, 2, seed=6)
    assert np.linalg.norm(q(point, point) - np.eye(2)) < 1e-12


def test_universal_derivative_requires_fiber_valued_section():
    point = coordinate_projector(4, 2)
    rng = np.random.default_rng(7)
    tangent = random_grass_tangent(point, rng)
    v = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)  # constant, leaves the fiber
    with pytest.raises(DomainError):
        universal_covariant_derivative(lambda pt: v, point, tangent)


def test_three_way_agreement_small():
    rep = grassmann_agreement(4, 2, probes=5, seed=0)
    assert rep["three_way_residual"] < 1e-6
    assert rep["metric_compatibility_residual"] < 1e-6


@pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (6, 3)])
def test_universal_kernel_backends_agree_on_grassmannians_of_rank_two_and_more(n, k):
    # the backends read sigma = B* F and kappa at the stencil points; they agree only when one frame
    # is used along each stencil, as on Gr(1, n) where a basis has one column
    rng = np.random.default_rng(20 + n)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    sigma = Section(F=grass_section_coordinates(lambda pt: pt.p @ v0))
    points = [_random_point(n, k, seed=110 + i) for i in range(6)]
    tangents = [random_grass_tangent(p, rng) for p in points]
    q = universal_kernel(n, k)
    closed, direct, sampled = (make_evaluator(q, b).evaluate(sigma, points, tangents)
                               for b in ("closed-form", "direct", "sampled"))
    assert np.max(np.abs(closed - direct)) <= 1e-10
    assert np.max(np.abs(direct - sampled)) <= 1e-10


def test_universal_derivative_is_equivariant():
    # nabla(u F(u* . u))(u p u*, u A u*) = u nabla(F)(p, A)
    n, k = 4, 2
    point = coordinate_projector(n, k)
    rng = np.random.default_rng(8)
    tangent = random_grass_tangent(point, rng)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    f = lambda pt: pt.p @ v0
    u = random_unitary(n, seed=9)
    moved_point = HermitianProjector(u @ point.p @ u.conj().T, k)
    moved_tangent = GrassTangent(moved_point, u @ tangent.generator @ u.conj().T)
    moved_f = lambda pt: u @ f(HermitianProjector(u.conj().T @ pt.p @ u, k))
    lhs = universal_covariant_derivative(moved_f, moved_point, moved_tangent)
    rhs = u @ universal_covariant_derivative(f, point, tangent)
    assert np.linalg.norm(lhs - rhs) < 1e-8


def test_reductive_derivative_matches_universal():
    n, k = 4, 2
    base = coordinate_projector(n, k)
    rng = np.random.default_rng(10)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    f = lambda pt: pt.p @ v0
    g = random_unitary(n, seed=11)
    x = random_grass_tangent(base, rng).generator
    point = HermitianProjector(g @ base.p @ g.conj().T, k)
    tangent = GrassTangent(point, g @ x @ g.conj().T)
    lhs = reductive_covariant_derivative(f, g, x, base)
    rhs = universal_covariant_derivative(f, point, tangent)
    assert np.linalg.norm(lhs - rhs) < 1e-8


def test_homogeneous_formula_matches_generic_pipeline():
    n = 3
    p = coordinate_projector(n, 1)
    hk = homogeneous_kernel(n, p)
    b = fiber_basis(p)
    rng = np.random.default_rng(12)
    z0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    phi = lambda u: p.p @ (np.asarray(u).conj().T @ z0)
    sigma = Section(F=lambda u: b.conj().T @ phi(u))
    for i in range(5):
        u = random_unitary(n, seed=20 + i)
        x = random_grass_tangent(p, rng).generator
        formula = homogeneous_covariant_derivative(phi, p, u, x)
        generic = covariant_derivative_direct(hk, sigma, u, x)
        assert np.linalg.norm(b.conj().T @ formula - generic) < 1e-6


def test_homogeneous_derivative_rejects_non_anti_hermitian_direction():
    p = coordinate_projector(3, 1)
    phi = lambda u: p.p @ (np.asarray(u).conj().T @ np.ones(3))
    with pytest.raises(DomainError):
        homogeneous_covariant_derivative(phi, p, random_unitary(3, seed=21), np.eye(3))


@pytest.mark.parametrize("u, message", [
    (2 * np.eye(3), r"U\(n\): not unitary"),
    (np.full((3, 3), np.nan), r"U\(n\): point is not finite"),
], ids=["non-unitary", "nan"])
def test_homogeneous_derivative_checks_its_group_point(u, message):
    p = coordinate_projector(3, 1)
    phi = lambda u: p.p @ (np.asarray(u).conj().T @ np.ones(3))
    x = random_grass_tangent(p, np.random.default_rng(21)).generator
    with pytest.raises(DomainError, match=message):
        homogeneous_covariant_derivative(phi, p, u, x)


@pytest.mark.parametrize("g, message", [
    (2 * np.eye(4), r"U\(n\): not unitary"),
    (np.full((4, 4), np.nan), r"U\(n\): point is not finite"),
], ids=["non-unitary", "nan"])
def test_reductive_derivative_checks_its_group_point(g, message):
    base = coordinate_projector(4, 2)
    x = random_grass_tangent(base, np.random.default_rng(22)).generator
    with pytest.raises(DomainError, match=message):
        reductive_covariant_derivative(lambda pt: pt.p @ np.ones(4), g, x, base)


def test_homogeneous_kernel_keeps_its_explicit_formula_bits():
    n = 3
    p = coordinate_projector(n, 1)
    hk = homogeneous_kernel(n, p)
    b = fiber_basis(p)
    u, v = random_unitary(n, seed=17), random_unitary(n, seed=18)
    a = random_grass_tangent(p, np.random.default_rng(19)).generator
    # the feature formula (u B)* (v B), and its d2 (u B)* (v a B), bit for bit; the values
    # against B* (u* v) B, which is computed another way
    assert np.array_equal(hk(u, v), (u @ b).conj().T @ (v @ b))
    assert np.array_equal(hk.d2(u, v, a), (u @ b).conj().T @ ((v @ a) @ b))
    for got, want in ((hk(u, v), b.conj().T @ (u.conj().T @ v) @ b),
                      (hk.d2(u, v, a), b.conj().T @ (u.conj().T @ v @ a) @ b)):
        assert np.linalg.norm(got - want) <= 1e-14 * max(1.0, np.linalg.norm(want))


def _fiber_basis_uncached(point):
    """fiber_basis as computed on every call before it was cached per projector."""
    values, vectors = np.linalg.eigh(0.5 * (point.p + point.p.conj().T))
    cols = vectors[:, values > 0.5]
    fixed = np.empty_like(cols)  # keeps the memory layout, which BLAS products see
    for j in range(cols.shape[1]):
        idx = int(np.argmax(np.abs(cols[:, j])))
        fixed[:, j] = cols[:, j] / (cols[idx, j] / abs(cols[idx, j]))
    return fixed


def test_fiber_basis_is_computed_once_per_projector_and_read_only():
    point = _random_point(6, 3, seed=13)
    b = fiber_basis(point)
    assert fiber_basis(point) is b
    assert not b.flags.writeable and not point.p.flags.writeable
    want = _fiber_basis_uncached(point)
    assert b.tobytes() == want.tobytes() and b.strides == want.strides
    with pytest.raises(ValueError):
        b[0, 0] = 0.0


def test_universal_kernel_values_keep_their_bits_with_the_cache():
    pts = [coordinate_projector(6, 3)] + [_random_point(6, 3, seed=30 + i) for i in range(7)]
    q = universal_kernel(6, 3)
    gram = q.block(pts, pts)
    want = np.block([[_fiber_basis_uncached(s).conj().T @ _fiber_basis_uncached(t)
                      for t in pts] for s in pts])
    assert np.array_equal(gram, want)


def test_grassmann_verify_output_keeps_its_bits_with_the_cache(capsys, monkeypatch):
    from kernelconnect.cli import main

    argv = ["grassmann", "verify", "--n", "6", "--k", "3", "--probes", "6", "--seed", "3"]
    assert main(argv) == 0
    cached = capsys.readouterr().out
    # a derived point's basis u B(p) is its definition, not a cache; every other projector's
    # basis is recomputed at each call
    derived, make = set(), grassmann._orbit
    monkeypatch.setattr(grassmann, "_orbit", lambda u, p, b, rank: [
        derived.add(id(q)) or q for q in make(u, p, b, rank)])
    monkeypatch.setattr(grassmann, "fiber_basis", lambda q: vars(q)["_fiber_basis"]
                        if id(q) in derived else _fiber_basis_uncached(q))
    assert main(argv) == 0
    assert capsys.readouterr().out == cached
    assert derived


def _exp(a, t, u=None):
    """u e^{ta} (u = 1 by default), restated: u V diag(e^{itw}) V* with -ia = V diag(w) V*."""
    w, v = hermitian_eigh(-1j * a)
    return (np.eye(len(a)) if u is None else u) @ (v * np.exp(1j * t * w)) @ v.conj().T


def _unit(a):
    """The stencil's direction and scale restated: A / |A| and |A|, the largest entry modulus, each
    part divided alone."""
    size = max(abs(complex(c)) for c in np.ravel(a))
    unit = [complex(c.real / size, c.imag / size) for c in np.ravel(a)]
    return np.array(unit).reshape(np.shape(a)), size


def _probe(n=4, k=2, seed=40):
    point = _random_point(n, k, seed)
    return point, random_grass_tangent(point, np.random.default_rng(seed + 1)).generator


def test_derivatives_along_a_reused_tangent_keep_their_bits():
    point, generator = _probe()
    v0 = np.arange(1, 5) + 0.5j
    f = lambda pt: pt.p @ v0
    q = universal_kernel(4, 2)
    sigma = Section(F=grass_section_coordinates(f))
    calls = [
        lambda x: GrassDomain(4, 2).derivatives((point,), (x,), lambda pt: np.vdot(v0, f(pt)))[0],
        lambda x: covariant_derivative_direct(q, sigma, point, x),
        lambda x: universal_covariant_derivative(f, point, x),
    ]
    reused = GrassTangent(point, generator)
    for call in calls * 2:  # the second round reads only held points
        assert np.array_equal(call(reused), call(GrassTangent(point, generator)))


def test_a_tangent_holds_a_private_read_only_generator():
    # the tangent holds its curve: a caller's array changed in place would leave it stale
    point, generator = _probe()
    a, f = generator.copy(), lambda pt: pt.p @ np.arange(1, 5)
    tangent = GrassTangent(point, a)
    first = universal_covariant_derivative(f, point, tangent)
    a *= 2
    assert np.array_equal(tangent.generator, generator) and not tangent.generator.flags.writeable
    assert np.array_equal(universal_covariant_derivative(f, point, tangent), first)
    # along A / |A| with the weights times |A|, doubling A doubles every weight, exactly
    assert np.array_equal(universal_covariant_derivative(f, point, GrassTangent(point, a)),
                          2 * first)
    with pytest.raises(ValueError):
        tangent.generator[0, 0] = 5


def test_a_tiny_grassmann_tangent_keeps_a_sample_of_distinct_points():
    # along A / |A| the points of a 1e-9 generator are those of its unit direction
    q, (point, generator) = universal_kernel(4, 2), _probe()
    sigma = Section(F=grass_section_coordinates(lambda pt: pt.p @ np.arange(1, 5)))
    unit = GrassTangent(point, generator / np.max(np.abs(generator)))
    tiny = GrassTangent(point, 1e-9 * unit.generator)
    want = 1e-9 * make_evaluator(q, "direct")(sigma, point, unit)
    for backend in ("direct", "sampled"):
        got = make_evaluator(q, backend)(sigma, point, tiny)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want), backend


def _stencils(domain, points, tangents, h=1e-4):
    """The domain's stencils at the probes, after `jets` checks them."""
    return domain._stencils(*domain.jets(points, tangents), h)


def test_stencil_points_are_built_once_per_tangent_with_the_checked_bits():
    point, generator = _probe()
    tangent, domain = GrassTangent(point, generator), GrassDomain(4, 2)
    (first,), _ = _stencils(domain, (point,), (tangent,))
    (second,), _ = _stencils(domain, (point,), (tangent,))
    assert all(a is b for a, b in zip(first, second))
    for t, derived in zip(1e-4 * np.array([-2.0, -1.0, 1.0, 2.0]), first):
        u = _exp(_unit(generator)[0], t)  # the same conjugate, through the full projector check
        assert np.array_equal(derived.p, HermitianProjector(u @ point.p @ u.conj().T, 2).p)
        assert derived.rank == 2 and not derived.p.flags.writeable
    # another tangent object with an equal generator at the same point, or a tangent anchored at
    # an equal projector object: the probes are keyed by identity, so a fresh curve, the same bits
    (again,), _ = _stencils(domain, (point,), (GrassTangent(point, generator.copy()),))
    assert all(a is not b and np.array_equal(a.p, b.p) for a, b in zip(first, again))
    copy = HermitianProjector(point.p.copy(), 2)
    (other,), _ = _stencils(domain, (copy,), (tangent,))
    assert all(a is not b and np.array_equal(a.p, b.p) for a, b in zip(first, other))


def test_a_tangent_that_holds_its_curve_still_pickles():
    point, generator = _probe()
    tangent = GrassTangent(point, generator)
    f = lambda pt: pt.p @ np.ones(4)
    want = universal_covariant_derivative(f, point, tangent)
    copy = pickle.loads(pickle.dumps(tangent))
    # the copy is other objects, so the kept stencil does not serve it: its own has the same bits
    assert np.array_equal(universal_covariant_derivative(f, copy.base, copy), want)


def test_a_curve_point_is_never_built_from_a_non_unitary_exponential():
    point, generator = _probe()
    with pytest.raises((TypeError, DomainError)):  # e^{tA} is not unitary at a complex t
        _stencils(GrassDomain(4, 2), (point,), (GrassTangent(point, generator),), 0.5j)


def test_stacks_are_object_arrays_of_the_callers_points_and_tangents():
    points = [_random_point(4, 2, seed=140 + i) for i in range(3)]
    tangents = [random_grass_tangent(p, np.random.default_rng(i)) for i, p in enumerate(points)]
    domain = GrassDomain(4, 2)
    stack = domain.stack(points)
    s, x = domain.jets(points, tangents)
    for got, want in ((stack, points), (s, points), (x, tangents)):
        assert isinstance(got, np.ndarray) and got.dtype == object and got.shape == (3,)
        assert all(a is b for a, b in zip(got, want))
    stencils, weights = domain._stencils(s, x, 1e-4)
    assert stencils.dtype == object and stencils.shape == weights.shape == (3, 4)
    assert all(isinstance(q, HermitianProjector) for q in stencils.flat)
    assert not stencils.flags.writeable and not weights.flags.writeable


def test_a_step_too_small_for_a_projector_is_refused_by_its_own_domain_naming_the_probe():
    point = coordinate_projector(4, 2)
    tangent = random_grass_tangent(point, np.random.default_rng(150))
    sigma = Section(F=grass_section_coordinates(lambda pt: pt.p @ np.ones(4)))
    nabla = make_evaluator(universal_kernel(4, 2), "direct", h=1e-20)
    message = "Gr(2,4): stencil step 1.000e-20 is too small to resolve the point"
    with pytest.raises(DomainError) as one:
        nabla(sigma, point, tangent)
    assert str(one.value) == message
    with pytest.raises(DomainError) as two:
        nabla.evaluate(sigma, [point, point], [tangent, tangent])
    assert str(two.value) == message + " (probe 1 of 2)"


def test_a_grassmann_stencil_build_makes_no_unitary_stencil_call(monkeypatch):
    calls, stencils = [], UnitaryDomain._stencils
    monkeypatch.setattr(UnitaryDomain, "_stencils",
                        lambda self, *a: calls.append(self) or stencils(self, *a))
    point, generator = _probe(5, 2, seed=151)  # fresh objects: the kept slot cannot serve them
    (stencil,), _ = _stencils(GrassDomain(5, 2), (point,), (GrassTangent(point, generator),))
    assert len(stencil) == 4 and calls == []


def test_the_kept_slot_keeps_its_grassmann_probes_alive_until_another_call_replaces_it():
    # the slot is keyed by the probes' addresses, so it must hold them: no other object can take
    # a keyed address while the slot is keyed by it
    domain = GrassDomain(4, 2)
    point, generator = _probe(seed=152)
    alive = weakref.ref(point)
    _stencils(domain, (point,), (GrassTangent(point, generator),))
    del point
    gc.collect()
    assert alive() is not None
    other, generator = _probe(seed=153)
    _stencils(domain, (other,), (GrassTangent(other, generator),))
    gc.collect()
    assert alive() is None


def test_agreement_checks_no_curve_point_as_a_projector(monkeypatch):
    from kernelconnect import grassmann

    checked, check = [], grassmann.HermitianProjector.__post_init__
    monkeypatch.setattr(grassmann.HermitianProjector, "__post_init__",
                        lambda self: checked.append(self.rank) or check(self))
    grassmann_agreement(4, 2, probes=3, seed=0)
    # the base alone: the probes g p g*, their stencil points and the reductive oracle's orbit
    # points are unitary conjugates of it, built by `_orbit`
    assert checked == [2]


def test_a_huge_step_is_refused_before_any_curve_point():
    # at h = 1e308, 2 h overflowed, then t w, and a non-finite projector was named; the rule now
    # refuses every h over 0.01, on Gr(k, n) as on every domain
    point, generator = _probe()
    tangent = GrassTangent(point, generator)
    sigma = Section(F=grass_section_coordinates(lambda pt: pt.p @ np.ones(4)))
    message = r"^step must be positive and at most 0\.01, got 1e\+308$"
    with np.errstate(over="raise", invalid="raise"):  # refused before any arithmetic on h
        with pytest.raises(NumericsError, match=message):
            covariant_derivative_direct(universal_kernel(4, 2), sigma, point, tangent, h=1e308)
        with pytest.raises(NumericsError, match=message):
            GrassDomain(4, 2).derivatives((point,), (tangent,), lambda pt: pt.p, h=1e308)[0]


# ---------------------------------------------------------------------------
# Stacked layers: every member has the bits of its one-point call

_TS = 1e-4 * np.array([-2.0, -1.0, 1.0, 2.0])
_W = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * 1e-4)


def test_grassmann_stencils_of_a_stack_are_the_stencils_of_its_probes_bit_for_bit():
    probes = [_probe(6, 3, seed=50 + i) for i in range(4)]
    tangents = [GrassTangent(p, a) for p, a in probes]
    stack, weights = _stencils(GrassDomain(6, 3), [p for p, _ in probes], tangents)
    assert weights.tobytes() == np.array([_W * _unit(a)[1] for _, a in probes]).tobytes()
    for (point, a), points in zip(probes, stack):
        (one,), _ = _stencils(GrassDomain(6, 3), (point,), (GrassTangent(point, a),))
        for t, q, r in zip(_TS, points, one):
            u = _exp(_unit(a)[0], t)
            assert q.p.tobytes() == r.p.tobytes() == (u @ point.p @ u.conj().T).tobytes()


def _assert_moved_basis(q, u, b):
    """q holds u b bit for bit, read-only: orthonormal columns that span the range of q."""
    got = fiber_basis(q)
    assert got.tobytes() == (u @ b).tobytes() and not got.flags.writeable
    assert np.linalg.norm(got.conj().T @ got - np.eye(b.shape[1])) <= 1e-13
    assert np.linalg.norm(q.p @ got - got) <= 1e-13
    assert np.linalg.norm(got @ got.conj().T - q.p) <= 1e-13


@pytest.mark.parametrize("n, k", [(3, 1), (4, 2), (6, 3)])
def test_stencil_and_orbit_points_hold_their_probes_basis_moved_with_them(n, k, monkeypatch):
    # B(u p u*) = u B(p): one frame along each curve, from a product, never from an eigh
    drawn, a = _probe(n, k, seed=80 + n)
    point = HermitianProjector(drawn.p, k)  # without the basis random_grass_tangent held
    calls, eigenbasis = [], grassmann._eigenbasis
    monkeypatch.setattr(grassmann, "_eigenbasis", lambda q: calls.append(q) or eigenbasis(q))
    (stencil,), _ = _stencils(GrassDomain(n, k), (point,), (GrassTangent(point, a),))
    b = fiber_basis(point)  # the stencil call diagonalized the probe, and held its basis
    assert b.tobytes() == _fiber_basis_uncached(point).tobytes()
    for t, q in zip(_TS, stencil):
        _assert_moved_basis(q, _exp(_unit(a)[0], t), b)
    base = coordinate_projector(n, k)
    g, x = random_unitary(n, seed=90 + n), random_grass_tangent(base, np.random.default_rng(9))
    base_basis, orbit = fiber_basis(base), []
    grassmann._reductive(Section(F=lambda q: orbit.append(q) or q.p[:, 0]), (g,), (x.generator,),
                         base)
    for u, q in zip([_exp(_unit(x.generator)[0], t, g) for t in _TS] + [g], orbit):
        _assert_moved_basis(q, u, base_basis)
    # the probe's basis, then coordinate_projector's complement and basis (random_grass_tangent),
    # and no other
    assert [id(q) for q in calls] == [id(point), id(base), id(base)] and len(orbit) == 5


def _universal_restated(f, point, a):
    """p . sum_i w_i |A| F(u_i p u_i*), u_i = e^{t_i A / |A|}, one point at a time."""
    unit, size = _unit(a)
    terms = [w * np.asarray(f(HermitianProjector(u @ point.p @ u.conj().T, point.rank)))
             for w, u in zip(_W * size, (_exp(unit, t) for t in _TS))]
    return point.p @ (((terms[0] + terms[1]) + terms[2]) + terms[3])


def _reductive_restated(f, g, x, base):
    """sum_i w_i |X| F(u_i p u_i*) - (g X g*) F(g p g*), u_i = g e^{t_i X / |X|}, one point at a
    time."""
    orbit = lambda u: HermitianProjector(u @ base.p @ u.conj().T, base.rank)  # noqa: E731
    unit, size = _unit(x)
    terms = [w * np.asarray(f(orbit(_exp(unit, t, g)))) for w, t in zip(_W * size, _TS)]
    return (((terms[0] + terms[1]) + terms[2]) + terms[3]) - (g @ x @ g.conj().T) @ f(orbit(g))


def test_stacked_routes_are_their_one_probe_calls_bit_for_bit():
    from kernelconnect import grassmann

    n, k, rng = 6, 3, np.random.default_rng(71)
    base, v0 = coordinate_projector(n, k), rng.standard_normal(n) + 1j * rng.standard_normal(n)
    f = lambda pt: pt.p @ v0  # noqa: E731
    gs = [random_unitary(n, seed=72 + i) for i in range(5)]
    xs = [random_grass_tangent(base, rng).generator for _ in gs]
    points = [HermitianProjector(g @ base.p @ g.conj().T, k) for g in gs]
    tangents = [GrassTangent(p, g @ x @ g.conj().T) for p, g, x in zip(points, gs, xs)]
    univ = grassmann._universal(Section(F=f), points, tangents)
    red = grassmann._reductive(Section(F=f), gs, xs, base)
    for j, (point, tangent) in enumerate(zip(points, tangents)):
        one = universal_covariant_derivative(f, point, GrassTangent(point, tangent.generator))
        assert univ[j].tobytes() == one.tobytes()
        assert one.tobytes() == _universal_restated(f, point, tangent.generator).tobytes()
        one = reductive_covariant_derivative(f, gs[j], xs[j], base)
        assert red[j].tobytes() == one.tobytes()
        assert one.tobytes() == _reductive_restated(f, gs[j], xs[j], base).tobytes()


def test_agreement_makes_one_call_per_route_and_one_exponential_per_stencil_stack(monkeypatch):
    from kernelconnect import connections, grassmann, kernels

    calls = []

    def count(owner, name):
        method = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **kw: calls.append(name) or method(*a, **kw))

    for owner, name in [(grassmann, "_universal"), (grassmann, "_reductive"),
                        (grassmann, "universal_covariant_derivative"),
                        (grassmann, "reductive_covariant_derivative"),
                        (connections.ConnectionEvaluator, "evaluate"),
                        (GrassDomain, "derivatives")]:
        count(owner, name)
    exponentials, eigh = [], kernels.hermitian_eigh
    monkeypatch.setattr(kernels, "hermitian_eigh",
                        lambda m: exponentials.append(np.shape(m)) or eigh(m))
    bases, eigenbasis = [], grassmann._eigenbasis
    monkeypatch.setattr(grassmann, "_eigenbasis", lambda q: bases.append(q.p) or eigenbasis(q))
    grassmann_agreement(4, 2, probes=5, seed=0)
    # universal for f and for g, reductive, direct, and metric compatibility's derivative
    assert sorted(calls) == ["_reductive", "_universal", "_universal", "derivatives", "evaluate"]
    # the Grassmann stencil stack (shared by four routes), then the reductive U(n) stack
    assert exponentials == [(5, 4, 4), (5, 4, 4)]
    # two eighs, of the base (its complement for the generators, then its basis): the probes, their
    # stencil points and the orbit points hold its basis moved with them
    assert [p.tobytes() for p in bases] == [coordinate_projector(4, 2).p.tobytes()] * 2


def test_agreement_probes_are_orbit_points_holding_the_base_basis_moved(monkeypatch):
    from kernelconnect import numerics

    probes, universal = [], grassmann._universal
    monkeypatch.setattr(grassmann, "_universal",
                        lambda f, ps, xs: probes.append(ps) or universal(f, ps, xs))
    diagonalized, eigenbasis = [], grassmann._eigenbasis
    monkeypatch.setattr(grassmann, "_eigenbasis",
                        lambda q: diagonalized.append(q.p.copy()) or eigenbasis(q))
    grassmann_agreement(4, 2, probes=5, seed=3)
    monkeypatch.undo()
    base = coordinate_projector(4, 2)
    assert [m.tobytes() for m in diagonalized] == [base.p.tobytes()] * 2  # the base alone, twice
    gs = numerics._random_unitaries(4, range(203, 208))
    assert probes[0] is probes[1] and len(probes[0]) == len(gs)
    for g, q in zip(gs, probes[0]):
        assert q.p.tobytes() == (g @ base.p @ g.conj().T).tobytes()
        _assert_moved_basis(q, g, fiber_basis(base))


@pytest.mark.parametrize("n, k", [(3, 1), (4, 2), (5, 2), (6, 3)])
def test_random_grass_tangent_keeps_its_two_eigh_tangents_at_coordinate_projectors(n, k,
                                                                                    monkeypatch):
    # one eigh of (p + p*)/2 per call gives the complement columns a second eigh of p gave: at an
    # exactly Hermitian p the two inputs are the same bits.  Degenerate eigenvectors
    # would rotate under any perturbation, so the tangents are compared, not assumed equal.
    point = coordinate_projector(n, k)
    assert (0.5 * (point.p + point.p.conj().T)).tobytes() == point.p.tobytes()
    old, new = np.random.default_rng(5), np.random.default_rng(5)
    eighs, eigh = [], np.linalg.eigh
    for _ in range(4):
        values, vectors = np.linalg.eigh(point.p)
        r = old.standard_normal((k, n - k)) + 1j * old.standard_normal((k, n - k))
        a = _fiber_basis_uncached(point) @ r @ vectors[:, values <= 0.5].conj().T
        monkeypatch.setattr(np.linalg, "eigh", lambda m: eighs.append(m) or eigh(m))
        got = random_grass_tangent(point, new).generator
        monkeypatch.undo()
        assert got.tobytes() == (a - a.conj().T).tobytes()
    assert len(eighs) == 4 + 1  # one per call, and the basis the projector holds after the first


def _parent_normal(rng, shape):  # one standard complex normal draw, as each call made it
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _parent_generators(point, rng, count):
    """random_grass_tangent's generators one call at a time, at an exactly Hermitian projector,
    whose eigh gives the complement columns `_eigenbasis` gives."""
    values, vectors = np.linalg.eigh(point.p)
    b, c, out = _fiber_basis_uncached(point), vectors[:, values <= 0.5], []
    for _ in range(count):
        a = b @ _parent_normal(rng, (b.shape[1], c.shape[1])) @ c.conj().T
        out.append(a - a.conj().T)
    return out


@pytest.mark.parametrize("seed", [0, 42])
def test_verifys_stacked_draws_are_the_loops_of_per_call_draws_bit_for_bit(seed, monkeypatch):
    from kernelconnect import cpmaps, verify

    # _normals at a vector and a matrix shape, and the state it leaves the generator in
    loop, stacked = np.random.default_rng(seed), np.random.default_rng(seed)
    for count, dim in [(5, 3), (4, (3, 3)), (1, 2)]:
        want = [_parent_normal(loop, dim) for _ in range(count)]
        assert verify._normals(stacked, count, dim).tobytes() == np.array(want).tobytes()
    assert loop.standard_normal() == stacked.standard_normal()
    # the generators that the agreement and homogeneous blocks draw, and the Stinespring block's
    # U(n) directions, as each block receives them
    seen = {}

    def record(owner, name, at):  # the directions, argument `at` of each call
        method = getattr(owner, name)

        def recorded(*args):
            seen[name] = args[at]
            return method(*args)

        monkeypatch.setattr(owner, name, recorded)

    record(grassmann, "_reductive", 2), record(grassmann, "_homogeneous", 3)
    record(cpmaps, "_cp_covariant", 3)
    verify._grassmann_checks(seed), verify._homogeneous_checks(seed)
    verify._stinespring_checks(seed)
    rng = np.random.default_rng(seed + 5)
    _parent_normal(rng, 4), _parent_normal(rng, 4)  # v0 and w0
    want = _parent_generators(coordinate_projector(4, 2), rng, 20)
    assert np.asarray(seen["_reductive"]).tobytes() == np.array(want).tobytes()
    rng = np.random.default_rng(seed + 6)
    _parent_normal(rng, 3)  # z0
    want = _parent_generators(coordinate_projector(3, 1), rng, 20)
    assert np.asarray(seen["_homogeneous"]).tobytes() == np.array(want).tobytes()
    rng = np.random.default_rng(seed + 7)
    cpmaps._random_unital_cpmaps(3, 2, 4, rng, 21), _parent_normal(rng, 2)  # the maps and w0
    want = [0.5 * (a - a.conj().T) for a in (_parent_normal(rng, (3, 3)) for _ in range(20))]
    assert np.asarray(seen["_cp_covariant"]).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("n, k", [(3, 1), (4, 2), (6, 3)])
def test_moved_tangents_are_the_checked_tangents_at_their_orbit_points(n, k):
    from kernelconnect import numerics

    base, rng = coordinate_projector(n, k), np.random.default_rng(40 + n)
    gs = numerics._random_unitaries(n, range(50, 55))
    xs = grassmann._random_generators(base, rng, len(gs))
    points = grassmann._orbit(gs, base.p, fiber_basis(base), k)
    moved = grassmann._moved(points, gs, xs)
    assert len(moved) == len(gs)
    for p, g, x, t in zip(points, gs, xs, moved):
        want = GrassTangent(p, g @ x @ g.conj().T)  # passes the full tangent check
        assert type(t) is GrassTangent and t.base is p
        assert t.generator.tobytes() == want.generator.tobytes()
        assert t.generator.shape == (n, n) and not t.generator.flags.writeable
    xs[3, 0, -1] = np.nan
    with pytest.raises(DomainError, match="^generator is not finite$"):
        grassmann._moved(points, gs, xs)


def test_reductive_check_fails_on_a_wrong_conditional_expectation(monkeypatch):
    # E(X) = pX(1-p) is idempotent and equivariant too; that E fixes the subgroup tells them apart
    from kernelconnect import grassmann, verify

    (check,) = verify._reductive_checks(0)
    assert check["passed"] and 0.0 < check["residual"] < 1e-12
    wrong = lambda point, x: point.p @ np.asarray(x, dtype=complex) @ point.complement()  # noqa
    monkeypatch.setattr(grassmann, "conditional_expectation", wrong)
    (check,) = verify._reductive_checks(0)
    assert not check["passed"] and check["residual"] > 1.0


def test_every_backend_returns_zero_at_a_zero_tangent_where_the_point_commutes_with_e11():
    # a zero generator's stencil is its point four times, with zero weights: iE_11 would not move
    # coordinate_projector(4, 2) either, and the sampled backend's five sample points are one point
    q, point = universal_kernel(4, 2), coordinate_projector(4, 2)
    zero = GrassTangent(point, np.zeros((4, 4)))
    sigma = Section(F=lambda p: fiber_basis(p).conj().T @ p.p[:, 1])
    others = [_random_point(4, 2, seed=70 + i) for i in range(2)]
    xs = [random_grass_tangent(p, np.random.default_rng(i)).generator for i, p in enumerate(others)]
    tangents = lambda: [GrassTangent(p, x) for p, x in zip(others, xs)]  # noqa: E731
    for backend in ("closed-form", "direct", "sampled"):
        nabla = make_evaluator(q, backend)
        assert np.array_equal(nabla(sigma, point, zero), np.zeros(2)), backend
        a, b = tangents()
        got = nabla.evaluate(sigma, [others[0], point, others[1]],
                             [a, GrassTangent(point, np.zeros((4, 4))), b])
        assert not got[1].any(), backend
        # the other probes keep their bits
        assert np.array_equal(got[[0, 2]], nabla.evaluate(sigma, others, tangents())), backend
    (stencil,), weights = _stencils(GrassDomain(4, 2), [point], [zero])
    assert not weights.any() and np.signbit(weights).tolist() == [[False, True, False, True]]


def _mixed_points(n, k):
    """Gr(k, n) points of both basis layouts: `_orbit`'s u B(p), C-ordered, between fresh
    projectors, whose `_eigenbasis` is F-ordered, and the coordinate projector."""
    base = coordinate_projector(n, k)
    us = np.array([random_unitary(n, seed=110 + i) for i in range(3)])
    moved = grassmann._orbit(us, base.p, fiber_basis(base), k)
    fresh = [_random_point(n, k, seed=120 + i) for i in range(3)]
    assert all(fiber_basis(q).flags.c_contiguous for q in moved)
    assert all(fiber_basis(q).flags.f_contiguous for q in fresh)
    return [moved[0], fresh[0], moved[1], fresh[1], base, moved[2], fresh[2]]


@pytest.mark.parametrize("n, k", [(4, 1), (4, 2), (5, 2), (6, 3)])
def test_a_universal_block_is_its_per_pair_basis_products_bit_for_bit(n, k):
    # the batch stacks each point's basis once and takes B(s)* B(t) as one stacked product
    points, q = _mixed_points(n, k), universal_kernel(n, k)
    want = np.block([[fiber_basis(a).conj().T @ fiber_basis(b) for b in points] for a in points])
    stack = q.domain.stack(points)
    gram = q._values((stack,), (stack,))[0]  # (1, a, 1) x (1, 1, b)
    assert gram.tobytes() == want.tobytes()
    rows = q._values(stack[:, None], np.tile(stack, (len(stack), 1)))  # (L, 1) x (L, b), as direct
    assert rows.reshape(want.shape).tobytes() == want.tobytes()
    pairs = q._values(stack[:, None], stack[::-1, None])  # (L, 1) x (L, 1)
    for j, (a, b) in enumerate(zip(points, points[::-1])):
        assert pairs[j].tobytes() == (fiber_basis(a).conj().T @ fiber_basis(b)).tobytes()


def test_universal_and_reductive_read_a_batched_section_bit_for_bit():
    # P v0 with a batch, as grassmann_agreement's sections, against the same section without it
    n, k, rng = 6, 3, np.random.default_rng(75)
    base, v0 = coordinate_projector(n, k), rng.standard_normal(n) + 1j * rng.standard_normal(n)
    plain, shapes = Section(F=lambda pt: pt.p @ v0), []
    batched = Section(F=plain.F, batch=lambda pts: shapes.append(pts.shape) or np.array(
        [pt.p for pt in pts.flat]).reshape(pts.shape + (n, n)) @ v0)
    gs = np.array([random_unitary(n, seed=76 + i) for i in range(5)])
    xs = grassmann._random_generators(base, rng, 5)
    points = grassmann._orbit(gs, base.p, fiber_basis(base), k)
    tangents = grassmann._moved(points, gs, xs)
    for route, args in ((grassmann._universal, (points, tangents)),
                        (grassmann._reductive, (gs, xs, base))):
        assert route(batched, *args).tobytes() == route(plain, *args).tobytes(), route.__name__
    # one call at the Grassmann stencils; then the U(n) stencils' orbit points and the probes'
    assert shapes == [(5, 4), (5, 4), (5,)]


def _never(k):
    """k with an eval that fails the test: a call of it is a fall back to the per-pair loop."""
    return replace(k, eval=lambda s, t: pytest.fail(f"{k.name}: eval called pair by pair"))


def test_a_universal_rkhs_and_direct_backend_make_no_eval_call():
    points = [coordinate_projector(6, 3)] + [_random_point(6, 3, seed=130 + i) for i in range(7)]
    q = universal_kernel(6, 3)
    loop = Kernel(q.fiber_dim, q.domain, q.eval, q.d2, name=q.name)  # no batch: eval per pair
    assert build_rkhs(_never(q), points).gram.tobytes() == build_rkhs(loop, points).gram.tobytes()
    q, rng = universal_kernel(4, 2), np.random.default_rng(131)
    probes = [_random_point(4, 2, seed=132 + i) for i in range(5)]
    tangents = [random_grass_tangent(p, rng) for p in probes]
    sigma = Section(F=lambda p: fiber_basis(p).conj().T @ p.p[:, 1])
    loop = Kernel(q.fiber_dim, q.domain, q.eval, q.d2, name=q.name)
    got = make_evaluator(_never(q), "direct").evaluate(sigma, probes, tangents)
    want = make_evaluator(loop, "direct").evaluate(sigma, probes, tangents)
    assert got.tobytes() == want.tobytes()
