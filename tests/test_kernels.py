import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from kernelconnect.connections import Section, make_evaluator
from kernelconnect.cpmaps import random_unitary
from kernelconnect.grassmann import (
    GrassDomain,
    HermitianProjector,
    coordinate_projector,
    random_grass_tangent,
)

from kernelconnect.kernels import (
    DISK_BOUNDARY_GUARD,
    BundleMorphism,
    DomainError,
    Kernel,
    UnitaryDomain,
    VectorDomain,
    admissibility_report,
    gram_matrix,
    make_bergman_disk,
    make_bergman_halfplane,
    make_fock,
    make_group_kernel,
    make_rank_one_kernel,
    positivity_certificate,
    pull_back_kernel,
)
from kernelconnect.numerics import NumericsError


def _probe_pairs(kernel, count, seed):
    """Random (point, tangent) pairs inside each built-in base domain."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        if "disk" in kernel.name:
            s = np.array([0.8 * (rng.uniform() + 0j) * np.exp(2j * np.pi * rng.uniform())])
        elif "halfplane" in kernel.name:
            s = np.array([rng.uniform(-1, 1) + 1j * rng.uniform(0.3, 1.5)])
        else:
            d = kernel.domain.dim
            s = 0.5 * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
        x = rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape)
        out.append((s, x))
    return out


def test_disk_kernel_value():
    # (1 - 0.25)^(-2) = 16/9 at s = t = 0.5, nu = 2
    k = make_bergman_disk(2)
    assert abs(k(np.array([0.5]), np.array([0.5]))[0, 0] - 16.0 / 9.0) < 1e-14


def test_halfplane_kernel_value():
    # (1/4)(2i)(i - (-i))^(-1) = 1/4 at z = w = i, nu = 1
    k = make_bergman_halfplane(1)
    assert abs(k(np.array([1j]), np.array([1j]))[0, 0] - 0.25) < 1e-14


def test_fock_kernel_value():
    # exp(z . conj(w)) with z = (1, i), w = (1, 0) gives e
    k = make_fock(np.eye(2))
    v = k(np.array([1.0, 1j]), np.array([1.0, 0.0]))[0, 0]
    assert abs(v - np.e) < 1e-13


@pytest.mark.parametrize("make", [
    lambda: make_bergman_disk(2),
    lambda: make_bergman_disk(3),
    lambda: make_bergman_halfplane(1),
    lambda: make_bergman_halfplane(2),
    lambda: make_fock(np.eye(3)),
])
def test_analytic_d2_matches_stencil(make):
    k = make()
    plain = type(k)(k.fiber_dim, k.domain, k.eval, None, k.name)
    for s, x in _probe_pairs(k, 10, seed=3):
        analytic = k.diagonal_jet((s,), (x,))[1][0]
        stencil = plain.diagonal_jet((s,), (x,), h=1e-4)[1][0]
        assert np.linalg.norm(analytic - stencil) < 1e-8


@pytest.mark.parametrize("nu", [1024.0, 1e300])
def test_halfplane_rejects_nu_whose_constant_overflows(nu):
    with pytest.raises(ValueError, match="nu must be finite"):
        make_bergman_halfplane(nu)


def test_gram_matrix_is_psd_on_disk_sample():
    k = make_bergman_disk(2)
    pts = [np.array([z]) for z in (0.0, 0.5, -0.5)]
    g = gram_matrix(k, pts)
    is_psd, min_eig = positivity_certificate(g)
    assert is_psd and min_eig > 0
    assert np.linalg.norm(g - g.conj().T) < 1e-14


def test_fock_gram_is_psd_on_random_sample():
    k = make_fock(np.eye(2))
    rng = np.random.default_rng(5)
    pts = [0.6 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)) for _ in range(10)]
    is_psd, _ = positivity_certificate(gram_matrix(k, pts))
    assert is_psd


def test_domain_guards():
    disk = make_bergman_disk(1)
    with pytest.raises(DomainError):
        disk(np.array([1.0]), np.array([0.0]))
    half = make_bergman_halfplane(1)
    with pytest.raises(DomainError):
        half(np.array([1.0 - 0.1j]), np.array([1j]))


def _accepts(domain, p) -> bool:
    try:
        domain.stack((p,))
    except DomainError:
        return False
    return True


def test_the_disk_holds_exactly_its_points_at_positive_edge_distance():
    # 60,000 one-ulp neighbours of the guard circle |s| = 1 - 1e-6, where numpy's abs of an array
    # and hypot can round apart: the one boundary decides, on one point and on a stack
    disk = make_bergman_disk(2).domain
    z = DISK_BOUNDARY_GUARD * np.exp(2j * np.pi * np.random.default_rng(0).random(20000))
    pts = np.concatenate([z, np.nextafter(z.real, np.inf) + 1j * z.imag,
                          z.real + 1j * np.nextafter(z.imag, -np.inf)])[:, None]
    inside = disk.edge(pts) > 0
    assert 0 < inside.sum() < len(pts)
    assert np.array_equal([_accepts(disk, p) for p in pts], inside)
    assert np.array_equal(disk.stack(pts[inside]), pts[inside])


def test_kernel_hermitian_symmetry():
    for k in (make_bergman_disk(2), make_bergman_halfplane(1), make_fock(np.eye(2))):
        for (s, _), (t, _) in zip(_probe_pairs(k, 5, 7), _probe_pairs(k, 5, 8)):
            assert np.linalg.norm(k(s, t).conj().T - k(t, s)) < 1e-12


def test_rank_one_kernel_is_degenerate():
    k = make_rank_one_kernel(lambda s: np.array([1.0, complex(np.asarray(s).flat[0])]),
                             fiber_dim=2, domain=VectorDomain(1, name="C"))
    pts = [np.array([z]) for z in (0.1, 0.4 - 0.2j, -0.3 + 0.1j, 0.25j)]
    rep = admissibility_report(k, pts)
    assert abs(rep["min_sigma"]) < 1e-12
    assert abs(rep["embedding_lower_bound"]) < 1e-12
    assert rep["hermitian_symmetry_residual"] < 1e-12


def test_admissibility_positive_for_builtins():
    cases = [
        (make_bergman_disk(2), [np.array([z]) for z in (0.0, 0.4, 0.5j)]),
        (make_fock(np.eye(2)), [np.zeros(2), np.array([0.5, 0.5j])]),
    ]
    for k, pts in cases:
        rep = admissibility_report(k, pts)
        assert rep["min_sigma"] > 0.5
        assert rep["embedding_lower_bound"] > 0.5
        assert abs(rep["min_sigma"] - rep["embedding_lower_bound"]) < 1e-12


def test_pullback_through_identity_morphism():
    k = make_bergman_disk(2)
    identity = BundleMorphism(zeta=lambda s: s, delta=lambda s: np.eye(1), tangent=lambda s, x: x)
    pulled = pull_back_kernel(identity, k, fiber_dim=1, domain=k.domain)
    for s, _ in _probe_pairs(k, 5, 9):
        t = np.array([0.3 + 0.1j])
        assert np.linalg.norm(pulled(s, t) - k(s, t)) < 1e-14


def test_pullback_rescales_by_fiber_map():
    k = make_bergman_disk(2)
    theta = BundleMorphism(zeta=lambda s: s, delta=lambda s: np.array([[2.0]]),
                           tangent=lambda s, x: x)
    pulled = pull_back_kernel(theta, k, fiber_dim=1, domain=k.domain)
    s, t = np.array([0.2]), np.array([0.1 + 0.3j])
    assert np.linalg.norm(pulled(s, t) - 4.0 * k(s, t)) < 1e-14


_SCALAR = {
    "disk": make_bergman_disk(2),
    "halfplane": make_bergman_halfplane(1),
    "fock": make_fock(np.eye(2)),
}

_IN_DOMAIN = {
    "disk": st.builds(lambda r, th: np.array([r * np.exp(1j * th)]),
                      st.floats(0.0, 0.95), st.floats(0.0, 2.0 * np.pi)),
    "halfplane": st.builds(lambda x, y: np.array([complex(x, y)]),
                           st.floats(-2.0, 2.0), st.floats(0.05, 3.0)),
    "fock": st.builds(lambda a, b, c, d: np.array([complex(a, b), complex(c, d)]),
                      *[st.floats(-1.5, 1.5)] * 4),
}


@pytest.mark.parametrize("family", sorted(_SCALAR))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_scalar_kernels_hermitian_psd_and_block_matches_pairs(family, data):
    k = _SCALAR[family]
    ss = data.draw(st.lists(_IN_DOMAIN[family], min_size=1, max_size=5))
    ts = data.draw(st.lists(_IN_DOMAIN[family], min_size=1, max_size=5))
    block = k.block(ss, ts)
    assert block.shape == (len(ss), len(ts))
    for l, s in enumerate(ss):
        for j, t in enumerate(ts):
            kst = k(s, t)
            assert np.array_equal(block[l:l + 1, j:j + 1], kst)
            assert np.array_equal(kst, k.eval(s, t))
            assert abs(kst[0, 0].conjugate() - k(t, s)[0, 0]) <= 1e-12 * max(1.0, abs(kst[0, 0]))
    assert positivity_certificate(gram_matrix(k, ss))[0]


def test_eval_of_a_builtin_has_the_bits_of_its_block():
    # k.eval keeps a leading axis as blocks does: numpy's arithmetic on 0-d scalars rounds
    # about one disk value in twenty differently
    rng = np.random.default_rng(31)
    for k in (make_bergman_disk(1), make_bergman_disk(2.5), make_bergman_halfplane(2),
              make_fock(np.eye(2))):
        z = 0.6 * (rng.uniform(-1, 1, (200, 2, k.domain.dim))
                   + 1j * rng.uniform(-1, 1, (200, 2, k.domain.dim)))
        if k.name.startswith("bergman-halfplane"):
            z = z.real + 1j * (0.2 + np.abs(z.imag))
        for s, t in z:
            assert np.array_equal(k.eval(s, t), k(s, t)), k.name


@pytest.mark.parametrize("kernel, s", [
    (make_bergman_disk(1e300), [0.5]),
    (make_bergman_halfplane(200), [0.001j]),
    (make_fock(np.eye(1)), [30]),
])
def test_non_finite_kernel_value_raises(kernel, s):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericsError, match="kernel value is not finite"):
            kernel(s, s)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), t=st.floats(-1.0, 1.0))
def test_unitary_curve_matches_expm_and_stays_unitary(n, seed, t):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = 0.5 * (g - g.conj().T)
    u = random_unitary(n, seed=seed)
    got = UnitaryDomain(n).curve(u, a)(t)
    # scipy's Pade exponential is the independent reference here only
    assert np.max(np.abs(got - u @ scipy.linalg.expm(t * a))) <= 1e-13
    assert np.max(np.abs(got.conj().T @ got - np.eye(n))) <= 1e-13


def _random_psd_beta(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T / dim


# nu = 1 takes numpy's reciprocal fast path for ** -1; non-integer nu and a
# non-identity beta exercise the general power and the coordinate sums
_BATCH_FAMILIES = (
    [(f"disk:nu={nu}", lambda nu=nu: make_bergman_disk(nu), "disk")
     for nu in (1, 1.5, 2, 2.5, 3)]
    + [(f"halfplane:nu={nu}", lambda nu=nu: make_bergman_halfplane(nu), "halfplane")
       for nu in (1, 2.5)]
    + [(f"fock:dim={d}", d, "fock") for d in (1, 2, 3, 4)]
)


def _points_in(domain_kind, dim):
    if domain_kind != "fock":
        return _IN_DOMAIN[domain_kind]
    return st.builds(lambda re, im: np.array(re) + 1j * np.array(im),
                     *[st.lists(st.floats(-1.5, 1.5), min_size=dim, max_size=dim)] * 2)


@pytest.mark.parametrize("label, make, kind", _BATCH_FAMILIES,
                         ids=[f[0] for f in _BATCH_FAMILIES])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_batched_block_equals_per_pair_calls_bit_for_bit(label, make, kind, data):
    if kind == "fock":
        k = make_fock(_random_psd_beta(make, data.draw(st.integers(0, 2**32 - 1))))
        dim = make
    else:
        k, dim = make(), 1
    ss = data.draw(st.lists(_points_in(kind, dim), min_size=1, max_size=12))
    ts = data.draw(st.lists(_points_in(kind, dim), min_size=1, max_size=12))
    block, gram = k.block(ss, ts), k.block(ss, ss)
    for l, s in enumerate(ss):
        for j, t in enumerate(ts):
            assert np.array_equal(block[l:l + 1, j:j + 1], k(s, t))
        for j, t in enumerate(ss):
            assert np.array_equal(gram[l:l + 1, j:j + 1], k(s, t))


# the per-pair formulas of the Python-scalar evaluation the array formulas replaced
def _disk_pair(nu, s, t):
    return (1.0 - np.conj(complex(t[0])) * complex(s[0])) ** (-nu)


def _halfplane_pair(nu, z, w):
    return 0.25 * (2.0j) ** nu * (complex(z[0]) - np.conj(complex(w[0]))) ** (-nu)


@pytest.mark.parametrize("make, pair, sample", [
    (make_bergman_disk, _disk_pair,
     lambda rng: 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())),
    (make_bergman_halfplane, _halfplane_pair,
     lambda rng: rng.uniform(-1.0, 1.0) + 1j * rng.uniform(0.05, 1.5)),
])
@pytest.mark.parametrize("nu", [1, 1.5, 2, 2.5, 3])
def test_gram_at_200_points_matches_the_per_pair_formula(make, pair, sample, nu):
    rng = np.random.default_rng(200)
    pts = [np.array([sample(rng)]) for _ in range(200)]
    want = np.array([[pair(nu, s, t) for t in pts] for s in pts])
    got = gram_matrix(make(nu), pts)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_fock_gram_at_200_points_matches_the_per_pair_formula(dim):
    rng = np.random.default_rng(dim)
    pts = [0.5 * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) for _ in range(200)]
    for b in (np.eye(dim), 10.0 * _random_psd_beta(dim, seed=dim)):
        beta = np.array([[np.dot(s, b @ np.conj(t)) for t in pts] for s in pts])
        got = gram_matrix(make_fock(b), pts)
        rel = np.abs(got - np.exp(beta)) / np.abs(np.exp(beta))
        if np.array_equal(b, np.eye(dim)):
            assert np.all(rel <= 1e-15 * (1.0 + np.abs(beta)))
        else:
            # beta is a sum of terms that can cancel; both sides round each term
            terms = np.array([[np.abs(s) @ np.abs(b) @ np.abs(t) for t in pts] for s in pts])
            assert np.all(rel <= 1e-15 * (1.0 + terms))


@pytest.mark.parametrize("kernel, pts, message", [
    (make_bergman_disk(2), [0.1, 0.5j, -0.3, 1.2, 0.99999999],
     r"unit disk: \|s\| = 1.20000000 is too close to the unit circle \(point 3 of 5\)"),
    (make_bergman_halfplane(1), [1j, 2j, 0.5 - 0.1j],
     r"upper half-plane: Im z = -1.000e-01 must be positive \(point 2 of 3\)"),
    (make_fock(np.eye(2)), [[0, 0], [1, 1j], [np.nan, 0], [np.inf, 0]],
     r"C\^2: non-finite point \(point 2 of 4\)"),
    (make_fock(np.eye(2)), [[0, 0], [1, 1j, 2], [0, 1]],
     r"C\^2: expected dimension 2, got 3 \(point 1 of 3\)"),
])
def test_a_stack_names_its_first_point_outside_the_domain(kernel, pts, message):
    with pytest.raises(DomainError, match=message):
        gram_matrix(kernel, pts)
    with pytest.raises(DomainError, match=message):
        kernel.block([pts[0]], pts)


def test_non_finite_analytic_derivative_raises():
    with np.errstate(over="ignore", invalid="ignore"):
        k = make_fock(np.eye(1))
        assert np.isfinite(k([26.6], [26.6])).all()
        with pytest.raises(NumericsError, match="fock:dim=1: kernel derivative is not finite"):
            k.diagonal_jet([[26.6]], [[1]])[1]


def test_block_with_no_points_on_one_side_is_empty():
    for k, s in ((make_fock(np.eye(2)), np.zeros(2)), (make_bergman_disk(2), 0.5),
                 (make_rank_one_kernel(lambda p: np.ones(2), 2, VectorDomain(1)), 0.5)):
        assert k.block([s], []).shape == (k.fiber_dim, 0)
        assert k.block([], [s]).shape == (0, k.fiber_dim)


def test_values_stack_the_blocks_of_their_members_bit_for_bit():
    # _values, the stacked core the backends read, at members given as lists of points
    rng = np.random.default_rng(13)
    rank_one = make_rank_one_kernel(lambda p: np.array([1.0, 2.0 + complex(np.asarray(p).flat[0])]),
                                    2, VectorDomain(1))
    for k, dim in ((make_bergman_disk(2.5), 1), (make_bergman_halfplane(1), 1),
                   (make_fock(np.eye(3)), 3), (rank_one, 1)):
        pts = 0.3 * (rng.standard_normal((3, 5, dim)) + 1j * rng.standard_normal((3, 5, dim)))
        if k.name.startswith("bergman-halfplane"):
            pts = pts.real + 1j * (0.1 + np.abs(pts.imag))
        ss, ts = [list(p[:2]) for p in pts], [list(p) for p in pts]
        for a, b in ((ss, ts), (ts, ts)):
            want = np.array([k.block(x, y) for x, y in zip(a, b)])
            assert np.array_equal(k._values(a, b), want), k.name


def test_stencils_of_a_stack_are_the_stencils_of_its_points_bit_for_bit():
    # vector domains build every curve as one array, with each point's edge-layer step
    disk = make_bergman_disk(2).domain
    pts = [np.array([r * np.exp(1j * r)]) for r in (0.0, 0.5, 0.9, 0.93, 0.99, 0.9999)]
    xs = [np.array([1.0 - 2.0j]), np.array([0.3j]), np.array([-1.0]), np.array([2.0]),
          np.array([1e-3 + 1e-3j]), np.array([0.7])]
    s, x = disk.jets(pts, xs)
    q, w = disk._stencils(s, x, 1e-4)
    for j, (p, x) in enumerate(zip(pts, xs)):
        d = DISK_BOUNDARY_GUARD - abs(p[0])
        h = 1e-4 * d / 0.08 if d < 0.08 else 1e-4
        assert np.array_equal(s[j], p)
        assert np.array_equal(q[j], np.array([p + t * x for t in (-2.0 * h, -h, h, 2.0 * h)]))
        assert np.array_equal(w[j], np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h))
    disk.stack(q.reshape(-1, 1))  # every stencil point stays inside


def test_stencil_derivative_matches_analytic():
    # d/dt exp((0.3+0.2i) t) at 0 = 0.3+0.2i; 5-point stencil is O(h^4)
    c = 0.3 + 0.2j
    d = VectorDomain(1).derivative(np.array([0.0]), np.array([1.0]), lambda p: np.exp(c * p))
    assert abs(d[0] - c) < 1e-12


def test_stencil_derivative_rejects_bad_step():
    for h in (0.0, -1e-4, float("nan")):
        with pytest.raises(NumericsError, match="step must be positive"):
            VectorDomain(1).derivative(np.array([0.0]), np.array([1.0]), np.exp, h=h)


def test_stencil_derivative_rejects_a_non_finite_value():
    with pytest.raises(NumericsError, match="non-finite function value"):
        VectorDomain(1).derivative(np.array([0.0]), np.array([1.0]),
                                   lambda p: np.array([np.inf if p[0] > 0 else 1.0]))


def _derivative_cases():
    """(domain, f, points, directions) on C^2, U(3) and Gr(2, 4), f vector- or matrix-valued."""
    rng = np.random.default_rng(17)
    c = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    vs = [0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)) for _ in range(4)]
    us = [random_unitary(3, seed=90 + i) for i in range(3)]
    base = coordinate_projector(4, 2)
    ps = [HermitianProjector(u @ base.p @ u.conj().T, 2)
          for u in (random_unitary(4, seed=95 + i) for i in range(3))]
    return [
        (VectorDomain(2), lambda p: np.exp(c @ p), vs,
         [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in vs]),
        (UnitaryDomain(3), lambda u: u @ u, us,
         [a - a.conj().T for a in (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                                   for _ in us)]),
        (GrassDomain(4, 2), lambda p: p.p @ v, ps,
         [random_grass_tangent(p, rng) for p in ps]),
    ]


def test_derivatives_of_a_stack_are_the_derivatives_of_its_probes_bit_for_bit():
    for domain, f, pts, xs in _derivative_cases():
        got = domain.derivatives(pts, xs, f)
        want = np.array([domain.derivative(s, x, f) for s, x in zip(pts, xs)])
        assert got.shape == want.shape and np.array_equal(got, want), domain
        with pytest.raises(DomainError, match=f"{len(pts)} points but {len(pts) - 1} directions"):
            domain.derivatives(pts, xs[:-1], f)


def test_stencil_is_the_five_point_rule_along_the_curve():
    s, x, h = np.array([0.3 - 0.1j]), np.array([1.0 + 2.0j]), 1e-3
    (points,), (weights,) = VectorDomain(1)._stencils(*VectorDomain(1).jets((s,), (x,)), h)
    assert np.array_equal(np.array(points), s + np.array([-2.0, -1.0, 1.0, 2.0])[:, None] * h * x)
    assert np.array_equal(weights, np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h))


@pytest.mark.parametrize("make, point", [  # point(d) lies at distance d from the edge
    (lambda: make_bergman_disk(2), lambda d: DISK_BOUNDARY_GUARD - d),
    (lambda: make_bergman_halfplane(2), lambda d: 0.3 + 1j * d),
])
def test_stencil_step_shrinks_only_near_the_edge(make, point):
    domain = make().domain
    for d, h in [(0.5, 1e-4), (0.1, 1e-4), (0.081, 1e-4), (0.04, 5e-5), (1e-4, 1.25e-7)]:
        s = np.array([point(d)])
        (points,), (weights,) = domain._stencils(*domain.jets((s,), (np.array([1.0]),)), 1e-4)
        assert weights[0] * 12.0 * h == pytest.approx(1.0, rel=1e-9)
        if d >= 0.08:  # EDGE_LAYER: the step is exactly the caller's
            assert np.array_equal(weights, np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * 1e-4))
        domain.stack(points)  # every point stays inside


@pytest.mark.parametrize("call, message", [
    (lambda: VectorDomain(1).check_tangent(np.zeros(1), [np.nan]), r"C\^d: tangent is not finite$"),
    (lambda: VectorDomain(2, name="C^2").jets([np.zeros(2)] * 3, [[1, 0], [1, np.inf], [0, 1]]),
     r"C\^2: tangent is not finite \(probe 1 of 3\)"),
    (lambda: make_bergman_disk(2).domain.derivatives([0.1, 0.2], [1.0, np.nan], np.exp),
     r"unit disk: tangent is not finite \(probe 1 of 2\)"),
    (lambda: make_bergman_disk(2).diagonal_jet([0.1], [np.nan]),
     "unit disk: tangent is not finite"),
    (lambda: make_fock(np.eye(2)).diagonal_jet([np.zeros(2)] * 2, [[1, 0], [np.nan, 0]]),
     r"C\^2: tangent is not finite \(probe 1 of 2\)"),
] + [(lambda b=b: make_evaluator(make_bergman_disk(2), b).evaluate(
          Section(F=lambda s: np.ones(1)), [[0.1], [0.2j], [0.3]], [[1], [np.nan], [1]]),
      r"unit disk: tangent is not finite \(probe 1 of 3\)")
     for b in ("closed-form", "direct", "sampled")])
def test_a_vector_domain_rejects_a_non_finite_tangent_and_names_its_probe(call, message):
    # on the disk a NaN direction read as a non-finite stencil point or kernel derivative
    with pytest.raises(DomainError, match=message):
        call()


@pytest.mark.parametrize("call", [
    lambda d: d.check_point(np.full((2, 2), np.nan)),
    lambda d: d.check_point(np.diag([1.0, np.inf])),
    lambda d: d.check_tangent(np.eye(2), np.full((2, 2), np.nan)),
    lambda d: d.check_tangent(np.eye(2), np.array([[0, np.inf], [-np.inf, 0]])),
    lambda d: make_group_kernel(2, 2, lambda m: m, "id").diagonal_jet(
        [np.eye(2)], [np.full((2, 2), np.nan)]),
])
def test_a_unitary_domain_rejects_a_non_finite_point_or_tangent_first(call):
    # ||u*u - I|| and ||a + a*|| are NaN there, and NaN > tol is False
    with pytest.raises(DomainError, match=r"U\(n\): (point|tangent) is not finite"):
        call(UnitaryDomain(2))


def test_admissibility_report_reads_kappa_from_its_gram(monkeypatch):
    rank_one = make_rank_one_kernel(lambda s: np.array([1.0, 2.0 + complex(np.asarray(s).flat[0])]),
                                    2, VectorDomain(1))
    for k, pts in [(make_bergman_disk(2), [np.array([z]) for z in (0.0, 0.4, -0.3 + 0.2j)]),
                   (make_fock(np.eye(2)), [np.zeros(2), np.array([0.5, 0.5j])]),
                   (rank_one, [np.array([z]) for z in (0.1, 0.4 - 0.2j, 0.25j)])]:
        lowest = min(np.linalg.eigvalsh(k(s, s))[0] for s in pts)
        calls = []
        block = Kernel.block
        monkeypatch.setattr(Kernel, "block",
                            lambda self, ss, ts: calls.append((ss, ts)) or block(self, ss, ts))
        rep = admissibility_report(k, pts)
        monkeypatch.undo()
        assert len(calls) == 1 and calls[0][0] is calls[0][1], k.name  # the Gram alone
        assert rep["min_sigma"] == rep["embedding_lower_bound"], k.name
        assert abs(rep["min_sigma"] - lowest) <= 1e-12 * max(1.0, abs(lowest)), k.name


def test_a_vector_domain_rejects_a_tangent_that_is_not_a_vector():
    # check_tangent is the one-probe jets, and a stack no longer flattens a 2-d tangent
    domain = VectorDomain(2)
    for call in (lambda: domain.check_tangent(np.zeros(2), [[1.0, 0.0]]),
                 lambda: domain.jets([np.zeros(2)], [[[1.0, 0.0]]])):
        with pytest.raises(DomainError, match=r"must be 1-d, got shape \(1, 2\)"):
            call()


def test_diagonal_jet_checks_its_stack_once_and_names_what_is_wrong():
    k = make_bergman_disk(2)
    pts, xs = [np.array([0.1]), np.array([0.2j]), np.array([1.5])], [np.ones(1)] * 3
    with pytest.raises(DomainError, match="point 2 of 3"):
        k.diagonal_jet(pts, xs)
    with pytest.raises(DomainError, match="tangent dimension 2 != 1"):
        k.diagonal_jet(pts[:2], [np.ones(2), np.ones(2)])
    kss, d2 = k.diagonal_jet(pts[:2], xs[:2])
    assert kss.shape == d2.shape == (2, 1, 1)
    for s, x, a, b in zip(pts, xs, kss, d2):
        assert np.array_equal(a, k(s, s)) and np.array_equal(b, k.diagonal_jet((s,), (x,))[1][0])
    with np.errstate(over="ignore", invalid="ignore"):
        fock = make_fock(np.eye(1))
        with pytest.raises(NumericsError, match="fock:dim=1: kernel derivative is not finite"):
            fock.diagonal_jet([[0.5], [26.6]], [[1], [1]])
