import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from kernelconnect import kernels
from kernelconnect.connections import Section, connection_form, connection_forms, make_evaluator
from kernelconnect.cpmaps import random_unitary
from kernelconnect.grassmann import (
    GrassDomain,
    HermitianProjector,
    coordinate_projector,
    homogeneous_kernel,
    random_grass_tangent,
    universal_kernel,
)

from kernelconnect.kernels import (
    DISK_BOUNDARY_GUARD,
    BundleMorphism,
    Domain,
    DomainError,
    Kernel,
    UnitaryDomain,
    VectorDomain,
    admissibility_report,
    feature_kernel,
    gram_matrix,
    make_bergman_disk,
    make_bergman_halfplane,
    make_fock,
    positivity_certificate,
    pull_back_kernel,
    stencil_sum,
)
from kernelconnect.kernels import _certify, _psd_spectra
from kernelconnect.numerics import NumericsError, hermitian_eigh


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
    k = feature_kernel(lambda s: np.array([[1.0, np.conj(s[0])]]), 2, VectorDomain(1, name="C"),
                       "rank-one")
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


def _unit(a):
    """The stencil's direction and scale restated: a / |a| and |a|, the largest entry modulus, each
    part divided alone."""
    size = max(abs(complex(c)) for c in np.ravel(a))
    unit = [complex(c.real / size, c.imag / size) for c in np.ravel(a)]
    return np.array(unit).reshape(np.shape(a)), size


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), t=st.floats(-1.0, 1.0))
def test_unitary_curve_matches_expm_and_stays_unitary(n, seed, t):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = 0.5 * (g - g.conj().T)
    u = random_unitary(n, seed=seed)
    h = max(abs(t), 1e-3) / 2.0  # the curve points u e^{ta / |a|} at t = -2h, -h, h, 2h, |t| <= 1
    unit, _ = _unit(a)
    (points,) = kernels._exponentials(u, h, unit.reshape(1, -1))
    for s, got in zip((-2.0, -1.0, 1.0, 2.0), points):
        # scipy's Pade exponential is the independent reference here only
        assert np.max(np.abs(got - u @ scipy.linalg.expm(s * h * unit))) <= 1e-13
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
     r"unit disk: \|s\| = 1.20000000 is too close to the unit circle \(point 4 of 5\)"),
    (make_bergman_halfplane(1), [1j, 2j, 0.5 - 0.1j],
     r"upper half-plane: Im z = -1.000e-01 must be positive \(point 3 of 3\)"),
    (make_fock(np.eye(2)), [[0, 0], [1, 1j], [np.nan, 0], [np.inf, 0]],
     r"C\^2: point is not finite \(point 3 of 4\)"),
    (make_fock(np.eye(2)), [[0, 0], [1, 1j, 2], [0, 1]],
     r"C\^2: expected dimension 2, got 3 \(point 2 of 3\)"),
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
        for _ in range(2):  # an error keeps no jet: the same probe raises again
            with pytest.raises(NumericsError, match="fock:dim=1: kernel derivative is not finite"):
                k.diagonal_jet([[26.6]], [[1]])[1]


def test_block_with_no_points_on_one_side_is_empty():
    for k, s in ((make_fock(np.eye(2)), np.zeros(2)), (make_bergman_disk(2), 0.5),
                 (feature_kernel(lambda p: np.ones((1, 2)), 2, VectorDomain(1), "rank-one"), 0.5)):
        assert k.block([s], []).shape == (k.fiber_dim, 0)
        assert k.block([], [s]).shape == (0, k.fiber_dim)


def test_values_stack_the_blocks_of_their_members_bit_for_bit():
    # _values, the stacked core the backends read, at members given as lists of points
    rng = np.random.default_rng(13)
    rank_one = feature_kernel(lambda p: np.array([[1.0, np.conj(2.0 + p[0])]]), 2, VectorDomain(1),
                              "rank-one")
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
    pts.append(np.array([0.3j]))
    xs = [np.array([1.0 - 2.0j]), np.array([0.3j]), np.array([-1.0]), np.array([2.0]),
          np.array([1e-3 + 1e-3j]), np.array([0.7]), np.array([0.0])]
    s, x = disk.jets(pts, xs)
    q, w = disk._stencils(s, x, 1e-4)
    for j, (p, x) in enumerate(zip(pts, xs)):
        d = DISK_BOUNDARY_GUARD - abs(p[0])
        h = 1e-4 * d / 0.08 if d < 0.08 else 1e-4
        size = abs(complex(x[0]))  # the line runs along x / |x|, part by part; at x = 0 it is p
        unit = np.array([complex(x[0].real / size, x[0].imag / size) if size else 0.0])
        assert np.array_equal(s[j], p)
        assert np.array_equal(q[j], np.array([p + t * unit for t in (-2.0 * h, -h, h, 2.0 * h)]))
        assert np.array_equal(w[j], np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h) * size)
    disk.stack(q.reshape(-1, 1))  # every stencil point stays inside


def test_stencil_derivative_matches_analytic():
    # d/dt exp((0.3+0.2i) t) at 0 = 0.3+0.2i; 5-point stencil is O(h^4)
    c = 0.3 + 0.2j
    (d,) = VectorDomain(1).derivatives([np.zeros(1)], [np.ones(1)], lambda p: np.exp(c * p))
    assert abs(d[0] - c) < 1e-12


def test_stencil_derivative_rejects_bad_step():
    # on C^1, and on C^2, U(3) and Gr(2, 4): an infinite step ended in a non-finite stencil point
    # or value, which named no step
    cases = [(VectorDomain(1), np.exp, [np.array([0.0])], [np.array([1.0])])]
    cases += [(domain, f, pts[:1], xs[:1]) for domain, f, pts, xs in _derivative_cases()]
    for domain, f, pts, xs in cases:
        for h in (0.0, -1e-4, float("nan"), float("inf")):
            with pytest.raises(NumericsError, match=r"^step must be positive and at most 0\.01"):
                domain.derivatives(pts, xs, f, h=h)


def _scan_probes():
    """(domain, points) of probes up to their domain's edge: disk points from one ulp inside the
    guard circle inward, half-plane points with Im z from 1e-12 to 1e2, Fock C^1 points with |s|
    up to 1.7e308; each (N, 1), at three angles."""
    angles = np.exp(1j * np.array([0.0, 0.7, 2.0]))
    gaps = np.concatenate([[DISK_BOUNDARY_GUARD - np.nextafter(DISK_BOUNDARY_GUARD, 0)],
                           np.logspace(-16, np.log10(DISK_BOUNDARY_GUARD), 60)])
    disk = (DISK_BOUNDARY_GUARD - gaps)[:, None] * angles
    heights = np.logspace(-12, 2, 57)
    halfplane = np.concatenate([heights * 1j + real for real in (0.0, 0.3, -0.99, 5.0, -1e2)])
    moduli = np.concatenate([np.logspace(-300, 308, 120), [1.7e308]])
    return [(make_bergman_disk(2).domain, disk.reshape(-1, 1)),
            (make_bergman_halfplane(1).domain, halfplane.reshape(-1, 1)),
            (make_fock(np.eye(1)).domain, (moduli[:, None] * angles).reshape(-1, 1))]


@pytest.mark.parametrize("h", [0.01, 1e-4])
def test_every_stencil_the_rule_takes_is_finite_and_inside_its_domain(h):
    # the property the deleted scan of the 4L stencil points checked: with 0 < h <= 0.01 two
    # steps are at most a quarter of the edge distance, so no point leaves, and none overflows
    taken = 0
    for domain, points in _scan_probes():
        if domain.edge is not None:  # a point that rounds onto the edge is no probe
            points = domain.stack(points[domain.edge(points) > 0])
        for size in np.logspace(-300, 300, 7):
            for turn in (1.0, -0.6 + 0.8j):
                x = np.full_like(points, size * turn)
                for s, v in zip(points, x):
                    try:
                        q, w = domain._stencils(s[None], v[None], h)
                    except DomainError as exc:
                        assert "too small to resolve" in str(exc) or "overflows" in str(exc)
                        continue
                    taken += 1
                    assert np.all(np.isfinite(q)) and np.all(np.isfinite(w)), (s, v)
                    if domain.edge is not None:
                        assert np.all(domain.edge(q.reshape(-1, 1)) > 0), (s, v)
    assert taken > 3000


@pytest.mark.parametrize("h", [1e-12, 1e-20])
def test_a_step_under_1e6_ulps_of_the_point_is_refused_on_u_n_and_gr_k_n(h):
    # as on C^d: these returned a wrong finite value, -5.7e-14 for d/dt p_02 on Gr(2, 4) at
    # h = 1e-20 where h = 1e-4 reads -0.126+0.536i, and [4096, -2048] or [2048, -4096] from the
    # closed-form or direct backend for the constant section, where the derivative is ~1e-12
    p = coordinate_projector(4, 2)
    t = random_grass_tangent(p, np.random.default_rng(0))
    ones = Section(F=lambda q: np.ones(2))
    calls = [lambda: GrassDomain(4, 2).derivatives([p], [t], lambda q: q.p[0, 2], h=h)]
    calls += [lambda b=b: make_evaluator(universal_kernel(4, 2), b, h=h)(ones, p, t)
              for b in ("closed-form", "direct", "sampled")]
    calls += [lambda: domain.derivatives(pts, xs, f, h=h)
              for domain, f, pts, xs in _derivative_cases()[1:]]
    for call in calls:
        with pytest.raises(DomainError, match=r"stencil step .* is too small to resolve the point"):
            call()
    # d/dt u_01 along E_12 - E_21 at the identity is 1; at h = 1e-300 it read 1 - 2.6e266i
    e = np.zeros((3, 3))
    e[0, 1], e[1, 0] = 1.0, -1.0
    f = lambda u: u[0, 1]  # noqa: E731
    assert abs(UnitaryDomain(3).derivatives([np.eye(3)], [e], f)[0] - 1.0) < 1e-12
    with pytest.raises(DomainError, match=r"^U\(n\): stencil step 1\.000e-300 is too small"):
        UnitaryDomain(3).derivatives([np.eye(3)], [e], f, h=1e-300)


def test_stencil_derivative_rejects_a_non_finite_value():
    with pytest.raises(NumericsError, match="non-finite function value"):
        VectorDomain(1).derivatives([np.array([0.0])], [np.array([1.0])],
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
        want = np.array([domain.derivatives((s,), (x,), f)[0] for s, x in zip(pts, xs)])
        assert got.shape == want.shape and np.array_equal(got, want), domain
        with pytest.raises(DomainError, match=f"{len(pts)} points but {len(pts) - 1} directions"):
            domain.derivatives(pts, xs[:-1], f)


def test_stencil_is_the_five_point_rule_along_the_curve():
    s, x, h = np.array([0.3 - 0.1j]), np.array([1.0 + 2.0j]), 1e-3
    stencils = VectorDomain(1)._stencils(*VectorDomain(1).jets((s,), (x,)), h)
    assert not any(a.flags.writeable for a in stencils)  # kept, so read-only
    (points,), (weights,) = stencils
    size = abs(complex(x[0]))  # the line runs along x / |x|, part by part; the weights times |x|
    unit = np.array([complex(x[0].real / size, x[0].imag / size)])
    assert np.array_equal(np.array(points),
                          s + np.array([-2.0, -1.0, 1.0, 2.0])[:, None] * h * unit)
    assert np.array_equal(weights, np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h) * size)


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
    (lambda: VectorDomain(1).jets((np.zeros(1),), ([np.nan],)), r"C\^d: tangent is not finite$"),
    (lambda: VectorDomain(2, name="C^2").jets([np.zeros(2)] * 3, [[1, 0], [1, np.inf], [0, 1]]),
     r"C\^2: tangent is not finite \(probe 2 of 3\)"),
    (lambda: make_bergman_disk(2).domain.derivatives([0.1, 0.2], [1.0, np.nan], np.exp),
     r"unit disk: tangent is not finite \(probe 2 of 2\)"),
    (lambda: make_bergman_disk(2).diagonal_jet([0.1], [np.nan]),
     "unit disk: tangent is not finite"),
    (lambda: make_fock(np.eye(2)).diagonal_jet([np.zeros(2)] * 2, [[1, 0], [np.nan, 0]]),
     r"C\^2: tangent is not finite \(probe 2 of 2\)"),
] + [(lambda b=b: make_evaluator(make_bergman_disk(2), b).evaluate(
          Section(F=lambda s: np.ones(1)), [[0.1], [0.2j], [0.3]], [[1], [np.nan], [1]]),
      r"unit disk: tangent is not finite \(probe 2 of 3\)")
     for b in ("closed-form", "direct", "sampled")])
def test_a_vector_domain_rejects_a_non_finite_tangent_and_names_its_probe(call, message):
    # on the disk a NaN direction read as a non-finite stencil point or kernel derivative
    with pytest.raises(DomainError, match=message):
        call()


@pytest.mark.parametrize("call", [
    lambda d: d.stack((np.full((2, 2), np.nan),)),
    lambda d: d.stack((np.diag([1.0, np.inf]),)),
    lambda d: d.jets((np.eye(2),), (np.full((2, 2), np.nan),)),
    lambda d: d.jets((np.eye(2),), (np.array([[0, np.inf], [-np.inf, 0]]),)),
    lambda d: feature_kernel(lambda u: u, 2, d, "id", lambda u, a: u @ a).diagonal_jet(
        [np.eye(2)], [np.full((2, 2), np.nan)]),
])
def test_a_unitary_domain_rejects_a_non_finite_point_or_tangent_first(call):
    # ||u*u - I|| and ||a + a*|| are NaN there, and NaN > tol is False
    with pytest.raises(DomainError, match=r"U\(n\): (point|tangent) is not finite"):
        call(UnitaryDomain(2))


def test_admissibility_report_reads_kappa_from_its_gram(monkeypatch):
    rank_one = feature_kernel(lambda s: np.array([[1.0, np.conj(2.0 + s[0])]]), 2, VectorDomain(1),
                              "rank-one")
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
    # one probe or a stack of them: neither flattens a 2-d tangent
    domain = VectorDomain(2)
    for call in (lambda: domain.jets((np.zeros(2),), ([[1.0, 0.0]],)),
                 lambda: domain.jets([np.zeros(2)], [[[1.0, 0.0]]])):
        with pytest.raises(DomainError, match=r"must be 1-d, got shape \(1, 2\)"):
            call()


def test_a_tangent_that_is_not_a_vector_is_called_a_tangent_of_its_domain():
    with pytest.raises(DomainError, match=r"^C\^2: tangent must be 1-d, got shape \(1, 2\)$"):
        make_fock(np.eye(2)).domain.jets((np.zeros(2),), ([[1.0, 0.0]],))


@pytest.mark.parametrize("directions, message", [
    ([[1, 0], [1]], r"^C\^d: tangent dimension 1 != 2 \(probe 2 of 2\)$"),
    ([[1], [1, 0]], r"^C\^d: tangent dimension 1 != 2 \(probe 1 of 2\)$"),
    ([[1, 0], [1, 0, 0]], r"^C\^d: tangent dimension 3 != 2 \(probe 2 of 2\)$"),
    ([[1, 0], [[1], [0]]], r"^C\^d: tangent must be 1-d, got shape \(2, 1\) \(probe 2 of 2\)$"),
    ([[[1], [0]], [1, 0]], r"^C\^d: tangent must be 1-d, got shape \(2, 1\) \(probe 1 of 2\)$"),
])
def test_ragged_tangents_name_the_first_of_another_dimension(directions, message):
    # numpy raised its bare "setting an array element with a sequence" here
    with pytest.raises(DomainError, match=message):
        VectorDomain(2).jets([[0, 0], [1, 1]], directions)


def test_scalar_and_one_entry_tangents_mix_on_c1_as_points_do():
    s, x = VectorDomain(1).jets([0.1, [0.2]], [1, [1j]])
    assert s.tobytes() == np.array([[0.1], [0.2]], dtype=complex).tobytes()
    assert x.tobytes() == np.array([[1], [1j]], dtype=complex).tobytes()


_C2, _U2, _I2, _I3 = VectorDomain(2, "C^2"), UnitaryDomain(2), np.eye(2), np.eye(3)
_A2 = np.array([[1j, 0], [0, 0]])  # anti-Hermitian
_P2 = [[0, 0]] * 2


@pytest.mark.parametrize("read, want", [
    # C^d points: ragged, wrong length, a 2-d entry, NaN and inf
    (lambda: _C2.stack([[0, 0], [1, 1j, 2]]),
     r"C\^2: expected dimension 2, got 3 \(point 2 of 2\)"),
    (lambda: _C2.stack([[0, 0, 0], [1, 1j, 2]]),
     r"C\^2: expected dimension 2, got 3 \(point 1 of 2\)"),
    (lambda: _C2.stack([[0, 0], [[1, 0]]]),
     r"C\^2: point must be 1-d, got shape \(1, 2\) \(point 2 of 2\)"),
    (lambda: _C2.stack([[[1, 0]], [[0, 1]]]),
     r"C\^2: point must be 1-d, got shape \(1, 2\) \(point 1 of 2\)"),
    (lambda: _C2.stack([[0, 0], [0, np.nan]]), r"C\^2: point is not finite \(point 2 of 2\)"),
    (lambda: _C2.stack([[np.inf, 0], [0, 0]]), r"C\^2: point is not finite \(point 1 of 2\)"),
    # an entry that is itself ragged, or a string that is no number
    (lambda: _C2.stack([[0, 0], [[1], [1, 0]]]),
     r"C\^2: point is ragged or not numeric \(point 2 of 2\)"),
    (lambda: VectorDomain(1).stack(["one", 1]),
     r"C\^d: point is ragged or not numeric \(point 1 of 2\)"),
    (lambda: _C2.jets(_P2, [[1, 0], [[1], [1, 0]]]),
     r"C\^2: tangent is ragged or not numeric \(probe 2 of 2\)"),
    # C^d tangents: the same, and a regular stack of wrong tangents
    (lambda: _C2.jets(_P2, [[1, 0], [1]]), r"C\^2: tangent dimension 1 != 2 \(probe 2 of 2\)"),
    (lambda: _C2.jets(_P2, [[1], [1]]), r"C\^2: tangent dimension 1 != 2 \(probe 1 of 2\)"),
    (lambda: _C2.jets(_P2, [[[1, 0]], [[0, 1]]]),
     r"C\^2: tangent must be 1-d, got shape \(1, 2\) \(probe 1 of 2\)"),
    (lambda: _C2.jets(_P2, [[1, 0], [np.nan, 0]]), r"C\^2: tangent is not finite \(probe 2 of 2\)"),
    (lambda: _C2.jets(_P2, [[1, -np.inf], [1, 0]]),
     r"C\^2: tangent is not finite \(probe 1 of 2\)"),
    # C^1 reads a scalar as a point or a tangent, alone or beside 1-vectors
    (lambda: VectorDomain(1).stack([0.1, 0.2j]), [[0.1], [0.2j]]),
    (lambda: VectorDomain(1).stack([[0.1], 0.2j]), [[0.1], [0.2j]]),
    (lambda: VectorDomain(1).jets([0.1, 0.2j], [1, [1j]])[1], [[1], [1j]]),
    # no entries: an empty stack of the domain's shape
    (lambda: _C2.stack([]), np.zeros((0, 2))),
    (lambda: _U2.stack([]), np.zeros((0, 2, 2))),
    # U(n) points: ragged, wrong size, a scalar, NaN and inf
    (lambda: _U2.stack([_I2, _I3]), r"U\(n\): expected 2x2 matrix, got \(3, 3\) \(point 2 of 2\)"),
    (lambda: _U2.stack([_I3, _I3]), r"U\(n\): expected 2x2 matrix, got \(3, 3\) \(point 1 of 2\)"),
    (lambda: _U2.stack([_I2, 1.0]), r"U\(n\): expected 2x2 matrix, got \(\) \(point 2 of 2\)"),
    (lambda: _U2.stack([_I2, np.nan * _I2]), r"U\(n\): point is not finite \(point 2 of 2\)"),
    (lambda: _U2.stack([np.diag([np.inf, 1]), _I2]),
     r"U\(n\): point is not finite \(point 1 of 2\)"),
    (lambda: _U2.stack([_I2, [[1, 0], [0]]]),
     r"U\(n\): point is ragged or not numeric \(point 2 of 2\)"),
    (lambda: _U2.jets([_I2] * 2, [[[1, 0], [0]], _A2]),
     r"U\(n\): tangent is ragged or not numeric \(probe 1 of 2\)"),
    # U(n) tangents: ragged, a regular stack of wrong ones, NaN
    (lambda: _U2.jets([_I2] * 2, [_A2, 0 * _I3]),
     r"U\(n\): tangent shape \(3, 3\) != \(2,2\) \(probe 2 of 2\)"),
    (lambda: _U2.jets([_I2] * 2, [0 * _I3] * 2),
     r"U\(n\): tangent shape \(3, 3\) != \(2,2\) \(probe 1 of 2\)"),
    (lambda: _U2.jets([_I2] * 2, [_A2, np.nan * _A2]),
     r"U\(n\): tangent is not finite \(probe 2 of 2\)"),
])
def test_c_d_and_u_n_read_points_and_tangents_by_one_reader(read, want):
    # an error names its domain and its entry; what passes is one complex stack
    if isinstance(want, str):
        with pytest.raises(DomainError, match=f"^{want}$"):
            read()
    else:
        got = read()
        assert got.dtype == complex and got.tobytes() == np.array(want, dtype=complex).tobytes()
        assert got.shape == np.shape(want)


def test_diagonal_jet_checks_its_stack_once_and_names_what_is_wrong():
    k = make_bergman_disk(2)
    pts, xs = [np.array([0.1]), np.array([0.2j]), np.array([1.5])], [np.ones(1)] * 3
    with pytest.raises(DomainError, match="point 3 of 3"):
        k.diagonal_jet(pts, xs)
    with pytest.raises(DomainError, match="tangent dimension 2 != 1"):
        k.diagonal_jet(pts[:2], [np.ones(2), np.ones(2)])
    kss, d2 = k.diagonal_jet(pts[:2], xs[:2])
    assert kss.shape == d2.shape == (2, 1, 1)
    assert not kss.flags.writeable and not d2.flags.writeable  # kept, so read-only
    for s, x, a, b in zip(pts, xs, kss, d2):
        assert np.array_equal(a, k(s, s)) and np.array_equal(b, k.diagonal_jet((s,), (x,))[1][0])
    with np.errstate(over="ignore", invalid="ignore"):
        fock = make_fock(np.eye(1))
        with pytest.raises(NumericsError, match="fock:dim=1: kernel derivative is not finite"):
            fock.diagonal_jet([[0.5], [26.6]], [[1], [1]])


def test_unitary_stencils_of_a_stack_are_the_stencils_of_its_probes_bit_for_bit():
    # one eigh of the (L, n, n) stack of -ia / |a| and one expression for the 4L exponentials,
    # against the one-probe call and the one-point exponential u V diag(e^{itw}) V* restated; the
    # weights are the five-point rule's times |a|
    rng = np.random.default_rng(23)
    for n in (1, 3, 6):
        us = np.array([random_unitary(n, seed=30 + i) for i in range(5)])
        xs = np.array([a - a.conj().T for a in (rng.standard_normal((n, n))
                                                + 1j * rng.standard_normal((n, n)) for _ in us)])
        stack, weights = UnitaryDomain(n)._stencils(us, xs, 1e-4)
        assert stack.shape == (5, 4, n, n) and weights.shape == (5, 4)
        for u, a, points, w in zip(us, xs, stack, weights):
            (one,), (one_w,) = UnitaryDomain(n)._stencils(u[None], a[None], 1e-4)
            assert points.tobytes() == one.tobytes() and w.tobytes() == one_w.tobytes()
            unit, size = _unit(a)
            want = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * 1e-4) * size
            assert w.tobytes() == want.tobytes()
            values, v = hermitian_eigh(-1j * unit)
            for t, p in zip(1e-4 * np.array([-2.0, -1.0, 1.0, 2.0]), points):
                assert p.tobytes() == (u @ (v * np.exp(1j * t * values)) @ v.conj().T).tobytes()


def test_a_unitary_feature_kernels_jet_reads_phi_once_for_kappa_and_once_for_d2():
    # kappa(s_j, s_j) passes one stack as both slots, so Phi is read once for it, not twice; d2
    # reads Phi(s) once more; both arrays keep the bits of Phi(s)* Phi(s) and Phi(s)* dPhi(s, x)
    n, rng = 3, np.random.default_rng(52)
    w = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    calls = []

    def phi(u):
        calls.append(np.shape(u))
        return np.asarray(u, dtype=complex) @ w

    k = feature_kernel(phi, 2, UnitaryDomain(n), "counted", lambda u, a: (u @ a) @ w)
    us = np.array([random_unitary(n, seed=60 + i) for i in range(4)])
    a = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
    xs = a - a.conj().swapaxes(-1, -2)
    kss, d2 = k.diagonal_jet(us, xs)
    assert calls == [(4, n, n)] * 2
    f = us @ w
    assert kss.tobytes() == (f.conj().swapaxes(-1, -2) @ f).tobytes()
    assert d2.tobytes() == (f.conj().swapaxes(-1, -2) @ ((us @ xs) @ w)).tobytes()
    u = us[0]
    assert k(u, u).tobytes() == kss[0].tobytes() and len(calls) == 3  # a point and itself


@pytest.mark.parametrize("n", [1, 3])
def test_a_zero_unitary_tangent_has_zero_weights_and_a_tiny_one_steps_along_its_direction(n):
    # the rule of C^d: weights that are exactly zero at a = 0, and a / |a| at any a != 0
    rng = np.random.default_rng(24)
    us = np.array([random_unitary(n, seed=40 + i) for i in range(3)])
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    xs = np.array([a - a.conj().T, np.zeros((n, n)), 1e-200 * (a - a.conj().T)])
    stack, weights = UnitaryDomain(n)._stencils(us, xs, 1e-4)
    assert np.array_equal(weights[1], np.zeros(4)) and np.count_nonzero(weights[[0, 2]]) == 8
    (along,), _ = UnitaryDomain(n)._stencils(us[2:], xs[:1], 1e-4)  # a tiny tangent: its direction
    assert np.max(np.abs(stack[2] - along)) <= 1e-15


def _moveaxis_stencil_sum(weights, values):
    """stencil_sum restated as it was written with np.moveaxis: the four terms moved first."""
    v = np.asarray(values, dtype=complex)
    w = np.reshape(weights, np.shape(weights) + (1,) * (v.ndim - np.ndim(weights)))
    t = np.moveaxis(w * v, np.ndim(weights) - 1, 0)
    return ((t[0] + t[1]) + t[2]) + t[3]


@pytest.mark.parametrize("tail", [(), (3,), (2, 2)], ids=["(L,4)", "(L,4,M)", "(L,4,M,M)"])
def test_stencil_sum_has_the_bits_of_the_moveaxis_formula_with_each_zeros_sign(tail):
    rng = np.random.default_rng(51)
    weights = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * rng.uniform(1e-6, 1e-3, (6, 1)))
    values = rng.standard_normal((6, 4) + tail) + 1j * rng.standard_normal((6, 4) + tail)
    values[0] = 0.0  # +0.0 sums
    values[1] = -0.0  # -0.0 terms, each weighted by a sign
    values[2, :2], values[2, 2:] = -0.0, 0.0
    values[3, 1] = -values[3, 2]  # terms that cancel
    got, want = stencil_sum(weights, values), _moveaxis_stencil_sum(weights, values)
    assert got.shape == (6,) + tail
    assert got.tobytes() == want.tobytes()  # bit for bit, the sign of each zero included


def test_psd_spectra_have_the_bits_of_eigvalsh():
    # the certificate symmetrizes once, shares G* with its Hermitian test and reads eigenvalues
    # alone: the bits of eigvalsh((G + G*) / 2), each member of a stack those of its one matrix
    # (positivity_certificate is that case), within 1e-13 max(1, max |lambda|) of a full eigh
    rng = np.random.default_rng(52)
    for n in (1, 2, 5, 12, 64):
        z = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        grams = z @ z.conj().swapaxes(-1, -2)
        grams[1] += 1e-12 * z[1]  # Hermitian within the tolerance only
        values, is_psd = _psd_spectra(grams)
        sym = 0.5 * (grams + grams.conj().swapaxes(-1, -2))
        want = sym[..., 0].real if n == 1 else np.linalg.eigvalsh(sym)  # 1 x 1: no LAPACK
        assert values.tobytes() == want.tobytes() and is_psd.all()
        full = hermitian_eigh(grams)[0]
        bound = 1e-13 * np.maximum(1.0, np.abs(full).max(axis=1, keepdims=True))
        assert (np.abs(values - full) <= bound).all()
        for g, v in zip(grams, values):
            assert _psd_spectra(g[None])[0].tobytes() == v.tobytes()
            assert positivity_certificate(g)[1] == v[0]


@pytest.mark.parametrize("top", [0.25, 5.0])
@pytest.mark.parametrize("side", [1.0 - 1e-3, 1.0 + 1e-3])
def test_the_psd_verdict_is_eighs_at_the_threshold(top, side):
    # lambda_min set just inside and just outside -tol max(1, lambda_max): the eigenvalue-only
    # certificate gives the verdict of a full eigh, and its error names the minimum eigenvalue
    tol = 1e-9
    v = random_unitary(12, seed=53)
    lam = np.linspace(0.0, top, 12)
    lam[0] = -tol * max(1.0, top) * side
    g = (v * lam) @ v.conj().T
    full = hermitian_eigh(g)[0]
    expected = side < 1.0
    assert (full[0] >= -tol * max(1.0, full[-1])) == expected
    assert positivity_certificate(g, tol) == (expected, _psd_spectra(g[None], tol)[0][0, 0])
    if expected:
        assert _certify(g[None])[0, 0] == positivity_certificate(g, tol)[1]
    else:
        with pytest.raises(NumericsError, match=rf"not PSD \(min eigenvalue {lam[0]:.3e}\)"):
            _certify(g[None])


@pytest.mark.parametrize("g", [np.array([[1.0, np.nan], [np.nan, 1.0]]),
                               np.array([[np.inf, 0.0], [0.0, 1.0]])])
def test_positivity_certificate_still_rejects_a_non_finite_matrix(g):
    with pytest.raises(NumericsError, match="matrix has non-finite entries"):
        positivity_certificate(g)


def _unitaries(n, count, seed):
    rng = np.random.default_rng(seed)
    us = [random_unitary(n, seed=seed + i) for i in range(count)]
    xs = [a - a.conj().T for a in (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                                   for _ in us)]
    return us, xs


def test_a_unitary_domain_checks_a_stack_of_probes_at_once():
    us, xs = _unitaries(3, 4, 60)
    s, x = UnitaryDomain(3).jets(us, xs)
    assert s.shape == x.shape == (4, 3, 3)
    assert np.array_equal(s, np.array(us)) and np.array_equal(x, np.array(xs))
    assert UnitaryDomain(3).stack([]).shape == (0, 3, 3)


@pytest.mark.parametrize("k", [make_bergman_disk(2), make_fock(np.eye(2)),
                               homogeneous_kernel(3, coordinate_projector(3, 1)),
                               universal_kernel(4, 2)], ids=lambda k: k.name)
def test_an_empty_stack_of_probes_is_one_named_error_at_every_entry_point(k):
    # each failed in its own way: a broadcast error, an IndexError, "section value has 0 entries",
    # a reshape error or "zero-size array to reduction operation"
    sigma = Section(F=lambda s: np.ones(k.fiber_dim))
    calls = [lambda: k.domain.derivatives([], [], lambda s: np.ones(1)),
             lambda: k.domain.jets([], []), lambda: k.diagonal_jet([], []),
             lambda: connection_forms(k, [], [])]
    calls += [lambda b=b: make_evaluator(k, b).evaluate(sigma, [], [])
              for b in ("closed-form", "direct", "sampled")]
    message = "^empty stack of probes: no points and no directions$"
    for call in calls:
        with pytest.raises(DomainError, match=message):
            call()
    assert len(k.domain.stack([])) == 0  # an empty stack of points is still one


@pytest.mark.parametrize("edit, message", [
    (lambda us, xs: us.__setitem__(2, 2 * us[2]),
     r"^U\(n\): not unitary, \|\|u\*u - I\|\| = 5\.196e\+00 \(point 3 of 4\)$"),
    (lambda us, xs: us.__setitem__(1, np.full((3, 3), np.nan)),
     r"^U\(n\): point is not finite \(point 2 of 4\)$"),
    (lambda us, xs: us.__setitem__(3, np.eye(2)),
     r"^U\(n\): expected 3x3 matrix, got \(2, 2\) \(point 4 of 4\)$"),
    (lambda us, xs: xs.__setitem__(1, xs[1] + np.eye(3)),
     r"^U\(n\): tangent not anti-Hermitian, \|\|a \+ a\*\|\| = 3\.464e\+00 \(probe 2 of 4\)$"),
    (lambda us, xs: xs.__setitem__(0, np.diag([0.0, np.inf, 0.0])),
     r"^U\(n\): tangent is not finite \(probe 1 of 4\)$"),
    (lambda us, xs: xs.__setitem__(2, np.zeros((3, 2))),
     r"^U\(n\): tangent shape \(3, 2\) != \(3,3\) \(probe 3 of 4\)$"),
], ids=["non-unitary", "nan-point", "point-shape", "not-anti-hermitian", "inf-tangent",
        "tangent-shape"])
def test_a_unitary_stack_names_the_probe_that_fails_its_check(edit, message):
    us, xs = _unitaries(3, 4, 61)
    edit(us, xs)
    with pytest.raises(DomainError, match=message):
        UnitaryDomain(3).jets(us, xs)


@pytest.mark.parametrize("call, message", [
    (lambda d: d.stack((2 * np.eye(2),)),
     r"^U\(n\): not unitary, \|\|u\*u - I\|\| = 4\.243e\+00$"),
    (lambda d: d.stack((np.eye(3),)), r"^U\(n\): expected 2x2 matrix, got \(3, 3\)$"),
    (lambda d: d.jets((np.eye(2),), (np.eye(2),)),
     r"^U\(n\): tangent not anti-Hermitian, \|\|a \+ a\*\|\| = 2\.828e\+00$"),
    (lambda d: d.jets((np.eye(2),), (np.zeros(2),)),
     r"^U\(n\): tangent shape \(2,\) != \(2,2\)$"),
])
def test_a_unitary_domains_one_probe_messages_name_no_probe(call, message):
    with pytest.raises(DomainError, match=message):
        call(UnitaryDomain(2))


def test_a_domain_that_defines_neither_stack_nor_jets_fails_at_once():
    # the protocol has no default stack or jets
    class Bare(Domain):
        name = "bare"

    for call in (lambda d: d.stack((0.0,)), lambda d: d.jets((0.0,), (1.0,))):
        with pytest.raises(AttributeError, match="'(stack|jets)'"):
            call(Bare())


def _disk_pullback(delta, fiber_dim):
    """The pull-back of the nu = 2 disk kernel along s -> s / 2 + 0.1i with the fiber map delta."""
    disk = make_bergman_disk(2)
    theta = BundleMorphism(zeta=lambda s: 0.5 * np.asarray(s) + 0.1j, delta=delta,
                           tangent=lambda s, x: 0.5 * np.asarray(x))
    return pull_back_kernel(theta, disk, fiber_dim, disk.domain)


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 3, 4), (4, 1, 5), (3, 2, 3)],
                         ids=lambda s: "L{}-a{}-b{}".format(*s))
def test_a_pulled_back_disk_kernels_blocks_are_its_eval_bit_for_bit(shape):
    # a delta that depends on the point, zeta and delta once per point of each slot, the disk's
    # batch at the images and delta* k delta as one stacked product, against eval pair by pair
    k = _disk_pullback(lambda s: np.array([[1.0 + s[0], 0.5j * np.conj(s[0]) - 0.2]]), 2)
    n_blocks, a, b = shape
    rng = np.random.default_rng(140)
    pts = 0.6 * (rng.uniform(size=(n_blocks * (a + b), 1)) * np.exp(
        2j * np.pi * rng.uniform(size=(n_blocks * (a + b), 1))))
    ss = list(pts[:n_blocks * a].reshape(n_blocks, a, 1))
    ts = list(pts[n_blocks * a:].reshape(n_blocks, b, 1))
    loop = Kernel(k.fiber_dim, k.domain, k.eval, name=k.name)  # no batch: eval per pair
    got = k._values(ss, ts)
    assert got.shape == (n_blocks, 2 * a, 2 * b)
    assert got.tobytes() == loop._values(ss, ts).tobytes()
    one = list(pts[:a + b])
    assert gram_matrix(k, one).tobytes() == gram_matrix(loop, one).tobytes()


@pytest.mark.parametrize("k", [
    feature_kernel(lambda s: np.array([[1.0, np.conj(s[0])]]), 1, VectorDomain(1), "rank-one"),
    _disk_pullback(lambda s: np.array([[1.0, np.conj(s[0])]]), 1),
], ids=["feature", "pullback"])
def test_a_kernel_block_of_the_wrong_shape_is_a_domain_error(k):
    # Phi or delta with two columns for M = 1: each block is 2 x 2, refused before the reshape
    s, t = np.array([0.1 + 0.2j]), np.array([-0.3j])
    message = rf"^{re.escape(k.name)}: kernel block of shape \(2, 2\), not M x M, M = 1$"
    for call in (lambda: k(s, t), lambda: gram_matrix(k, [s, t]),
                 lambda: connection_form(k, s)(np.array([1.0]))):
        with pytest.raises(DomainError, match=message):
            call()


def test_a_fiber_map_with_other_rows_than_the_target_fiber_keeps_its_message():
    k = _disk_pullback(lambda s: np.ones((2, 1)), 1)
    s, t = np.array([0.1 + 0.2j]), np.array([-0.3j])
    message = r"^fiber map shape \(2, 1\) incompatible with target fiber dimension 1$"
    for call in (lambda: k(s, t), lambda: k.eval(s, t), lambda: gram_matrix(k, [s, t])):
        with pytest.raises(DomainError, match=message):
            call()
