import itertools
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernelconnect.connections import (
    ConnectionEvaluator,
    _leibniz,
    _transport,
    Curve,
    Section,
    connection_form,
    connection_forms,
    covariant_derivative_closed_form,
    covariant_derivative_direct,
    gauge_pullback_connection,
    intertwining_residual,
    leibniz_residual,
    make_evaluator,
    parallel_transport,
)
from kernelconnect import cli, connections, grassmann, kernels, verify
from kernelconnect.cpmaps import cp_kernel, random_unital_cpmap, random_unitary
from kernelconnect.grassmann import (
    HermitianProjector,
    coordinate_projector,
    fiber_basis,
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
    _certify,
    feature_kernel,
    make_bergman_disk,
    make_bergman_halfplane,
    make_fock,
    pull_back_kernel,
    stencil_sum,
)
from kernelconnect.numerics import NumericsError, hermitian_eigh, hermitian_solve
from kernelconnect.rkhs import (
    RKHSElement,
    build_rkhs,
    evaluate_element,
    project_fiber,
    universality_residual,
)

CONSTANT = Section(F=lambda s: np.array([1.0 + 0j]), dF=lambda s, x: np.array([0.0 + 0j]))
NAN = np.array([np.nan + 0j])


def test_disk_connection_form_value():
    # nu s conj(x) / (1 - |s|^2) = 2 * 0.5 / 0.75 = 4/3 at nu=2, s=0.5, x=1
    alpha = connection_form(make_bergman_disk(2), np.array([0.5]))
    assert abs(alpha(np.array([1.0]))[0, 0] - 4.0 / 3.0) < 1e-12


def test_direct_oracle_confirms_disk_sign():
    # the stencil derivative of kappa(s, gamma(t)) knows nothing of the
    # closed form and still lands on +4/3
    k = make_bergman_disk(2)
    d = covariant_derivative_direct(k, CONSTANT, np.array([0.5]), np.array([1.0]))
    assert abs(d[0] - 4.0 / 3.0) < 1e-6


def test_fock_connection_form_formula():
    k = make_fock(np.eye(3))
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = 0.5 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        lam = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        alpha = connection_form(k, z)(lam)[0, 0]
        assert abs(alpha - np.dot(z, np.conj(lam))) < 1e-12


def test_three_backends_agree():
    k = make_bergman_disk(2)
    sigma = Section(F=lambda s: np.array([1.0 + 0.3 * complex(s[0])]),
                    dF=lambda s, x: np.array([0.3 * complex(x[0])]))
    s, x = np.array([0.4 - 0.2j]), np.array([1.0 - 0.5j])
    values = [make_evaluator(k, b, h=1e-4)(sigma, s, x)
              for b in ("closed-form", "direct", "sampled")]
    for v in values[1:]:
        assert np.linalg.norm(v - values[0]) < 1e-9


@settings(max_examples=60, deadline=None, derandomize=True)
@given(nu=st.sampled_from([1, 2, 3]), r=st.floats(0.0, 0.95),
       th=st.floats(0.0, 2.0 * np.pi), phi=st.floats(0.0, 2.0 * np.pi))
def test_closed_form_and_direct_agree_at_default_step(nu, r, th, phi):
    # near the unit circle the stencil must still resolve the steep kernel
    k = make_bergman_disk(nu)
    sigma = Section(F=lambda s: np.array([1.0 + 0.3 * complex(s[0])]))
    s, x = np.array([r * np.exp(1j * th)]), np.array([np.exp(1j * phi)])
    closed = covariant_derivative_closed_form(k, sigma, s, x)
    direct = covariant_derivative_direct(k, sigma, s, x)
    assert abs(closed[0] - direct[0]) <= 1e-8 * max(1.0, abs(closed[0]))


def test_evaluator_rejects_unknown_backend():
    with pytest.raises(ValueError):
        make_evaluator(make_bergman_disk(1), "magic")


def test_leibniz_rule():
    k = make_fock(np.eye(2))
    sigma = Section(F=lambda s: np.array([1.0 + complex(s[0])]))
    f = lambda s: 0.5 + complex(s[1]) - 0.2 * np.conj(complex(s[0]))
    rng = np.random.default_rng(1)
    probes = [(0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)),
               rng.standard_normal(2) + 1j * rng.standard_normal(2)) for _ in range(10)]
    for backend in ("closed-form", "direct", "sampled"):
        assert leibniz_residual(make_evaluator(k, backend), f, sigma, probes) < 1e-6


def test_parallel_transport_matches_closed_form():
    # along gamma(t) = 0.5t on the Hardy kernel, v(1) = sqrt(1 - 0.25)
    k = make_bergman_disk(1)
    curve = Curve(gamma=lambda t: np.array([0.5 * t]),
                  velocity=lambda t: np.array([0.5 + 0j]))
    v = parallel_transport(k, curve, np.array([1.0 + 0j]), steps=256)
    assert abs(v[0] - np.sqrt(0.75)) < 1e-9


def test_parallel_transport_order_of_accuracy():
    k = make_bergman_disk(1)
    curve = Curve(gamma=lambda t: np.array([0.5 * t]),
                  velocity=lambda t: np.array([0.5 + 0j]))
    exact = np.sqrt(0.75)
    errs = [abs(parallel_transport(k, curve, np.array([1.0 + 0j]), steps=n)[0] - exact)
            for n in (32, 64, 128)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 3.7


def test_parallel_transport_keeps_its_order_on_a_rank_two_fiber():
    # the forms along the curve do not commute, so RK4's products must keep their order: with
    # them reversed the method falls to order 2 (2.6e-3 to 4.1e-5 off)
    import scipy.integrate

    phi = lambda s: np.array([[1.0, s[0]], [np.conj(s[0]), 1.0],  # noqa: E731
                              [s[0] ** 2, 1j * np.conj(s[0])]])
    k = feature_kernel(phi, 2, VectorDomain(1), "rank-two")
    start, end = np.array([-0.3 + 0.2j]), np.array([0.5 - 0.4j])
    curve = Curve(gamma=lambda t: start + t * (end - start), velocity=lambda t: end - start)
    v0 = np.array([1.0 + 0.5j, -0.3 + 1.0j])
    form = lambda t: connection_form(k, curve.gamma(t))(curve.velocity(t))  # noqa: E731
    a0, a1 = form(0.0), form(1.0)
    assert np.linalg.norm(a0 @ a1 - a1 @ a0) > 1.0
    # scipy's DOP853 is the independent reference here only
    exact = scipy.integrate.solve_ivp(lambda t, v: -(form(t) @ v), (0.0, 1.0), v0,
                                      method="DOP853", rtol=1e-13, atol=1e-15).y[:, -1]
    steps = [8, 16, 32, 64]
    errs = [np.max(np.abs(parallel_transport(k, curve, v0, n) - exact)) for n in steps]
    assert -np.polyfit(np.log2(steps), np.log2(errs), 1)[0] >= 3.7 and errs[-1] <= 1e-8


def test_gauge_pullback_through_constant_rescale():
    # a constant fiber map has d(delta) = 0, so the form is conjugated only;
    # for scalar fibers that conjugation is the identity
    k = make_bergman_disk(2)
    theta = BundleMorphism(zeta=lambda s: s, delta=lambda s: np.array([[2.0]]),
                           tangent=lambda s, x: x)
    target = connection_form(k, np.array([0.3]))
    pulled = gauge_pullback_connection(theta, lambda s, x: connection_form(k, s)(x),
                                       k.domain)
    got = pulled(np.array([0.3]), np.array([1.0]))
    assert np.linalg.norm(got - target(np.array([1.0]))) < 1e-10


def test_gauge_pullback_accepts_a_small_scale_and_rejects_a_rank_one_fiber_map():
    # 1e-7 I_2 has det 1e-14 but condition number 1: a constant scale conjugates the form to itself
    form = np.array([[1.0, 2.0j], [0.5, -1.0]])
    for scale in (1e-7, 1.0, 1e7):
        theta = BundleMorphism(zeta=lambda s: s, delta=lambda s, c=scale: c * np.eye(2),
                               tangent=lambda s, x: x)
        pulled = gauge_pullback_connection(theta, lambda s, x: form, VectorDomain(1))
        assert np.allclose(pulled(np.array([0.3]), np.array([1.0])), form, rtol=0, atol=1e-9)
    for delta in (np.ones((2, 2)), np.zeros((2, 2))):
        theta = BundleMorphism(zeta=lambda s: s, delta=lambda s, d=delta: d, tangent=lambda s, x: x)
        pulled = gauge_pullback_connection(theta, lambda s, x: form, VectorDomain(1))
        with pytest.raises(NumericsError, match="fiber map is singular"):
            pulled(np.array([0.3]), np.array([1.0]))


@pytest.mark.parametrize("nu", [1, 2, 2.5])
def test_gauge_pullback_along_a_disk_automorphism_keeps_the_kernels_own_form(nu):
    # phi_a(z) = (a - z) / (1 - conj(a) z) and delta(z) = conj(c (1 - conj(a) z)^-nu), with
    # c = (1 - |a|^2)^(nu / 2), pull the disk kernel back to itself, so the gauge pullback of its
    # form is its form: the delta^-1 d(delta) term makes up what conjugation alone misses.  The
    # holomorphic delta pulls back another kernel and misses the form; with either delta, the
    # gauge pullback is the form of the pulled-back kernel.
    a, k = 0.4 + 0.3j, make_bergman_disk(nu)
    alpha = lambda s, x: connection_form(k, s)(x)  # noqa: E731
    zeta = lambda s: (a - s) / (1 - np.conj(a) * s)  # noqa: E731
    tangent = lambda s, x: -(1 - abs(a) ** 2) / (1 - np.conj(a) * s) ** 2 * x  # noqa: E731
    gauge = lambda s: (np.sqrt(1 - abs(a) ** 2) / (1 - np.conj(a) * s[0])) ** nu  # noqa: E731
    rng = np.random.default_rng(5)
    r, u, v = 0.8 * np.sqrt(rng.uniform(size=20)), rng.uniform(size=20), rng.uniform(size=20)
    probes = [(np.array([ri * np.exp(2j * np.pi * ui)]), np.array([np.exp(2j * np.pi * vi)]))
              for ri, ui, vi in zip(r, u, v)]  # |s| <= 0.8, |x| = 1
    for delta, own in [(lambda s: np.conj(gauge(s)), True), (gauge, False)]:
        theta = BundleMorphism(zeta, lambda s: np.reshape(delta(s), (1, 1)), tangent)
        pulled = gauge_pullback_connection(theta, alpha, k.domain)
        kernel = pull_back_kernel(theta, k, 1, k.domain)
        for s, x in probes:
            got = pulled(s, x)
            assert np.max(np.abs(got - connection_form(kernel, s)(x))) <= 1e-10
            miss = np.max(np.abs(got - alpha(s, x)))
            assert miss <= 1e-10 if own else miss > 0.1, (s, x, miss)
    for s, x in probes:  # conjugation alone: the pullback without delta^-1 d(delta)
        assert np.max(np.abs(alpha(zeta(s), tangent(s, x)) - alpha(s, x))) > 0.1


def _nan_at_second_probe(k):
    """An evaluator that reads 0 at every probe but the one at s = 0.2, where it reads NaN."""
    return ConnectionEvaluator("nan", k, lambda sigma, pts, xs: np.array(
        [[np.nan if complex(s[0]) == 0.2 else 0.0] for s in pts]))


def test_residual_maxima_propagate_a_nan():
    # Python's max(0.0, nan) is 0.0: a NaN residual must not read as agreement
    k = make_bergman_disk(2)
    nabla = _nan_at_second_probe(k)
    probes = [(np.array([0.1]), np.array([1.0])), (np.array([0.2]), np.array([1.0]))]
    assert np.isnan(leibniz_residual(nabla, lambda s: 1.0, CONSTANT, probes))
    theta = BundleMorphism(zeta=lambda s: s, delta=lambda s: np.array([[1.0]]),
                           tangent=lambda s, x: x)
    assert np.isnan(intertwining_residual(theta, nabla, nabla, CONSTANT, CONSTANT, probes))
    nan = Section(F=lambda s: NAN)  # and a NaN compatibility residual is not compatible
    with pytest.raises(ValueError, match="not morphism-compatible: residual nan"):
        intertwining_residual(theta, nabla, nabla, nan, nan, probes)


def test_intertwining_residual_vanishes_for_identity():
    k = make_bergman_disk(2)
    nabla = make_evaluator(k, "direct")
    theta = BundleMorphism(zeta=lambda s: s, delta=lambda s: np.array([[1.0]]),
                           tangent=lambda s, x: x)
    sigma = Section(F=lambda s: np.array([1.0 + 0.2 * complex(s[0])]))
    probes = [(np.array([0.1]), np.array([1.0])), (np.array([0.2j]), np.array([1j]))]
    assert intertwining_residual(theta, nabla, nabla, sigma, sigma, probes) < 1e-12


def _disk_automorphism(a, nu):
    """phi_a(z) = (a - z) / (1 - conj(a) z), with the multiplier that keeps the Bergman kernel of
    weight nu invariant and phi_a' as its tangent map."""
    c = np.conj(a)
    return BundleMorphism(
        zeta=lambda s: (a - s) / (1.0 - c * s),
        delta=lambda s: np.conj((np.sqrt(1.0 - abs(a) ** 2) / (1.0 - c * s[0])) ** nu)[None, None],
        tangent=lambda s, x: -(1.0 - abs(a) ** 2) / (1.0 - c * s) ** 2 * x)


def _intertwining_loop(theta, nabla, nabla_target, sigma, sigma_target, probes):
    """The intertwining residual probe by probe through one-point calls: the reference."""
    return max(float(np.linalg.norm(theta.fiber_map(s) @ nabla(sigma, s, x) - nabla_target(
        sigma_target, theta.zeta(s), theta.tangent(s, x)))) for s, x in probes)


@pytest.mark.parametrize("backend", ["closed-form", "direct", "sampled"])
def test_leibniz_and_intertwining_residuals_check_their_probes_once_per_evaluator(
        backend, monkeypatch):
    k, nu = make_bergman_disk(2), 2
    theta = _disk_automorphism(0.4 + 0.3j, nu)
    target = Section(F=lambda t: np.array([1.0 + 0.3 * complex(t[0])]))
    sigma = Section(F=lambda s: np.linalg.solve(theta.fiber_map(s), target.value(theta.zeta(s))))
    rng = np.random.default_rng(7)
    probes = [(np.array([0.6 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())]),
               rng.standard_normal(1) + 1j * rng.standard_normal(1)) for _ in range(5)]
    nabla = make_evaluator(k, backend)
    jets = _count_calls(monkeypatch, "jets", VectorDomain)
    apart = _count_calls(monkeypatch, "_entries", VectorDomain)  # the path that names an error
    leibniz = leibniz_residual(nabla, lambda p: complex(p[0]) ** 2, sigma, probes)
    assert len(jets) == 1 and leibniz < 1e-6
    residual = intertwining_residual(theta, nabla, nabla, sigma, target, probes)
    monkeypatch.undo()
    assert len(jets) == 3 and not apart and residual < 1e-8
    assert residual == _intertwining_loop(theta, nabla, nabla, sigma, target, probes)


# a point of the disk's edge: numpy's abs of a one-point array puts |s| below 1 - 1e-6, hypot not
EDGE_POINT = np.array([-0.6631062061875492 - 0.7485239871350519j])


@pytest.mark.parametrize("backend", ["closed-form", "direct", "sampled"])
def test_every_backend_rejects_a_point_at_the_disks_edge(backend):
    k = make_bergman_disk(2)
    assert k.domain.edge(EDGE_POINT[None]) <= 0
    with pytest.raises(DomainError, match=r"\|s\| = 0.99999900 is too close to the unit circle$"):
        make_evaluator(k, backend)(CONSTANT, EDGE_POINT, np.ones(1))


def test_closed_form_uses_analytic_differential():
    k = make_bergman_disk(2)
    sigma = Section(F=lambda s: np.array([np.exp(complex(s[0]))]),
                    dF=lambda s, x: np.array([complex(x[0]) * np.exp(complex(s[0]))]))
    s, x = np.array([0.3]), np.array([1.0 + 1j])
    closed = covariant_derivative_closed_form(k, sigma, s, x)
    direct = covariant_derivative_direct(k, sigma, s, x, h=1e-4)
    assert np.linalg.norm(closed - direct) < 1e-9


# ---------------------------------------------------------------------------
# One stencil, one kernel evaluation per derivative

def _bitwise_cases():
    """(kernel, section, points, tangents) on three scalar families and one loop-fallback kernel."""
    rng = np.random.default_rng(11)
    cases = []
    for k, pts in [
        (make_bergman_disk(1), [np.array([0.7 * np.exp(1j * a)]) for a in rng.uniform(0, 6, 4)]),
        (make_bergman_disk(2.5), [np.array([0.85 * np.exp(1j * a)]) for a in rng.uniform(0, 6, 4)]),
        (make_bergman_halfplane(2), [np.array([v + 0.5j]) for v in rng.uniform(-1, 1, 4)]),
        (make_fock(np.eye(3)), [0.5 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
                                for _ in range(4)]),
    ]:
        dim = k.domain.dim
        a = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        sigma = Section(F=lambda s, a=a: np.array([1.0 + a @ np.asarray(s, dtype=complex)]))
        xs = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in pts]
        cases.append((k, sigma, pts, xs))
    base = coordinate_projector(4, 2)
    pts = [HermitianProjector(u @ base.p @ u.conj().T, 2)
           for u in (random_unitary(4, seed=80 + i) for i in range(3))]
    w = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    sigma = Section(F=lambda p: w @ p.p[:, 0])
    cases.append((universal_kernel(4, 2), sigma, pts, [random_grass_tangent(p, rng) for p in pts]))
    return cases


def _per_pair_stencil(k, s, x, h=1e-4):
    """The stencil points and weights, restated: gamma(t) at t = -2h, -h, h, 2h along x / |x|
    (|x| the largest entry modulus, x nonzero, divided part by part), the weights times |x|: on
    the line s + t x / |x|, or on the curve u p u*, u = e^{tA / |A|} = V diag(e^{itw}) V* where
    -iA / |A| = V w V*, each point holding its probe's basis moved with it, u B(p)."""
    ts, weights = (-2.0 * h, -h, h, 2.0 * h), np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
    a = x.generator if isinstance(s, HermitianProjector) else np.atleast_1d(x)
    size = max(abs(complex(c)) for c in np.ravel(a))
    unit = np.array([complex(c.real / size, c.imag / size) for c in np.ravel(a)]).reshape(a.shape)
    if isinstance(s, HermitianProjector):
        w, v = hermitian_eigh(-1j * unit)
        us = [np.eye(s.n) @ (v * np.exp(1j * t * w)) @ v.conj().T for t in ts]
        return [grassmann._orbit(u, s.p, fiber_basis(s), s.rank)[0] for u in us], weights * size
    return [s + t * unit for t in ts], weights * size


def test_backends_equal_their_per_pair_formulas_bit_for_bit():
    for k, sigma, pts, xs in _bitwise_cases():
        m = k.fiber_dim
        for s, x in zip(pts, xs):
            points, weights = _per_pair_stencil(k, s, x)
            acc = None
            for w, p in zip(weights, points):
                term = w * (k(s, p) @ sigma.value(p))
                acc = term if acc is None else acc + term
            direct = hermitian_solve(k(s, s), acc)
            assert np.array_equal(covariant_derivative_direct(k, sigma, s, x), direct), k.name

            sample = (*points[:2], s, *points[2:])
            acc = None
            for i, w in zip((0, 1, 3, 4), weights):
                term = np.zeros(5 * m, dtype=complex)
                term[i * m:(i + 1) * m] = sigma.value(sample[i])
                term = w * term
                acc = term if acc is None else acc + term
            row = np.hstack([k(s, t) for t in sample])
            projected = np.zeros(5 * m, dtype=complex)
            projected[2 * m:3 * m] = hermitian_solve(k(s, s), row @ acc)
            sampled = hermitian_solve(k(s, s), row @ projected)
            assert np.array_equal(make_evaluator(k, "sampled")(sigma, s, x), sampled), k.name


def test_rkhs_reads_equal_their_per_pair_formulas_bit_for_bit():
    rng = np.random.default_rng(12)
    for k, _, pts, _ in _bitwise_cases():
        m = k.fiber_dim
        r = build_rkhs(k, pts)
        c = rng.standard_normal(len(pts) * m) + 1j * rng.standard_normal(len(pts) * m)
        f = RKHSElement(r, c)
        res = 0.0
        for i, s in enumerate(pts):
            row = np.hstack([k(s, t) for t in pts])
            assert np.array_equal(evaluate_element(f, s), row @ c), k.name
            want = np.zeros_like(c)
            want[i * m:(i + 1) * m] = hermitian_solve(k(s, s), row @ c)
            assert np.array_equal(project_fiber(r, s, f).coefficients, want), k.name
            proj = hermitian_solve(k(s, s), row)
            res = max(res, float(np.max(np.abs(row - r.gram[i * m:(i + 1) * m, i * m:(i + 1) * m]
                                               @ proj))))
        assert universality_residual(r) == res, k.name


def _count_values(monkeypatch):
    """Record every Kernel._values call as (kernel, ss, ts): _values is where every kernel value
    is evaluated, so block, k(s, t) and the stencil fallback all show up here."""
    return _count_calls(monkeypatch, "_values")


def _one_stacked_block(k, calls):
    """The (ss, ts) of the one _values call among `calls`, after checking that the kernel was read
    nowhere else."""
    assert len(calls) == 1, k.name
    return calls[0][1:]


def _other_gram(k, pts, xs):
    """Fill the kept Gram slot with k's Grams at pts and xs at another step, whatever an earlier
    call left there: the next call at the default step computes its own."""
    connections._gram(k, *k.domain.jets(pts, xs), 3e-4)


def test_direct_backend_makes_one_kernel_block_call(monkeypatch):
    # one point or a stack: a scalar batch kernel reads one stacked block of the probes' 5 x 5
    # sample Grams, whose block row 2 holds the rows kappa(s_j, (s_j, *stencil_j)); a kernel of
    # M x M blocks (universal:n=4,k=2) reads those rows alone, one stacked 1 x 5 block
    for k, sigma, pts, xs in _bitwise_cases():
        for n in (1, len(pts)):
            _other_gram(k, pts[:n], xs[:n])
            calls = _count_values(monkeypatch)
            if n == 1:
                covariant_derivative_direct(k, sigma, pts[0], xs[0])
            else:
                make_evaluator(k, "direct").evaluate(sigma, pts, xs)
            monkeypatch.undo()
            ss, ts = _one_stacked_block(k, calls)
            if k.fiber_dim == 1:
                assert ss is ts and [len(a) for a in ss] == [5] * n, k.name
            else:
                assert [len(a) for a in ss] == [1] * n and [len(b) for b in ts] == [5] * n, k.name


def test_a_direct_and_a_sampled_call_at_one_probe_evaluate_a_scalar_kernel_once(monkeypatch):
    # the sampled backend reads the Gram the direct backend kept, on any section; a kernel of
    # M x M blocks evaluates the direct backend's row and then the sampled backend's Gram
    for k, sigma, pts, xs in _bitwise_cases():
        _other_gram(k, pts[:1], xs[:1])
        calls = _count_values(monkeypatch)
        monkeypatch.setattr(Kernel, "_jet", None)
        covariant_derivative_direct(k, sigma, pts[0], xs[0])
        make_evaluator(k, "sampled")(sigma, pts[0], xs[0])
        make_evaluator(k, "sampled")(Section(F=lambda p: 2 * sigma.value(p)), pts[0], xs[0])
        monkeypatch.undo()
        shapes = [([len(a) for a in ss], [len(b) for b in ts]) for _, ss, ts in calls]
        assert shapes == ([([5], [5])] if k.fiber_dim == 1 else [([1], [5]), ([5], [5])]), k.name


def _direct_by_row(k, sigma, pts, xs, h=1e-4):
    """The direct backend as it read kappa before it shared the sample's Gram: one (L, 1, 5)
    block of the rows kappa(s_j, (s_j, *stencil_j)); the reference bits."""
    s, x = k.domain.jets(pts, xs)
    stencils, weights = k.domain._stencils(s, x, h)
    values = connections._fiber(sigma._values(stencils, 2), k.fiber_dim)
    m, five = k.fiber_dim, np.concatenate([s[:, None], stencils], axis=1)
    rows = k._values(s[:, None], five)
    kst = np.ascontiguousarray(rows.reshape(len(rows), m, 5, m).transpose(0, 2, 1, 3))
    deriv = stencil_sum(weights, (kst[:, 1:] @ values[..., None])[..., 0])
    return connections._solve(kst[:, 0], deriv[..., None])[..., 0]


def test_the_direct_row_read_from_the_gram_has_the_bits_of_its_own_block():
    # the scalar kernels read it from the kept Gram, universal:n=4,k=2 and cp:n=3 their own row
    cases = list(_bitwise_cases())
    psi = random_unital_cpmap(3, 2, 4, np.random.default_rng(3))
    rng = np.random.default_rng(5)
    us = [random_unitary(3, seed=70 + i) for i in range(4)]
    a = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    cases.append((cp_kernel(psi), Section(F=lambda u: psi.apply(u)[:, 0]), us,
                  list(0.5 * (a - a.conj().swapaxes(-1, -2)))))
    assert [k.name for k, *_ in cases][-2:] == ["universal:n=4,k=2", "cp:n=3"]
    for k, sigma, pts, xs in cases:
        for n in (1, len(pts)):
            got = make_evaluator(k, "direct").evaluate(sigma, pts[:n], xs[:n])
            assert _same_bits(got, _direct_by_row(k, sigma, pts[:n], xs[:n])), (k.name, n)


def _direct_by_gram(k, sigma, pts, xs, h=1e-4):
    """The direct backend of a 1 x 1 kernel as it read its rows from block row 2 of the probes'
    5 x 5 stencil Grams, s_j at slot 2, reordered to (s_j, *stencil_j); the reference bits."""
    s, x = k.domain.jets(pts, xs)
    stencils, weights = k.domain._stencils(s, x, h)
    values = connections._fiber(sigma._values(stencils, 2), 1)
    five = np.concatenate([stencils[:, :2], s[:, None], stencils[:, 2:]], axis=1)
    kst = np.ascontiguousarray(k._values(five, five)[:, 2, [2, 0, 1, 3, 4]])[..., None, None]
    deriv = stencil_sum(weights, (kst[:, 1:] @ values[..., None])[..., 0])
    return connections._solve(kst[:, 0], deriv[..., None])[..., 0]


def test_a_homogeneous_direct_call_reads_its_own_row_with_the_bits_of_the_grams(monkeypatch):
    # 1 x 1 blocks on U(3), each a BLAS product: one stacked 1 x 5 block and no five-point Gram,
    # with the bits it had when it read block row 2 of the kept Gram
    n, rng = 3, np.random.default_rng(47)
    p = coordinate_projector(n, 1)
    k, z0 = grassmann.homogeneous_kernel(n, p), rng.standard_normal(n) + 1j * rng.standard_normal(n)
    sigma = Section(F=lambda u: fiber_basis(p).conj().T @ (p.p @ (np.asarray(u).conj().T @ z0)))
    us = [random_unitary(n, seed=120 + i) for i in range(4)]
    xs = [random_grass_tangent(p, rng).generator for _ in us]
    for m in (1, len(us)):
        calls, grams, gram = _count_values(monkeypatch), [], connections._gram
        monkeypatch.setattr(connections, "_gram", lambda *args: grams.append(args) or gram(*args))
        got = make_evaluator(k, "direct").evaluate(sigma, us[:m], xs[:m])
        monkeypatch.undo()
        ss, ts = _one_stacked_block(k, calls)
        assert not grams and [len(a) for a in ss] == [1] * m and [len(b) for b in ts] == [5] * m
        assert _same_bits(got, _direct_by_gram(k, sigma, us[:m], xs[:m])), m


def test_a_closed_form_without_df_reads_the_sample_but_builds_no_gram(monkeypatch):
    # its kernel values are the jet's, one-point members; no 5-point Gram
    for k, sigma, pts, xs in _bitwise_cases():
        plain = Section(F=sigma.F)  # no dF: the closed form reads the kept sample's stencil values
        calls = _count_values(monkeypatch)
        grams = []
        monkeypatch.setattr(connections, "_gram", lambda *args: grams.append(args))
        make_evaluator(k, "closed-form", h=2e-4).evaluate(plain, pts, xs)
        monkeypatch.undo()
        assert not grams and all([len(a) for a in ss] == [1] * len(pts) for _, ss, _ in calls)


def test_sampled_backend_evaluates_the_kernel_only_in_its_gram(monkeypatch):
    # one stacked block of the L per-probe 5 x 5 sample Grams, and nothing else
    for k, sigma, pts, xs in _bitwise_cases():
        for n in (1, len(pts)):
            _other_gram(k, pts[:n], xs[:n])
            calls = _count_values(monkeypatch)
            monkeypatch.setattr(Kernel, "_jet", None)
            make_evaluator(k, "sampled").evaluate(sigma, pts[:n], xs[:n])
            monkeypatch.undo()
            ss, ts = _one_stacked_block(k, calls)
            assert ss is ts and [len(a) for a in ss] == [5] * n, k.name


def test_each_probe_is_checked_once_and_its_derived_points_are_trusted(monkeypatch):
    # the disk: a one-point direct call stacks its probe once, reads its point and its tangent
    # once each, and tests the edge at its point and once more where the edge layer sets the
    # step; its stencil points are inside by the bound on h, and no edge is evaluated there
    stacks = _count_calls(monkeypatch, "stack", VectorDomain)
    entries = _count_calls(monkeypatch, "_entries", VectorDomain)
    converted, complex_ = [], kernels._complex
    monkeypatch.setattr(kernels, "_complex", lambda *a: converted.append(a) or complex_(*a))
    edges, edge = [], kernels._disk_edge
    monkeypatch.setattr(kernels, "_disk_edge", lambda s: edges.append(len(s)) or edge(s))
    covariant_derivative_direct(make_bergman_disk(2), CONSTANT, np.array([0.3]), np.array([1.0]))
    monkeypatch.undo()
    # one conversion of the probe, point and tangent as one array; the per-entry path never runs
    assert len(converted) == 1 and np.shape(converted[0][0]) == (2, 1, 1)
    assert not stacks and not entries
    assert edges == [1, 1]  # the point, its step
    # U(n): one conversion of all probes, one stacked unitarity check of the points and one
    # anti-Hermitian check of the tangents; the stencil points u e^{tha} are unitary by construction
    k, sigma, us, xs = _stack_cases()[-1]
    for backend in ("direct", "sampled"):
        calls = _count_calls(monkeypatch, "_small", UnitaryDomain)
        converted = []
        monkeypatch.setattr(kernels, "_complex", lambda *a: converted.append(a) or complex_(*a))
        make_evaluator(k, backend).evaluate(sigma, us, xs)
        monkeypatch.undo()
        assert [(len(c[1]), c[3]) for c in calls] == [(len(us), "point"), (len(us), "probe")]
        assert len(converted) == 1 and np.shape(converted[0][0]) == (2, len(us), 3, 3), backend


def test_block_counter_sees_a_stray_kernel_evaluation(monkeypatch):
    # the counter behind the two tests above catches k(s, s) and a second block call
    k, _, pts, _ = _bitwise_cases()[0]
    for extra in (lambda: k(pts[0], pts[0]), lambda: k.block(pts[:1], pts[:2])):
        calls = _count_values(monkeypatch)
        k.block(pts[:1], pts)
        extra()
        monkeypatch.undo()
        with pytest.raises(AssertionError):
            _one_stacked_block(k, calls)


@pytest.mark.parametrize("size", [0.0, 1e-300, 1e-9, 1e-8])
def test_sampled_backend_is_real_linear_where_its_stencil_would_collapse(size):
    k = make_bergman_disk(2)
    s, x = np.array([0.5 + 0.1j]), np.array([1.0 - 2.0j]) / np.sqrt(5.0)
    sigma = Section(F=lambda p: np.array([1.0 + 0.3 * complex(p[0])]))
    closed = covariant_derivative_closed_form(k, sigma, s, size * x)
    sampled = make_evaluator(k, "sampled")(sigma, s, size * x)
    assert np.linalg.norm(sampled - closed) <= 1e-12 + 1e-9 * size
    if size == 0.0:
        assert np.array_equal(sampled, np.zeros(1))
        with pytest.raises(ValueError):
            make_evaluator(k, "sampled")(sigma, np.array([1.5]), np.zeros(1))


# ---------------------------------------------------------------------------
# Every backend evaluates a stack of probes; a call is its one-point case

def _stack_cases():
    """(kernel, section, points, tangents): disk nu=2 with probes in the edge layer and a zero and
    a tiny direction, half-plane nu=1, Fock dim=3 and the loop-fallback CP kernel on U(3)."""
    rng = np.random.default_rng(31)
    cases = []
    for k, pts in [
        (make_bergman_disk(2), [np.array([r * np.exp(2j * np.pi * rng.uniform())])
                                for r in (0.1, 0.5, 0.9, 0.93, 0.97, 0.995, 0.9999)]),
        (make_bergman_halfplane(1), [np.array([rng.uniform(-1, 1) + 1j * v])
                                     for v in (0.001, 0.05, 0.3, 1.0, 2.0)]),
        (make_fock(np.eye(3)), [rng.standard_normal(3) + 1j * rng.standard_normal(3)
                                for _ in range(6)]),
    ]:
        dim = k.domain.dim
        a = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        sigma = Section(F=lambda s, a=a: np.array([1.0 + a @ np.asarray(s, dtype=complex)]))
        xs = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in pts]
        if dim == 1:
            xs[1], xs[2] = np.zeros(1), 1e-20 * xs[2]
        cases.append((k, sigma, pts, xs))
    psi = random_unital_cpmap(3, 2, n_kraus=4, rng=rng)
    w0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    sigma = Section(F=lambda u: w0 + psi.apply(u) @ (0.5 * w0))
    us = [random_unitary(3, seed=70 + i) for i in range(4)]
    xs = [a - a.conj().T for a in (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                                   for _ in us)]
    cases.append((cp_kernel(psi), sigma, us, xs))
    return cases


@pytest.mark.parametrize("backend", ["closed-form", "direct", "sampled"])
def test_stacked_evaluation_equals_the_one_point_loop_bit_for_bit(backend):
    for k, sigma, pts, xs in _stack_cases():
        nabla = make_evaluator(k, backend)
        stacked = nabla.evaluate(sigma, pts, xs)
        assert stacked.shape == (len(pts), k.fiber_dim), k.name
        loop = np.array([nabla(sigma, s, x) for s, x in zip(pts, xs)])
        assert np.array_equal(stacked, loop), k.name


@pytest.mark.parametrize("backend", ["closed-form", "direct", "sampled"])
@pytest.mark.parametrize("direction", [[0.0], (0.0,), np.zeros(1), [1e-20], [1e-9j], [1e-300]])
def test_every_backend_is_real_linear_where_its_stencil_would_collapse(backend, direction):
    # every stencil runs along x / |x|, whatever the type of the direction; a zero direction's
    # stencil is its point four times, with zero weights, and every backend gives exactly zero
    k = make_bergman_disk(2)
    sigma = Section(F=lambda p: np.array([1.0 + 0.3 * complex(p[0])]))
    s = np.array([0.5])
    got = make_evaluator(k, backend)(sigma, s, direction)
    x = complex(np.asarray(direction).flat[0])
    want = (2.0 * 0.5 * np.conj(x) / 0.75) * 1.15 + 0.3 * x  # alpha(x) sigma(s) + d sigma(x)
    if x == 0:
        assert np.array_equal(got, np.zeros(1))
    assert abs(got[0] - want) <= 1e-9 * abs(want)


def _zero_tangent_cases():
    """(kernel, section, points, tangents, a zero tangent at points[1]) on C^3, U(3), Gr(2, 4)."""
    rng = np.random.default_rng(34)
    a, w = rng.standard_normal(3) + 1j * rng.standard_normal(3), rng.standard_normal((2, 4))
    psi, w0 = random_unital_cpmap(3, 2, n_kraus=4, rng=rng), np.array([1.0, -0.5j])
    zs = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
    us = [random_unitary(3, seed=75 + i) for i in range(3)]
    ps = [HermitianProjector(u @ coordinate_projector(4, 2).p @ u.conj().T, 2)
          for u in (random_unitary(4, seed=85 + i) for i in range(3))]
    return [
        (make_fock(np.eye(3)), Section(F=lambda s: np.array([1.0 + a @ np.asarray(s)])), zs,
         [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in zs], np.zeros(3)),
        (cp_kernel(psi), Section(F=lambda u: w0 + psi.apply(u) @ (0.5 * w0)), us,
         [b - b.conj().T for b in rng.standard_normal((3, 3, 3)) + 0.5j], np.zeros((3, 3))),
        (universal_kernel(4, 2), Section(F=lambda p: w @ p.p[:, 0]), ps,
         [random_grass_tangent(p, rng) for p in ps],
         grassmann.GrassTangent(ps[1], np.zeros((4, 4)))),
    ]


@pytest.mark.parametrize("case", [0, 1, 2], ids=["C^3", "U(3)", "Gr(2,4)"])
def test_a_zero_tangent_steps_nowhere_and_every_derivative_there_is_zero(case):
    # the stencil of x = 0 is its probe four times, bit for bit, with weights (+0, -0, +0, -0):
    # every backend and Domain.derivatives give exact zeros, and the other probes keep their bits
    k, sigma, pts, xs, zero = _zero_tangent_cases()[case]
    tangents = [xs[0], zero, xs[2]]
    stencils, weights = k.domain._stencils(*k.domain.jets(pts, tangents), 1e-4)
    bits = lambda p: getattr(p, "p", p).tobytes()  # noqa: E731
    assert [bits(q) for q in stencils[1]] == [bits(pts[1])] * 4
    assert not weights[1].any() and np.signbit(weights[1]).tolist() == [False, True, False, True]
    got = k.domain.derivatives(pts, tangents, sigma.F)
    assert not got[1].any()
    assert got[::2].tobytes() == k.domain.derivatives(pts[::2], xs[::2], sigma.F).tobytes()
    for backend in ("closed-form", "direct", "sampled"):
        nabla = make_evaluator(k, backend)
        got = nabla.evaluate(sigma, pts, tangents)
        assert not got[1].any(), backend
        assert got[::2].tobytes() == nabla.evaluate(sigma, pts[::2], xs[::2]).tobytes(), backend


def _linearity_cases():
    """(kernel, section, point, direction): disk nu=3 at |s| = 0.9, the half-plane and Fock."""
    rng = np.random.default_rng(41)
    cases = []
    for k, s in [(make_bergman_disk(3), np.array([0.9 * np.exp(0.7j)])),
                 (make_bergman_halfplane(2), np.array([0.2 + 0.6j])),
                 (make_fock(np.eye(3)),
                  0.5 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)))]:
        dim = k.domain.dim
        a = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        sigma = Section(F=lambda p, a=a: np.array([np.exp(a @ np.asarray(p, dtype=complex))]))
        cases.append((k, sigma, s, rng.standard_normal(dim) + 1j * rng.standard_normal(dim)))
    return cases


@pytest.mark.parametrize("backend", ["closed-form", "direct", "sampled"])
@pytest.mark.parametrize("c", [1e-300, 1e-9, 10.0, 100.0, 1e4, 1e150])
def test_every_backend_is_real_linear_at_every_scale(backend, c):
    # the stencil runs along x / |x| with its weights times |x|: its error does not grow with |x|,
    # and c x differs from c times x only by the stencil's rounding, eps / h relative, ~1e-12
    for k, sigma, s, x in _linearity_cases():
        nabla = make_evaluator(k, backend)
        want = c * nabla(sigma, s, x)
        assert np.abs(nabla(sigma, s, c * x) - want).max() <= 1e-11 * np.abs(want).max(), k.name


@pytest.mark.parametrize("backend", ["closed-form", "direct", "sampled"])
@pytest.mark.parametrize("size", [1e305, 1.7e308])
def test_every_backend_rejects_a_direction_that_overflows_the_stencil_weights(backend, size):
    for k, sigma, s, x in _linearity_cases():
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match=r"\|x\| = .* overflows the stencil weights"):
                make_evaluator(k, backend)(sigma, s, size * (x / np.abs(x).max()))


@pytest.mark.parametrize("h", [0.0, -1e-4, np.nan, np.inf, np.nextafter(0.01, 1), 0.1, 1e9, 1e308])
def test_a_step_outside_0_to_0_01_is_refused_before_any_arithmetic_on_it(h):
    # every entry point on C^d, U(n) and Gr(k, n), with or without a stencil to build: h >= 0.04
    # took a stencil point off the disk, h ~ 1e307 made it overflow, 12 h overflowed from 1.5e307
    # on, and a kernel with d2 never read h, so connection_forms returned a value at h = nan
    cases = [_stack_cases()[i] for i in (0, 2, 3)] + [_bitwise_cases()[-1]]
    message = rf"^step must be positive and at most 0\.01, got {re.escape(str(h))}$"
    with np.errstate(over="raise", invalid="raise"):
        for k, sigma, pts, xs in cases:
            calls = [lambda b=b: make_evaluator(k, b, h=h).evaluate(sigma, pts, xs)
                     for b in ("closed-form", "direct", "sampled")]
            calls += [lambda: connection_forms(k, pts, xs, h), lambda: k.diagonal_jet(pts, xs, h),
                      lambda: k.domain.derivatives(pts, xs, sigma.F, h=h)]
            for call in calls:
                with pytest.raises(NumericsError, match=message):
                    call()


def test_the_largest_step_is_taken_and_exact_on_a_linear_section():
    # h = 0.01 on Fock C^2 for sigma(s) = 1 + s_1 + s_2 at s = 0 along e_1, where d sigma(x) = 1:
    # the stencil is exact on a linear sigma up to its rounding, ~eps / (12 h)
    k, sigma = make_fock(np.eye(2)), Section(F=lambda s: np.array([1 + s[0] + s[1]]))
    s, x = np.zeros(2), np.array([1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert abs(k.domain.derivatives([s], [x], sigma.F, h=0.01)[0, 0] - 1) < 1e-13
        for backend in ("closed-form", "direct", "sampled"):
            assert abs(make_evaluator(k, backend, h=0.01)(sigma, s, x)[0] - 1) < 1e-13, backend


def _refused_at_s_0(k, sigma, s, x, h):
    """Each backend and Domain.derivatives at the probe (s, x) raise the floor's error naming h."""
    message = (rf"^{re.escape(k.domain.name)}: stencil step {h:.3e} is too small to resolve "
               r"the point$")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for backend in ("closed-form", "direct", "sampled"):
            with pytest.raises(DomainError, match=message):
                make_evaluator(k, backend, h=h)(sigma, s, x)
        with pytest.raises(DomainError, match=message):
            k.domain.derivatives([s], [x], sigma.F, h=h)


def test_a_step_of_1e_20_at_s_0_is_refused_by_the_absolute_floor():
    # the floor scaled with |s| alone and refused nothing at s = 0: on the nu=2 disk with
    # sigma = 1 + s at s = 0, x = 1, h = 1e-20 the closed-form and direct backends returned 2048
    # where d sigma = 1, and the sampled backend raised "duplicate sample points at indices 0 and 1"
    _refused_at_s_0(make_bergman_disk(2), Section(F=lambda s: np.array([1.0 + s[0]])),
                    np.zeros(1), np.ones(1), 1e-20)


def test_a_step_of_1e_320_is_refused_before_its_weights_overflow():
    # 12 h under 1 / max float: the weights 1 / (12 h) overflowed to NaN at a zero tangent on
    # Fock C^1 at s = 0, with numpy's "overflow encountered in divide" before any named error
    _refused_at_s_0(make_fock(np.eye(1)), Section(F=lambda s: np.array([1.0 + s[0]])),
                    np.zeros(1), np.zeros(1), 1e-320)


@pytest.mark.parametrize("backend", ["closed-form", "direct", "sampled"])
def test_a_backend_raises_where_the_derivative_overflows(backend):
    # at |s| = 0.9999 the weighted kernel values overflow long before the weights do
    k, sigma = make_bergman_disk(3), Section(F=lambda p: np.array([np.exp(0.3 * complex(p[0]))]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
        with pytest.raises(ValueError, match="not finite"):
            make_evaluator(k, backend)(sigma, np.array([0.9999]), np.array([1e296]))


def test_a_stack_names_the_probe_whose_point_leaves_the_domain():
    k = make_bergman_disk(2)
    pts, xs = [np.array([0.1]), np.array([0.2j]), np.array([1.5])], [np.ones(1)] * 3
    for backend in ("closed-form", "direct", "sampled"):
        with pytest.raises(DomainError, match=r"too close to the unit circle \(point 3 of 3\)"):
            make_evaluator(k, backend).evaluate(CONSTANT, pts, xs)
    # h = 0.1 took the last stencil point of the second probe to 0.85 + 2h = 1.05; every step
    # over 0.01 is refused, and at 0.01 that point is 0.85 + 0.02, inside, for every backend
    for backend in ("closed-form", "direct", "sampled"):
        nabla = lambda h: make_evaluator(k, backend, h=h).evaluate(  # noqa: E731
            Section(F=CONSTANT.F), pts[:1] + [np.array([0.85])], [np.ones(1), 2.5 * np.ones(1)])
        with pytest.raises(NumericsError, match=r"^step must be positive and at most 0\.01"):
            nabla(0.1)
        assert np.all(np.isfinite(nabla(0.01))), backend


def test_a_stack_needs_one_direction_per_point():
    # on C^1 two points and one 2-vector must not read as two directions; on a loop domain
    # the stack must not shrink to the shorter list
    disk = make_bergman_disk(1)
    grass, sigma, gpts, gxs = _bitwise_cases()[-1]
    for k, sigma, pts, xs in [(disk, CONSTANT, [np.array([0.1]), np.array([0.2])],
                               [np.array([1.0, 2.0])]),
                              (grass, sigma, gpts[:2], gxs[:1])]:
        with pytest.raises(DomainError, match="2 points but 1 directions"):
            k.domain.jets(pts, xs)
        with pytest.raises(DomainError, match="2 points but 1 directions"):
            connection_forms(k, pts, xs)
        for backend in ("closed-form", "direct", "sampled"):
            with pytest.raises(DomainError, match="2 points but 1 directions"):
                make_evaluator(k, backend).evaluate(sigma, pts, xs)


def test_every_backend_rejects_a_section_of_the_wrong_fiber_dimension():
    # a 2-vector section on a scalar kernel: no backend may read it as two fibers
    k = make_bergman_disk(2)
    sigma = Section(F=lambda s: np.array([1.0, 2.0 + 0j]))
    s, x = np.array([0.3]), np.array([1.0])
    for backend in ("closed-form", "direct", "sampled"):
        with pytest.raises(ValueError):
            make_evaluator(k, backend)(sigma, s, x)


@pytest.mark.parametrize("backend, sigma", [
    (b, Section(F=lambda s: NAN)) for b in ("closed-form", "direct", "sampled")
] + [
    ("closed-form", Section(F=lambda s: NAN, dF=lambda s, x: np.zeros(1))),
    ("closed-form", Section(F=lambda s: np.ones(1), dF=lambda s, x: NAN)),
])
def test_every_backend_rejects_a_non_finite_section_value_or_derivative(backend, sigma):
    # the closed form returned NaN for a NaN value beside an analytic dF, and for a NaN dF
    nabla = make_evaluator(make_bergman_disk(2), backend)
    with pytest.raises(NumericsError, match="section value or derivative is not finite"):
        nabla.evaluate(sigma, [np.array([0.1]), np.array([0.3j])], [np.ones(1), np.ones(1)])


def test_dsigma_and_df_each_read_one_stencils_call_for_a_stack(monkeypatch):
    # on kernels with d2 the jet reads no stencil: the one call is the derivative's
    for k, sigma, pts, xs in _stack_cases():
        calls, stencils = [], type(k.domain)._stencils
        monkeypatch.setattr(type(k.domain), "_stencils", lambda self, s, *args, **kwargs:
                            calls.append(len(s)) or stencils(self, s, *args, **kwargs))
        make_evaluator(k, "closed-form").evaluate(sigma, pts, xs)
        zero = ConnectionEvaluator("zero", k, lambda s, p, x: np.zeros((len(p), k.fiber_dim)))
        leibniz_residual(zero, lambda p: complex(np.sum(p)), sigma, list(zip(pts, xs)))
        monkeypatch.undo()
        assert calls == [len(pts), len(pts)], k.name


def test_a_stack_certifies_each_sample_and_names_the_one_that_fails():
    # the Grams of the sampled backend's five-point samples of four Grassmann probes, where only
    # sample 3 has a negative eigenvalue: its first diagonal entry is made -1
    q, rng = universal_kernel(4, 2), np.random.default_rng(33)
    sigma = Section(F=lambda p: fiber_basis(p).conj().T @ p.p[:, 1])
    points = [HermitianProjector(u @ coordinate_projector(4, 2).p @ u.conj().T, 2)
              for u in (random_unitary(4, seed=60 + i) for i in range(4))]
    xs = [random_grass_tangent(p, rng) for p in points]
    s, x = q.domain.jets(points, xs)
    grams = np.array(connections._gram(q, s, x, 1e-4)[0])  # a writable copy of the kept Grams
    grams[2, 0, 0] = -1.0
    message = r"not PSD \(min eigenvalue -.*\); .* on this sample \(sample 3 of 4\)$"
    with pytest.raises(NumericsError, match=message):
        _certify(grams)
    _certify(grams[[0, 1, 3]])  # the other three pass
    nabla = make_evaluator(q, "sampled")
    assert np.array_equal(nabla.evaluate(sigma, points[:2], xs[:2]),
                          nabla.evaluate(sigma, points, xs)[:2])


def _leibniz_loop(nabla, f, sigma, probes, h=1e-4):
    """The Leibniz residual probe by probe through one-point calls: the reference."""
    scaled = Section(F=lambda s: complex(f(s)) * sigma.value(s))
    res = 0.0
    for s, x in probes:
        df = complex(nabla.kernel.domain.derivatives((s,), (x,), f, h)[0])
        rhs = df * sigma.value(s) + complex(f(s)) * nabla(sigma, s, x)
        res = max(res, float(np.linalg.norm(nabla(scaled, s, x) - rhs)))
    return res


@pytest.mark.parametrize("seed", [42, 5])
def test_leibniz_residual_is_unchanged_on_the_reports_probes(seed):
    # the probes, sections and functions of verify's Leibniz block
    rng = np.random.default_rng(seed + 8)
    for k, stacks in [(make_bergman_disk(2), verify._probes(rng, 30, verify._disk)),
                      (make_bergman_halfplane(1), verify._probes(rng, 30, verify._halfplane)),
                      (make_fock(np.eye(2)),
                       verify._probes(rng, 30, lambda r, n: verify._normals(r, n, 2), 2, 0.7))]:
        dim, probes = k.domain.dim, list(zip(*stacks))
        sigma = verify._scalar_test_section(dim, rng)
        a = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        b = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        f = lambda s, a=a, b=b: 0.5 + a @ s + b @ np.conj(s)  # noqa: E731
        for backend in ("closed-form", "direct", "sampled"):
            nabla = make_evaluator(k, backend)
            want = _leibniz_loop(nabla, f, sigma, probes)
            assert leibniz_residual(nabla, f, sigma, probes) == want, (k.name, backend)


# ---------------------------------------------------------------------------
# One stacked diagonal jet per set of forms, and one per transport

def _psd_beta(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T / dim


_JET_KERNELS = [make_bergman_disk(1), make_bergman_disk(2.5), make_bergman_halfplane(1),
                make_bergman_halfplane(2), make_fock(np.eye(3)), make_fock(_psd_beta(2, 5))]


def _jet_probes(k, count, rng):
    dim = k.domain.dim
    xs = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(count)]
    if k.name.startswith("bergman-disk"):
        pts = [np.array([0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())])
               for _ in range(count)]
    elif k.name.startswith("bergman-halfplane"):
        pts = [np.array([rng.uniform(-2, 2) + 1j * rng.uniform(0.05, 2)]) for _ in range(count)]
    else:
        pts = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(count)]
    return pts, xs


def _form_formula(k, s, x):
    """alpha_s(x) in closed form on the disk and the half-plane; None on Fock (tested below)."""
    nu = float(k.name.partition("nu=")[2] or 0)
    if k.name.startswith("bergman-disk"):
        return nu * s[0] * np.conj(x[0]) / (1.0 - abs(s[0]) ** 2)
    if k.name.startswith("bergman-halfplane"):
        return nu * np.conj(x[0]) / (2j * s[0].imag)
    return None


@pytest.mark.parametrize("k", _JET_KERNELS, ids=lambda k: k.name)
def test_connection_forms_equal_the_one_point_form_bit_for_bit(k):
    pts, xs = _jet_probes(k, 60, np.random.default_rng(21))
    forms = connection_forms(k, pts, xs)
    assert forms.shape == (60, 1, 1)
    for s, x, alpha in zip(pts, xs, forms):
        assert np.array_equal(alpha, connection_form(k, s)(x))
        want = _form_formula(k, s, x)
        if want is not None:
            assert abs(alpha[0, 0] - want) <= 1e-13 * abs(want) + 1e-300


def test_fock_forms_are_the_form_beta_with_the_direction():
    b = _psd_beta(3, 6)
    k = make_fock(b)
    pts, xs = _jet_probes(k, 50, np.random.default_rng(22))
    for s, x, alpha in zip(pts, xs, connection_forms(k, pts, xs)):
        want = s @ b @ np.conj(x)
        assert abs(alpha[0, 0] - want) <= 1e-14 * (np.abs(s) @ np.abs(b) @ np.abs(x))


def _segment(start, end):
    return Curve(gamma=lambda t: (1.0 - t) * start + t * end, velocity=lambda t: end - start)


def _count_calls(monkeypatch, name, cls=Kernel):
    """Record the instance and the arguments of every call of the method `name` of cls."""
    calls = []
    method = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append((self, *args))
        return method(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("k, start, end", [
    (make_bergman_disk(2), np.array([0.1 + 0.2j]), np.array([-0.5 + 0.3j])),
    (make_bergman_halfplane(1), np.array([0.3 + 0.5j]), np.array([-0.2 + 1.5j])),
    (make_fock(np.eye(2)), np.array([0.1, 0.2j]), np.array([-0.5 + 0.3j, 0.4])),
], ids=lambda a: getattr(a, "name", ""))
def test_parallel_transport_makes_one_stacked_jet_evaluation(monkeypatch, k, start, end):
    jets = _count_calls(monkeypatch, "diagonal_jet")
    blocks = _count_calls(monkeypatch, "block")
    derivatives = _count_calls(monkeypatch, "_jet")
    parallel_transport(k, _segment(start, end), np.ones(1), steps=64)
    assert len(jets) == 1 and len(jets[0][1]) == 129  # t_j = j/128
    assert blocks == [] and len(derivatives) == 1 and len(derivatives[0][1]) == 129


def test_a_kernel_without_batch_transports_through_the_loop():
    k = make_bergman_disk(1)
    curve = Curve(gamma=lambda t: np.array([0.5 * t]), velocity=lambda t: np.array([0.5 + 0j]))
    plain = Kernel(k.fiber_dim, k.domain, k.eval, k.d2, name=k.name + "[plain]")
    v = parallel_transport(k, curve, np.array([1.0 + 0j]), steps=128)
    assert np.array_equal(parallel_transport(plain, curve, np.array([1.0 + 0j]), steps=128), v)
    # the negative control of verify: alpha -> -alpha carries 1 to 1/sqrt(0.75), not sqrt(0.75)
    flipped = Kernel(k.fiber_dim, k.domain, k.eval, lambda s, t, x: -k.d2(s, t, x),
                     name=k.name + "[flipped]")
    w = parallel_transport(flipped, curve, np.array([1.0 + 0j]), steps=128)
    assert abs(v[0] - np.sqrt(0.75)) < 1e-9 and abs(w[0] - 1.0 / np.sqrt(0.75)) < 1e-9


def test_transport_propagators_equal_the_stage_by_stage_method():
    # one step of the classical method, written out stage by stage, against the propagator
    k = make_bergman_disk(2)
    curve = _segment(np.array([0.1 + 0.2j]), np.array([-0.5 + 0.3j]))
    v = np.array([1.0 - 0.5j])
    for steps in (1, 3, 16):
        dt, w = 1.0 / steps, v
        form = lambda t: connection_form(k, curve.gamma(t))(curve.velocity(t))  # noqa: E731
        for n in range(steps):
            t0, tm, t1 = (2 * n) / (2 * steps), (2 * n + 1) / (2 * steps), (2 * n + 2) / (2 * steps)
            k1 = -(form(t0) @ w)
            k2 = -(form(tm) @ (w + 0.5 * dt * k1))
            k3 = -(form(tm) @ (w + 0.5 * dt * k2))
            k4 = -(form(t1) @ (w + dt * k3))
            w = w + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.max(np.abs(parallel_transport(k, curve, v, steps) - w)) <= 1e-14


def _no_d2_cases():
    """(kernel, point, direction) on kernels without an analytic d2."""
    rng = np.random.default_rng(23)
    base = coordinate_projector(4, 2)
    u = random_unitary(4, seed=90)
    p = HermitianProjector(u @ base.p @ u.conj().T, 2)
    disk = make_bergman_disk(2)
    theta = BundleMorphism(zeta=lambda s: 0.5 * np.asarray(s),
                           delta=lambda s: np.array([[2.0 + 0.5j]]),
                           tangent=lambda s, x: 0.5 * np.asarray(x))
    return [
        (universal_kernel(4, 2), p, random_grass_tangent(p, rng)),
        (feature_kernel(lambda s: np.array([[1.0, np.conj(s[0])]]), 2, VectorDomain(1), "rank-one"),
         np.array([0.3 - 0.1j]), np.array([1.0 + 0.5j])),
        (pull_back_kernel(theta, disk, 1, disk.domain), np.array([0.4j]), np.array([-1.0 + 2j])),
    ]


def _no_d2_stacks(n=5):
    """(kernel, points, directions): n probes on each kernel of `_no_d2_cases`."""
    rng = np.random.default_rng(25)
    stacks = []
    for k, s, x in _no_d2_cases():
        if isinstance(s, HermitianProjector):
            pts = [HermitianProjector(u @ s.p @ u.conj().T, s.rank)
                   for u in (random_unitary(4, seed=100 + j) for j in range(n))]
            xs = [random_grass_tangent(p, rng) for p in pts]
        else:
            pts = [s + 0.3 * np.exp(2j * np.pi * j / n) for j in range(n)]
            xs = [x * (1.0 + 0.5j * j) for j in range(n)]
        stacks.append((k, pts, xs))
    return stacks


def test_a_jet_without_d2_reads_the_kernel_in_two_blocks(monkeypatch):
    # L = 5 probes: one _values call for the kappa(s_j, s_j), one for all 4 L stencil values
    for k, pts, xs in _no_d2_stacks():
        want = [(k(s, s), k.diagonal_jet((s,), (x,))[1][0]) for s, x in zip(pts, xs)]
        calls = _count_calls(monkeypatch, "_values")
        kss, d2 = k.diagonal_jet(pts, xs)
        monkeypatch.undo()
        own = [c for c in calls if c[0] is k]
        assert len(own) == 2, k.name
        assert own[0][1] is own[0][2] and [len(a) for a in own[0][1]] == [1] * 5, k.name
        assert [len(a) for a in own[1][1]] == [1] * 5, k.name
        assert [len(b) for b in own[1][2]] == [4] * 5, k.name
        for a, b, (value, deriv) in zip(kss, d2, want):
            assert np.array_equal(a, value) and np.array_equal(b, deriv), k.name


def test_connection_forms_without_d2_equal_their_one_point_forms(monkeypatch):
    # the forms of a stack make one diagonal jet; the rank-one kernel has no form (singular kappa)
    for k, pts, xs in _no_d2_stacks()[::2]:
        want = [connection_form(k, s)(x) for s, x in zip(pts, xs)]
        calls = _count_calls(monkeypatch, "_values")
        forms = connection_forms(k, pts, xs)
        monkeypatch.undo()
        assert len([c for c in calls if c[0] is k]) == 2, k.name
        assert np.array_equal(forms, np.array(want)), k.name


def test_a_one_probe_jet_without_d2_reads_its_stencil_from_one_block(monkeypatch):
    # one _values call for kappa(s, s), and one for the four stencil values
    for k, s, x in _no_d2_cases():
        points, weights = _per_pair_stencil(k, s, x)
        want = stencil_sum(weights, [k(s, p) for p in points])  # four 1 x 1 blocks
        calls = _count_calls(monkeypatch, "_values")
        got = k.diagonal_jet((s,), (x,))[1][0]
        monkeypatch.undo()
        own = [c for c in calls if c[0] is k]
        assert len(own) == 2 and own[0][1] is own[0][2], k.name
        assert [len(a) for a in own[1][1]] == [1] and [len(b) for b in own[1][2]] == [4], k.name
        assert np.array_equal(got, want), k.name


_renamed = itertools.count()


def _fresh(k):
    """A kernel with k's fields on a domain with k.domain's fields but for a name no other owner
    has: so no kept slot serves it, and it computes each stencil and jet itself."""
    name = f"{k.name}#{next(_renamed)}"
    return replace(k, name=name, domain=replace(k.domain, name=name))


def _pointwise_order(kernel, sigma, pts, xs):
    """The form, closed-form, direct and sampled derivatives at one probe or a stack, in the
    order the pointwise benchmark calls them, each on kernel() and as raw bytes."""
    if len(pts) == 1:
        (s,), (x,) = pts, xs
        calls = [lambda k: connection_form(k, s)(x),
                 lambda k: covariant_derivative_closed_form(k, sigma, s, x),
                 lambda k: covariant_derivative_direct(k, sigma, s, x),
                 lambda k: make_evaluator(k, "sampled")(sigma, s, x)]
    else:
        calls = [lambda k: connection_forms(k, pts, xs)] + [
            lambda k, b=b: make_evaluator(k, b).evaluate(sigma, pts, xs)
            for b in ("closed-form", "direct", "sampled")]
    return [f(kernel()).tobytes() for f in calls]


@pytest.mark.parametrize("n", [1, 4])
def test_the_pointwise_order_on_one_kernel_has_the_bits_of_each_call_on_a_fresh_one(n):
    # the closed form reads the form's kept jet, the direct and sampled backends one kept stencil
    for k, sigma, pts, xs in _stack_cases()[:3]:
        pts, xs = pts[:n], xs[:n]
        shared = _pointwise_order(lambda: k, sigma, pts, xs)
        assert shared == _pointwise_order(lambda: _fresh(k), sigma, pts, xs), k.name


def test_a_kept_stencil_or_jet_serves_only_its_probes_step_and_owners_value(monkeypatch):
    # counted where each is computed: Domain._rule for a stencil, Kernel._values for a jet.  The
    # slot of a method is shared by equal owners: a kernel with k's fields on a domain with
    # k.domain's fields is served; another name, on the domain and so the kernel, or another d2
    # on the kernel alone, is not
    k = make_bergman_disk(2)
    s, x = k.domain.jets([0.3 + 0.1j], [1.0 - 0.5j])
    ulp = lambda a: np.nextafter(a.real, np.inf) + 1j * a.imag  # noqa: E731
    equal, renamed = replace(k, domain=replace(k.domain)), _fresh(k)
    other_d2 = replace(k, d2=lambda *args: k.d2(*args))
    k.domain._stencils(s, x, 3e-4)  # whatever an earlier test left in the slots, not these probes
    k._jet(s, x, 3e-4)
    rules = _count_calls(monkeypatch, "_rule", Domain)
    values = _count_calls(monkeypatch, "_values")
    for kernel, p, v, h, computed in [(k, s, x, 1e-4, (1, 1)), (k, s, x, 1e-4, (0, 0)),
                                      (k, ulp(s), x, 1e-4, (1, 1)), (k, s, x, 1e-4, (1, 1)),
                                      (k, s, ulp(x), 1e-4, (1, 1)), (k, s, x, 1e-4, (1, 1)),
                                      (k, s, x, 2e-4, (1, 1)), (k, s, x, 1e-4, (1, 1)),
                                      (equal, s, x, 1e-4, (0, 0)), (k, s, x, 1e-4, (0, 0)),
                                      (renamed, s, x, 1e-4, (1, 1)), (k, s, x, 1e-4, (1, 1)),
                                      (other_d2, s, x, 1e-4, (0, 1)), (k, s, x, 1e-4, (0, 1))]:
        before = len(rules), len(values)
        kernel.domain._stencils(p, v, h)
        kernel._jet(p, v, h)
        assert (len(rules) - before[0], len(values) - before[1]) == computed


def test_backends_at_one_probe_build_its_stencil_and_jet_once(monkeypatch):
    d2s, disk = [], make_bergman_disk(2)
    k = replace(disk, d2=lambda *args: d2s.append(args) or disk.d2(*args))
    s, x = np.array([0.4 - 0.2j]), np.array([1.0 - 0.5j])
    connection_form(k, s)(x)
    covariant_derivative_closed_form(k, CONSTANT, s, x)  # CONSTANT has dF: no stencil
    assert len(d2s) == 1
    rules = _count_calls(monkeypatch, "_rule", Domain)
    covariant_derivative_direct(k, CONSTANT, s, x)
    make_evaluator(k, "sampled")(CONSTANT, s, x)
    assert len(rules) == 1
    probes = [(np.array([0.1j]), np.array([1.0])), (s, x)]
    _leibniz([make_evaluator(k, "direct"), make_evaluator(k, "sampled")], Section(F=np.conj),
             CONSTANT, probes)
    assert len(rules) == 2


# ---------------------------------------------------------------------------
# A section's values at a stack of points, from one batch call

def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _verify_section_case(k, count, seed):
    """verify's section for k, its probes, and their (L, 4, d) stencil stack."""
    rng, dim = np.random.default_rng(seed), k.domain.dim
    point = verify._disk if dim == 1 else (lambda r, n: verify._normals(r, n, dim))
    probes = list(zip(*verify._probes(rng, count, point, dim, 1.0 if dim == 1 else 0.7)))
    stencils, _ = k.domain._stencils(*k.domain.jets(*zip(*probes)), 1e-4)
    return verify._scalar_test_section(dim, rng), probes, stencils


_SECTION_KERNELS = [make_bergman_disk(2), make_fock(np.eye(2)), make_fock(np.eye(3))]


@pytest.mark.parametrize("k", _SECTION_KERNELS, ids=lambda k: k.name)
def test_verify_sections_batch_has_the_bits_of_their_one_point_loop(k):
    # at dimensions 1, 2 and 3: the stack against F point by point, then every backend
    sigma, probes, stencils = _verify_section_case(k, 12, seed=3)
    assert stencils.shape == (12, 4, k.domain.dim)
    loop = np.array([[sigma.F(p) for p in ps] for ps in stencils])
    assert _same_bits(sigma.batch(stencils), loop)
    plain = Section(F=sigma.F, dF=sigma.dF)
    for backend in ("closed-form", "direct", "sampled"):
        nabla = make_evaluator(k, backend, h=1e-4)
        got = nabla.evaluate(sigma, *zip(*probes))
        assert _same_bits(got, nabla.evaluate(plain, *zip(*probes))), backend


@pytest.mark.parametrize("k", _SECTION_KERNELS, ids=lambda k: k.name)
def test_each_backend_reads_a_sections_values_from_one_batch_call(k):
    # F is never called; the closed form without dF reads its stencil from a second call, and the
    # direct and sampled backends after it, at the same probes and an equal section, read none: the
    # kept `_sample` serves them
    sigma, probes, _ = _verify_section_case(k, 6, seed=4)
    calls = []
    counted = lambda z: calls.append(z.shape) or sigma.batch(z)  # noqa: E731
    never = lambda s: pytest.fail("F called point by point")  # noqa: E731
    for backend, d_f, want in [("closed-form", sigma.dF, [(6, 1)]),
                               ("closed-form", None, [(6, 1), (6, 4, 1)]),
                               ("direct", None, []), ("sampled", None, [])]:
        calls.clear()
        make_evaluator(k, backend).evaluate(Section(F=never, dF=d_f, batch=counted),
                                            *zip(*probes))
        assert calls == [w[:-1] + (k.domain.dim,) for w in want], backend


@pytest.mark.parametrize("k", _SECTION_KERNELS, ids=lambda k: k.name)
def test_the_next_backend_at_the_same_probes_and_section_reads_no_section_value(k):
    # direct after a closed form without dF, and sampled after direct, are served the kept sample;
    # an unequal section with the same functions reads its own, and every output has its bits
    sigma, probes, _ = _verify_section_case(k, 5, seed=11)
    reads = []
    counted = Section(F=sigma.F, batch=lambda z: reads.append(z.shape) or sigma.batch(z))
    pts, xs = zip(*probes)
    for first, second in [("closed-form", "direct"), ("direct", "sampled")]:
        make_evaluator(k, first).evaluate(counted, pts, xs)
        reads.clear()
        got = make_evaluator(k, second).evaluate(counted, pts, xs)
        assert reads == [], (first, second)
        want = make_evaluator(k, second).evaluate(Section(F=sigma.F, batch=sigma.batch), pts, xs)
        assert _same_bits(got, want), (first, second)


def test_a_kept_sample_serves_only_an_equal_section_its_step_probes_and_kernel():
    # each miss reads sigma at the 4 stencil points of each of the 2 probes; an equal section (the
    # same functions, by dataclass equality) is served
    k, reads = make_bergman_disk(2), []
    f = lambda p: reads.append(1) or 1.0 + p * p  # noqa: E731
    sigma = Section(F=f)
    s, x = k.domain.jets([0.3 + 0.1j, -0.2j], [1.0 - 0.5j, 0.5])
    ulp = lambda a: np.nextafter(a.real, np.inf) + 1j * a.imag  # noqa: E731
    for owner, p, v, h, read in [((k, sigma), s, x, 1e-4, 8), ((k, sigma), s, x, 1e-4, 0),
                                 ((k, Section(F=f)), s, x, 1e-4, 0),
                                 ((k, Section(F=lambda p: f(p))), s, x, 1e-4, 8),
                                 ((k, sigma), s, x, 1e-4, 8), ((k, sigma), s, x, 2e-4, 8),
                                 ((k, sigma), s, x, 1e-4, 8), ((k, sigma), ulp(s), x, 1e-4, 8),
                                 ((k, sigma), s, ulp(x), 1e-4, 8), ((k, sigma), s, x, 1e-4, 8),
                                 ((make_bergman_disk(3), sigma), s, x, 1e-4, 8),
                                 ((_fresh(k), sigma), s, x, 1e-4, 8), ((k, sigma), s, x, 1e-4, 8)]:
        reads.clear()
        connections._sample(owner, p, v, h)
        assert len(reads) == read


# ---------------------------------------------------------------------------
# One conversion of a stack of probes; a bad one is named as each entry apart names it

_DISK, _HALF, _FOCK = make_bergman_disk(2), make_bergman_halfplane(1), make_fock(np.eye(3))
_ONE, _F3 = np.ones(1), 0.1 * np.ones(3)
_CP = cp_kernel(random_unital_cpmap(3, 2, 4, np.random.default_rng(0)))
_U, _A = random_unitary(3, seed=1), np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 1j]])

_BAD_PROBES = [  # (kernel, points, tangents, the message of every backend and of jets)
    (_DISK, [np.array([0.1]), NAN], [_ONE] * 2, "unit disk: point is not finite (point 2 of 2)"),
    (_DISK, [np.array([0.1]), np.array([0.2]), np.array([0.3])], [_ONE, np.array([np.inf]), _ONE],
     "unit disk: tangent is not finite (probe 2 of 3)"),
    (_FOCK, [_F3, _F3[:2]], [np.ones(3)] * 2, "C^3: expected dimension 3, got 2 (point 2 of 2)"),
    (_FOCK, [_F3] * 2, [np.ones(3), np.ones(2)], "C^3: tangent dimension 2 != 3 (probe 2 of 2)"),
    (_FOCK, [_F3[:, None]], [np.ones(3)], "C^3: point must be 1-d, got shape (3, 1)"),
    (_FOCK, [[0.1, 0.2, 0.3], [0.1, [0.2, 0.3], 0.3]], [np.ones(3)] * 2,
     "C^3: point is ragged or not numeric (point 2 of 2)"),
    (_FOCK, [_F3] * 2, [np.ones(3), [1, [1, 2], 1]],
     "C^3: tangent is ragged or not numeric (probe 2 of 2)"),
    (_DISK, [np.array([0.1]), np.array([1.5])], [_ONE] * 2,
     "unit disk: |s| = 1.50000000 is too close to the unit circle (point 2 of 2)"),
    (_HALF, [np.array([0.5j]), np.array([-1j])], [_ONE] * 2,
     "upper half-plane: Im z = -1.000e+00 must be positive (point 2 of 2)"),
    (_DISK, [np.array([0.1]), np.array([0.2])], [_ONE], "2 points but 1 directions"),
    (_DISK, [np.array([0.1]), np.array([1.5])], [_ONE],  # the point's error comes first
     "unit disk: |s| = 1.50000000 is too close to the unit circle (point 2 of 2)"),
    (_DISK, [], [], "empty stack of probes: no points and no directions"),
    (_CP, [_U, 2 * _U], [_A] * 2, "U(n): not unitary, ||u*u - I|| = 5.196e+00 (point 2 of 2)"),
    (_CP, [_U, 2 * _U], [_A], "U(n): not unitary, ||u*u - I|| = 5.196e+00 (point 2 of 2)"),
    (_CP, [_U] * 2, [_A, _A + np.eye(3)],
     "U(n): tangent not anti-Hermitian, ||a + a*|| = 3.464e+00 (probe 2 of 2)"),
    (_CP, [_U, _U[:2]], [_A] * 2, "U(n): expected 3x3 matrix, got (2, 3) (point 2 of 2)"),
    (_CP, [_U] * 2, [_A, _A + np.inf], "U(n): tangent is not finite (probe 2 of 2)"),
]


@pytest.mark.parametrize("k, points, tangents, message", _BAD_PROBES)
def test_a_bad_probe_has_the_message_of_its_entry_checked_apart(k, points, tangents, message):
    # the messages of the per-entry check, which names the first bad entry of each class
    for check in [k.domain.jets] + [make_evaluator(k, b).evaluate for b in
                                    ("closed-form", "direct", "sampled")]:
        args = (points, tangents) if check == k.domain.jets else (CONSTANT, points, tangents)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            check(*args)


@pytest.mark.parametrize("t, message", [
    (np.array([1.5]), "unit disk: |s| = 1.50000000 is too close to the unit circle"),
    (NAN, "unit disk: point is not finite"),
    (np.array([0.1, 0.2]), "unit disk: expected dimension 1, got 2")])
def test_k_of_s_and_a_bad_t_names_t_alone(t, message):
    # k(s, t) stacks the pair once; a bad t is named as one point, not "(point 2 of 2)"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        _DISK(np.array([0.1]), t)


@pytest.mark.parametrize("argv, message", [
    (["connect", "covderiv", "--kernel", "bergman-disk:nu=2", "--point", "1e400",
      "--direction", "1"], "unit disk: point is not finite"),
    (["connect", "covderiv", "--kernel", "bergman-disk:nu=2", "--point", "0.5",
      "--direction", "1e400"], "unit disk: tangent is not finite"),
    (["connect", "covderiv", "--kernel", "fock:dim=3", "--point", "0.1,0.2", "--direction",
      "1,1,1"], "C^3: expected dimension 3, got 2"),
    (["connect", "covderiv", "--kernel", "fock:dim=3", "--point", "0.1,0.2,0", "--direction",
      "1,1"], "C^3: tangent dimension 2 != 3"),
    (["connect", "covderiv", "--kernel", "bergman-disk:nu=2", "--point", "1.5", "--direction",
      "1"], "unit disk: |s| = 1.50000000 is too close to the unit circle"),
    (["connect", "covderiv", "--kernel", "bergman-halfplane:nu=1", "--point", "-1i",
      "--direction", "1"], "upper half-plane: Im z = -1.000e+00 must be positive"),
    (["kernel", "eval", "--kernel", "bergman-disk:nu=2", "--point", "0.1", "--point2", "1.5"],
     "unit disk: |s| = 1.50000000 is too close to the unit circle"),
    (["kernel", "eval", "--kernel", "bergman-disk:nu=2", "--point", "0.1", "--point2", "1e400"],
     "unit disk: point is not finite")])
def test_a_bad_probe_on_the_command_line_exits_2_with_its_message(argv, message, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("value, error, message", [
    (NAN, NumericsError, "section value or derivative is not finite"),
    (np.ones(2), ValueError, "section value has 2 entries, fiber dimension is 1")])
def test_a_section_read_that_raises_keeps_no_sample(value, error, message):
    # each backend reads sigma again at the same probes, and raises again
    k, reads = make_bergman_disk(2), []
    sigma = Section(F=lambda p: reads.append(1) or value)
    s, x = np.array([0.3 + 0.1j]), np.array([1.0 - 0.5j])
    for backend in ("closed-form", "direct", "direct", "sampled"):
        with pytest.raises(error, match=message):
            make_evaluator(k, backend)(sigma, s, x)
    assert len(reads) == 1 + 4 + 4 + 4  # the closed form's first read is sigma(s)


def test_a_kept_sample_is_read_only_and_leaves_the_sections_own_array_writable():
    k, own = make_fock(np.eye(2)), []
    ones = lambda z: own.append(np.ones((*z.shape[:-1], 1), dtype=complex)) or own[-1]  # noqa: E731
    s, x = k.domain.jets([[0.1, 0.2j]], [[1.0, -0.5j]])
    stencils, weights, values = connections._sample((k, Section(F=ones, batch=ones)), s, x, 1e-4)
    assert values.shape == (1, 4, 1)
    assert not any(a.flags.writeable for a in (stencils, weights, values))
    with pytest.raises(ValueError, match="read-only"):
        values[0, 0, 0] = 2.0
    assert own[0].flags.writeable and np.shares_memory(own[0], values)


@pytest.mark.parametrize("k", _SECTION_KERNELS, ids=lambda k: k.name)
def test_closed_form_reads_a_batched_sections_derivative_from_one_df_call_on_the_stacks(k):
    # a section without batch keeps one dF call per probe, on its point and tangent; the same bits
    sigma, probes, _ = _verify_section_case(k, 6, seed=9)
    calls, d = [], k.domain.dim
    counted = lambda s, x: calls.append((np.shape(s), np.shape(x))) or sigma.dF(s, x)  # noqa: E731
    nabla = make_evaluator(k, "closed-form")
    got = nabla.evaluate(Section(F=sigma.F, dF=counted, batch=sigma.batch), *zip(*probes))
    assert calls == [((6, d), (6, d))]
    calls.clear()
    want = nabla.evaluate(Section(F=sigma.F, dF=counted), *zip(*probes))
    assert calls == [((d,), (d,))] * 6
    assert _same_bits(got, want)


def test_leibniz_residual_reads_the_product_section_from_sigmas_batch():
    k = make_fock(np.eye(2))
    sigma, probes, _ = _verify_section_case(k, 5, seed=5)
    calls = []
    counted = Section(F=sigma.F, dF=sigma.dF,
                      batch=lambda z: calls.append(z.shape) or sigma.batch(z))
    f = lambda s: 0.5 + s[0] - 2j * np.conj(s[1])  # noqa: E731
    res = leibniz_residual(make_evaluator(k, "direct"), f, counted, probes)
    assert res == leibniz_residual(make_evaluator(k, "direct"), f, Section(F=sigma.F), probes)
    assert sorted(calls) == [(5, 2), (5, 4, 2), (5, 4, 2)]  # sigma(s); f sigma, sigma


_BACKENDS = ("closed-form", "direct", "sampled")


def test_leibniz_residual_takes_a_batched_section_on_unitaries():
    # the product section's stack axes are those of sigma's values, not all but the last axis of
    # the (..., n, n) points; its residuals are the unbatched section's bit for bit
    k, _, us, xs = _stack_cases()[-1]
    w0 = np.array([1.0 + 0.5j, -0.25 + 2j])
    fn = lambda u: w0 + 0.5 * u[..., 0, :2] - 1j * u[..., 1, 1:]  # noqa: E731 - member by member
    f = lambda u: complex(np.trace(u)) ** 2  # noqa: E731
    for backend in _BACKENDS:
        nabla = make_evaluator(k, backend)
        got = leibniz_residual(nabla, f, Section(F=fn, batch=fn), list(zip(us, xs)))
        assert got == leibniz_residual(nabla, f, Section(F=fn), list(zip(us, xs))), backend
        assert 0.0 < got < 1e-6, backend


@pytest.mark.parametrize("k", _SECTION_KERNELS, ids=lambda k: k.name)
def test_leibniz_core_members_have_the_bits_of_leibniz_residual(k):
    sigma, probes, _ = _verify_section_case(k, 8, seed=6)
    f = lambda s: 0.5 + s[0] - 2j * np.conj(s[-1])  # noqa: E731
    nablas = [make_evaluator(k, b) for b in _BACKENDS]
    got = _leibniz(nablas, Section(F=f), sigma, probes)
    assert got == [leibniz_residual(nabla, f, sigma, probes) for nabla in nablas]
    assert 0.0 < max(got) < 1e-6


@pytest.mark.parametrize("batch", [True, False], ids=["batch", "pointwise"])
def test_one_leibniz_core_call_evaluates_f_at_each_point_a_reader_asks_for(batch):
    # f at the L probes and their 4L stencil points gives df and f(s); f sigma reads f again where
    # the first backend reads it: the closed form at the probes and stencils; the direct and sampled
    # backends after it read the kept sample of f sigma.  Without sigma's batch the product section
    # is evaluated point by point
    k = make_fock(np.eye(2))
    sigma, probes, _ = _verify_section_case(k, 7, seed=7)
    sigma = sigma if batch else Section(F=sigma.F, dF=sigma.dF)
    calls = []
    f = lambda s: calls.append(1) or 0.5 + s[0] - 2j * np.conj(s[1])  # noqa: E731
    got = _leibniz([make_evaluator(k, b) for b in _BACKENDS], Section(F=f), sigma, probes)
    if batch:
        assert len(calls) == (5 + 5) * 7
    assert got == [leibniz_residual(make_evaluator(k, b), f, sigma, probes) for b in _BACKENDS]


def test_the_product_section_computes_f_at_points_it_has_not_seen():
    # a backend whose stencil step differs from the Leibniz step asks for other points
    k = make_bergman_disk(2)
    sigma, probes, _ = _verify_section_case(k, 5, seed=8)
    f = lambda s: 0.5 + 2j * s[0]  # noqa: E731
    nabla = make_evaluator(k, "direct", h=2e-4)
    want = _leibniz_loop(nabla, f, sigma, probes)
    assert leibniz_residual(nabla, f, sigma, probes) == want


@pytest.mark.parametrize("kss, d2", [(1e-9, 1e300), (1.0, -1e5)],
                         ids=["form-overflows", "vector-overflows"])
def test_transport_raises_when_a_rungs_vector_is_not_finite(kss, d2):
    # the form d2 / kappa overflows to inf; or a finite form of -1e5 makes the vector grow past
    # the float range within 64 steps
    k = Kernel(1, VectorDomain(1), lambda s, t: np.array([[kss]]),
               lambda s, t, x: np.array([[d2]]), name="overflowing")
    curve = Curve(gamma=lambda t: np.array([t + 0j]), velocity=lambda t: np.array([1.0 + 0j]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericsError, match="transport at 64 steps is not finite"):
            parallel_transport(k, curve, np.ones(1), steps=64)


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_each_backend_agrees_with_the_closed_form_or_raises_in_the_ulp_band_below_the_guard(nu):
    # within about 1e-10 of |s| = 1 - 1e-6 the edge-layer step falls below the rounding of s, and
    # the stencil points round onto each other: the direct backend read -140.7 where the closed
    # form reads 1.0e6.  A step under 1e6 ulps of the point is an error naming the probe.
    k = make_bergman_disk(nu)
    closed = make_evaluator(k, "closed-form")
    radii = [np.nextafter(DISK_BOUNDARY_GUARD, 0.0)]
    for _ in range(40):
        radii.append(np.nextafter(radii[-1], 0.0))
    radii += list(DISK_BOUNDARY_GUARD - np.logspace(-15, -4, 23))
    agreed = raised = 0
    for r in radii:
        for angle in (0.0, 0.7, 2.0):
            s, x = np.array([r * np.exp(1j * angle)]), np.array([np.exp(1j * (angle + 0.3))])
            if not k.domain.edge(s[None]) > 0:  # r e^{i angle} rounds onto the guard circle
                continue
            want = closed(CONSTANT, s, x)[0]
            for backend in ("direct", "sampled"):
                try:
                    got = make_evaluator(k, backend)(CONSTANT, s, x)[0]
                except DomainError as exc:
                    assert "is too small to resolve the point" in str(exc)
                    raised += 1
                    continue
                assert abs(got - want) <= 1e-6 * abs(want), (r, angle, backend)
                agreed += 1
    assert raised > 0 and agreed > 0


def test_an_unresolved_stencil_names_its_probe():
    k = make_bergman_disk(2)
    s = np.array([np.nextafter(DISK_BOUNDARY_GUARD, 0.0)])
    for _ in range(2):  # an error keeps no stencil: the same probe raises again
        with pytest.raises(DomainError, match=r"unit disk: stencil step .* is too small to "
                                              r"resolve the point$"):
            covariant_derivative_direct(k, CONSTANT, s, np.array([1.0]))
    with pytest.raises(DomainError, match=r"resolve the point \(probe 2 of 2\)$"):
        make_evaluator(k, "direct").evaluate(CONSTANT, [np.array([0.5]), s], [[1.0], [1.0]])


def _non_finite_kernels():
    """(kernel, message, entries): a value that is not finite everywhere, one not finite off the
    diagonal only (at stencil and sample points), and an analytic derivative that is not finite,
    which only the form and the closed form read."""
    one = lambda s, t: np.ones((1, 1), dtype=complex)  # noqa: E731
    nan = lambda s, t: np.full((1, 1), np.nan + 0j)  # noqa: E731
    off = lambda s, t: (one(s, t) if np.array_equal(s, t)  # noqa: E731
                        else np.full((1, 1), complex(0, np.inf)))
    inf_d2 = lambda s, t, x: np.full((1, 1), np.inf + 0j)  # noqa: E731
    every = ("form", "closed-form", "direct", "sampled")
    return [(Kernel(1, VectorDomain(1), nan, name="nan"), "nan: kernel value", every),
            (Kernel(1, VectorDomain(1), off, name="off"), "off: kernel value", every),
            (Kernel(1, VectorDomain(1), one, inf_d2, name="d2"), "d2: kernel derivative",
             every[:2])]


@pytest.mark.parametrize("entry", ["form", "closed-form", "direct", "sampled"])
def test_every_public_entry_still_rejects_a_non_finite_kernel_value(entry):
    # the solves trust kappa(s, s) from Kernel._values, which checks every value it computes
    s, x = np.array([0.3]), np.array([1.0])
    for k, message, entries in _non_finite_kernels():
        if entry in entries:
            with pytest.raises(NumericsError, match=f"^{message} is not finite$"):
                if entry == "form":
                    connection_form(k, s)(x)
                else:
                    make_evaluator(k, entry)(CONSTANT, s, x)


@pytest.mark.parametrize("k", [case[0] for case in _stack_cases()[:3]], ids=lambda k: k.name)
def test_one_probe_public_entries_equal_their_stacked_rows_bit_for_bit(k):
    _, sigma, pts, xs = next(c for c in _stack_cases() if c[0].name == k.name)
    forms = connection_forms(k, pts, xs)
    closed = make_evaluator(k, "closed-form").evaluate(sigma, pts, xs)
    direct = make_evaluator(k, "direct").evaluate(sigma, pts, xs)
    for j, (s, x) in enumerate(zip(pts, xs)):
        assert connection_form(k, s)(x).tobytes() == forms[j].tobytes()
        assert covariant_derivative_closed_form(k, sigma, s, x).tobytes() == closed[j].tobytes()
        assert covariant_derivative_direct(k, sigma, s, x).tobytes() == direct[j].tobytes()


def test_leibniz_and_intertwining_residuals_name_an_empty_stack_of_probes():
    # a residual of 0 over no probes would read as a pass
    k = make_bergman_disk(2)
    nabla = make_evaluator(k, "direct")
    theta = BundleMorphism(zeta=lambda s: s, delta=lambda s: np.array([[1.0]]),
                           tangent=lambda s, x: x)
    for residual in (lambda: leibniz_residual(nabla, lambda p: 1.0, CONSTANT, []),
                     lambda: _leibniz([nabla, make_evaluator(k, "sampled")],
                                      Section(F=lambda p: 1.0), CONSTANT, []),
                     lambda: intertwining_residual(theta, nabla, nabla, CONSTANT, CONSTANT, [])):
        with pytest.raises(DomainError, match="empty stack of probes"):
            residual()


def test_leibniz_takes_f_as_a_scalar_section():
    k = make_bergman_disk(2)
    probes = [(np.array([0.1]), np.array([1.0])), (np.array([0.2j]), np.array([1j]))]
    with pytest.raises(ValueError, match="section value has 2 entries, fiber dimension is 1"):
        leibniz_residual(make_evaluator(k, "direct"), lambda p: np.ones(2), CONSTANT, probes)


@pytest.mark.parametrize("k", _SECTION_KERNELS, ids=lambda k: k.name)
def test_leibniz_reads_a_batched_f_by_one_call_per_stack_of_points(k):
    # verify's f, 0.5 + a.z + b.conj(z) in real arithmetic: one batch call at the probes and one at
    # their stencils give df and f(s); f sigma makes one per stack the closed form reads, two, and
    # direct and sampled after it read its kept sample; all with the bits of f point by point
    sigma, probes, _ = _verify_section_case(k, 9, seed=9)
    f = verify._scalar_test_section(k.domain.dim, np.random.default_rng(10), 0.5, 0.0)
    calls = []
    counted = Section(F=f.F, batch=lambda z: calls.append(z.shape) or f.batch(z))
    nablas = [make_evaluator(k, b) for b in _BACKENDS]
    got = _leibniz(nablas, counted, sigma, probes)
    at_s, at_stencils = (9, k.domain.dim), (9, 4, k.domain.dim)
    assert calls == [at_s, at_stencils, at_s, at_stencils]
    assert got == _leibniz(nablas, Section(F=f.F), sigma, probes)
    assert got == [leibniz_residual(nabla, f.F, sigma, probes) for nabla in nablas]
    assert 0.0 < max(got) < 1e-6


def _verify_curve(monkeypatch):
    """The kernel and curve of verify's transport block."""
    seen = []
    monkeypatch.setattr(verify, "_transport", lambda k, curve, *args: seen.append((k, curve))
                        or _transport(k, curve, *args))
    verify._transport_checks(0)
    return seen[0]


def _cli_curve(monkeypatch, capsys, spec, start, end):
    """The kernel and segment of `connect transport`."""
    seen, transport = [], connections._transport
    monkeypatch.setattr(connections, "_transport", lambda k, curve, *args: seen.append((k, curve))
                        or transport(k, curve, *args))
    assert cli.main(["connect", "transport", "--kernel", spec, "--start", start, "--end", end,
                     "--steps", "100"]) == 0
    capsys.readouterr()
    return seen[0]


@pytest.mark.parametrize("source", ["verify", "cli:disk", "cli:fock"])
def test_a_curves_batch_has_the_bits_of_its_nodes_and_transport_reads_it(monkeypatch, capsys,
                                                                          source):
    k, curve = (_verify_curve(monkeypatch) if source == "verify" else
                _cli_curve(monkeypatch, capsys, "bergman-disk:nu=1", "0", "0.5")
                if source == "cli:disk" else
                _cli_curve(monkeypatch, capsys, "fock:dim=2", "0.1,0.2i", "-0.5+0.3i,0.4"))
    monkeypatch.undo()
    assert curve.batch is not None
    nodes = np.concatenate([np.arange(2 * n + 1) / (2 * n) for n in (1, 3, 100, 512)])
    points, velocities = curve.batch(nodes)
    assert len(points) == len(velocities) == len(nodes)
    for t, p, v in zip(nodes, points, velocities):
        assert np.asarray(p, complex).tobytes() == np.asarray(curve.gamma(t), complex).tobytes()
        assert np.asarray(v, complex).tobytes() == np.asarray(curve.velocity(t), complex).tobytes()
    # transport reads its nodes through the batch, with the bits of the per-node lists
    plain, v0 = Curve(gamma=curve.gamma, velocity=curve.velocity), np.ones(k.fiber_dim)
    for steps in (1, 2, 12, 25, 50, 64, 100, 128, 256, 512):
        (got, ends), (want, want_ends) = (_transport(k, c, v0, steps) for c in (curve, plain))
        assert got.tobytes() == want.tobytes()
        assert ends.tobytes() == want_ends.tobytes()


def test_transport_rejects_a_batch_with_the_wrong_number_of_points():
    k = make_bergman_disk(1)
    curve = Curve(gamma=lambda t: np.array([0.5 * t]), velocity=lambda t: np.array([0.5 + 0j]),
                  batch=lambda t: ((0.5 * t[1:])[:, None], np.full((len(t) - 1, 1), 0.5 + 0j)))
    with pytest.raises(ValueError, match="the curve's batch gave 128 points for 129 parameters"):
        parallel_transport(k, curve, np.ones(1), steps=64)


_HALF_RADIUS = Curve(gamma=lambda t: np.array([0.5 * t]), velocity=lambda t: np.array([0.5 + 0j]))


@pytest.mark.parametrize("steps", [1.5, 2.5, 0.5, 0, -1, np.nan, np.inf, -np.inf])
def test_transport_rejects_a_step_count_that_is_not_an_integer_of_at_least_one(steps):
    # 1.5 returned 0.7794 against the exact sqrt(0.75) = 0.8660; 2.5 raised a broadcast error
    with pytest.raises(ValueError, match=r"^steps must be an integer >= 1, got "):
        parallel_transport(make_bergman_disk(1), _HALF_RADIUS, np.ones(1), steps)


def test_transport_at_an_integral_step_count_of_any_type_has_its_bits():
    k = make_bergman_disk(1)
    want = parallel_transport(k, _HALF_RADIUS, np.ones(1), 4)
    assert abs(want[0] - np.sqrt(0.75)) < 1e-4
    for steps in (np.int64(4), 4.0, np.float64(4.0)):
        assert _same_bits(parallel_transport(k, _HALF_RADIUS, np.ones(1), steps), want), steps
