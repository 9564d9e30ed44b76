import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernelconnect.connections import (
    ConnectionEvaluator,
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
from kernelconnect import verify
from kernelconnect.cpmaps import cp_kernel, random_unital_cpmap, random_unitary
from kernelconnect.grassmann import (
    HermitianProjector,
    coordinate_projector,
    random_grass_tangent,
    universal_kernel,
)
from kernelconnect.kernels import (
    BundleMorphism,
    DomainError,
    Kernel,
    UnitaryDomain,
    VectorDomain,
    make_bergman_disk,
    make_bergman_halfplane,
    make_fock,
    make_rank_one_kernel,
    pull_back_kernel,
    stencil_sum,
)
from kernelconnect.numerics import NumericsError, hermitian_solve
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
    stacks = _count_calls(monkeypatch, "stack", VectorDomain)
    leibniz = leibniz_residual(nabla, lambda p: complex(p[0]) ** 2, sigma, probes)
    assert len(stacks) == 1 and leibniz < 1e-6
    residual = intertwining_residual(theta, nabla, nabla, sigma, target, probes)
    monkeypatch.undo()
    assert len(stacks) == 3 and residual < 1e-8
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
    """The stencil points and weights, restated: gamma(t) at t = -2h, -h, h, 2h."""
    gamma = k.domain.curve(s, x)
    points = [gamma(t) for t in (-2.0 * h, -h, h, 2.0 * h)]
    return points, np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)


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


def test_direct_backend_makes_one_kernel_block_call(monkeypatch):
    # one point or a stack: one stacked block of the rows kappa(s_j, (s_j, *stencil_j))
    for k, sigma, pts, xs in _bitwise_cases():
        for n in (1, len(pts)):
            calls = _count_values(monkeypatch)
            if n == 1:
                covariant_derivative_direct(k, sigma, pts[0], xs[0])
            else:
                make_evaluator(k, "direct").evaluate(sigma, pts, xs)
            monkeypatch.undo()
            ss, ts = _one_stacked_block(k, calls)
            assert [len(a) for a in ss] == [1] * n and [len(b) for b in ts] == [5] * n, k.name


def test_sampled_backend_evaluates_the_kernel_only_in_its_gram(monkeypatch):
    # one stacked block of the L per-probe 5 x 5 sample Grams, and nothing else
    for k, sigma, pts, xs in _bitwise_cases():
        for n in (1, len(pts)):
            calls = _count_values(monkeypatch)
            monkeypatch.setattr(Kernel, "_jet", None)
            make_evaluator(k, "sampled").evaluate(sigma, pts[:n], xs[:n])
            monkeypatch.undo()
            ss, ts = _one_stacked_block(k, calls)
            assert ss is ts and [len(a) for a in ss] == [5] * n, k.name


def test_each_probe_is_checked_once_and_its_derived_points_are_trusted(monkeypatch):
    # the disk: a one-point direct call stacks its probe once and checks its stencil once
    stacks = _count_calls(monkeypatch, "stack", VectorDomain)
    checks = _count_calls(monkeypatch, "_outside", VectorDomain)
    covariant_derivative_direct(make_bergman_disk(2), CONSTANT, np.array([0.3]), np.array([1.0]))
    monkeypatch.undo()
    assert len(stacks) == 1 and [len(c[1]) for c in checks] == [1, 4]
    # U(n): one unitarity check per probe; the stencil points u e^{tha} are unitary by construction
    k, sigma, us, xs = _stack_cases()[-1]
    for backend in ("direct", "sampled"):
        calls = _count_calls(monkeypatch, "check_point", UnitaryDomain)
        make_evaluator(k, backend).evaluate(sigma, us, xs)
        monkeypatch.undo()
        assert len(calls) == len(us), backend


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
    # the 1e-12 rule lives in the stencil: whatever the type of the direction, no backend
    # collapses its stencil or its sample, and a zero direction gives exactly zero
    k = make_bergman_disk(2)
    sigma = Section(F=lambda p: np.array([1.0 + 0.3 * complex(p[0])]))
    s = np.array([0.5])
    got = make_evaluator(k, backend)(sigma, s, direction)
    x = complex(np.asarray(direction).flat[0])
    want = (2.0 * 0.5 * np.conj(x) / 0.75) * 1.15 + 0.3 * x  # alpha(x) sigma(s) + d sigma(x)
    if x == 0:
        assert np.array_equal(got, np.zeros(1))
    assert abs(got[0] - want) <= 1e-9 * abs(want)


def test_a_stack_names_the_probe_whose_point_or_stencil_point_leaves_the_domain():
    k = make_bergman_disk(2)
    pts, xs = [np.array([0.1]), np.array([0.2j]), np.array([1.5])], [np.ones(1)] * 3
    for backend in ("closed-form", "direct", "sampled"):
        with pytest.raises(DomainError, match=r"too close to the unit circle \(point 2 of 3\)"):
            make_evaluator(k, backend).evaluate(CONSTANT, pts, xs)
    # with h = 0.1 the last stencil point of the second probe is 0.5 + 2h * 2.5 = 1; the closed
    # form reads that stencil for d(sigma) of a section without dF
    for backend in ("closed-form", "direct", "sampled"):
        message = r"\|s\| = 1\.00000000 .* \(stencil point 3 of probe 1\)"
        with pytest.raises(DomainError, match=message):
            make_evaluator(k, backend, h=0.1).evaluate(Section(F=CONSTANT.F),
                                                       pts[:1] + [np.array([0.5])],
                                                       [np.ones(1), 2.5 * np.ones(1)])


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
    # U(n) has no 1e-12 rule: a zero tangent collapses that probe's sample, and only its own
    k, sigma, us, xs = _stack_cases()[-1]
    nabla = make_evaluator(k, "sampled")
    message = r"duplicate sample points at indices 0 and 1 \(sample 2 of 4\)"
    with pytest.raises(ValueError, match=message):
        nabla.evaluate(sigma, us, xs[:2] + [np.zeros((3, 3))] + xs[3:])
    assert np.array_equal(nabla.evaluate(sigma, us[:2], xs[:2]), nabla.evaluate(sigma, us, xs)[:2])


def _leibniz_loop(nabla, f, sigma, probes, h=1e-4):
    """The Leibniz residual probe by probe through one-point calls: the reference."""
    scaled = Section(F=lambda s: complex(f(s)) * sigma.value(s))
    res = 0.0
    for s, x in probes:
        df = complex(nabla.kernel.domain.derivative(s, x, f, h))
        rhs = df * sigma.value(s) + complex(f(s)) * nabla(sigma, s, x)
        res = max(res, float(np.linalg.norm(nabla(scaled, s, x) - rhs)))
    return res


@pytest.mark.parametrize("seed", [42, 5])
def test_leibniz_residual_is_unchanged_on_the_reports_probes(seed):
    # the probes, sections and functions of verify's Leibniz block
    rng = np.random.default_rng(seed + 8)
    for k, probes in [(make_bergman_disk(2), verify._probes(rng, 30, verify._disk)),
                      (make_bergman_halfplane(1), verify._probes(rng, 30, verify._halfplane)),
                      (make_fock(np.eye(2)),
                       verify._probes(rng, 30, lambda r: verify._normal(r, 2), 2, 0.7))]:
        dim = k.domain.dim
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
        (make_rank_one_kernel(lambda s: np.array([1.0, complex(np.asarray(s).flat[0])]), 2,
                              VectorDomain(1)), np.array([0.3 - 0.1j]), np.array([1.0 + 0.5j])),
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
