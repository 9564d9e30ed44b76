import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernelconnect.connections import (
    Curve,
    Section,
    connection_form,
    covariant_derivative_closed_form,
    covariant_derivative_direct,
    gauge_pullback_connection,
    intertwining_residual,
    leibniz_residual,
    make_evaluator,
    parallel_transport,
)
from kernelconnect.kernels import BundleMorphism, make_bergman_disk, make_fock

CONSTANT = Section(F=lambda s: np.array([1.0 + 0j]), dF=lambda s, x: np.array([0.0 + 0j]))


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
                                       k.domain, fiber_dim=1)
    got = pulled(np.array([0.3]), np.array([1.0]))
    assert np.linalg.norm(got - target(np.array([1.0]))) < 1e-10


def test_intertwining_residual_vanishes_for_identity():
    k = make_bergman_disk(2)
    nabla = make_evaluator(k, "direct")
    theta = BundleMorphism(zeta=lambda s: s, delta=lambda s: np.array([[1.0]]),
                           tangent=lambda s, x: x)
    sigma = Section(F=lambda s: np.array([1.0 + 0.2 * complex(s[0])]))
    probes = [(np.array([0.1]), np.array([1.0])), (np.array([0.2j]), np.array([1j]))]
    assert intertwining_residual(theta, nabla, nabla, sigma, sigma, probes) < 1e-12


def test_closed_form_uses_analytic_differential():
    k = make_bergman_disk(2)
    sigma = Section(F=lambda s: np.array([np.exp(complex(s[0]))]),
                    dF=lambda s, x: np.array([complex(x[0]) * np.exp(complex(s[0]))]))
    s, x = np.array([0.3]), np.array([1.0 + 1j])
    closed = covariant_derivative_closed_form(k, sigma, s, x)
    direct = covariant_derivative_direct(k, sigma, s, x, h=1e-4)
    assert np.linalg.norm(closed - direct) < 1e-9
