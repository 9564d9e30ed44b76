"""Covariant derivatives induced by kernels, with three interchangeable backends.

* closed-form: d(sigma) + alpha(X) sigma(s), where the connection 1-form is
  alpha(X) = kappa(s,s)^(-1) d2_kappa(s,s)(X);
* direct: kappa(s,s)^(-1) d/dt|0 [kappa(s, gamma(t)) sigma(gamma(t))] along a
  curve gamma with the 1-jet (s, X);
* sampled: the same derivative realized inside a finite-sample Hilbert space
  (stencil coefficients, project onto the fiber, evaluate, invert).

That the three agree is the central cross-validation of this library.  Also
here: parallel transport (a linear ODE integrated by the classical 4th-order
one-step method), the Leibniz residual, and the gauge machinery for pulling
connections back along bundle morphisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .kernels import BundleMorphism, Kernel, stencil_sum
from .numerics import DEFAULT_STEP, NumericsError, hermitian_solve
from .rkhs import RKHSElement, SampledRKHS, build_rkhs

__all__ = [
    "Section",
    "Curve",
    "ConnectionEvaluator",
    "connection_form",
    "connection_forms",
    "covariant_derivative_closed_form",
    "covariant_derivative_direct",
    "covariant_derivative_sampled",
    "make_evaluator",
    "parallel_transport",
    "leibniz_residual",
    "gauge_pullback_connection",
    "intertwining_residual",
]


@dataclass(frozen=True)
class Section:
    """A section of the trivial fiber bundle: a map from base points to C^M.

    `dF`, when given, is the analytic differential (s, X) -> fiber vector and
    takes precedence over stencil differentiation.
    """

    F: Callable[[object], np.ndarray]
    dF: Optional[Callable[[object, object], np.ndarray]] = None

    def value(self, s) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.F(s), dtype=complex))


@dataclass(frozen=True)
class Curve:
    """A path in the base domain with its analytic velocity."""

    gamma: Callable[[float], object]
    velocity: Callable[[float], object]


@dataclass(frozen=True)
class ConnectionEvaluator:
    """A covariant-derivative functional (section, point, tangent) -> fiber vector."""

    backend: str
    kernel: Kernel
    evaluate: Callable[[Section, object, object], np.ndarray]

    def __call__(self, sigma: Section, s, x) -> np.ndarray:
        return self.evaluate(sigma, s, x)


def connection_form(k: Kernel, s, h: float = DEFAULT_STEP) -> Callable[[object], np.ndarray]:
    """The local connection 1-form at s: alpha(X) = kappa(s,s)^(-1) d2_kappa(s,s)(X).

    Real-linear in X; for scalar kernels this is d2_kappa(s,s)(X)/kappa(s,s).
    Fails when kappa(s,s) is singular.  The one-point case of `connection_forms`.
    """
    return lambda x: connection_forms(k, (s,), (x,), h)[0]


def connection_forms(k: Kernel, points: Sequence, directions: Sequence,
                     h: float = DEFAULT_STEP) -> np.ndarray:
    """The (L, M, M) stack of forms alpha_{s_j}(x_j), from one diagonal jet and one solve."""
    return hermitian_solve(*k.diagonal_jet(points, directions, h))


def covariant_derivative_closed_form(k: Kernel, sigma: Section, s, x,
                                     h: float = DEFAULT_STEP) -> np.ndarray:
    """d(sigma)(X) + alpha(X) sigma(s) on the trivialized bundle."""
    alpha = connection_form(k, s, h=h)
    dsigma = (k.domain.derivative(s, x, sigma.value, h) if sigma.dF is None
              else np.atleast_1d(np.asarray(sigma.dF(s, x), dtype=complex)))
    return dsigma + alpha(x) @ sigma.value(s)


def covariant_derivative_direct(k: Kernel, sigma: Section, s, x,
                                h: float = DEFAULT_STEP) -> np.ndarray:
    """kappa(s,s)^(-1) d/dt|0 [kappa(s, gamma(t)) sigma(gamma(t))].

    gamma is the cheapest curve with the right 1-jet (straight line on vector
    domains, u exp(t a) on unitary groups, a conjugation curve on projector
    manifolds).  Projecting the derivative onto the fiber and evaluating at s
    collapses to exactly this expression by the reproducing property.
    """
    points, weights = k.domain.stencil(s, x, h)
    m = k.fiber_dim  # one kernel block: kst[j] = kappa(s, (s, *points)[j]), each contiguous
    kst = np.ascontiguousarray(k.block((s,), (s, *points)).reshape(m, -1, m).transpose(1, 0, 2))
    deriv = stencil_sum(weights, [b @ sigma.value(p) for b, p in zip(kst[1:], points)])
    return hermitian_solve(kst[0], deriv)


def covariant_derivative_sampled(r: SampledRKHS, sigma: Section, s, x,
                                 h: float = DEFAULT_STEP) -> np.ndarray:
    """The same derivative realized literally in the sampled Hilbert space.

    s and the stencil points p_i must belong to the sample.  The derivative
    element has the coefficient w_i sigma(p_i) at each p_i; it is projected onto
    the fiber at s and evaluated at s, reading kappa from the Gram matrix only.
    """
    return _sampled(r, sigma, s, *r.kernel.domain.stencil(s, x, h))


def _sampled(r: SampledRKHS, sigma: Section, s, points, weights) -> np.ndarray:
    try:
        i, *at = r.indices((s, *points))
    except KeyError as exc:
        raise NumericsError("a stencil point is missing from the sample") from exc
    c = np.zeros(len(r.points) * r.fiber_dim, dtype=complex)
    for j, w, p in zip(at, weights, points):
        c[r.block(j)] += w * sigma.value(p)
    b = r.block(i)
    kss, row = r.gram[b, b], r.gram[b]
    projected = np.zeros_like(c)  # the fiber projection of the derivative element
    projected[b] = hermitian_solve(kss, row @ RKHSElement(r, c).coefficients)
    return hermitian_solve(kss, row @ projected)


def make_evaluator(k: Kernel, backend: str = "direct",
                   h: float = DEFAULT_STEP) -> ConnectionEvaluator:
    """Build a covariant-derivative evaluator with the chosen backend.

    The sampled backend assembles a 5-point sample along the probe curve for
    every call; it is meant for cross-validation, not production use.
    """
    if backend == "closed-form":
        fn = lambda sigma, s, x: covariant_derivative_closed_form(k, sigma, s, x, h=h)
    elif backend == "direct":
        fn = lambda sigma, s, x: covariant_derivative_direct(k, sigma, s, x, h=h)
    elif backend == "sampled":
        def fn(sigma, s, x):
            size = np.abs(x).max(initial=0.0) if isinstance(x, np.ndarray) else np.inf
            if h > 1e-12 >= h * size:  # the sample would collapse (1e-12 rule): real-linear in x
                k.domain.check_point(s)
                k.domain.check_tangent(s, x)
                return fn(sigma, s, x / size) * size if size else np.zeros(k.fiber_dim, complex)
            points, weights = k.domain.stencil(s, x, h)
            return _sampled(build_rkhs(k, (*points[:2], s, *points[2:])), sigma, s, points, weights)
    else:
        raise ValueError(f"unknown backend {backend!r}; use closed-form|direct|sampled")
    return ConnectionEvaluator(backend=backend, kernel=k, evaluate=fn)


def parallel_transport(k: Kernel, curve: Curve, v0, steps: int) -> np.ndarray:
    """Transport v0 along the curve by integrating v' = -alpha_gamma(t)(gamma'(t)) v.

    Classical 4th-order one-step integration with fixed step 1/steps.
    """
    return _transport(k, curve, v0, steps)[0]


def _transport(k: Kernel, curve: Curve, v0, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """parallel_transport, and the (2, M, M) kappa(s, s) at the curve's two ends.

    One diagonal jet gives the forms at the nodes t_j = j / (2 steps), one stacked
    expression every step's propagator P = I + dt (K1 + 2 K2 + 2 K3 + K4) / 6 of v' = -alpha v.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    v = np.atleast_1d(np.asarray(v0, dtype=complex))
    nodes = np.arange(2 * steps + 1) / (2 * steps)
    kss, d2 = k.diagonal_jet(list(map(curve.gamma, nodes)), list(map(curve.velocity, nodes)))
    a = -hermitian_solve(kss, d2)
    dt, eye = 1.0 / steps, np.eye(k.fiber_dim)
    k1 = a[:-1:2]
    k2 = a[1::2] @ (eye + 0.5 * dt * k1)
    k3 = a[1::2] @ (eye + 0.5 * dt * k2)
    k4 = a[2::2] @ (eye + dt * k3)
    for p in eye + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4):
        v = p @ v
    return v, kss[::2 * steps]


def leibniz_residual(nabla: ConnectionEvaluator, f: Callable[[object], complex],
                     sigma: Section, probes: Sequence[tuple],
                     h: float = DEFAULT_STEP) -> float:
    """max over probes (s, X) of ||nabla(f sigma)(X) - df(X) sigma(s) - f(s) nabla(sigma)(X)||."""
    k = nabla.kernel
    scaled = Section(F=lambda s: complex(f(s)) * sigma.value(s))
    res = 0.0
    for s, x in probes:
        df = complex(k.domain.derivative(s, x, f, h))
        lhs = nabla(scaled, s, x)
        rhs = df * sigma.value(s) + complex(f(s)) * nabla(sigma, s, x)
        res = max(res, float(np.linalg.norm(lhs - rhs)))
    return res


def gauge_pullback_connection(theta: BundleMorphism,
                              alpha_target: Callable[[object, object], np.ndarray],
                              source_domain,
                              fiber_dim: int) -> Callable[[object, object], np.ndarray]:
    """Pull a connection-form field back along an invertible bundle morphism:

        alpha(s, X) = delta_s^(-1) alpha~(zeta(s), Tzeta X) delta_s
                      + delta_s^(-1) d(delta)(s, X)

    The fiber-map derivative d(delta) is taken by the stencil along the
    source-domain curve through (s, X).
    """
    if theta.tangent is None:
        raise ValueError("bundle morphism must provide a base-tangent map")

    def alpha(s, x) -> np.ndarray:
        ds = theta.fiber_map(s, fiber_dim)
        if abs(np.linalg.det(ds)) < 1e-12:
            raise NumericsError("fiber map is singular; cannot pull back the connection")
        ds_inv = np.linalg.inv(ds)
        ddelta = source_domain.derivative(s, x, lambda p: theta.fiber_map(p, fiber_dim))
        core = np.atleast_2d(np.asarray(
            alpha_target(theta.zeta(s), theta.tangent(s, x)), dtype=complex))
        return ds_inv @ core @ ds + ds_inv @ ddelta

    return alpha


def intertwining_residual(theta: BundleMorphism, nabla: ConnectionEvaluator,
                          nabla_target: ConnectionEvaluator, sigma: Section,
                          sigma_target: Section, probes: Sequence[tuple]) -> float:
    """Residual of delta . nabla(sigma) = nabla~(sigma~) . Tzeta over probes.

    Requires the sections to be compatible (delta . sigma = sigma~ . zeta)
    within 1e-10 on the probe points first.
    """
    if theta.tangent is None:
        raise ValueError("bundle morphism must provide a base-tangent map")
    m = nabla.kernel.fiber_dim
    for s, _ in probes:
        ds = theta.fiber_map(s, m)
        compat = np.linalg.norm(ds @ sigma.value(s) - sigma_target.value(theta.zeta(s)))
        if compat > 1e-10:
            raise ValueError(
                f"sections are not morphism-compatible: residual {compat:.3e} at a probe")
    res = 0.0
    for s, x in probes:
        ds = theta.fiber_map(s, m)
        lhs = ds @ nabla(sigma, s, x)
        rhs = nabla_target(sigma_target, theta.zeta(s), theta.tangent(s, x))
        res = max(res, float(np.linalg.norm(lhs - rhs)))
    return res

