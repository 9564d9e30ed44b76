"""Covariant derivatives induced by kernels, with three interchangeable backends.

* closed-form: d(sigma) + alpha(X) sigma(s), where the connection 1-form is
  alpha(X) = kappa(s,s)^(-1) d2_kappa(s,s)(X);
* direct: kappa(s,s)^(-1) d/dt|0 [kappa(s, gamma(t)) sigma(gamma(t))] along a
  curve gamma with the 1-jet (s, X);
* sampled: the same derivative realized inside a finite-sample Hilbert space
  (embed, stencil-differentiate, project onto the fiber, evaluate, invert).

That the three agree is the central cross-validation of this library.  Also
here: parallel transport (a linear ODE integrated by the classical 4th-order
one-step method), the Leibniz residual, and the gauge machinery for pulling
connections back along bundle morphisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .kernels import BundleMorphism, Kernel
from .numerics import DEFAULT_STEP, NumericsError, five_point_weights, hermitian_solve
from .rkhs import SampledRKHS, embed, evaluate_element, project_fiber, RKHSElement

__all__ = [
    "Section",
    "Curve",
    "ConnectionEvaluator",
    "connection_form",
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
    Fails when kappa(s,s) is singular.
    """
    kss = k(s, s)

    def alpha(x) -> np.ndarray:
        return hermitian_solve(kss, k.d2_eval(s, s, x, h=h))

    return alpha


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
    kss = k(s, s)
    deriv = k.domain.derivative(s, x, lambda p: k(s, p) @ sigma.value(p), h)
    return hermitian_solve(kss, deriv)


def covariant_derivative_sampled(r: SampledRKHS, sigma: Section, s, x,
                                 h: float = DEFAULT_STEP) -> np.ndarray:
    """The same derivative realized literally in the sampled Hilbert space.

    Embeds the generators at the stencil points gamma(0), gamma(+-h),
    gamma(+-2h) (all of which must belong to the sample), differentiates the
    element-valued map coefficientwise, projects onto the fiber at s,
    evaluates at s and applies kappa(s,s)^(-1).
    """
    k = r.kernel

    def generator(pt) -> np.ndarray:
        try:
            return embed(r, pt, sigma.value(pt)).coefficients
        except KeyError as exc:
            raise NumericsError("a stencil point is missing from the sample") from exc

    deriv_element = RKHSElement(r, k.domain.derivative(s, x, generator, h))
    projected = project_fiber(r, s, deriv_element)
    return hermitian_solve(k(s, s), evaluate_element(projected, s))


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
        from .rkhs import build_rkhs

        def fn(sigma, s, x):
            gamma = k.domain.curve(s, x)
            pts = [gamma(t) for t in five_point_weights(h)[0]]
            r = build_rkhs(k, pts)
            return covariant_derivative_sampled(r, sigma, pts[2], x, h=h)
    else:
        raise ValueError(f"unknown backend {backend!r}; use closed-form|direct|sampled")
    return ConnectionEvaluator(backend=backend, kernel=k, evaluate=fn)


def parallel_transport(k: Kernel, curve: Curve, v0, steps: int) -> np.ndarray:
    """Transport v0 along the curve by integrating v' = -alpha_gamma(t)(gamma'(t)) v.

    Classical 4th-order one-step integration with fixed step 1/steps.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    v = np.atleast_1d(np.asarray(v0, dtype=complex))

    def form(t: float) -> np.ndarray:
        return connection_form(k, curve.gamma(t))(curve.velocity(t))

    dt = 1.0 / steps
    t = 0.0
    a_end = form(t)
    for _ in range(steps):
        # stages 2 and 3 share t + dt/2; stage 4's t + dt is the next step's stage 1
        a_start, a_mid, a_end = a_end, form(t + 0.5 * dt), form(t + dt)
        k1 = -(a_start @ v)
        k2 = -(a_mid @ (v + 0.5 * dt * k1))
        k3 = -(a_mid @ (v + 0.5 * dt * k2))
        k4 = -(a_end @ (v + dt * k3))
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
    return v


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

