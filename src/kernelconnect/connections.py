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
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .kernels import BundleMorphism, Kernel, _members, stencil_sum
from .numerics import DEFAULT_STEP, NumericsError, hermitian_solve
from .rkhs import _certify

__all__ = [
    "Section",
    "Curve",
    "ConnectionEvaluator",
    "connection_form",
    "connection_forms",
    "covariant_derivative_closed_form",
    "covariant_derivative_direct",
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
    """A covariant-derivative functional (section, point, tangent) -> fiber vector: the one-point
    case of `evaluate`, which maps (section, L points, L tangents) to the (L, M) derivatives.
    `core` maps (section, L checked points, L checked tangents) to the same."""

    backend: str
    kernel: Kernel
    core: Callable[[Section, Sequence, Sequence], np.ndarray]

    def __call__(self, sigma: Section, s, x) -> np.ndarray:
        return self.evaluate(sigma, (s,), (x,))[0]

    def evaluate(self, sigma: Section, points: Sequence, directions: Sequence) -> np.ndarray:
        """The core at the probes, after `Domain.jets`, their one check."""
        return self.core(sigma, *self.kernel.domain.jets(points, directions))


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
    return _closed_form(k, sigma, *k.domain.jets((s,), (x,)), h)[0]


def _closed_form(k: Kernel, sigma: Section, s: Sequence, x: Sequence, h: float) -> np.ndarray:
    alpha = hermitian_solve(*k._jet(s, x, h))
    values = _fiber([sigma.value(p) for p in s], k.fiber_dim)[..., None]
    if sigma.dF is None:
        dsigma = k.domain._derivatives(s, x, sigma.value, h)
    else:
        dsigma = np.array([sigma.dF(p, v) for p, v in zip(s, x)])
    return _fiber(dsigma.reshape(len(s), -1), k.fiber_dim) + (alpha @ values)[..., 0]


def _fiber(values, m: int) -> np.ndarray:
    """Section values or derivatives (..., m) as a complex array, checked finite and m long."""
    v = np.asarray(values, dtype=complex)
    if v.shape[-1] != m:
        raise ValueError(f"section value has {v.shape[-1]} entries, fiber dimension is {m}")
    if not np.isfinite(v).all():
        raise NumericsError("section value or derivative is not finite")
    return v


def covariant_derivative_direct(k: Kernel, sigma: Section, s, x,
                                h: float = DEFAULT_STEP) -> np.ndarray:
    """kappa(s,s)^(-1) d/dt|0 [kappa(s, gamma(t)) sigma(gamma(t))].

    gamma is the cheapest curve with the right 1-jet (straight line on vector
    domains, u exp(t a) on unitary groups, a conjugation curve on projector
    manifolds).  Projecting the derivative onto the fiber and evaluating at s
    collapses to exactly this expression by the reproducing property.
    """
    return _direct(k, sigma, *k.domain.jets((s,), (x,)), h)[0]


def _direct(k: Kernel, sigma: Section, s: Sequence, x: Sequence, h: float) -> np.ndarray:
    stencils, weights = k.domain._stencils(s, x, h)
    m = k.fiber_dim  # one stacked block: kst[j, i] = kappa(s_j, (s_j, *stencil_j)[i]), contiguous
    rows = k._values(_members(s), [(p, *ps) for p, ps in zip(s, stencils)])
    kst = np.ascontiguousarray(rows.reshape(len(rows), m, 5, m).transpose(0, 2, 1, 3))
    values = _fiber([[sigma.value(p) for p in ps] for ps in stencils], m)
    deriv = stencil_sum(weights, (kst[:, 1:] @ values[..., None])[..., 0])
    return hermitian_solve(kst[:, 0], deriv[..., None])[..., 0]


def _sampled(k: Kernel, sigma: Section, s: Sequence, x: Sequence, h: float) -> np.ndarray:
    stencils, weights = k.domain._stencils(s, x, h)
    samples = [(*ps[:2], p, *ps[2:]) for p, ps in zip(s, stencils)]  # s_j in slot 2 of 5
    grams = k._values(samples, samples)
    _certify(samples, grams)
    m, n = k.fiber_dim, len(grams)
    v = _fiber([[sigma.value(p) for p in ps] for ps in stencils], m)
    c = np.zeros((n, 5, m), dtype=complex)  # the derivative element: += keeps each zero's sign
    c[:, [0, 1, 3, 4]] += weights[..., None] * v
    row, kss = grams[:, 2 * m:3 * m], grams[:, 2 * m:3 * m, 2 * m:3 * m]
    projected = np.zeros((n, 5 * m, 1), dtype=complex)  # its fiber projection
    projected[:, 2 * m:3 * m] = hermitian_solve(kss, row @ c.reshape(n, 5 * m, 1))
    return hermitian_solve(kss, row @ projected)[..., 0]


def make_evaluator(k: Kernel, backend: str = "direct",
                   h: float = DEFAULT_STEP) -> ConnectionEvaluator:
    """Build a covariant-derivative evaluator with the chosen backend.

    Every backend evaluates a stack of probes at once.  The sampled backend
    assembles and certifies a 5-point sample along each probe's curve, all in
    one stacked Gram; it is meant for cross-validation, not production use.
    """
    backends = {"closed-form": _closed_form, "direct": _direct, "sampled": _sampled}
    if backend not in backends:
        raise ValueError(f"unknown backend {backend!r}; use closed-form|direct|sampled")
    return ConnectionEvaluator(backend, k, partial(backends[backend], k, h=h))


def parallel_transport(k: Kernel, curve: Curve, v0, steps: int) -> np.ndarray:
    """Transport v0 along the curve by integrating v' = -alpha_gamma(t)(gamma'(t)) v.

    Classical 4th-order one-step integration with fixed step 1/steps.  The one-rung case of
    `_transport`.
    """
    return _transport(k, curve, v0, (steps,))[0][0]


def _transport(k: Kernel, curve: Curve, v0, rungs: Sequence[int]) -> tuple[list, np.ndarray]:
    """parallel_transport at each number of steps in `rungs`, and the (2, M, M) kappa(s, s) at the
    curve's two ends.

    One diagonal jet gives the forms at the union of the rungs' nodes; a rung of n steps reads
    its nodes t_j = j / (2n) from it, bit for bit, and builds every step's propagator
    P = I + dt (K1 + 2 K2 + 2 K3 + K4) / 6 of v' = -alpha v as one stacked expression.
    """
    if min(rungs) < 1:
        raise ValueError(f"steps must be >= 1, got {min(rungs)}")
    v0 = np.atleast_1d(np.asarray(v0, dtype=complex))
    grids = [np.arange(2 * n + 1) / (2 * n) for n in rungs]
    nodes = np.sort(np.concatenate(grids))  # their union (np.unique would import numpy.ma)
    nodes = nodes[np.diff(nodes, prepend=-1.0) > 0]
    kss, d2 = k.diagonal_jet(list(map(curve.gamma, nodes)), list(map(curve.velocity, nodes)))
    forms, eye, out = -hermitian_solve(kss, d2), np.eye(k.fiber_dim), []
    for n, grid in zip(rungs, grids):
        a, dt = forms[np.searchsorted(nodes, grid)], 1.0 / n
        k1 = a[:-1:2]
        k2 = a[1::2] @ (eye + 0.5 * dt * k1)
        k3 = a[1::2] @ (eye + 0.5 * dt * k2)
        k4 = a[2::2] @ (eye + dt * k3)
        v = v0
        for p in eye + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4):
            v = p @ v
        out.append(v)
    return out, kss[[0, -1]]


def leibniz_residual(nabla: ConnectionEvaluator, f: Callable[[object], complex],
                     sigma: Section, probes: Sequence[tuple],
                     h: float = DEFAULT_STEP) -> float:
    """max over probes (s, X) of ||nabla(f sigma)(X) - df(X) sigma(s) - f(s) nabla(sigma)(X)||."""
    if not probes:
        return 0.0
    points, directions = [s for s, _ in probes], [x for _, x in probes]
    s, x = nabla.kernel.domain.jets(points, directions)  # the one check of the probes
    df = nabla.kernel.domain._derivatives(s, x, f, h).reshape(len(points), 1)
    fs = np.array([[complex(f(p))] for p in points])
    lhs = nabla.core(Section(F=lambda p: complex(f(p)) * sigma.value(p)), s, x)
    values = np.array([sigma.value(p) for p in points])
    rhs = df * values + fs * nabla.core(sigma, s, x)
    return float(np.max([np.linalg.norm(d) for d in lhs - rhs]))  # a NaN propagates


def gauge_pullback_connection(theta: BundleMorphism,
                              alpha_target: Callable[[object, object], np.ndarray],
                              source_domain) -> Callable[[object, object], np.ndarray]:
    """Pull a connection-form field back along an invertible bundle morphism:

        alpha(s, X) = delta_s^(-1) alpha~(zeta(s), Tzeta X) delta_s
                      + delta_s^(-1) d(delta)(s, X)

    The fiber-map derivative d(delta) is taken by the stencil along the
    source-domain curve through (s, X).
    """
    if theta.tangent is None:
        raise ValueError("bundle morphism must provide a base-tangent map")

    def alpha(s, x) -> np.ndarray:
        ds = theta.fiber_map(s)
        sv = np.linalg.svd(ds, compute_uv=False)
        if sv[-1] <= 1e-10 * sv[0]:  # relative, as in hermitian_solve: a scale is not singular
            raise NumericsError("fiber map is singular; cannot pull back the connection")
        ddelta = source_domain.derivative(s, x, theta.fiber_map)
        core = np.atleast_2d(np.asarray(
            alpha_target(theta.zeta(s), theta.tangent(s, x)), dtype=complex))
        return np.linalg.solve(ds, core @ ds + ddelta)

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
    if not probes:
        return 0.0
    points, directions = [s for s, _ in probes], [x for _, x in probes]
    deltas, images = [theta.fiber_map(s) for s in points], [theta.zeta(s) for s in points]
    for s, ds, z in zip(points, deltas, images):
        compat = np.linalg.norm(ds @ sigma.value(s) - sigma_target.value(z))
        if not compat <= 1e-10:  # a NaN residual fails too
            raise ValueError(
                f"sections are not morphism-compatible: residual {compat:.3e} at a probe")
    lhs = nabla.evaluate(sigma, points, directions)
    rhs = nabla_target.evaluate(sigma_target, images, list(map(theta.tangent, points, directions)))
    res = [np.linalg.norm(ds @ a - b) for ds, a, b in zip(deltas, lhs, rhs)]
    return float(np.max(res))  # a NaN propagates

