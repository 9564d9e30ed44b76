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

from .kernels import BundleMorphism, Kernel, VectorDomain, _certify, _kept, _project, stencil_sum
from .numerics import DEFAULT_STEP, NumericsError, _finite, _max_norm, _solve

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

    `dF`, when given, is the analytic differential (s, X) -> fiber vector and takes precedence
    over stencil differentiation.  `batch`, when given, maps an (..., d) array of VectorDomain
    points, an (..., n, n) stack of U(n) points or an (...) object array of Gr(k, n) points to
    their (..., M) values in one call, and `F` is its one-point case: every entry must have the
    bits of F at its own point, as for `Kernel.batch`.  A section with `batch` takes such (L, ...)
    stacks of points and tangents in `dF` too, to the (L, M) derivatives, each with the bits of
    its one-point call.  `F`, `dF` and `batch` must be functions of their arguments, as a kernel's
    `eval`, `d2` and `batch` must be for its kept jet: an equal section at the same probes is served
    the kept `_sample`.
    """

    F: Callable[[object], np.ndarray]
    dF: Optional[Callable[[object, object], np.ndarray]] = None
    batch: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def value(self, s) -> np.ndarray:
        v = np.asarray(self.F(s), dtype=complex)
        return v if v.ndim else v.reshape(1)

    def _values(self, points: np.ndarray, depth: int = 1) -> np.ndarray:
        """The (..., M) values at a stack of points `depth` axes deep (2 for stencils): one `batch`
        call, else `F` at each point of the flattened stack in turn; every backend reads here."""
        if self.batch is not None:
            return np.asarray(self.batch(points), dtype=complex)
        flat = points.reshape((-1,) + points.shape[depth:])
        return np.array([self.value(p) for p in flat]).reshape(points.shape[:depth] + (-1,))


@dataclass(frozen=True)
class Curve:
    """A path in the base domain with its analytic velocity.  `batch`, when given, maps (N,) times
    to the (N, ...) points and velocities, each with the bits of gamma(t) and velocity(t)."""

    gamma: Callable[[float], object]
    velocity: Callable[[float], object]
    batch: Optional[Callable[[np.ndarray], tuple]] = None


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
    Fails when kappa(s,s) is singular.  The one-point case of `connection_forms`, 0 < h <= 0.01.
    """
    return lambda x: connection_forms(k, (s,), (x,), h)[0]


def connection_forms(k: Kernel, points: Sequence, directions: Sequence,
                     h: float = DEFAULT_STEP) -> np.ndarray:
    """The (L, M, M) forms alpha_{s_j}(x_j) from one diagonal jet, 0 < h <= 0.01, and one solve."""
    return _solve(*k.diagonal_jet(points, directions, h))


def covariant_derivative_closed_form(k: Kernel, sigma: Section, s, x,
                                     h: float = DEFAULT_STEP) -> np.ndarray:
    """d(sigma)(X) + alpha(X) sigma(s) on the trivialized bundle; 0 < h <= 0.01 (the stencil's)."""
    return _closed_form(k, sigma, *k.domain.jets((s,), (x,)), h)[0]


def _closed_form(k: Kernel, sigma: Section, s: Sequence, x: Sequence, h: float) -> np.ndarray:
    values = _fiber(sigma._values(s), k.fiber_dim)[..., None]
    if sigma.dF is None:  # before d2 reads x: the stencil rejects an |x| that would overflow
        dsigma = stencil_sum(*_sample((k, sigma), s, x, h)[1:])
    elif sigma.batch is not None:  # one call, as `_values` makes
        dsigma = np.asarray(sigma.dF(s, x))
    else:
        dsigma = np.array([sigma.dF(p, v) for p, v in zip(s, x)])
    alpha = _solve(*k._jet(s, x, h))
    return _fiber(dsigma.reshape(len(s), -1), k.fiber_dim) + (alpha @ values)[..., 0]


def _fiber(values, m: int) -> np.ndarray:
    """Section values or derivatives (..., m) as a complex array, checked finite and m long."""
    v = np.asarray(values, dtype=complex)
    if v.shape[-1] != m:
        raise ValueError(f"section value has {v.shape[-1]} entries, fiber dimension is {m}")
    if not _finite(v):
        raise NumericsError("section value or derivative is not finite")
    return v


def covariant_derivative_direct(k: Kernel, sigma: Section, s, x,
                                h: float = DEFAULT_STEP) -> np.ndarray:
    """kappa(s,s)^(-1) d/dt|0 [kappa(s, gamma(t)) sigma(gamma(t))], by the stencil, 0 < h <= 0.01.

    gamma is the cheapest curve with the right 1-jet (straight line on vector
    domains, u exp(t a) on unitary groups, a conjugation curve on projector
    manifolds).  Projecting the derivative onto the fiber and evaluating at s
    collapses to exactly this expression by the reproducing property.
    """
    return _direct(k, sigma, *k.domain.jets((s,), (x,)), h)[0]


@_kept
def _sample(owner: tuple, s: np.ndarray, x: np.ndarray, h: float) -> tuple:
    """For owner (k, sigma): the probes' stencil, its weights and sigma's (L, 4, M) values at its
    points, checked by `_fiber`; `_kept`, so the backends at one probe read the section once.  It
    holds no kernel value: a closed form that reads it evaluates no `_gram`."""
    k, sigma = owner
    stencils, weights = k.domain._stencils(s, x, h)
    values = _fiber(sigma._values(stencils, 2), k.fiber_dim)
    return stencils, weights, values[...]  # a view: the slot freezes no array of sigma's own


@_kept
def _gram(k: Kernel, s: np.ndarray, x: np.ndarray, h: float) -> tuple:
    """The probes' (L, 5M, 5M) Grams of their stencils with s_j at slot 2, one `_values` call;
    `_kept` by the kernel alone, so the backends at one probe, on every section, read it once."""
    stencils = k.domain._stencils(s, x, h)[0]
    five = np.concatenate([stencils[:, :2], s[:, None], stencils[:, 2:]], axis=1)
    return (k._values(five, five),)


def _direct(k: Kernel, sigma: Section, s: Sequence, x: Sequence, h: float) -> np.ndarray:
    stencils, weights, values = _sample((k, sigma), s, x, h)
    m = k.fiber_dim  # kst[j, i] = kappa(s_j, (s_j, *stencil_j)[i]), one contiguous stack
    # on a scalar C^d kernel with a batch, row 2 of the kept Gram: 25 numbers of one expression
    if m == 1 and k.batch is not None and isinstance(k.domain, VectorDomain):
        rows = _gram(k, s, x, h)[0][:, 2:3, [2, 0, 1, 3, 4]]
    else:  # BLAS products on U(n), or a loop over eval: the Gram is five times the row's work
        rows = k._values(s[:, None], np.concatenate([s[:, None], stencils], axis=1))
    kst = np.ascontiguousarray(rows.reshape(len(s), m, 5, m).transpose(0, 2, 1, 3))
    deriv = stencil_sum(weights, (kst[:, 1:] @ values[..., None])[..., 0])
    return _fiber(_solve(kst[:, 0], deriv[..., None])[..., 0], m)  # finite, or it raises


def _sampled(k: Kernel, sigma: Section, s: Sequence, x: Sequence, h: float) -> np.ndarray:
    (_, weights, v), (grams,) = _sample((k, sigma), s, x, h), _gram(k, s, x, h)
    _certify(grams)
    m, n = k.fiber_dim, len(grams)
    c, wv = np.zeros((n, 5, m), dtype=complex), weights[..., None] * v  # the derivative element
    c[:, :2] += wv[:, :2]  # += keeps each zero's sign
    c[:, 3:] += wv[:, 2:]
    projected = _project(grams, m, 2, c.reshape(n, 5 * m, 1))  # onto the fiber at s
    return _fiber(_project(grams, m, 2, projected)[:, 2 * m:3 * m, 0], m)  # kappa(s,s)^(-1) f(s)


def make_evaluator(k: Kernel, backend: str = "direct",
                   h: float = DEFAULT_STEP) -> ConnectionEvaluator:
    """Build a covariant-derivative evaluator with the chosen backend and step 0 < h <= 0.01.

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

    Classical 4th-order one-step integration with fixed step 1/steps, for an integer steps >= 1.
    """
    return _transport(k, curve, v0, steps)[0]


def _transport(k: Kernel, curve: Curve, v0, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """parallel_transport in `steps` steps, and the (2, M, M) kappa(s, s) at the curve's two ends.

    One diagonal jet gives the forms at the nodes t_j = j / (2 steps), read by the curve's `batch`
    if any, and every step's propagator P = I + dt (K1 + 2 K2 + 2 K3 + K4) / 6 of v' = -alpha v
    is one stacked expression.  A vector that is not finite raises NumericsError.
    """
    if not (np.isfinite(steps) and steps >= 1 and steps == int(steps)):
        raise ValueError(f"steps must be an integer >= 1, got {steps}")
    v = np.atleast_1d(np.asarray(v0, dtype=complex))
    nodes, eye, dt = np.arange(2 * steps + 1) / (2 * steps), np.eye(k.fiber_dim), 1.0 / steps
    kss, d2 = k.diagonal_jet(*(curve.batch(nodes) if curve.batch else
                               (list(map(curve.gamma, nodes)), list(map(curve.velocity, nodes)))))
    if len(kss) != len(nodes):
        raise ValueError(f"the curve's batch gave {len(kss)} points for {len(nodes)} parameters")
    a = -_solve(kss, d2)
    k1 = a[:-1:2]
    k2 = a[1::2] @ (eye + 0.5 * dt * k1)
    k3 = a[1::2] @ (eye + 0.5 * dt * k2)
    k4 = a[2::2] @ (eye + dt * k3)
    for p in eye + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4):
        v = p @ v
    if not _finite(v):
        raise NumericsError(f"transport at {steps} steps is not finite")
    return v, kss[[0, -1]]


def leibniz_residual(nabla: ConnectionEvaluator, f: Callable[[object], complex],
                     sigma: Section, probes: Sequence[tuple],
                     h: float = DEFAULT_STEP) -> float:
    """max over probes (s, X) of ||nabla(f sigma)(X) - df(X) sigma(s) - f(s) nabla(sigma)(X)||:
    the one-evaluator `_leibniz`, f a function of one point as a scalar section; 0 < h <= 0.01."""
    return _leibniz((nabla,), Section(F=f), sigma, probes, h)[0]


def _leibniz(nablas: Sequence[ConnectionEvaluator], f: Section, sigma: Section,
             probes: Sequence[tuple], h: float = DEFAULT_STEP) -> list[float]:
    """leibniz_residual of each evaluator of one kernel, its probes checked once: f, a scalar
    section, read by one `_values` call at the probes and one at their stencils, gives df and f(s);
    f sigma takes sigma's `batch`, f read at the same points and multiplied as at one point.  Every
    evaluator reads f sigma, then every one sigma, so the kept `_sample` serves each in turn."""
    domain = nablas[0].kernel.domain
    s, x = domain.jets([p for p, _ in probes], [v for _, v in probes])  # the one check
    stencils, weights = domain._stencils(s, x, h)
    fs, df = _fiber(f._values(s), 1), stencil_sum(weights, f._values(stencils, 2))

    def product(p):  # f sigma at a stack of points, its leading axes the stack's
        values = sigma.batch(p)
        return f._values(p, values.ndim - 1).reshape(values.shape[:-1] + (1,)) * values

    fsigma = Section(F=lambda p: f.value(p) * sigma.value(p), batch=sigma.batch and product)
    rhs = df * sigma._values(s)
    products = [nabla.core(fsigma, s, x) for nabla in nablas]
    return [_max_norm(p - (rhs + fs * nabla.core(sigma, s, x)))
            for p, nabla in zip(products, nablas)]


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
        ddelta = source_domain.derivatives((s,), (x,), theta.fiber_map)[0]
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
    points, directions = [s for s, _ in probes], [x for _, x in probes]
    deltas, images = [theta.fiber_map(s) for s in points], [theta.zeta(s) for s in points]
    for s, ds, z in zip(points, deltas, images):
        compat = np.linalg.norm(ds @ sigma.value(s) - sigma_target.value(z))
        if not compat <= 1e-10:  # a NaN residual fails too
            raise ValueError(
                f"sections are not morphism-compatible: residual {compat:.3e} at a probe")
    lhs = nabla.evaluate(sigma, points, directions)
    rhs = nabla_target.evaluate(sigma_target, images, list(map(theta.tangent, points, directions)))
    return _max_norm([ds @ a - b for ds, a, b in zip(deltas, lhs, rhs)])

