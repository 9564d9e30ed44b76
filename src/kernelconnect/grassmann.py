"""Finite Grassmannians as projector manifolds, and their connections.

Points of Gr(k, C^n) are Hermitian projectors p = p* = p^2 of rank k; tangent
vectors are anti-Hermitian generators A with vanishing diagonal blocks
(p A p = (1-p) A (1-p) = 0), moving the point along e^{tA} p e^{-tA}.  Fibers
get concrete coordinates through deterministic orthonormal column bases.

The module provides the conditional expectation onto block-diagonal matrices, the
reductive-structure axioms as residuals, the Maurer-Cartan form, the kernel of orthogonal
projections between subspaces, and three independent routes to the covariant derivative on the
tautological bundle (projected differential, reductive formula, generic kernel machinery) with
`grassmann_agreement`, which compares them, plus the homogeneous-bundle kernel and its
derivative on unitary groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kernels import (Domain, DomainError, Kernel, UnitaryDomain, _dilation_kernel, _exponentials,
                      _finite_array, _frobenius, _kept, _paired, feature_kernel, stencil_sum)
from .connections import Section, _fiber, make_evaluator
from .numerics import DEFAULT_STEP, _max_norm, _normals, _random_unitaries

__all__ = [
    "HermitianProjector",
    "GrassTangent",
    "GrassDomain",
    "coordinate_projector",
    "fiber_basis",
    "conditional_expectation",
    "reductive_axioms_residual",
    "maurer_cartan",
    "random_grass_tangent",
    "universal_kernel",
    "grass_section_coordinates",
    "universal_covariant_derivative",
    "reductive_covariant_derivative",
    "homogeneous_kernel",
    "homogeneous_covariant_derivative",
    "grassmann_agreement",
]


@dataclass(frozen=True)
class HermitianProjector:
    """A point of the Grassmannian: p = p* = p^2 with trace(p) = rank."""

    p: np.ndarray
    rank: int

    def __post_init__(self):
        m = np.array(_finite_array(self.p, "projector"))  # read-only copy: fiber_basis caches it
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"projector must be square, got shape {m.shape}")
        if _frobenius(m - m.conj().T) > 1e-10:
            raise DomainError("projector is not Hermitian")
        if _frobenius(m @ m - m) > 1e-10:
            raise DomainError("matrix is not idempotent")
        if abs((trace := np.trace(m).real) - self.rank) > 1e-8:
            raise DomainError(f"trace {trace:.6f} does not match declared rank {self.rank}")
        m.flags.writeable = False
        object.__setattr__(self, "p", m)

    @property
    def n(self) -> int:
        return self.p.shape[0]

    def complement(self) -> np.ndarray:
        return np.eye(self.n) - self.p


@dataclass(frozen=True)
class GrassTangent:
    """A tangent vector at a projector: anti-Hermitian A with zero diagonal blocks."""

    base: HermitianProjector
    generator: np.ndarray

    def __post_init__(self):
        a = np.array(_finite_array(self.generator, "generator"))  # read-only copy, as p's
        a.flags.writeable = False
        p, q = self.base.p, self.base.complement()
        if a.shape != p.shape:
            raise DomainError(f"generator shape {a.shape} does not match base {p.shape}")
        if _frobenius(a + a.conj().T) > 1e-10:
            raise DomainError("generator is not anti-Hermitian")
        diag = _frobenius(p @ a @ p) + _frobenius(q @ a @ q)
        if diag > 1e-10:
            raise DomainError(f"generator has diagonal blocks (residual {diag:.3e}); "
                              "it must lie in the reductive complement")
        object.__setattr__(self, "generator", a)


def _orbit(u: np.ndarray, p: np.ndarray, b: np.ndarray, rank: int) -> list:
    """The projectors u p u* for a (..., n, n) stack of unitaries u, p a checked projector (or a
    stack broadcast with u) with basis b: the one constructor of moved points, each checked for
    finiteness only, read-only and holding the basis u b, B(u p u*) = u B(p), from no eigh."""
    m, bases = _finite_array(u @ p @ u.conj().swapaxes(-1, -2), "projector"), u @ b
    m.flags.writeable = bases.flags.writeable = False
    stack = [object.__new__(HermitianProjector) for _ in range(m[..., 0, 0].size)]
    for q, mq, bq in zip(stack, m.reshape(-1, *m.shape[-2:]), bases.reshape(-1, *bases.shape[-2:])):
        vars(q).update(p=mq, rank=rank, _fiber_basis=bq)  # beside the frozen fields
    return stack


def _moved(points: Sequence, u: np.ndarray, x: np.ndarray) -> list:
    """The tangents u x u* at the points u p u* of `_orbit`, u and x (L, n, n) stacks, x tangent at
    p: the one constructor of moved tangents, each checked for finiteness only, read-only."""
    a = _finite_array(u @ x @ u.conj().swapaxes(-1, -2), "generator")
    a.flags.writeable = False
    stack = [object.__new__(GrassTangent) for _ in points]
    for t, q, aq in zip(stack, points, a):
        vars(t).update(base=q, generator=aq)  # as _orbit's points
    return stack


def coordinate_projector(n: int, k: int) -> HermitianProjector:
    p = np.zeros((n, n), dtype=complex)
    p[:k, :k] = np.eye(k)
    return HermitianProjector(p, k)


def fiber_basis(point: HermitianProjector) -> np.ndarray:
    """Deterministic orthonormal column basis of the range of a projector, read-only.

    A point moved from a probe, u p u* (`_orbit`), holds u B(p): the gauge belongs to the probe.
    Any other projector gets, once per object, the eigenvectors of p with eigenvalue 1 in
    ascending order, each column's largest-modulus entry rotated to be real positive
    (`_eigenbasis`).  That rule is reproducible but not continuous in p (the eigenspace is
    degenerate), so only gauge-covariant combinations of bases are meaningful.
    """
    if "_fiber_basis" not in vars(point):
        vars(point)["_fiber_basis"] = _eigenbasis(point)[0]
    return vars(point)["_fiber_basis"]


def _eigenbasis(point: HermitianProjector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One eigh of a checked projector's Hermitian part: the read-only (n, k) range basis under the
    phase rule, F-ordered as BLAS sees it, the values and vectors.  Exactly k values exceed 0.5."""
    values, vectors = np.linalg.eigh(0.5 * (point.p + point.p.conj().T))
    cols = vectors[:, point.n - point.rank:].copy("F")  # eigenvalues ascend: the near-1 ones last
    top = np.take_along_axis(cols, np.argmax(np.abs(cols), axis=0)[None], axis=0)
    np.divide(cols, top / np.hypot(top.real, top.imag), out=cols)  # hypot rounds as scalar abs
    cols.flags.writeable = False
    return cols, values, vectors


@dataclass(frozen=True)
class GrassDomain(Domain):
    """Rank-k projectors in C^n, with conjugation curves e^{tA} p e^{-tA}."""

    n: int
    k: int

    def __post_init__(self):  # Gr(0, n) and Gr(n, n) are single points: no curve moves there
        if not 0 < self.k < self.n:
            raise DomainError(f"{self.name}: the rank must satisfy 0 < k < n")

    @property
    def name(self) -> str:
        return f"Gr({self.k},{self.n})"

    def stack(self, points: Sequence) -> np.ndarray:
        """Domain.stack as an (N,) object array of the caller's rank-k HermitianProjectors."""
        for i, s in enumerate(points):
            if not isinstance(s, HermitianProjector):
                raise self._error("point is not a HermitianProjector", i, len(points))
            if s.n != self.n or s.rank != self.k:
                raise self._error(f"expected a rank-{self.k} projector in C^{self.n}, got rank "
                                  f"{s.rank} in C^{s.n}", i, len(points))
        return np.fromiter(points, object, len(points))

    def jets(self, points: Sequence, directions: Sequence) -> tuple[np.ndarray, np.ndarray]:
        """Domain.jets as `stack` and an (L,) object array of the caller's GrassTangents, each
        anchored at its point: the point itself or a projector within 1e-10 of it in every entry."""
        s = self.stack(points)
        for i, (p, x) in enumerate(zip(s, _paired(points, directions))):
            if not isinstance(x, GrassTangent):
                raise self._error("tangent is not a GrassTangent", i, len(s), "probe")
            b = x.base.p
            if x.base is not p and (b.shape != p.p.shape or (abs(b - p.p) > 1e-10).any()):
                raise self._error("tangent is anchored at another point", i, len(s), "probe")
        return s, np.fromiter(directions, object, len(directions))

    @_kept
    def _stencils(self, s: np.ndarray, x: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
        """Domain._stencils as an (L, 4) object array of `_orbit`'s u p u* holding u B(p), u the
        `_exponentials` at 1 by `Domain._rule` on the projectors and generators (1 at A = 0)."""
        a = np.array([t.generator for t in x])
        p = np.array([q.p for q in s])
        step, weights, unit = self._rule(p, a.reshape(len(a), -1), h)
        stack = _orbit(_exponentials(np.eye(self.n), step, unit), p[:, None],
                       np.array([fiber_basis(q) for q in s])[:, None], self.k)
        return np.fromiter(stack, object, len(stack)).reshape(len(s), 4), weights


def conditional_expectation(point: HermitianProjector, x) -> np.ndarray:
    """Compression onto block-diagonal matrices: X -> pXp + (1-p)X(1-p), for X (..., n, n)."""
    m = np.asarray(x, dtype=complex)
    if m.shape[-2:] != point.p.shape:
        raise DomainError(f"operand shape {m.shape} does not match projector {point.p.shape}")
    p = point.p
    q = point.complement()
    return p @ m @ p + q @ m @ q


def reductive_axioms_residual(point: HermitianProjector, unitaries: Sequence[np.ndarray],
                              n_probes: int = 20, seed: int = 0) -> float:
    """Fixed-point, idempotence and equivariance residuals of the conditional expectation E_p
    against subgroup unitaries.

    Every g must commute with p (that is the subgroup membership condition), so E fixes it; the
    residual is the max of ||E(g) - g|| over g, and over g and random X of
    ||E(g X g^-1) - g E(X) g^-1|| and ||E(E(X)) - E(X)||.  The X are one (P, n, n) draw, each
    conjugated by all G unitaries in one (P, G, n, n) expression, whose members have the bits of
    their one-matrix products.  A non-finite unitary is rejected.
    """
    p, n = point.p, point.n
    g = _finite_array(unitaries, "unitary").reshape(-1, n, n)
    gh = g.conj().transpose(0, 2, 1)
    if _max_norm(g @ p - p @ g) > 1e-10:
        raise DomainError("unitary does not commute with the projector")
    x = _normals(np.random.default_rng(seed), n_probes, (n, n))
    ex = conditional_expectation(point, x)
    equivariance = conditional_expectation(point, g @ x[:, None] @ gh) - g @ ex[:, None] @ gh
    return _max_norm(np.concatenate([conditional_expectation(point, g) - g, equivariance.reshape(
        -1, n, n), conditional_expectation(point, ex) - ex]))


def maurer_cartan(point: HermitianProjector, g, x) -> np.ndarray:
    """The tangent-identification 1-form: (g, X) -> g X g^-1 for X in the complement, E_p(X) = 0,
    on matrices or (..., n, n) stacks."""
    gm = np.asarray(g, dtype=complex)
    xm = np.asarray(x, dtype=complex)
    if (_frobenius(conditional_expectation(point, xm)) > 1e-10).any():
        raise DomainError("direction is not in the reductive complement of E_p")
    return gm @ xm @ gm.conj().swapaxes(-1, -2)


def random_grass_tangent(point: HermitianProjector, rng: np.random.Generator) -> GrassTangent:
    """A random off-diagonal anti-Hermitian generator at the projector: one `_random_generators`."""
    return GrassTangent(point, _random_generators(point, rng, 1)[0])


def _random_generators(point: HermitianProjector, rng: np.random.Generator, count: int):
    """count generators a - a*, a = b r c*, from one (count, 2, k, n - k) normal draw of the r: the
    stream and bits of count one-member draws.  b is the fiber basis, and the complement columns c
    come from one eigh."""
    (_, values, vectors), b = _eigenbasis(point), fiber_basis(point)
    c = vectors[:, values <= 0.5]
    a = b @ _normals(rng, count, (b.shape[1], c.shape[1])) @ c.conj().T
    return a - a.conj().swapaxes(-1, -2)


def universal_kernel(n: int, k: int) -> Kernel:
    """The kernel of orthogonal projections between rank-k subspaces of C^n.

    In the deterministic fiber bases, kappa(S1, S2) = B1* B2 (the matrix of
    the projection of fiber S2 onto fiber S1): the feature map is fiber_basis,
    and kappa(S, S) is the identity.
    """
    def bases(s):  # B(s), or the (..., n, k) stack of an object array of points, each basis once
        return fiber_basis(s) if isinstance(s, HermitianProjector) else np.array(
            [fiber_basis(q) for q in s.flat]).reshape(s.shape + (n, k))

    return feature_kernel(bases, k, GrassDomain(n, k), f"universal:n={n},k={k}")


def grass_section_coordinates(f_ambient: Callable[[HermitianProjector], np.ndarray]):
    """Turn an ambient fiber-valued section into deterministic fiber coordinates."""

    def coords(point: HermitianProjector) -> np.ndarray:
        return fiber_basis(point).conj().T @ np.asarray(f_ambient(point), dtype=complex)

    return coords


def universal_covariant_derivative(f_ambient: Callable[[HermitianProjector], np.ndarray],
                                   point: HermitianProjector,
                                   tangent: GrassTangent) -> np.ndarray:
    """Projected differential p . d/dt F(e^{tA} p e^{-tA}) of a fiber-valued section F (a vector
    of C^n at each projector): the one-probe `_universal` of Section(F=f_ambient)."""
    return _universal(Section(F=f_ambient), (point,), (tangent,))[0]


def _universal(f: Section, points: Sequence, tangents: Sequence) -> np.ndarray:
    """The (L, n) projected differentials at L probes, from one stencil stack read by one `_values`
    call; that F is fiber-valued, ||(1-p) F(p)|| <= 1e-8, is one test of all 4L stencil values."""
    domain = GrassDomain(points[0].n, points[0].rank)
    stencils, weights = domain._stencils(*domain.jets(points, tangents), DEFAULT_STEP)
    v = f._values(stencils, 2).reshape(stencils.size, -1)
    res = np.linalg.norm(v - (np.array([q.p for q in stencils.flat]) @ v[..., None])[..., 0], -1)
    if (res > 1e-8).any():
        raise DomainError(f"section is not fiber-valued: ||(1-p) F(p)|| = {res[res > 1e-8][0]:.3e}")
    deriv = stencil_sum(weights, v.reshape(len(points), 4, -1))
    return (np.array([p.p for p in points]) @ deriv[..., None])[..., 0]


def reductive_covariant_derivative(f_ambient: Callable[[HermitianProjector], np.ndarray],
                                   g, x, base: HermitianProjector) -> np.ndarray:
    """Covariant derivative through the reductive splitting of the unitary group.

    The section is read on the orbit point g p g^-1 along the coset curve
    g e^{tX}; the correction term is the adjoint-transported generator acting
    on the section value:

        dF(curve) - (g X g^-1) F(g p g^-1),  X in the complement at p  (one-probe `_reductive`).
    """
    return _reductive(Section(F=f_ambient), (g,), (x,), base)[0]


def _reductive(f: Section, gs: Sequence, xs: Sequence, base: HermitianProjector) -> np.ndarray:
    """The (L, n) reductive derivatives at L probes (g_j, x_j): `_group_jets` of u -> F(u p u*), at
    the orbit points of `_orbit` (the g_j passed `jets`, and the base its own check)."""
    def orbit(u):  # F at the points u p u* of a stack of unitaries, by one `Section._values` call
        qs = _orbit(u, base.p, fiber_basis(base), base.rank)
        return f._values(np.fromiter(qs, object, len(qs)).reshape(u.shape[:-2]), u.ndim - 2)

    deriv, value, x = _group_jets(Section(orbit, batch=orbit), gs, xs, base.n, base.n)
    return deriv - (maurer_cartan(base, gs, x) @ value[..., None])[..., 0]


def grassmann_agreement(n: int, k: int, probes: int, seed: int) -> dict:
    """Three-way covariant-derivative agreement on rank-k projectors in C^n.

    Compares the projected-differential formula, the reductive-splitting formula and the generic
    kernel pipeline on random probes, evaluated by each route in one call; checks metric
    compatibility; returns the two max residuals.
    """
    if probes < 1:
        raise ValueError(f"probes must be >= 1, got {probes}")
    rng = np.random.default_rng(seed + 5)
    base, q = coordinate_projector(n, k), universal_kernel(n, k)
    v0, w0 = _normals(rng, 2, n)

    f, g = (Section(lambda pt, v=v: pt.p @ v,  # P v0 and P w0, each with its batch
                    batch=lambda pts, v=v: np.array([pt.p for pt in pts.flat]).reshape(
                        pts.shape + (n, n)) @ v) for v in (v0, w0))
    gs = _random_unitaries(n, range(seed + 200, seed + 200 + probes))
    xs = _random_generators(base, rng, probes)
    points = _orbit(gs, base.p, fiber_basis(base), k)
    tangents = _moved(points, gs, xs)

    univ = _universal(f, points, tangents)
    red = _reductive(f, gs, xs, base)
    sigma = Section(F=grass_section_coordinates(f.F))
    direct = make_evaluator(q, "direct").evaluate(sigma, points, tangents)
    generic = [fiber_basis(p) @ d for p, d in zip(points, direct)]
    pairs = np.concatenate([univ - red, univ - generic, red - generic])

    d_inner = q.domain.derivatives(points, tangents, lambda p: np.vdot(g.F(p), f.F(p)))
    nabla_g = _universal(g, points, tangents)
    metric = [abs(d - (np.vdot(ng, f.F(p)) + np.vdot(g.F(p), u)))
              for d, ng, u, p in zip(d_inner, nabla_g, univ, points)]
    return {"three_way_residual": _max_norm(pairs),
            "metric_compatibility_residual": float(np.max(metric))}


def homogeneous_kernel(n: int, point: HermitianProjector) -> Kernel:
    """Group-indexed kernel u, v -> compression of u* v to the range of P.

    Lives on the trivial bundle over U(n) with fiber coordinates given by the
    deterministic basis B of Ran P: the feature map is u -> u B, so that
    kappa(u, v) = (u B)* (v B) = B* u* v B, and kappa(u, u) is the identity.
    """
    return _dilation_kernel(fiber_basis(point), n, f"homogeneous:n={n},k={point.rank}")


def homogeneous_covariant_derivative(phi: Callable[[np.ndarray], np.ndarray],
                                     point: HermitianProjector, u, x) -> np.ndarray:
    """d(phi) along u e^{tX} plus the compressed generator action P X phi(u): the one-probe
    `_homogeneous` of Section(F=phi).

    phi maps unitaries into Ran P (ambient coordinates) and must be
    equivariant under block unitaries, phi(u w) = w^-1 phi(u).
    """
    return _homogeneous(Section(F=phi), point, (u,), (x,))[0]


def _homogeneous(phi: Section, point: HermitianProjector, us: Sequence, xs: Sequence) -> np.ndarray:
    """The (L, n) homogeneous derivatives at L probes (u_j, x_j), from one U(n) stencil stack;
    that phi(u_j) lies in Ran P is one test of the L values."""
    deriv, value, x = _group_jets(phi, us, xs, point.n, point.n)
    if _max_norm(value - (point.p @ value[..., None])[..., 0]) > 1e-8:
        raise DomainError("phi does not map into the projector range")
    return deriv + (point.p @ (x @ value[..., None]))[..., 0]


def _group_jets(sigma: Section, us: Sequence, xs: Sequence, n: int, m: int) -> tuple:
    """At L probes (u_j, x_j) of U(n), checked once: the (L, m) derivatives of sigma along
    u_j e^{t x_j} from one stencil stack, the (L, m) values sigma(u_j) and the (L, n, n) directions;
    sigma is read by `Section._values`; its values are checked as a section's: m long and finite."""
    domain = UnitaryDomain(n)
    us, x = domain.jets(us, xs)
    stencils, weights = domain._stencils(us, x, DEFAULT_STEP)
    dsigma = stencil_sum(weights, _fiber(sigma._values(stencils, 2), m))
    return dsigma, _fiber(sigma._values(us), m), x
