"""Finite Grassmannians as projector manifolds, and their connections.

Points of Gr(k, C^n) are Hermitian projectors p = p* = p^2 of rank k; tangent
vectors are anti-Hermitian generators A with vanishing diagonal blocks
(p A p = (1-p) A (1-p) = 0), moving the point along e^{tA} p e^{-tA}.  Fibers
get concrete coordinates through deterministic orthonormal column bases.

The module provides the conditional expectation onto block-diagonal matrices,
the reductive-structure axioms as residuals, the Maurer-Cartan form, the
kernel of orthogonal projections between subspaces, and three independent
routes to the covariant derivative on the tautological bundle (projected
differential, reductive formula, generic kernel machinery), plus the
homogeneous-bundle kernel and its derivative on unitary groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional, Sequence

import numpy as np

from .kernels import Domain, DomainError, Kernel, UnitaryDomain, _finite_array, make_group_kernel

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
]


@dataclass(frozen=True)
class HermitianProjector:
    """A point of the Grassmannian: p = p* = p^2 with trace(p) = rank."""

    p: np.ndarray
    rank: int

    def __post_init__(self):
        m = np.array(_finite_array(self.p, "projector"))  # read-only copy: fiber_basis caches it
        m.flags.writeable = False
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"projector must be square, got shape {m.shape}")
        if np.linalg.norm(m - m.conj().T) > 1e-10:
            raise DomainError("projector is not Hermitian")
        if np.linalg.norm(m @ m - m) > 1e-10:
            raise DomainError("matrix is not idempotent")
        if abs(np.trace(m).real - self.rank) > 1e-8:
            raise DomainError(
                f"trace {np.trace(m).real:.6f} does not match declared rank {self.rank}")
        object.__setattr__(self, "p", m)

    def _conjugate(self, u: np.ndarray) -> HermitianProjector:
        """u p u* for a unitary u: a projector of this rank, so only its finiteness is checked."""
        point = object.__new__(HermitianProjector)  # skips __post_init__; t w can still overflow
        point.__dict__.update(p=_finite_array(u @ self.p @ u.conj().T, "projector"), rank=self.rank)
        point.p.flags.writeable = False
        return point

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
        a = _finite_array(self.generator, "generator")
        p = self.base.p
        if a.shape != p.shape:
            raise DomainError(f"generator shape {a.shape} does not match base {p.shape}")
        if np.linalg.norm(a + a.conj().T) > 1e-10:
            raise DomainError("generator is not anti-Hermitian")
        q = self.base.complement()
        diag = np.linalg.norm(p @ a @ p) + np.linalg.norm(q @ a @ q)
        if diag > 1e-10:
            raise DomainError(
                f"generator has diagonal blocks (residual {diag:.3e}); "
                "it must lie in the reductive complement")
        object.__setattr__(self, "generator", a)

    def __getstate__(self):  # the curve GrassDomain.curve holds here is rebuilt, not pickled
        return {k: v for k, v in self.__dict__.items() if k != "_curve"}


def coordinate_projector(n: int, k: int) -> HermitianProjector:
    p = np.zeros((n, n), dtype=complex)
    p[:k, :k] = np.eye(k)
    return HermitianProjector(p, k)


def fiber_basis(point: HermitianProjector) -> np.ndarray:
    """Deterministic orthonormal column basis of the range of a projector.

    Eigenvectors of p with eigenvalue 1, ascending order, each column's
    largest-modulus entry rotated to be real positive.  Reproducible, but not
    a continuous function of the projector (the eigenspace is degenerate), so
    only gauge-covariant combinations of bases are meaningful.  Computed once
    per projector object; the array returned is read-only.
    """
    cached = point.__dict__.get("_fiber_basis")
    if cached is not None:
        return cached
    values, vectors = np.linalg.eigh(0.5 * (point.p + point.p.conj().T))
    cols = vectors[:, values > 0.5]
    if cols.shape[1] != point.rank:
        raise DomainError(
            f"projector has {cols.shape[1]} near-1 eigenvalues, expected rank {point.rank}")
    fixed = np.empty_like(cols)
    for j in range(cols.shape[1]):
        col = cols[:, j]
        idx = int(np.argmax(np.abs(col)))
        phase = col[idx] / abs(col[idx])
        fixed[:, j] = col / phase
    fixed.flags.writeable = False
    object.__setattr__(point, "_fiber_basis", fixed)  # beside the frozen fields
    return fixed


@dataclass(frozen=True)
class GrassDomain(Domain):
    """Rank-k projectors in C^n, with conjugation curves e^{tA} p e^{-tA}."""

    n: int
    k: int

    def check_point(self, s) -> None:
        if not isinstance(s, HermitianProjector):
            raise DomainError("Grassmann points must be HermitianProjector values")
        if s.n != self.n or s.rank != self.k:
            raise DomainError(
                f"expected rank-{self.k} projector in C^{self.n}, "
                f"got rank {s.rank} in C^{s.n}")

    def check_tangent(self, s, x) -> None:
        if not isinstance(x, GrassTangent):
            raise DomainError("Grassmann tangents must be GrassTangent values")
        if x.base is not s and not np.allclose(x.base.p, s.p, atol=1e-10):
            raise DomainError("tangent is anchored at a different base point")

    def curve(self, s, x) -> Callable[[float], HermitianProjector]:
        """t -> e^{tA} s e^{-tA}, each point built once; held by a tangent whose base is s."""
        if x.base is s and "_curve" in x.__dict__:
            return x.__dict__["_curve"]
        exp_ta = UnitaryDomain(self.n).curve(np.eye(self.n), x.generator)
        gamma = cache(lambda t: s._conjugate(exp_ta(float(t))))  # a real t keeps e^{tA} unitary
        if x.base is s:
            object.__setattr__(x, "_curve", gamma)  # beside the frozen fields: derivatives share it
        return gamma


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
    """Idempotence and equivariance residuals of the conditional expectation E_p against
    subgroup unitaries.

    Every g must commute with p (that is the subgroup membership condition);
    the residual is the max over g and random X of ||E(g X g^-1) - g E(X) g^-1||,
    together with ||E(E(X)) - E(X)||.  Each X is conjugated by all G unitaries in one
    (G, n, n) expression, whose members have the bits of their one-matrix products.
    """
    p, n = point.p, point.n
    g = np.asarray(unitaries, dtype=complex).reshape(-1, n, n)
    gh = g.conj().transpose(0, 2, 1)
    if any(np.linalg.norm(d) > 1e-10 for d in g @ p - p @ g):
        raise DomainError("unitary does not commute with the projector")
    rng = np.random.default_rng(seed)
    res = 0.0
    for _ in range(n_probes):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ex = conditional_expectation(point, x)
        equivariance = conditional_expectation(point, g @ x @ gh) - g @ ex @ gh
        res = max(res, np.linalg.norm(conditional_expectation(point, ex) - ex),
                  *map(np.linalg.norm, equivariance))
    return float(res)


def maurer_cartan(point: HermitianProjector, g, x) -> np.ndarray:
    """The tangent-identification 1-form: (g, X) -> g X g^-1 for X in the complement, E_p(X) = 0."""
    gm = np.asarray(g, dtype=complex)
    xm = np.asarray(x, dtype=complex)
    if np.linalg.norm(conditional_expectation(point, xm)) > 1e-10:
        raise DomainError("direction is not in the reductive complement of E_p")
    return gm @ xm @ gm.conj().T


def random_grass_tangent(point: HermitianProjector, rng: np.random.Generator) -> GrassTangent:
    """A random off-diagonal anti-Hermitian generator at the given projector."""
    b = fiber_basis(point)
    values, vectors = np.linalg.eigh(point.p)
    c = vectors[:, values <= 0.5]
    k, nk = b.shape[1], c.shape[1]
    r = rng.standard_normal((k, nk)) + 1j * rng.standard_normal((k, nk))
    a = b @ r @ c.conj().T
    return GrassTangent(point, a - a.conj().T)


def universal_kernel(n: int, k: int) -> Kernel:
    """The kernel of orthogonal projections between rank-k subspaces of C^n.

    In the deterministic fiber bases, kappa(S1, S2) = B1* B2 (the matrix of
    the projection of fiber S2 onto fiber S1); kappa(S, S) is the identity.
    """
    domain = GrassDomain(n, k)

    def ev(s1: HermitianProjector, s2: HermitianProjector):
        return fiber_basis(s1).conj().T @ fiber_basis(s2)

    return Kernel(k, domain, ev, name=f"universal:n={n},k={k}")


def grass_section_coordinates(f_ambient: Callable[[HermitianProjector], np.ndarray]):
    """Turn an ambient fiber-valued section into deterministic fiber coordinates."""

    def coords(point: HermitianProjector) -> np.ndarray:
        return fiber_basis(point).conj().T @ np.asarray(f_ambient(point), dtype=complex)

    return coords


def _fiber_value(f_ambient, point: HermitianProjector) -> np.ndarray:
    value = np.asarray(f_ambient(point), dtype=complex)
    res = np.linalg.norm(point.complement() @ value)
    if res > 1e-8:
        raise DomainError(f"section is not fiber-valued: ||(1-p) F(p)|| = {res:.3e}")
    return value


def universal_covariant_derivative(f_ambient: Callable[[HermitianProjector], np.ndarray],
                                   point: HermitianProjector,
                                   tangent: GrassTangent) -> np.ndarray:
    """Projected differential p . d/dt F(e^{tA} p e^{-tA}) of a fiber-valued section.

    F is checked to be fiber-valued at every point the stencil evaluates.
    """
    deriv = GrassDomain(point.n, point.rank).derivative(
        point, tangent, lambda pt: _fiber_value(f_ambient, pt))
    return point.p @ deriv


def reductive_covariant_derivative(f_ambient: Callable[[HermitianProjector], np.ndarray],
                                   g, x, base: HermitianProjector) -> np.ndarray:
    """Covariant derivative through the reductive splitting of the unitary group.

    The section is read on the orbit point g p g^-1 along the coset curve
    g e^{tX}; the correction term is the adjoint-transported generator acting
    on the section value:

        dF(curve) - (g X g^-1) F(g p g^-1),  X in the complement at p.
    """
    gm = np.asarray(g, dtype=complex)
    xm = np.asarray(x, dtype=complex)

    def orbit(u) -> HermitianProjector:
        return HermitianProjector(u @ base.p @ u.conj().T, base.rank)

    deriv = UnitaryDomain(base.n).derivative(gm, xm, lambda u: f_ambient(orbit(u)))  # checks g, x
    generator = maurer_cartan(base, gm, xm)  # rejects x outside the complement
    return deriv - generator @ np.asarray(f_ambient(orbit(gm)), dtype=complex)


def homogeneous_kernel(n: int, point: HermitianProjector) -> Kernel:
    """Group-indexed kernel u, v -> compression of u* v to the range of P.

    Lives on the trivial bundle over U(n) with fiber coordinates given by the
    deterministic basis of Ran P; kappa(u, u) is the identity.
    """
    b = fiber_basis(point)
    return make_group_kernel(n, point.rank, lambda x: b.conj().T @ x @ b,
                             name=f"homogeneous:n={n},k={point.rank}")


def homogeneous_covariant_derivative(phi: Callable[[np.ndarray], np.ndarray],
                                     point: HermitianProjector, u, x,
                                     equivariance_probes: Optional[Sequence[np.ndarray]] = None
                                     ) -> np.ndarray:
    """d(phi) along u e^{tX} plus the compressed generator action P X phi(u).

    phi maps unitaries into Ran P (ambient coordinates) and must be
    equivariant under block unitaries, phi(u w) = w^-1 phi(u); spot-checked
    when probes are supplied.
    """
    um = np.asarray(u, dtype=complex)
    xm = np.asarray(x, dtype=complex)
    deriv = UnitaryDomain(point.n).derivative(um, xm, phi)  # checks u and x
    p = point.p
    value = np.asarray(phi(um), dtype=complex)
    if np.linalg.norm(value - p @ value) > 1e-8:
        raise DomainError("phi does not map into the projector range")
    if equivariance_probes is not None:
        for w in equivariance_probes:
            wm = np.asarray(w, dtype=complex)
            if np.linalg.norm(wm @ p - p @ wm) > 1e-10:
                raise DomainError("equivariance probe does not commute with P")
            res = np.linalg.norm(np.asarray(phi(um @ wm), dtype=complex)
                                 - wm.conj().T @ value)
            if res > 1e-8:
                raise DomainError(f"phi violates equivariance (residual {res:.3e})")
    return deriv + p @ (xm @ value)
