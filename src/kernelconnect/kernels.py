"""Operator-valued positive-definite kernels and the classical examples.

A kernel is a map kappa(s, t) -> M x M complex matrix over some base domain,
Hermitian in the sense kappa(s,t)* = kappa(t,s), with PSD Gram matrices on
finite point families.  Built-ins: weighted Bergman kernels on the disk and
the upper half-plane (nu=1 is the Hardy member of each family) and the Fock
kernel exp(beta(z,w)) for a PSD Hermitian form beta.

Base points are plain values: complex vectors for C^d domains, unitary
matrices for group-indexed kernels, Hermitian projectors for the Grassmann
kernel (see grassmann.py).  Tangent directions mirror the point flavor and
are treated as real-linear directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg

from .numerics import (
    DEFAULT_STEP,
    NumericsError,
    directional_derivative,
    hermitian_eigh,
)

__all__ = [
    "DomainError",
    "Domain",
    "VectorDomain",
    "UnitaryDomain",
    "Kernel",
    "make_bergman_disk",
    "make_bergman_halfplane",
    "make_fock",
    "make_rank_one_kernel",
    "gram_matrix",
    "positivity_certificate",
    "BundleMorphism",
    "pull_back_kernel",
    "admissibility_report",
    "points_equal",
]

DISK_BOUNDARY_GUARD = 1.0 - 1e-6


class DomainError(ValueError):
    """A base point or tangent vector violates its domain constraints."""


def _as_point(s) -> np.ndarray:
    a = np.atleast_1d(np.asarray(s, dtype=complex))
    if a.ndim != 1:
        raise DomainError(f"vector-domain point must be 1-d, got shape {a.shape}")
    return a


def points_equal(s, t, tol: float = 1e-12) -> bool:
    # structured points (e.g. projectors) compare through their matrix payload
    a = np.asarray(getattr(s, "p", s), dtype=complex)
    b = np.asarray(getattr(t, "p", t), dtype=complex)
    if a.shape != b.shape:
        return False
    return bool(np.max(np.abs(a - b), initial=0.0) <= tol)


class Domain:
    """Base-domain protocol: membership checks and curves with a given 1-jet."""

    def check_point(self, s) -> None:
        raise NotImplementedError

    def check_tangent(self, s, x) -> None:
        raise NotImplementedError

    def curve(self, s, x) -> Callable[[float], object]:
        """A curve gamma with gamma(0) = s and velocity x at t = 0."""
        raise NotImplementedError


@dataclass(frozen=True)
class VectorDomain(Domain):
    """Points in C^d; curves are straight lines s + t*x."""

    dim: int
    name: str = "C^d"
    guard: Optional[Callable[[np.ndarray], Optional[str]]] = None

    def check_point(self, s) -> None:
        a = _as_point(s)
        if a.shape[0] != self.dim:
            raise DomainError(f"{self.name}: expected dimension {self.dim}, got {a.shape[0]}")
        if not np.all(np.isfinite(a)):
            raise DomainError(f"{self.name}: non-finite point")
        if self.guard is not None:
            msg = self.guard(a)
            if msg:
                raise DomainError(f"{self.name}: {msg}")

    def check_tangent(self, s, x) -> None:
        a = _as_point(x)
        if a.shape[0] != self.dim:
            raise DomainError(f"{self.name}: tangent dimension {a.shape[0]} != {self.dim}")

    def curve(self, s, x) -> Callable[[float], np.ndarray]:
        s0 = _as_point(s)
        x0 = _as_point(x)
        return lambda t: s0 + t * x0


def _disk_guard(a: np.ndarray) -> Optional[str]:
    if abs(a[0]) >= DISK_BOUNDARY_GUARD:
        return f"|s| = {abs(a[0]):.8f} is too close to the unit circle"
    return None


def _halfplane_guard(a: np.ndarray) -> Optional[str]:
    if a[0].imag <= 0:
        return f"Im z = {a[0].imag:.3e} must be positive"
    return None


@dataclass(frozen=True)
class UnitaryDomain(Domain):
    """Points are n x n unitary matrices; tangents anti-Hermitian matrices.

    Curves are u exp(t a).
    """

    n: int
    name: str = "U(n)"
    unitarity_tol: float = 1e-10

    def check_point(self, u) -> None:
        m = np.asarray(u, dtype=complex)
        if m.shape != (self.n, self.n):
            raise DomainError(f"{self.name}: expected {self.n}x{self.n} matrix, got {m.shape}")
        res = np.linalg.norm(m.conj().T @ m - np.eye(self.n))
        if res > self.unitarity_tol:
            raise DomainError(f"{self.name}: not unitary, ||u*u - I|| = {res:.3e}")

    def check_tangent(self, u, a) -> None:
        m = np.asarray(a, dtype=complex)
        if m.shape != (self.n, self.n):
            raise DomainError(f"{self.name}: tangent shape {m.shape} != ({self.n},{self.n})")
        res = np.linalg.norm(m + m.conj().T)
        if res > 1e-10:
            raise DomainError(f"{self.name}: tangent not anti-Hermitian, ||a + a*|| = {res:.3e}")

    def curve(self, u, a) -> Callable[[float], np.ndarray]:
        u0 = np.asarray(u, dtype=complex)
        a0 = np.asarray(a, dtype=complex)
        return lambda t: u0 @ scipy.linalg.expm(t * a0)


@dataclass(frozen=True)
class Kernel:
    """An operator-valued kernel with optional analytic second-slot derivative.

    `eval` returns the M x M matrix kappa(s, t).  `d2`, when present, returns
    the real-linear directional derivative of t -> kappa(s, t) in direction x
    (a conjugate-linear expression for the anti-holomorphic built-ins).
    Kernels lacking `d2` fall back to stencil differentiation along
    domain.curve(t, x).
    """

    fiber_dim: int
    domain: Domain
    eval: Callable[[object, object], np.ndarray]
    d2: Optional[Callable[[object, object, object], np.ndarray]] = None
    name: str = "kernel"

    def __call__(self, s, t) -> np.ndarray:
        self.domain.check_point(s)
        self.domain.check_point(t)
        out = np.asarray(self.eval(s, t), dtype=complex)
        return out.reshape(self.fiber_dim, self.fiber_dim)

    def d2_eval(self, s, t, x, h: float = DEFAULT_STEP) -> np.ndarray:
        """Directional derivative of kappa(s, .) at t in direction x."""
        self.domain.check_point(s)
        self.domain.check_tangent(t, x)
        if self.d2 is not None:
            out = np.asarray(self.d2(s, t, x), dtype=complex)
            return out.reshape(self.fiber_dim, self.fiber_dim)
        gamma = self.domain.curve(t, x)
        return directional_derivative(lambda eps: self(s, gamma(eps)), h=h)


def make_bergman_disk(nu: float) -> Kernel:
    """Weighted Bergman kernel (1 - conj(t) s)^(-nu) on the unit disk; nu=1 is Hardy."""
    if not (np.isfinite(nu) and nu >= 1):
        raise ValueError(f"nu must be finite and >= 1, got {nu}")
    domain = VectorDomain(1, name="unit disk", guard=_disk_guard)

    def ev(s, t):
        s0, t0 = complex(np.asarray(s).flat[0]), complex(np.asarray(t).flat[0])
        return np.array([[(1.0 - np.conj(t0) * s0) ** (-nu)]])

    def d2(s, t, x):
        s0, t0 = complex(np.asarray(s).flat[0]), complex(np.asarray(t).flat[0])
        w = complex(np.asarray(x).flat[0])
        return np.array([[nu * s0 * np.conj(w) * (1.0 - np.conj(t0) * s0) ** (-nu - 1)]])

    return Kernel(1, domain, ev, d2, name=f"bergman-disk:nu={nu:g}")


def make_bergman_halfplane(nu: float) -> Kernel:
    """Weighted Bergman kernel (1/4)(2i)^nu (z - conj(w))^(-nu) on the upper half-plane."""
    if not (np.isfinite(nu) and nu >= 1):
        raise ValueError(f"nu must be finite and >= 1, got {nu}")
    domain = VectorDomain(1, name="upper half-plane", guard=_halfplane_guard)
    c = 0.25 * (2.0j) ** nu

    def ev(z, w):
        z0, w0 = complex(np.asarray(z).flat[0]), complex(np.asarray(w).flat[0])
        return np.array([[c * (z0 - np.conj(w0)) ** (-nu)]])

    def d2(z, w, x):
        z0, w0 = complex(np.asarray(z).flat[0]), complex(np.asarray(w).flat[0])
        lam = complex(np.asarray(x).flat[0])
        return np.array([[c * nu * np.conj(lam) * (z0 - np.conj(w0)) ** (-nu - 1)]])

    return Kernel(1, domain, ev, d2, name=f"bergman-halfplane:nu={nu:g}")


def make_fock(beta) -> Kernel:
    """Fock kernel exp(beta(z, w)) with beta(z, w) = sum_jk B_jk z_j conj(w_k).

    B must be Hermitian PSD; B = I gives the prototypical beta(z,w) = z . conj(w).
    """
    b = np.asarray(beta, dtype=complex)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError(f"beta must be a square matrix, got shape {b.shape}")
    if np.linalg.norm(b - b.conj().T) > 1e-10:
        raise ValueError("beta must be Hermitian")
    values, _ = hermitian_eigh(b)
    if values.size and values[0] < -1e-10 * max(values[-1], 1.0):
        raise ValueError(f"beta must be PSD, min eigenvalue {values[0]:.3e}")
    dim = b.shape[0]
    domain = VectorDomain(dim, name=f"C^{dim}")

    def form(z, w):
        return np.dot(np.asarray(z, dtype=complex), b @ np.conj(np.asarray(w, dtype=complex)))

    def ev(z, w):
        return np.array([[np.exp(form(z, w))]])

    def d2(z, w, x):
        return np.array([[np.exp(form(z, w)) * form(z, x)]])

    return Kernel(1, domain, ev, d2, name=f"fock:dim={dim}")


def make_rank_one_kernel(a: Callable[[object], np.ndarray], fiber_dim: int, domain: Domain,
                         name: str = "rank-one") -> Kernel:
    """Degenerate operator kernel kappa(s,t) = a(s) a(t)* with values of rank one."""

    def ev(s, t):
        va = np.asarray(a(s), dtype=complex).reshape(fiber_dim, 1)
        vb = np.asarray(a(t), dtype=complex).reshape(fiber_dim, 1)
        return va @ vb.conj().T

    return Kernel(fiber_dim, domain, ev, name=name)


def gram_matrix(k: Kernel, points: Sequence) -> np.ndarray:
    """NM x NM block Gram matrix, block (l, j) = kappa(t_l, t_j)."""
    if len(points) < 1:
        raise ValueError("need at least one point")
    m = k.fiber_dim
    n = len(points)
    g = np.zeros((n * m, n * m), dtype=complex)
    for l in range(n):
        for j in range(n):
            g[l * m:(l + 1) * m, j * m:(j + 1) * m] = k(points[l], points[j])
    return g


def positivity_certificate(g, tol: float = 1e-9) -> tuple[bool, float]:
    """Check a Gram matrix for positive semidefiniteness by its spectrum.

    Returns (is_psd, min_eigenvalue); is_psd holds iff the minimum eigenvalue
    is >= -tol * max(1, lambda_max).
    """
    a = np.asarray(g, dtype=complex)
    herm_res = np.linalg.norm(a - a.conj().T)
    if herm_res > tol * max(1.0, np.linalg.norm(a)):
        raise NumericsError(f"Gram matrix not Hermitian, ||G - G*|| = {herm_res:.3e}")
    values, _ = hermitian_eigh(a)
    lam_min = float(values[0])
    lam_max = float(values[-1])
    return lam_min >= -tol * max(1.0, lam_max), lam_min


@dataclass(frozen=True)
class BundleMorphism:
    """A bundle map (delta, zeta): fiberwise matrices delta_s over a base map zeta.

    `tangent` maps (s, x) to the image direction of x under the base map; it
    is required only for pulling back connections, not kernels.
    """

    zeta: Callable[[object], object]
    delta: Callable[[object], np.ndarray]
    tangent: Optional[Callable[[object, object], object]] = None

    @staticmethod
    def identity() -> "BundleMorphism":
        return BundleMorphism(zeta=lambda s: s,
                              delta=lambda s: None,  # marker: identity fiber map
                              tangent=lambda s, x: x)

    def fiber_map(self, s, dim: int) -> np.ndarray:
        d = self.delta(s)
        if d is None:
            return np.eye(dim, dtype=complex)
        return np.atleast_2d(np.asarray(d, dtype=complex))


def pull_back_kernel(theta: BundleMorphism, k_target: Kernel, fiber_dim: int,
                     domain: Domain, name: str = "") -> Kernel:
    """Pull a kernel back along a bundle morphism:

        (theta* k)(s, t) = delta_s* . k(zeta(s), zeta(t)) . delta_t
    """

    def ev(s, t):
        ds = theta.fiber_map(s, k_target.fiber_dim)
        dt = theta.fiber_map(t, k_target.fiber_dim)
        core = k_target(theta.zeta(s), theta.zeta(t))
        if ds.shape[0] != core.shape[0] or dt.shape[0] != core.shape[1]:
            raise DomainError(
                f"fiber map shape {ds.shape} incompatible with target fiber "
                f"dimension {k_target.fiber_dim}")
        return ds.conj().T @ core @ dt

    return Kernel(fiber_dim, domain, ev, name=name or f"pullback({k_target.name})")


def admissibility_report(k: Kernel, points: Sequence) -> dict:
    """Diagnostics for kernel admissibility on a finite sample.

    Reports the minimum singular value of kappa(s,s) over the sample, the
    RKHS embedding lower bound computed independently from the assembled Gram
    matrix (min over unit fiber vectors v of ||K^(s,v)||^2), and the maximal
    Hermitian-symmetry residual.  The two leading numbers coincide for a true
    kernel, which makes their equality testable.
    """
    if len(points) < 2:
        raise ValueError("need at least two points")
    m = k.fiber_dim
    min_sigma = np.inf
    for s in points:
        values, _ = hermitian_eigh(k(s, s))
        min_sigma = min(min_sigma, float(values[0]))

    gram = gram_matrix(k, points)
    embed_bound = np.inf
    for i in range(len(points)):
        block = gram[i * m:(i + 1) * m, i * m:(i + 1) * m]
        values, _ = hermitian_eigh(block)
        embed_bound = min(embed_bound, float(values[0]))

    sym_res = 0.0
    for s in points:
        for t in points:
            sym_res = max(sym_res, float(np.linalg.norm(k(s, t).conj().T - k(t, s))))

    return {
        "min_sigma": min_sigma,
        "embedding_lower_bound": embed_bound,
        "hermitian_symmetry_residual": sym_res,
    }
