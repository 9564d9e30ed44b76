"""Finite-sample realization of the Hilbert space generated by a kernel.

Elements are coefficient vectors c of length N*M representing
f = sum_i kappa(., t_i) c_i (block-indexed by sample point).  The inner
product is the block Gram pairing, the fiber at a sample point s is the span
of the embedded basis vectors kappa(., s) e_v, and the fiber projection uses
the closed form c = kappa(s,s)^(-1) f(s) that the reproducing property
provides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import Kernel, gram_matrix, points_equal, positivity_certificate
from .numerics import NumericsError, hermitian_solve

__all__ = [
    "SampledRKHS",
    "RKHSElement",
    "build_rkhs",
    "embed",
    "inner",
    "evaluate_element",
    "project_fiber",
    "universality_residual",
]


@dataclass(frozen=True)
class SampledRKHS:
    kernel: Kernel
    points: tuple
    gram: np.ndarray

    @property
    def fiber_dim(self) -> int:
        return self.kernel.fiber_dim

    def point_index(self, s) -> int:
        for i, t in enumerate(self.points):
            if points_equal(s, t):
                return i
        raise KeyError("point is not among the sample points; augment the sample first")

    def block(self, i: int) -> slice:
        m = self.fiber_dim
        return slice(i * m, (i + 1) * m)


@dataclass(frozen=True)
class RKHSElement:
    space: SampledRKHS
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        if c.shape != (len(self.space.points) * self.space.fiber_dim,):
            raise ValueError(f"coefficient vector has wrong length {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite coefficients")
        object.__setattr__(self, "coefficients", c)


def build_rkhs(k: Kernel, points: Sequence, psd_tol: float = 1e-9) -> SampledRKHS:
    """Assemble the Gram matrix on distinct sample points and certify positivity."""
    pts = tuple(points)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if points_equal(pts[i], pts[j]):
                raise ValueError(f"duplicate sample points at indices {i} and {j}")
    gram = gram_matrix(k, pts)
    is_psd, lam_min = positivity_certificate(gram, tol=psd_tol)
    if not is_psd:
        raise NumericsError(
            f"Gram matrix is not PSD (min eigenvalue {lam_min:.3e}); "
            "the input does not behave like a kernel on this sample")
    return SampledRKHS(kernel=k, points=pts, gram=gram)


def embed(r: SampledRKHS, s, v) -> RKHSElement:
    """The generator kappa(., s) v as an element: v placed in the block of s."""
    i = r.point_index(s)
    vec = np.asarray(v, dtype=complex).reshape(r.fiber_dim)
    c = np.zeros(len(r.points) * r.fiber_dim, dtype=complex)
    c[r.block(i)] = vec
    return RKHSElement(r, c)


def inner(r: SampledRKHS, f: RKHSElement, g: RKHSElement) -> complex:
    """Gram pairing <f, g> = g^dagger G f; conjugate-symmetric, PSD."""
    if f.space is not r or g.space is not r:
        raise ValueError("elements belong to a different sampled space")
    return complex(g.coefficients.conj() @ (r.gram @ f.coefficients))


def evaluate_element(f: RKHSElement, s) -> np.ndarray:
    """Pointwise value f(s) = sum_i kappa(s, t_i) c_i; s need not be sampled."""
    r = f.space
    m = r.fiber_dim
    out = np.zeros(m, dtype=complex)
    for i, t in enumerate(r.points):
        out += r.kernel(s, t) @ f.coefficients[r.block(i)]
    return out


def project_fiber(r: SampledRKHS, s, f: RKHSElement) -> RKHSElement:
    """Gram-orthogonal projection of f onto the fiber span at sample point s.

    The reproducing property turns the fiber Gram into kappa(s,s), so the
    projection coefficients are kappa(s,s)^(-1) f(s) in the block of s.
    Fails when kappa(s,s) is singular within threshold.
    """
    if f.space is not r:
        raise ValueError("element belongs to a different sampled space")
    i = r.point_index(s)
    kss = r.kernel(s, s)
    coeff = hermitian_solve(kss, evaluate_element(f, s))
    c = np.zeros_like(f.coefficients)
    c[r.block(i)] = coeff
    return RKHSElement(r, c)


def universality_residual(r: SampledRKHS) -> float:
    """Sampled check that projecting generators onto fibers reproduces the kernel.

    Maximum over sample pairs (s, t) and fiber basis vectors (v, w) of
    |(kappa(s,t) v | w) - <P_{fiber(s)} khat(t,v), khat(s,w)>|.
    """
    m = r.fiber_dim
    res = 0.0
    for si, s in enumerate(r.points):
        for t in r.points:
            kst = r.kernel(s, t)
            for v in range(m):
                gen = embed(r, t, np.eye(m)[v])
                proj = project_fiber(r, s, gen)
                for w in range(m):
                    lhs = kst[w, v]
                    rhs = inner(r, proj, embed(r, s, np.eye(m)[w]))
                    res = max(res, abs(lhs - rhs))
    return res
