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
from typing import Optional, Sequence

import numpy as np

from .kernels import Kernel, gram_matrix, positivity_certificate
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
        pair = _first_duplicate((s, *self.points))  # the sample itself has no duplicates
        if pair is None or pair[0] != 0:
            raise KeyError("point is not among the sample points; augment the sample first")
        return pair[1] - 1

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


def _first_duplicate(pts: tuple) -> Optional[tuple[int, int]]:
    """The first pair i < j, in row order, of points (.p of projectors) within 1e-12."""
    try:
        x = np.array([np.ravel(getattr(p, "p", p)) for p in pts], dtype=complex)
    except ValueError:  # points of different sizes, which no domain accepts together
        return None
    close = np.abs(x[:, None, :] - x[None, :, :]).max(axis=-1, initial=0.0) <= 1e-12
    pairs = np.argwhere(np.triu(close, 1))
    return (int(pairs[0, 0]), int(pairs[0, 1])) if len(pairs) else None


def build_rkhs(k: Kernel, points: Sequence) -> SampledRKHS:
    """Assemble the Gram matrix on distinct sample points and certify positivity."""
    pts = tuple(points)
    duplicate = _first_duplicate(pts)
    if duplicate is not None:
        raise ValueError("duplicate sample points at indices {} and {}".format(*duplicate))
    gram = gram_matrix(k, pts)
    is_psd, lam_min = positivity_certificate(gram)
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
    return f.space.kernel.block((s,), f.space.points) @ f.coefficients


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
    |(kappa(s,t) v | w) - <P_{fiber(s)} khat(t,v), khat(s,w)>|.  Column (t, v) of
    kappa(s, .) is khat(t,v)(s); its fiber projection has coefficients
    kappa(s,s)^(-1) kappa(s,t) v, and pairing with khat(s,w) takes row w of G[s,s].
    """
    k = r.kernel
    res = 0.0
    for i, s in enumerate(r.points):
        row = k.block((s,), r.points)
        proj = hermitian_solve(k(s, s), row)
        res = max(res, float(np.max(np.abs(row - r.gram[r.block(i), r.block(i)] @ proj))))
    return res
