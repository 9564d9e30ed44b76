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

from .kernels import Kernel, _psd_spectra, gram_matrix
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
    eigenvalues: np.ndarray  # of the Gram, ascending, from its PSD certificate

    @property
    def fiber_dim(self) -> int:
        return self.kernel.fiber_dim

    def point_index(self, s) -> int:
        """The index of s in the sample: the sample point within 1e-12 of it."""
        try:
            x = _coordinates((s, *self.points))
            close = _close(x[:1], x[1:])[0]
        except ValueError:  # s has another size than the sample's points: it is not among them
            close = np.zeros(0, dtype=bool)
        if not close.any():
            raise KeyError("point is not among the sample points; augment the sample first")
        return int(close.argmax())

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


def _coordinates(pts: Sequence) -> np.ndarray:
    """Points (.p of projectors) as rows; ValueError when their sizes differ."""
    return np.array([np.ravel(getattr(p, "p", p)) for p in pts], dtype=complex)


def _close(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """close[..., i, j]: rows a[..., i] and b[..., j] are one point, within 1e-12 entry by entry."""
    return np.abs(a[..., :, None, :] - b[..., None, :, :]).max(axis=-1, initial=0.0) <= 1e-12


def _certify(samples: Sequence, grams: np.ndarray) -> np.ndarray:
    """The ascending spectra of the Gram matrices of L samples; each sample distinct, each PSD."""
    of = lambda j: f" (sample {j} of {len(samples)})" if len(samples) > 1 else ""  # noqa: E731
    x = np.array([_coordinates(pts) for pts in samples])
    close = _close(x, x) > np.eye(x.shape[1], dtype=bool)  # off the diagonal; symmetric
    if close.any():
        j, a, b = np.argwhere(close)[0]  # the first pair in row order, so a < b
        raise ValueError(f"duplicate sample points at indices {a} and {b}{of(j)}")
    values, is_psd = _psd_spectra(grams)
    if not is_psd.all():
        j = int(np.argmin(is_psd))
        raise NumericsError(
            f"Gram matrix is not PSD (min eigenvalue {values[j, 0]:.3e}); "
            f"the input does not behave like a kernel on this sample{of(j)}")
    return values


def build_rkhs(k: Kernel, points: Sequence) -> SampledRKHS:
    """Assemble the Gram matrix on distinct sample points and certify positivity."""
    pts = tuple(points)
    gram = gram_matrix(k, pts)
    return SampledRKHS(kernel=k, points=pts, gram=gram, eigenvalues=_certify((pts,), gram[None])[0])


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
    projection coefficients are kappa(s,s)^(-1) f(s) in the block of s, both read
    from the Gram matrix.  Fails when kappa(s,s) is singular within threshold.
    """
    if f.space is not r:
        raise ValueError("element belongs to a different sampled space")
    b = r.block(r.point_index(s))
    c = np.zeros_like(f.coefficients)
    c[b] = hermitian_solve(r.gram[b, b], r.gram[b] @ f.coefficients)
    return RKHSElement(r, c)


def universality_residual(r: SampledRKHS) -> float:
    """Sampled check that projecting generators onto fibers reproduces the kernel.

    Maximum over sample pairs (s, t) and fiber basis vectors (v, w) of
    |(kappa(s,t) v | w) - <P_{fiber(s)} khat(t,v), khat(s,w)>|.  Column (t, v) of
    kappa(s, .) is khat(t,v)(s); its fiber projection has coefficients
    kappa(s,s)^(-1) kappa(s,t) v, and pairing with khat(s,w) takes row w of G[s,s].
    Every kernel value is read from the Gram matrix.
    """
    res = 0.0
    for i in range(len(r.points)):
        b = r.block(i)
        row, kss = r.gram[b], r.gram[b, b]
        res = max(res, float(np.max(np.abs(row - kss @ hermitian_solve(kss, row)))))
    return res
