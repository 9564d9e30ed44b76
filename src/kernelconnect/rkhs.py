"""Finite-sample realization of the Hilbert space generated by a kernel.

Elements are coefficient vectors c of length N*M representing f = sum_i kappa(., t_i) c_i
(block-indexed by sample point).  The inner product is the block Gram pairing g* G f, the fiber
at a sample point s is the span of the generators kappa(., s) v, and the fiber projection uses
the closed form c = kappa(s,s)^(-1) f(s) that the reproducing property provides.  Its stacked
form `_project` and the Gram certificate `_certify` live in kernels.py, as the sampled backend
uses them too: `connect` loads no rkhs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .kernels import Kernel, _certify, _project
from .numerics import _finite, hermitian_solve

__all__ = ["SampledRKHS", "RKHSElement", "build_rkhs", "evaluate_element", "project_fiber",
           "universality_residual"]


@dataclass(frozen=True, eq=False)  # identity equality: its fields are arrays
class SampledRKHS:
    kernel: Kernel
    points: tuple
    gram: np.ndarray
    eigenvalues: np.ndarray  # of the Gram, ascending, from its PSD certificate

    @property
    def fiber_dim(self) -> int:
        return self.kernel.fiber_dim

    @cached_property
    def _sample(self) -> tuple:
        """The points as `Domain.stack` checks them, and their coordinate rows: `build_rkhs` hands
        them over, and a space built by hand checks its points here, on first use."""
        stack = self.kernel.domain.stack(self.points)
        return stack, _coordinates(stack)

    def point_index(self, s) -> int:
        """The index of s in the sample: the sample point within 1e-12 of it."""
        x, rows = _coordinates((s,)), self._sample[1]
        close = x.shape == (1, rows.shape[1]) and _close(x, rows)[0]  # False: another size
        if not np.any(close):
            raise KeyError("point is not among the sample points; augment the sample first")
        return int(close.argmax())


@dataclass(frozen=True, eq=False)
class RKHSElement:
    space: SampledRKHS
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        if c.shape != (len(self.space.points) * self.space.fiber_dim,):
            raise ValueError(f"coefficient vector has wrong length {c.shape}")
        if not _finite(c):
            raise ValueError("non-finite coefficients")
        object.__setattr__(self, "coefficients", c)


def _coordinates(pts: Sequence) -> np.ndarray:
    """One point, or a checked stack of points (.p of projectors), as rows."""
    a = np.array([getattr(p, "p", p) for p in pts], dtype=complex)
    return a.reshape(len(pts), a.size // max(len(pts), 1))


def _close(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """close[..., i, j]: rows a[..., i] and b[..., j] are one point, within 1e-12 entry by entry."""
    return np.maximum.reduce(np.abs(a[..., :, None, :] - b[..., None, :, :]), axis=-1,
                             initial=0.0) <= 1e-12


def build_rkhs(k: Kernel, points: Sequence) -> SampledRKHS:
    """Assemble the Gram matrix on distinct sample points, checked once, and certify positivity."""
    if len(pts := tuple(points)) < 1:
        raise ValueError("need at least one point")
    stack = k.domain.stack(pts)
    rows, gram = _coordinates(stack), k._values(one := (stack,), one)[0]  # gram_matrix's bits
    close = _close(rows, rows)
    close.flat[::len(rows) + 1] = False  # symmetric; then off the diagonal
    if np.count_nonzero(close):
        a, b = np.argwhere(close)[0]  # the first pair in row order, so a < b
        raise ValueError(f"duplicate sample points at indices {a} and {b}")
    r = SampledRKHS(k, pts, gram, _certify(gram[None])[0])
    vars(r).update(_sample=(stack, rows))  # the value the cached property derives
    return r


def evaluate_element(f: RKHSElement, s) -> np.ndarray:
    """f(s) = sum_i kappa(s, t_i) c_i, s sampled or not; s is checked, the held sample is not."""
    k = f.space.kernel
    return k._values((k.domain.stack((s,)),), (f.space._sample[0],))[0] @ f.coefficients


def project_fiber(r: SampledRKHS, s, f: RKHSElement) -> RKHSElement:
    """Gram-orthogonal projection of f onto the fiber span at sample point s: `_project`'s
    one-member case, reading kappa(s,s) and f(s) from the Gram matrix."""
    if f.space is not r:
        raise ValueError("element belongs to a different sampled space")
    c = _project(r.gram[None], r.fiber_dim, r.point_index(s), f.coefficients[None, :, None])
    return RKHSElement(r, c[0, :, 0])


def universality_residual(r: SampledRKHS) -> float:
    """max |rows - kappa(s,s) kappa(s,s)^(-1) rows| over the N block rows of the Gram matrix.

    Block row s of the Gram is kappa(s, .); its fiber projection at s has coefficients
    kappa(s,s)^(-1) kappa(s, .), and pairing those with the generators at s multiplies by
    kappa(s,s) again.  So this is an identity of the Gram's own diagonal blocks: for any matrix
    with invertible Hermitian diagonal blocks, Hermitian or not off them, it is rounding, about
    eps times the largest entry.  It does not test the kernel.  All N rows take one stacked solve.
    """
    n, m = len(r.points), r.fiber_dim
    rows = r.gram.reshape(n, m, n * m)
    kss = r.gram.reshape(n, m, n, m)[np.arange(n), :, np.arange(n)]
    return float(np.max(np.abs(rows - kss @ hermitian_solve(kss, rows)), initial=0.0))
