"""Completely positive maps on matrix algebras and their dilation geometry.

A CP map Psi: M_n -> M_m is stored through its Choi matrix
C = sum_ij E_ij (x) Psi(E_ij) on C^n (x) C^m with row-major tensor ordering;
Kraus operators are extracted from the Choi spectrum.  The minimal dilation
factors Psi(a) = V* (a (x) I_r) V with V h = sum_i (K_i* h) (x) e_i and
r equal to the Choi rank.  Unital maps give group-indexed kernels
(s, t) -> Psi(s^-1 t), whose covariant derivative is d(sigma) + Psi(a) sigma.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .kernels import BundleMorphism, Kernel, _dilation_kernel, _frobenius, pull_back_kernel
from .numerics import NumericsError, _max_norm, _normals, hermitian_eigh, random_unitary
from .connections import Section
from .grassmann import HermitianProjector, _group_jets, fiber_basis

__all__ = [
    "CPMap",
    "StinespringTriple",
    "choi_from_kraus",
    "kraus_from_choi",
    "pullback_identity_residual",
    "stinespring_dilate",
    "verify_dilation",
    "cp_kernel",
    "lambda_kernel",
    "cp_classifying_morphism",
    "cp_covariant_derivative",
    "random_unitary",
    "random_unital_cpmap",
]

CHOI_RANK_TAU = 1e-10


@dataclass(frozen=True)
class CPMap:
    """A completely positive map M_n -> M_m with PSD Choi matrix.

    `kraus`, the (r, m, n) stack of Kraus operators, is derived from the Choi
    spectrum at construction.  The dilation and kernel operations require the
    map unital, sum K_i K_i* = I_m, and check it (`_dilate`).
    """

    input_dim: int
    output_dim: int
    choi: np.ndarray
    kraus: np.ndarray = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.choi, dtype=complex)
        nm = self.input_dim * self.output_dim
        if c.shape != (nm, nm):
            raise NumericsError(f"Choi matrix shape {c.shape} != ({nm},{nm})")
        object.__setattr__(self, "choi", c)
        object.__setattr__(self, "kraus", kraus_from_choi(c, self.input_dim, self.output_dim))

    def apply(self, a) -> np.ndarray:
        """Psi(a) = sum_i K_i a K_i*, extended linearly to M_n, at a or an (..., n, n) stack: one
        stacked product, summed in Kraus order from zero."""
        return _apply(self.kraus, a)

    @property
    def choi_rank(self) -> int:
        return len(self.kraus)


@dataclass(frozen=True)
class StinespringTriple:
    """Minimal dilation data: isometry V, dilation index r, lambda(a) = a (x) I_r."""

    v: np.ndarray
    r: int
    input_dim: int
    output_dim: int

    def lam(self, a) -> np.ndarray:
        return np.kron(np.asarray(a, dtype=complex), np.eye(self.r))

    def isometry_residual(self) -> float:
        return float(np.linalg.norm(self.v.conj().T @ self.v - np.eye(self.output_dim)))

    @cached_property
    def _s0(self) -> tuple[HermitianProjector, np.ndarray]:
        """The projector onto S0 = Ran(V V*) and its fiber basis, built once per triple."""
        s0 = HermitianProjector(self.v @ self.v.conj().T, self.output_dim)
        return s0, fiber_basis(s0)


def choi_from_kraus(kraus: Sequence[np.ndarray]) -> CPMap:
    """Assemble the Choi matrix of a_ij -> sum_k K a K* from Kraus operators.

    Kraus operators are re-extracted from the Choi spectrum, so redundant
    families collapse to a minimal one.
    """
    ks = [np.asarray(k, dtype=complex) for k in kraus]
    if not ks:
        raise ValueError("need at least one Kraus operator")
    m, n = ks[0].shape
    if any(k.shape != (m, n) for k in ks):
        raise ValueError("inconsistent Kraus operator shapes")
    return CPMap(input_dim=n, output_dim=m, choi=_chois(np.array(ks)))


def _chois(kraus: np.ndarray) -> np.ndarray:
    """The (..., nm, nm) Choi matrices of (..., r, m, n) Kraus stacks, summed from zero in order."""
    x = kraus.swapaxes(-1, -2).reshape(kraus.shape[:-2] + (-1,))  # x[(i,j)] = K[j,i]
    return (x[..., :, None] * x[..., None, :].conj()).sum(axis=-3, initial=0.0)


def kraus_from_choi(choi, input_dim: int, output_dim: int) -> np.ndarray:
    """Extract the (r, m, n) stack of Kraus operators from the Choi spectrum above a relative cut,
    dominant first.

    Eigenvalues in (-tau*lam_max, tau*lam_max), tau = CHOI_RANK_TAU, are
    treated as zero; anything more negative signals a non-CP input, and so does a C
    that is not Hermitian: ||C - C*|| > 1e-10 max(1, ||C||).
    """
    c = np.asarray(choi, dtype=complex)
    values, vectors = hermitian_eigh(c)  # c is a finite square matrix
    u = c / (scale := max(float(np.abs(c).max(initial=0.0)), 1.0))  # entries at most 1: no overflow
    if (res := _frobenius(u - u.conj().T) / max(_frobenius(u), 1.0 / scale)) > 1e-10:
        raise NumericsError(
            f"Choi matrix is not Hermitian (||C - C*|| / max(1, ||C||) = {res:.3e}); map is not CP")
    lam_max = max(float(values[-1]), 0.0) if values.size else 0.0
    cut = CHOI_RANK_TAU * max(lam_max, 1.0)
    if values.size and values[0] < -cut:
        raise NumericsError(
            f"Choi matrix is not PSD (min eigenvalue {values[0]:.3e}); map is not CP")
    keep = values > cut  # dominant first; each K_i is the transpose of its (n, m) block
    x = np.ascontiguousarray((np.sqrt(values[keep]) * vectors[:, keep]).T[::-1])
    return x.reshape(-1, input_dim, output_dim).transpose(0, 2, 1)


def _apply(kraus: np.ndarray, a) -> np.ndarray:
    """sum_i K_i a K_i* for (..., r, m, n) Kraus stacks and an (..., n, n) stack a, broadcast."""
    terms = kraus @ np.asarray(a, dtype=complex)[..., None, :, :] @ kraus.conj().swapaxes(-1, -2)
    return terms.sum(axis=-3, initial=0.0)


def stinespring_dilate(psi: CPMap) -> StinespringTriple:
    """Minimal dilation of a unital CP map: V h = sum_i (K_i* h) (x) e_i; the one-map `_dilate`.

    V is an isometry exactly because the map is unital; r equals the Choi
    rank, which is minimal over all dilations.
    """
    return _dilate([psi])[0][0]


def _kraus(maps: Sequence[CPMap]) -> np.ndarray:
    """The (L, r, m, n) Kraus stack of L >= 1 maps of one Kraus shape; two shapes are an error."""
    if len(shapes := dict.fromkeys(p.kraus.shape for p in maps)) != 1:
        raise ValueError("empty stack of CP maps: nothing to dilate" if not shapes else
                         f"unequal Kraus shapes {', '.join(map(str, shapes))}: one stack per shape")
    return np.array([p.kraus for p in maps])


def _dilate(maps: Sequence[CPMap]) -> tuple[list, float]:
    """stinespring_dilate of each of L maps of one Kraus shape, and the max of their
    isometry_residual: one stacked V and one ||V*V - I||, which is ||sum K K* - I||, the unitality
    check."""
    r, m, n = (k := _kraus(maps)).shape[1:]
    v = k.conj().transpose(0, 3, 1, 2).reshape(len(k), n * r, m)  # from (n, r, m)
    if not (res := _max_norm(v.conj().swapaxes(-1, -2) @ v - np.eye(m))) <= 1e-8:
        raise NumericsError(f"map is not unital (||sum K K* - I|| = {res:.3e}); "
                            "non-unital inputs are rejected, not normalized")
    return [StinespringTriple(v=vj, r=r, input_dim=n, output_dim=m) for vj in v], res


def verify_dilation(psi: CPMap, triple: StinespringTriple) -> float:
    """max over matrix units a of ||Psi(a) - V* (a (x) I_r) V||: one-map `_dilation_residual`."""
    return _dilation_residual([psi], [triple])


def _dilation_residual(maps: Sequence[CPMap], triples: Sequence) -> float:
    """The max of verify_dilation over L maps of one Kraus shape (their triples alike), with its
    bits: Psi(a) and V* (a (x) I_r) V at all n^2 matrix units a in one stack."""
    k, v = _kraus(maps), np.array([t.v for t in triples])
    units = np.eye((n := k.shape[-1]) ** 2, dtype=complex).reshape(-1, n, n)
    # (a (x) I_r) V is a times V read as n x rm, as in kernels._dilation_kernel: no (nr, nr) lam(a)
    lam_v = (units @ v.reshape(len(v), 1, n, -1)).reshape(len(v), n * n, *v.shape[1:])
    lam = v.conj().swapaxes(-1, -2)[:, None] @ lam_v
    return float(np.max(np.linalg.norm(_apply(k[:, None], units) - lam, axis=(-2, -1))))


def cp_kernel(psi: CPMap) -> Kernel:
    """The group-indexed kernel (s, t) -> Psi(s^-1 t) on U(n); kappa(u,u) = I.  Its feature map
    is the dilation u -> (u (x) I_r) V, so that kappa(s, t) = V* (s* t (x) I_r) V."""
    return _dilation_kernel(stinespring_dilate(psi).v, psi.input_dim, f"cp:n={psi.input_dim}")


def lambda_kernel(psi: CPMap, triple: StinespringTriple) -> tuple[Kernel, HermitianProjector]:
    """The compressed dilation kernel (s, t) -> P_S0 lambda(s^-1 t)|_S0.

    S0 = Ran(V V*) inside C^n (x) C^r; fiber coordinates come from the
    deterministic basis B of S0, so the returned kernel does not simply restate
    Psi: its feature map is u -> (u (x) I_r) B.  Also returns the projector onto S0.
    """
    s0, b = triple._s0
    return _dilation_kernel(b, psi.input_dim, f"lambda0:n={psi.input_dim},r={triple.r}"), s0


def cp_classifying_morphism(psi: CPMap, triple: StinespringTriple) -> BundleMorphism:
    """The morphism (id x V, id) written in the fiber coordinates of S0.

    Its fiber map delta = B* V carries Psi-fiber vectors into S0 coordinates;
    pulling lambda_kernel back through it recovers cp_kernel.
    """
    delta = triple._s0[1].conj().T @ triple.v
    return BundleMorphism(zeta=lambda s: s, delta=lambda s: delta, tangent=lambda s, a: a)


def pullback_identity_residual(psi: CPMap, triple: StinespringTriple,
                               unitary_pairs: Sequence[tuple]) -> float:
    """max over sampled pairs of ||(Theta_V* K0_lambda)(s,t) - Psi(s^-1 t)||: the pairs checked once
    as one stack, and Psi(s^-1 t) from one `_values` call."""
    if not len(unitary_pairs):
        raise ValueError("need at least one pair of unitaries")
    k_lam, _ = lambda_kernel(psi, triple)
    theta = cp_classifying_morphism(psi, triple)
    k_psi = cp_kernel(psi)
    pulled = pull_back_kernel(theta, k_lam, fiber_dim=psi.output_dim, domain=k_psi.domain)
    us = k_psi.domain.stack([u for pair in unitary_pairs for u in pair])[:, None]
    return _max_norm(pulled._values(us[0::2], us[1::2]) - k_psi._values(us[0::2], us[1::2]))


def cp_covariant_derivative(psi: CPMap, sigma: Callable[[np.ndarray], np.ndarray],
                            u, a) -> np.ndarray:
    """d(sigma) along u e^{ta} plus Psi(a) sigma(u), for anti-Hermitian a: the one-probe
    `_cp_covariant` of Section(F=sigma)."""
    return _cp_covariant(psi, Section(F=sigma), (u,), (a,))[0]


def _cp_covariant(psi: CPMap, sigma: Section, us: Sequence, xs: Sequence) -> np.ndarray:
    """The (L, m) derivatives at L probes (u_j, a_j), from one U(n) stencil stack."""
    dsigma, value, a = _group_jets(sigma, us, xs, psi.input_dim, psi.output_dim)
    return dsigma + (psi.apply(a) @ value[..., None])[..., 0]


def random_unital_cpmap(input_dim: int, output_dim: int, n_kraus: int,
                        rng: np.random.Generator) -> CPMap:
    """A random unital CP map: Gaussian Kraus family renormalized so sum K K* = I; the one-map
    `_random_unital_cpmaps`."""
    return _random_unital_cpmaps(input_dim, output_dim, n_kraus, rng, 1)[0]


def _random_unital_cpmaps(n: int, m: int, n_kraus: int, rng, count: int) -> list:
    """`count` maps from one draw, the stream of as many random_unital_cpmap calls: normalized by
    one stacked hermitian_eigh and their Choi matrices assembled in one expression."""
    if n_kraus * n < m:  # sum K K* has rank at most n_kraus n < m: singular, no unital rescaling
        raise ValueError(f"a unital map needs n_kraus * input_dim >= output_dim, got "
                         f"{n_kraus} * {n} < {m}")
    k = _normals(rng, count * n_kraus, (m, n)).reshape(count, n_kraus, m, n)
    values, vectors = hermitian_eigh((k @ k.conj().swapaxes(-1, -2)).sum(axis=1, initial=0.0))
    inv_sqrt = (vectors * (1.0 / np.sqrt(values))[:, None]) @ vectors.conj().swapaxes(-1, -2)
    return [CPMap(n, m, c) for c in _chois(inv_sqrt[:, None] @ k)]
