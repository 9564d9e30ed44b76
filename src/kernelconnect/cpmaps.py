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
from typing import Callable, Sequence

import numpy as np

from .kernels import BundleMorphism, Kernel, UnitaryDomain, make_group_kernel, pull_back_kernel
from .numerics import NumericsError, hermitian_eigh
from .grassmann import HermitianProjector, fiber_basis

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


def _matrix_units(n: int):
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            yield e


@dataclass(frozen=True)
class CPMap:
    """A completely positive map M_n -> M_m with PSD Choi matrix.

    `kraus` is derived from the Choi spectrum at construction; `unital` is
    checked (sum K_i K_i* = I_m) and required by the dilation and kernel
    operations.
    """

    input_dim: int
    output_dim: int
    choi: np.ndarray
    kraus: tuple = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.choi, dtype=complex)
        nm = self.input_dim * self.output_dim
        if c.shape != (nm, nm):
            raise NumericsError(f"Choi matrix shape {c.shape} != ({nm},{nm})")
        object.__setattr__(self, "choi", c)
        object.__setattr__(self, "kraus", kraus_from_choi(c, self.input_dim, self.output_dim))

    def apply(self, a) -> np.ndarray:
        """Psi(a) = sum_i K_i a K_i*, extended linearly to all of M_n."""
        am = np.asarray(a, dtype=complex)
        out = np.zeros((self.output_dim, self.output_dim), dtype=complex)
        for k in self.kraus:
            out += k @ am @ k.conj().T
        return out

    @property
    def choi_rank(self) -> int:
        return len(self.kraus)

    def unitality_residual(self) -> float:
        acc = np.zeros((self.output_dim, self.output_dim), dtype=complex)
        for k in self.kraus:
            acc += k @ k.conj().T
        return float(np.linalg.norm(acc - np.eye(self.output_dim)))

    def require_unital(self) -> None:
        res = self.unitality_residual()
        if res > 1e-8:
            raise NumericsError(
                f"map is not unital (||sum K K* - I|| = {res:.3e}); "
                "non-unital inputs are rejected, not normalized")


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
        v = self.v
        return float(np.linalg.norm(v.conj().T @ v - np.eye(self.output_dim)))


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
    nm = n * m
    choi = np.zeros((nm, nm), dtype=complex)
    for k in ks:
        x = k.T.reshape(nm)  # x[(i,j)] = K[j,i]: row-major on C^n (x) C^m
        choi += np.outer(x, x.conj())
    return CPMap(input_dim=n, output_dim=m, choi=choi)


def kraus_from_choi(choi, input_dim: int, output_dim: int) -> tuple:
    """Extract Kraus operators from the Choi spectrum above a relative cut.

    Eigenvalues in (-tau*lam_max, tau*lam_max), tau = CHOI_RANK_TAU, are
    treated as zero; anything more negative signals a non-CP input.
    """
    c = np.asarray(choi, dtype=complex)
    values, vectors = hermitian_eigh(c)
    lam_max = max(float(values[-1]), 0.0) if values.size else 0.0
    cut = CHOI_RANK_TAU * max(lam_max, 1.0)
    if values.size and values[0] < -cut:
        raise NumericsError(
            f"Choi matrix is not PSD (min eigenvalue {values[0]:.3e}); map is not CP")
    ks = []
    for lam, vec in zip(values, vectors.T):
        if lam > cut:
            x = np.sqrt(lam) * vec
            ks.append(x.reshape(input_dim, output_dim).T)
    ks.reverse()  # dominant Kraus operator first
    return tuple(ks)


def stinespring_dilate(psi: CPMap) -> StinespringTriple:
    """Minimal dilation of a unital CP map: V h = sum_i (K_i* h) (x) e_i.

    V is an isometry exactly because the map is unital; r equals the Choi
    rank, which is minimal over all dilations.
    """
    psi.require_unital()
    n, m, r = psi.input_dim, psi.output_dim, psi.choi_rank
    stacked = np.stack([k.conj().T for k in psi.kraus], axis=1)  # (n, r, m)
    v = stacked.reshape(n * r, m)
    return StinespringTriple(v=v, r=r, input_dim=n, output_dim=m)


def verify_dilation(psi: CPMap, triple: StinespringTriple) -> float:
    """max over matrix units a of ||Psi(a) - V* (a (x) I_r) V||."""
    v = triple.v
    res = 0.0
    for a in _matrix_units(psi.input_dim):
        lhs = psi.apply(a)
        rhs = v.conj().T @ triple.lam(a) @ v
        res = max(res, float(np.linalg.norm(lhs - rhs)))
    return res


def cp_kernel(psi: CPMap) -> Kernel:
    """The group-indexed kernel (s, t) -> Psi(s^-1 t) on U(n); kappa(u,u) = I."""
    psi.require_unital()
    return make_group_kernel(psi.input_dim, psi.output_dim, psi.apply,
                             name=f"cp:n={psi.input_dim}")


def lambda_kernel(psi: CPMap, triple: StinespringTriple) -> tuple[Kernel, HermitianProjector]:
    """The compressed dilation kernel (s, t) -> P_S0 lambda(s^-1 t)|_S0.

    S0 = Ran(V V*) inside C^n (x) C^r; fiber coordinates come from the
    deterministic basis of S0, so the returned kernel does not simply restate
    Psi.  Also returns the projector onto S0.
    """
    v = triple.v
    s0 = HermitianProjector(v @ v.conj().T, triple.output_dim)
    b = fiber_basis(s0)
    return make_group_kernel(psi.input_dim, triple.output_dim,
                             lambda x: b.conj().T @ triple.lam(x) @ b,
                             name=f"lambda0:n={psi.input_dim},r={triple.r}"), s0


def cp_classifying_morphism(psi: CPMap, triple: StinespringTriple) -> BundleMorphism:
    """The morphism (id x V, id) written in the fiber coordinates of S0.

    Its fiber map delta = B* V carries Psi-fiber vectors into S0 coordinates;
    pulling lambda_kernel back through it recovers cp_kernel.
    """
    v = triple.v
    s0 = HermitianProjector(v @ v.conj().T, triple.output_dim)
    delta = fiber_basis(s0).conj().T @ v

    return BundleMorphism(zeta=lambda s: s,
                          delta=lambda s: delta,
                          tangent=lambda s, a: a)


def pullback_identity_residual(psi: CPMap, triple: StinespringTriple,
                               unitary_pairs: Sequence[tuple]) -> float:
    """max over sampled pairs of ||(Theta_V* K0_lambda)(s,t) - Psi(s^-1 t)||."""
    k_lam, _ = lambda_kernel(psi, triple)
    theta = cp_classifying_morphism(psi, triple)
    k_psi = cp_kernel(psi)
    pulled = pull_back_kernel(theta, k_lam, fiber_dim=psi.output_dim,
                              domain=k_psi.domain)
    res = 0.0
    for s, t in unitary_pairs:
        res = max(res, float(np.linalg.norm(pulled(s, t) - k_psi(s, t))))
    return res


def cp_covariant_derivative(psi: CPMap, sigma: Callable[[np.ndarray], np.ndarray],
                            u, a) -> np.ndarray:
    """d(sigma) along u e^{ta} plus Psi(a) sigma(u), for anti-Hermitian a."""
    um = np.asarray(u, dtype=complex)
    am = np.asarray(a, dtype=complex)
    dsigma = UnitaryDomain(psi.input_dim).derivative(um, am, sigma)  # checks u and a
    return dsigma + psi.apply(am) @ np.asarray(sigma(um), dtype=complex)


def random_unitary(n: int, seed: int) -> np.ndarray:
    """Deterministic unitary from a seeded complex Gaussian, via QR with fixed phases."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_unital_cpmap(input_dim: int, output_dim: int, n_kraus: int,
                        rng: np.random.Generator) -> CPMap:
    """A random unital CP map: Gaussian Kraus family renormalized so sum K K* = I."""
    ks = [rng.standard_normal((output_dim, input_dim))
          + 1j * rng.standard_normal((output_dim, input_dim)) for _ in range(n_kraus)]
    total = np.zeros((output_dim, output_dim), dtype=complex)
    for k in ks:
        total += k @ k.conj().T
    values, vectors = hermitian_eigh(total)
    inv_sqrt = (vectors * (1.0 / np.sqrt(values))) @ vectors.conj().T
    return choi_from_kraus([inv_sqrt @ k for k in ks])
