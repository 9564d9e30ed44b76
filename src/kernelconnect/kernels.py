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

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .numerics import DEFAULT_STEP, NumericsError, hermitian_eigh

__all__ = [
    "DomainError",
    "Domain",
    "VectorDomain",
    "UnitaryDomain",
    "stencil_sum",
    "Kernel",
    "make_group_kernel",
    "make_bergman_disk",
    "make_bergman_halfplane",
    "make_fock",
    "make_rank_one_kernel",
    "gram_matrix",
    "positivity_certificate",
    "BundleMorphism",
    "pull_back_kernel",
    "admissibility_report",
]

DISK_BOUNDARY_GUARD = 1.0 - 1e-6
EDGE_LAYER = 0.08  # nearer the edge the stencil step shrinks; h holds up to |s| = 0.9 on the disk
_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])  # the stencil's curve parameters, in units of h
_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0])  # its weights, in units of 1 / (12 h)


class DomainError(ValueError):
    """A base point or tangent vector violates its domain constraints."""


def _finite_array(x, what: str) -> np.ndarray:
    """x as a complex array, after rejecting a non-finite entry: residual checks let NaN through."""
    a = np.asarray(x, dtype=complex)
    if not np.isfinite(a).all():
        raise DomainError(f"{what} is not finite")
    return a


def _as_point(s) -> np.ndarray:
    a = np.atleast_1d(np.asarray(s, dtype=complex))
    if a.ndim != 1:
        raise DomainError(f"vector-domain point must be 1-d, got shape {a.shape}")
    return a


class Domain:
    """Base-domain protocol: membership checks and curves with a given 1-jet.  A domain defines
    `check_point` and `check_tangent`, or the `stack` and `jets` whose one-member cases they are."""

    def check_point(self, s) -> None:
        self.stack((s,))

    def check_tangent(self, s, x) -> None:
        self.jets((s,), (x,))

    def curve(self, s, x) -> Callable[[float], object]:
        """A curve gamma with gamma(0) = s and velocity x at t = 0."""
        raise NotImplementedError

    def stack(self, points: Sequence) -> Sequence:
        """The points, each checked once: the one check of a list of points."""
        for p in points:
            self.check_point(p)
        return points

    def jets(self, points: Sequence, directions: Sequence) -> tuple[Sequence, Sequence]:
        """The probes (s_j, x_j), each point and tangent checked once: the one check of a stack of
        probes.  Code past it trusts them, and the curve points that cannot leave the domain."""
        for s, x in zip(points, _paired(points, directions)):
            self.check_point(s)
            self.check_tangent(s, x)
        return points, directions

    def _stencils(self, s: Sequence, x: Sequence, h: float) -> tuple[Sequence, np.ndarray]:
        """The library's one stencil at L checked probes (s_j, x_j): L lists p_j = gamma_j(t h),
        t = -2, -1, 1, 2, on curves gamma_j with those 1-jets, and (L, 4) weights w_j with
        d/dt|0 f(gamma_j(t)) = sum_i w_ji f(p_ji) + O(h^4)."""
        if not h > 0:
            raise NumericsError(f"step must be positive, got {h}")
        return ([list(map(self.curve(p, v), h * _OFFSETS)) for p, v in zip(s, x)],
                np.tile(_WEIGHTS / (12.0 * h), (len(s), 1)))

    def derivatives(self, points: Sequence, directions: Sequence, f: Callable,
                    h: float = DEFAULT_STEP) -> np.ndarray:
        """The (L, ...) stack of d/dt|0 f(gamma_j(t)) at L probes (s_j, x_j), checked by `jets`."""
        return self._derivatives(*self.jets(points, directions), f, h)

    def _derivatives(self, s: Sequence, x: Sequence, f: Callable, h: float) -> np.ndarray:
        """`derivatives` at checked probes."""
        stencils, weights = self._stencils(s, x, h)
        return stencil_sum(weights, [[f(p) for p in ps] for ps in stencils])

    def derivative(self, s, x, f: Callable, h: float = DEFAULT_STEP) -> np.ndarray:
        """d/dt|0 f(gamma(t)) on the curve gamma with the 1-jet (s, x): one-probe `derivatives`."""
        return self.derivatives((s,), (x,), f, h)[0]


def _paired(points: Sequence, directions: Sequence) -> Sequence:
    """The directions of a stack of probes, one per point."""
    if len(points) != len(directions):
        raise DomainError(f"{len(points)} points but {len(directions)} directions")
    return directions


def stencil_sum(weights: np.ndarray, values: Sequence) -> np.ndarray:
    """sum_i w_i v_i in stencil order, for weights (..., 4) and values (..., 4, ...)."""
    v = np.asarray(values, dtype=complex)
    if not np.isfinite(v).all():
        raise NumericsError("non-finite function value at a stencil point")
    w = np.reshape(weights, np.shape(weights) + (1,) * (v.ndim - np.ndim(weights)))
    t = np.moveaxis(w * v, np.ndim(weights) - 1, 0)  # the four terms first
    return ((t[0] + t[1]) + t[2]) + t[3]


@dataclass(frozen=True)
class VectorDomain(Domain):
    """Points in C^d; curves are straight lines s + t*x.

    A bounded domain has one boundary, `edge`: it maps an (N, d) stack to its points' distances
    from the domain's edge, > 0 exactly inside, so it decides membership and sets the stencil
    step of the edge layer.  `reason` says why a point at edge <= 0 is not in the domain.
    """

    dim: int
    name: str = "C^d"
    edge: Optional[Callable[[np.ndarray], np.ndarray]] = None
    reason: Optional[Callable[[np.ndarray], str]] = None

    def stack(self, points: Sequence) -> np.ndarray:
        """Domain.stack as one checked (N, d) complex array; a scalar is a point of C^1."""
        try:
            a = np.array(points, dtype=complex)
        except ValueError:  # ragged: scalars mixed with vectors, or mixed dimensions
            a = [_as_point(p) for p in points]
            bad = [i for i, p in enumerate(a) if p.shape != (self.dim,)]
            if bad:
                raise self._error(f"expected dimension {self.dim}, got {a[bad[0]].shape[0]}",
                                  bad[0], len(a))
            a = np.array(a)
        if a.ndim == 1:  # scalar points, or no points at all
            a = a.reshape((-1, 1) if a.size else (0, self.dim))
        if a.ndim != 2:
            raise DomainError(f"vector-domain point must be 1-d, got shape {a.shape[1:]}")
        if a.shape[1] != self.dim:
            raise self._error(f"expected dimension {self.dim}, got {a.shape[1]}", 0, len(a))
        bad = self._outside(a)
        if bad is not None:
            raise self._error(bad[1], bad[0], len(a))
        return a

    def jets(self, points: Sequence, directions: Sequence) -> tuple[np.ndarray, np.ndarray]:
        """Domain.jets as checked (L, d) stacks of points and directions."""
        s = self.stack(points)
        x = np.array(_paired(s, directions), dtype=complex)
        if not np.isfinite(x).all():  # then name the first probe whose tangent is not
            i = int(np.argmin(np.isfinite(x).reshape(len(x), -1).all(axis=1)))
            raise self._error("tangent is not finite", i, len(x), "probe")
        x = x[:, None] if x.ndim == 1 else x  # scalar tangents of C^1
        if x.ndim != 2:
            raise DomainError(f"vector-domain point must be 1-d, got shape {x.shape[1:]}")
        if x.shape[1] != self.dim:
            raise DomainError(f"{self.name}: tangent dimension {x.shape[1]} != {self.dim}")
        return s, x

    def _error(self, reason: str, i: int, n: int, what: str = "point") -> DomainError:
        """The error of entry i of n, which names the entry when there are several."""
        return DomainError(f"{self.name}: {reason}" + (f" ({what} {i} of {n})" if n > 1 else ""))

    def _outside(self, flat: np.ndarray) -> Optional[tuple[int, str]]:
        """(i, reason) for the first of the (N, d) points outside the domain, or None."""
        if not np.isfinite(flat).all():
            return int(np.argmin(np.isfinite(flat).all(axis=1))), "non-finite point"
        if self.edge is not None and len(flat):
            d = self.edge(flat)
            if not d.min() > 0:  # then name the first point at edge <= 0
                i = int(np.argmin(d > 0))
                return i, self.reason(flat[i])

    def _stencils(self, s: np.ndarray, x: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
        """Domain._stencils as arrays at checked (L, d) probes: (L, 4, d) stencil points and
        (L, 4) weights.

        h shrinks in proportion to an edge distance d < EDGE_LAYER.  Where h |x| <= 1e-12 the
        stencil would collapse (1e-12 rule): it runs along x / |x| (e_1 at x = 0), its weights
        times |x|.  A straight line can leave the domain, so the stencil points are checked once;
        an error names the stencil point and its probe.
        """
        if not h > 0:
            raise NumericsError(f"step must be positive, got {h}")
        # the distance d to the edge, > 0 at a checked point; inf on an unbounded domain
        d = np.full((len(s), 1), np.inf) if self.edge is None else self.edge(s)[:, None]
        step = np.where(d < EDGE_LAYER, h * d / EDGE_LAYER, h)
        weights = _WEIGHTS / (12.0 * step)
        size = np.abs(x).max(axis=1, initial=0.0)[:, None]
        tiny = step * size <= 1e-12
        if tiny.any():  # the derivative is real-linear in x
            unit = (x + (size == 0) * np.eye(1, x.shape[1])) / np.where(size > 0, size, 1.0)
            x = np.where(tiny, unit, x)
            weights = np.where(tiny, weights * size, weights)
        stencils = s[:, None] + (step * _OFFSETS)[..., None] * x[:, None]
        bad = self._outside(stencils.reshape(-1, self.dim))
        if bad is not None:
            j, i = divmod(bad[0], len(_OFFSETS))
            raise DomainError(f"{self.name}: {bad[1]} (stencil point {i} of probe {j})")
        return stencils, weights

    def curve(self, s, x) -> Callable[[float], np.ndarray]:
        s0 = _as_point(s)
        x0 = _as_point(x)
        return lambda t: s0 + t * x0


# the disk's edge distance: |s| by hypot, which rounds as abs does on one point (numpy's abs of an
# array may not); a point inside the guard circle |s| = 1 - 1e-6 has edge > 0
_disk_edge = lambda s: DISK_BOUNDARY_GUARD - np.hypot(s[:, 0].real, s[:, 0].imag)  # noqa: E731
_disk_reason = lambda s: f"|s| = {abs(s[0]):.8f} is too close to the unit circle"  # noqa: E731
_halfplane_edge = lambda z: z[:, 0].imag  # noqa: E731
_halfplane_reason = lambda z: f"Im z = {z[0].imag:.3e} must be positive"  # noqa: E731


@dataclass(frozen=True)
class UnitaryDomain(Domain):
    """Points are n x n unitary matrices; tangents anti-Hermitian matrices.

    Curves are u exp(t a), exponentiated through one eigendecomposition.
    """

    n: int
    name: str = "U(n)"

    def check_point(self, u) -> None:
        m = _finite_array(u, f"{self.name}: point")
        if m.shape != (self.n, self.n):
            raise DomainError(f"{self.name}: expected {self.n}x{self.n} matrix, got {m.shape}")
        res = np.linalg.norm(m.conj().T @ m - np.eye(self.n))
        if res > 1e-10:
            raise DomainError(f"{self.name}: not unitary, ||u*u - I|| = {res:.3e}")

    def check_tangent(self, u, a) -> None:
        m = _finite_array(a, f"{self.name}: tangent")
        if m.shape != (self.n, self.n):
            raise DomainError(f"{self.name}: tangent shape {m.shape} != ({self.n},{self.n})")
        res = np.linalg.norm(m + m.conj().T)
        if res > 1e-10:
            raise DomainError(f"{self.name}: tangent not anti-Hermitian, ||a + a*|| = {res:.3e}")

    def curve(self, u, a) -> Callable[[float], np.ndarray]:
        # a = iH with H = -ia Hermitian, so exp(ta) = V diag(e^{itw}) V* is exact and unitary
        u0 = np.asarray(u, dtype=complex)
        w, v = hermitian_eigh(-1j * np.asarray(a, dtype=complex))
        return lambda t: u0 @ (v * np.exp(1j * t * w)) @ v.conj().T


@dataclass(frozen=True)
class Kernel:
    """An operator-valued kernel with optional analytic second-slot derivative.

    `eval` returns the M x M matrix kappa(s, t).  `d2`, when present, returns
    the real-linear directional derivative of t -> kappa(s, t) in direction x
    (a conjugate-linear expression for the anti-holomorphic built-ins).
    Kernels lacking `d2` fall back to the stencil, read from one `_values` call.
    `batch`, when present, maps point arrays of a VectorDomain, coordinates on
    the last axis and leading axes broadcast, to a scalar kernel's values; its
    `d2` then maps (s, t, x) arrays the same way.  Every entry must depend on
    its own points alone, bit for bit, whatever the shapes are, given one
    leading axis at least (numpy's 0-d scalar arithmetic may round otherwise).
    """

    fiber_dim: int
    domain: Domain
    eval: Callable[[object, object], np.ndarray]
    d2: Optional[Callable[[object, object, object], np.ndarray]] = None
    name: str = "kernel"
    batch: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __call__(self, s, t) -> np.ndarray:
        return self.block(ss := (s,), ss if t is s else (t,))

    def _finite(self, out: np.ndarray, what: str = "value") -> np.ndarray:
        if not np.isfinite(out).all():
            raise NumericsError(f"{self.name}: kernel {what} is not finite")
        return out

    def block(self, ss: Sequence, ts: Sequence) -> np.ndarray:
        """The len(ss)*M x len(ts)*M matrix of blocks kappa(ss[l], ts[j]): the one-member `_values`
        of the points after `Domain.stack` checks each once, all of them once when ts is ss."""
        one = (self.domain.stack(ss),)
        return self._values(one, one if ts is ss else (self.domain.stack(ts),))[0]

    def _values(self, ss: Sequence, ts: Sequence) -> np.ndarray:
        """The (L, aM, bM) stack of the blocks kappa(ss[j], ts[j]), j < L, for members of a and b
        checked points.  Every kernel value is evaluated here, by one `batch` expression on
        (L, a, d) arrays or one loop over `eval`."""
        if self.batch is not None:
            s = np.asarray(ss, dtype=complex)
            t = s if ts is ss else np.asarray(ts, dtype=complex)
            a, b = s.shape[1], t.shape[1]  # members of one point need fewer axes to broadcast
            if a == b == 1:
                s, t = s[:, 0], t[:, 0]
            elif a > 1 and b > 1:
                s, t = s[:, :, None], t[:, None]
            return self._finite(self.batch(s, t).reshape(len(s), a, b))
        m, (a, b) = self.fiber_dim, (len(x[0]) if len(x) else 0 for x in (ss, ts))
        out = np.array([[[self.eval(p, q) for q in tj] for p in sj] for sj, tj in zip(ss, ts)],
                       dtype=complex).reshape(len(ss), a, b, m, m).swapaxes(2, 3)
        return self._finite(out.reshape(len(ss), a * m, b * m))

    def diagonal_jet(self, points: Sequence, directions: Sequence,
                     h: float = DEFAULT_STEP) -> tuple[np.ndarray, np.ndarray]:
        """The (L, M, M) stacks kappa(s_j, s_j) and d2_kappa(s_j, s_j)(x_j): the `_jet` of the
        probes, checked once by `jets`."""
        return self._jet(*self.domain.jets(points, directions), h)

    def _jet(self, s: Sequence, x: Sequence, h: float) -> tuple[np.ndarray, np.ndarray]:
        """diagonal_jet at checked probes: kappa(s_j, s_j) from one `_values` call, and `d2` at
        all L probes at once or, without it, the stencil, read from a second one."""
        m, ss = self.fiber_dim, _members(s)
        kss = self._values(ss, ss)
        if self.d2 is None:
            stencils, weights = self.domain._stencils(s, x, h)
            values = self._values(ss, stencils).reshape(len(ss), m, 4, m).swapaxes(1, 2)
            return kss, stencil_sum(weights, values)
        args = ((s, s, x),) if self.batch is not None else zip(s, s, x)  # (L, d) arrays for batch
        out = np.array([self.d2(*a) for a in args], dtype=complex)
        return kss, self._finite(out, "derivative").reshape(len(ss), m, m)


def _members(s: Sequence) -> Sequence:
    """The one-member stacks (s_j,) of a stack of points; an (L, 1, d) view of an (L, d) array."""
    return s[:, None] if isinstance(s, np.ndarray) else [(p,) for p in s]


def _polar(mag: np.ndarray, phase: np.ndarray) -> np.ndarray:  # mag e^{i phase}, part by part
    out = np.empty(mag.shape, dtype=complex)
    np.multiply(mag, np.cos(phase), out=out.real)
    np.multiply(mag, np.sin(phase), out=out.imag)
    return out


def _times(a: np.ndarray, fr, fi) -> np.ndarray:  # a (fr + i fi), part by part
    out = np.empty(a.shape, dtype=complex)
    np.subtract(a.real * fr, a.imag * fi, out=out.real)
    np.add(a.real * fi, a.imag * fr, out=out.imag)
    return out


# Batch and d2 formulas use real elementwise arithmetic and sum coordinates along
# the last axis of a fresh array.  numpy's complex multiply and BLAS round differently
# with the shape; these do not, so every entry of a stack has the bits of its 1 x 1.

def _scalar_kernel(domain: VectorDomain, batch, d2, name: str) -> Kernel:
    ev = lambda s, t: batch(_as_point(s)[None], _as_point(t)[None]).reshape(1, 1)  # noqa: E731
    return Kernel(1, domain, ev, d2, name=name, batch=batch)


def make_bergman_disk(nu: float) -> Kernel:
    """Weighted Bergman kernel (1 - conj(t) s)^(-nu) on the unit disk; nu=1 is Hardy."""
    if not (np.isfinite(nu) and nu >= 1):
        raise ValueError(f"nu must be finite and >= 1, got {nu}")
    domain = VectorDomain(1, "unit disk", _disk_edge, _disk_reason)

    def power(s, t, p):
        # b = 1 - s conj(t) = (1 - (sr tr + si ti)) + i (sr ti - si tr); b^-p in polar form
        sr, si, tr, ti = s.real[..., 0], s.imag[..., 0], t.real[..., 0], t.imag[..., 0]
        br = 1.0 - (sr * tr + si * ti)
        bi = sr * ti - si * tr
        return _polar((br * br + bi * bi) ** (-0.5 * p), -p * np.arctan2(bi, br))

    def d2(s, t, x):  # nu s conj(x) b^-(nu+1)
        sr, si, xr, xi = s.real[..., 0], s.imag[..., 0], x.real[..., 0], x.imag[..., 0]
        return _times(power(s, t, nu + 1), nu * (sr * xr + si * xi), nu * (si * xr - sr * xi))

    return _scalar_kernel(domain, lambda s, t: power(s, t, nu), d2,
                          f"bergman-disk:nu={float(nu)!r}".removesuffix(".0"))


def make_bergman_halfplane(nu: float) -> Kernel:
    """Weighted Bergman kernel (1/4)(2i)^nu (z - conj(w))^(-nu) on the upper half-plane."""
    # |(2i)^nu| = 2^nu overflows a float from nu = 1024 on
    if not (np.isfinite(nu) and 1 <= nu < 1024):
        raise ValueError(f"nu must be finite and in [1, 1024), got {nu}")
    domain = VectorDomain(1, "upper half-plane", _halfplane_edge, _halfplane_reason)

    def power(z, w, p):
        # (2i/b)^p / 4 with b = z - conj(w), Im b > 0; arg(2i/b) = atan2(Re b, Im b)
        br = z.real[..., 0] - w.real[..., 0]
        bi = z.imag[..., 0] + w.imag[..., 0]
        return _polar(0.25 * (4.0 / (br * br + bi * bi)) ** (0.5 * p), p * np.arctan2(br, bi))

    def d2(z, w, x):  # nu conj(x) (2i)^nu b^-(nu+1) / 4 = power(nu + 1) nu conj(x) / 2i
        return _times(power(z, w, nu + 1), -0.5 * nu * x.imag[..., 0], -0.5 * nu * x.real[..., 0])

    return _scalar_kernel(domain, lambda z, w: power(z, w, nu), d2,
                          f"bergman-halfplane:nu={float(nu)!r}".removesuffix(".0"))


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
    b_re, b_im = b.real, b.imag

    def form(z, w):
        # real and imaginary parts of beta: v = B conj(w), then sum_j z_j v_j
        wr, wi, zr, zi = w.real[..., None, :], w.imag[..., None, :], z.real, z.imag
        vr, vi = (b_re * wr + b_im * wi).sum(-1), (b_im * wr - b_re * wi).sum(-1)
        return (zr * vr - zi * vi).sum(-1), (zr * vi + zi * vr).sum(-1)

    def batch(z, w):
        re, im = form(z, w)
        return _polar(np.exp(re), im)

    def d2(z, w, x):  # exp(beta(z, w)) beta(z, x)
        return _times(batch(z, w), *form(z, x))

    return _scalar_kernel(domain, batch, d2, f"fock:dim={dim}")


def make_group_kernel(n: int, fiber_dim: int, compress: Callable[[np.ndarray], np.ndarray],
                      name: str) -> Kernel:
    """Group-indexed kernel kappa(u, v) = compress(u* v) on the unitary group U(n).

    compress must be linear, so that d2 along v exp(t a) is compress(u* v a).
    """

    def uv(u, v):
        return np.asarray(u, dtype=complex).conj().T @ np.asarray(v, dtype=complex)

    return Kernel(fiber_dim, UnitaryDomain(n), lambda u, v: compress(uv(u, v)),
                  lambda u, v, a: compress(uv(u, v) @ np.asarray(a, dtype=complex)), name=name)


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
    return k.block(points, points)


def positivity_certificate(g, tol: float = 1e-9) -> tuple[bool, float]:
    """Check a Gram matrix for positive semidefiniteness by its spectrum.

    Returns (is_psd, min_eigenvalue); is_psd holds iff the minimum eigenvalue
    is >= -tol * max(1, lambda_max).  The one-matrix case of `_psd_spectra`.
    """
    values, is_psd = _psd_spectra(np.asarray(g, dtype=complex)[None], tol)
    return bool(is_psd[0]), float(values[0, 0])


def _psd_spectra(grams, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """The ascending spectra of an (L, N, N) stack of Hermitian (within tol) Gram matrices, and
    whether each is PSD: its minimum eigenvalue >= -tol * max(1, lambda_max)."""
    a = np.asarray(grams, dtype=complex)
    herm_res = np.linalg.norm(a - np.swapaxes(a.conj(), -1, -2), axis=(-2, -1))
    if np.any(herm_res > tol * np.maximum(1.0, np.linalg.norm(a, axis=(-2, -1)))):
        raise NumericsError(f"Gram matrix not Hermitian, ||G - G*|| = {herm_res.max():.3e}")
    values, _ = hermitian_eigh(a)
    return values, values[:, 0] >= -tol * np.maximum(1.0, values[:, -1])


@dataclass(frozen=True)
class BundleMorphism:
    """A bundle map (delta, zeta): fiberwise matrices delta_s over a base map zeta.

    `tangent` maps (s, x) to the image direction of x under the base map; it
    is required only for pulling back connections, not kernels.
    """

    zeta: Callable[[object], object]
    delta: Callable[[object], np.ndarray]
    tangent: Optional[Callable[[object, object], object]] = None

    def fiber_map(self, s) -> np.ndarray:
        return np.atleast_2d(np.asarray(self.delta(s), dtype=complex))


def pull_back_kernel(theta: BundleMorphism, k_target: Kernel, fiber_dim: int,
                     domain: Domain, name: str = "") -> Kernel:
    """Pull a kernel back along a bundle morphism:

        (theta* k)(s, t) = delta_s* . k(zeta(s), zeta(t)) . delta_t
    """

    def ev(s, t):
        ds = theta.fiber_map(s)
        dt = theta.fiber_map(t)
        core = k_target(theta.zeta(s), theta.zeta(t))
        if ds.shape[0] != core.shape[0] or dt.shape[0] != core.shape[1]:
            raise DomainError(
                f"fiber map shape {ds.shape} incompatible with target fiber "
                f"dimension {k_target.fiber_dim}")
        return ds.conj().T @ core @ dt

    return Kernel(fiber_dim, domain, ev, name=name or f"pullback({k_target.name})")


def admissibility_report(k: Kernel, points: Sequence) -> dict:
    """Diagnostics for kernel admissibility on a finite sample.

    Reports the smallest eigenvalue of kappa(s,s) over the sample, read from the
    diagonal blocks of the assembled Gram matrix, and the maximal Hermitian-symmetry
    residual.  The RKHS embedding lower bound, min over unit fiber vectors v of
    ||K^(s,v)||^2 = v* kappa(s,s) v, is that same eigenvalue: `min_sigma` and
    `embedding_lower_bound` agree by construction.
    """
    if len(points) < 2:
        raise ValueError("need at least two points")
    n, m = len(points), k.fiber_dim
    gram = gram_matrix(k, points).reshape(n, m, n, m)
    lowest = float(np.min(hermitian_eigh(gram[np.arange(n), :, np.arange(n)])[0][:, 0]))
    # block (i, j) of G* - G is kappa(t_j, t_i)* - kappa(t_i, t_j)
    sym = gram.transpose(2, 3, 0, 1).conj() - gram
    return {
        "min_sigma": lowest,
        "embedding_lower_bound": lowest,
        "hermitian_symmetry_residual": float(np.max(np.linalg.norm(sym, axis=(1, 3)))),
    }
