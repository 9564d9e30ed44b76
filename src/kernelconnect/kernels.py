"""Operator-valued positive-definite kernels and the classical examples.

A kernel is a map kappa(s, t) -> M x M complex matrix over some base domain,
Hermitian in the sense kappa(s,t)* = kappa(t,s), with PSD Gram matrices on
finite point families.  Built-ins: weighted Bergman kernels on the disk and
the upper half-plane (nu=1 is the Hardy member of each family) and the Fock
kernel exp(beta(z,w)) for a PSD Hermitian form beta.

Base points are plain values: complex vectors for C^d domains, unitary
matrices for group-indexed kernels, Hermitian projectors for the Grassmann
kernel (see grassmann.py).  Tangent directions mirror the point flavor and
are treated as real-linear directions.  Also here: the PSD certificate of a Gram
stack and its fiber projection, which rkhs.py and the sampled backend share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from typing import Callable, Optional, Sequence

import numpy as np

from .numerics import (DEFAULT_STEP, NumericsError, _as_matrix, _eigh, _finite, _solve,
                       hermitian_eigh)

__all__ = [
    "DomainError",
    "Domain",
    "VectorDomain",
    "UnitaryDomain",
    "stencil_sum",
    "Kernel",
    "feature_kernel",
    "make_bergman_disk",
    "make_bergman_halfplane",
    "make_fock",
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
_MAX_STEP = EDGE_LAYER / 8  # 0.01, the largest h: 2 h <= EDGE_LAYER / 4 keeps stencils inside


class DomainError(ValueError):
    """A base point or tangent vector violates its domain constraints."""


def _finite_array(x, what: str) -> np.ndarray:
    """x as a complex array, after rejecting a non-finite entry: residual checks let NaN through."""
    a = np.asarray(x, dtype=complex)
    if not _finite(a):
        raise DomainError(f"{what} is not finite")
    return a


def _kept(method: Callable) -> Callable:
    """method(owner, s, x, h), a stencil, jet or section sample at checked probe arrays s and x,
    after the one check of its step, 0 < h <= _MAX_STEP, kept in the one slot of the method: the
    last result, its arrays read-only, keyed by the owner's value (equal owners share it), type(h),
    h and the dtypes, shapes and bytes of s and x.  An object array's bytes are its members'
    addresses (Gr(k, n) keys by identity, and no member's == runs), so the slot holds s and x: no
    keyed object is freed, its address reused, while it keys the slot.  One tuple store replaces
    the slot; a call that raises keeps nothing."""
    slot = [None]
    def kept(owner, s, x, h):
        if not 0 < h <= _MAX_STEP:
            raise NumericsError(f"step must be positive and at most {_MAX_STEP}, got {h}")
        key = (owner, type(h), h, s.dtype, s.shape, s.tobytes(), x.dtype, x.shape, x.tobytes())
        held = slot[0]
        if held is None or held[0] != key:
            out = method(owner, s, x, h)
            for a in out:
                a.flags.writeable = False
            held = slot[0] = (key, out, s, x)
        return held[1]
    return wraps(method)(kept)


def _frobenius(m: np.ndarray) -> np.ndarray:
    """np.linalg.norm(m, axis=(-2, -1)), with its bits, without its Python-level checks."""
    return np.sqrt(np.add.reduce((m.conj() * m).real, axis=(-2, -1)))


def _as_point(s) -> np.ndarray:
    a = np.atleast_1d(np.asarray(s, dtype=complex))
    if a.ndim != 1:
        raise DomainError(f"vector-domain point must be 1-d, got shape {a.shape}")
    return a


class Domain:
    """Base-domain protocol: membership checks and the library's one stencil.  A domain with a
    `name` defines `stack(points)` and `jets(points, directions)`, the one check of a list of
    points and of a stack of probes (s_j, x_j), into (N, ...) arrays, each point and tangent
    checked once (C^d and U(n) read them by `_entries`; code past them trusts the probes and their
    stencils); and `_stencils(s, x, h)`: at L checked probes and 0 < h <= 0.01, at once, the (L, 4,
    ...) points gamma_j(t step), t = -2, -1, 1, 2, inside the domain, on curves with the 1-jets
    (s_j, x_j / |x_j|), s_j at x_j = 0, and the (L, 4) weights of d/dt f(gamma_j), by `_rule`."""

    _step = staticmethod(lambda s, h: h)  # the step at L checked points, where no edge shrinks h
    _axes = 0  # a point's trailing axes in `stack`'s array: 0 for object arrays, else set

    def _rule(self, s, x: np.ndarray, h: float) -> tuple:
        """The stencil rule of every domain, at L checked probes with (L, D) flat tangents x: the
        `_step` (at most h), the (L, 4) weights times |x|, |x| the largest entry modulus, and the
        directions x / |x|, divided part by part: 0 at x = 0, whose four points are the probe and
        whose weights are (+0, -0, +0, -0).
        h comes in (0, 0.01], checked by `_kept`; an error names the probe whose step is under 1e6
        ulps of max(1, its largest entry modulus) or whose |x| is over 1e308 steps."""
        step = self._step(s, h)
        self._refuse(step < 2.2e-10 * np.maximum(np.abs(s).reshape(-1, x.shape[1]), 1.0),
                     lambda j: f"stencil step {np.resize(step, len(x))[j]:.3e} is too small to "
                     "resolve the point")
        size = np.hypot(x.real, x.imag)  # as abs(z) rounds
        size = np.maximum.reduce(size, 1, initial=0.0, keepdims=True)
        self._refuse(step * 1e300 < size * 1e-8,
                     lambda j: f"|x| = {size[j, 0]:.3e} overflows the stencil weights")
        weights = _WEIGHTS / (12.0 * step) * size
        return step, weights, (x.view(float) / (size + (size == 0))).view(complex)

    def derivatives(self, points: Sequence, directions: Sequence, f: Callable,
                    h: float = DEFAULT_STEP) -> np.ndarray:
        """The (L, ...) stack of d/dt|0 f(gamma_j(t)) at probes checked by `jets`; 0 < h <= 0.01."""
        stencils, weights = self._stencils(*self.jets(points, directions), h)
        return stencil_sum(weights, [[f(p) for p in ps] for ps in stencils])

    def _error(self, reason: str, i: int, n: int, what: str = "point") -> DomainError:
        """The error of entry i of n, which names the entry when there are several."""
        return DomainError(f"{self.name}: {reason}" + (n > 1) * f" ({what} {i + 1} of {n})")

    def _refuse(self, bad: np.ndarray, reason: Callable[[int], str], what: str = "probe") -> None:
        """The `_error` of the first of len(bad) entries with a true row in the mask bad, if any."""
        if np.count_nonzero(bad):
            j = int(np.argmax(bad)) // (bad.size // len(bad))
            raise self._error(reason(j), j, len(bad), what)

    def _entries(self, items: Sequence, shape: tuple, what: str, entry: str,
                 wrong: Callable[[tuple], str]) -> np.ndarray:
        """The (N, *shape) complex array of N entries: one `_complex` call, returned when it has
        that shape and is finite.  Else an `_error` names the first entry that is ragged or not
        numeric, not finite ("{what} is not finite") or of another shape (wrong(shape)); a vector
        domain's scalar entry has shape (1,), so C^1 scalars mix with 1-vectors."""
        a = _complex(items)
        if a is not None and a.shape[1:] == shape and _finite(a):
            return a
        ms = []
        for i, m in enumerate(items):
            m = _complex(m, len(shape) == 1)
            reason = (f"{what} is ragged or not numeric" if m is None else f"{what} is not finite"
                      if not _finite(m) else wrong(m.shape) if m.shape != shape else None)
            if reason is not None:
                raise self._error(reason, i, len(items), entry)
            ms.append(m)
        return np.array(ms, dtype=complex).reshape((len(ms),) + shape)


def _complex(m, ndmin: int = 0) -> Optional[np.ndarray]:
    """np.array(m, dtype=complex, ndmin=ndmin), or None where m is ragged or not numeric."""
    try:
        return np.array(m, dtype=complex, ndmin=ndmin)
    except ValueError:  # ragged: the shapes differ; or a string that is not a number
        return None


def _paired(points: Sequence, directions: Sequence) -> Sequence:
    """The directions of a stack of probes, one per point, and one probe at least."""
    if len(points) != len(directions):
        raise DomainError(f"{len(points)} points but {len(directions)} directions")
    if not len(points):
        raise DomainError("empty stack of probes: no points and no directions")
    return directions


def stencil_sum(weights: np.ndarray, values: Sequence) -> np.ndarray:
    """sum_i w_i v_i in stencil order, for weights (..., 4) and values (..., 4, ...)."""
    v, w = np.asarray(values, dtype=complex), np.asarray(weights)
    if not _finite(v):
        raise NumericsError("non-finite function value at a stencil point")
    t = w.reshape(w.shape + (1,) * (v.ndim - w.ndim)) * v
    i = (slice(None),) * (w.ndim - 1)  # the four terms, along the weights' last axis
    return ((t[i + (0,)] + t[i + (1,)]) + t[i + (2,)]) + t[i + (3,)]


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
    _axes = 1

    def stack(self, points: Sequence) -> np.ndarray:
        """Domain.stack as the (N, d) `_entries`, a scalar a point of C^1, inside the edge."""
        a = self._entries(points, (self.dim,), "point", "point", lambda shape: (
            f"expected dimension {self.dim}, got {shape[0]}" if len(shape) == 1
            else f"point must be 1-d, got shape {shape}"))
        if self.edge is not None:
            self._refuse(self.edge(a) <= 0, lambda i: self.reason(a[i]), "point")
        return a

    def jets(self, points: Sequence, directions: Sequence) -> tuple[np.ndarray, np.ndarray]:
        """Domain.jets as `stack` and the (L, d) `_entries` of the directions."""
        return self.stack(points), self._entries(
            _paired(points, directions), (self.dim,), "tangent", "probe", lambda shape: (
                f"tangent dimension {shape[0]} != {self.dim}" if len(shape) == 1
                else f"tangent must be 1-d, got shape {shape}"))

    def _step(self, s: np.ndarray, h: float):
        """The edge layer: h, times d / EDGE_LAYER at an edge distance d < EDGE_LAYER."""
        d = np.inf if self.edge is None else self.edge(s)[:, None]
        return np.where(d < EDGE_LAYER, h * d / EDGE_LAYER, h)  # 0-d when there is no edge

    @_kept
    def _stencils(self, s: np.ndarray, x: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
        """Domain._stencils at checked (L, d) probes: (L, 4, d) points on the lines s + t x / |x| of
        `_rule`, inside the edge as h <= 0.01, and its weights; read-only, `_kept`."""
        step, weights, unit = self._rule(s, x, h)
        return s[:, None] + (step * _OFFSETS)[..., None] * unit[:, None], weights


# the disk's edge distance: |s| by hypot, which rounds as abs does on one point (numpy's abs of an
# array may not); a point inside the guard circle |s| = 1 - 1e-6 has edge > 0
_disk_edge = lambda s: DISK_BOUNDARY_GUARD - np.hypot(s[:, 0].real, s[:, 0].imag)  # noqa: E731
_disk_reason = lambda s: f"|s| = {abs(s[0]):.8f} is too close to the unit circle"  # noqa: E731
_halfplane_edge = lambda z: z[:, 0].imag  # noqa: E731
_halfplane_reason = lambda z: f"Im z = {z[0].imag:.3e} must be positive"  # noqa: E731


@dataclass(frozen=True)
class UnitaryDomain(Domain):
    """Points are n x n unitary matrices; tangents anti-Hermitian matrices; curves u exp(t a)."""

    n: int
    name, _axes = "U(n)", 2

    def stack(self, points: Sequence) -> np.ndarray:
        """Domain.stack as the (N, n, n) `_entries`, each unitary by one stacked ||u*u - I||."""
        u = self._entries(points, (self.n,) * 2, "point", "point",
                          lambda shape: f"expected {self.n}x{self.n} matrix, got {shape}")
        self._small(u.conj().swapaxes(-1, -2) @ u - np.eye(self.n), "not unitary, ||u*u - I||",
                    "point")
        return u

    def jets(self, points: Sequence, directions: Sequence) -> tuple[np.ndarray, np.ndarray]:
        """Domain.jets as `stack` and the (L, n, n) `_entries`, anti-Hermitian by one ||a + a*||."""
        u = self.stack(points)
        a = self._entries(_paired(u, directions), (self.n,) * 2, "tangent", "probe",
                          lambda shape: f"tangent shape {shape} != ({self.n},{self.n})")
        self._small(a + a.conj().swapaxes(-1, -2), "tangent not anti-Hermitian, ||a + a*||",
                    "probe")
        return u, a

    def _small(self, m: np.ndarray, what: str, entry: str) -> None:
        """An error naming the first matrix of the (N, n, n) stack m with a norm over 1e-10."""
        res = _frobenius(m)
        self._refuse(res > 1e-10, lambda i: f"{what} = {res[i]:.3e}", entry)

    @_kept
    def _stencils(self, s: np.ndarray, x: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
        """Domain._stencils as the (L, 4, n, n) `_exponentials` u_j e^{t a_j / |a_j|} at checked
        (L, n, n) probes, by `Domain._rule` (u_j itself at a_j = 0), and its weights; `_kept`."""
        x = np.ascontiguousarray(x, complex).reshape(-1, self.n ** 2)
        step, weights, unit = self._rule(s, x, h)
        return _exponentials(s, step, unit), weights


def _exponentials(u: np.ndarray, step, unit: np.ndarray) -> np.ndarray:
    """The (L, 4, n, n) u e^{t a_j} of `Domain._rule`'s step and (L, n^2) unit directions a_j, u
    L points or one.  a = iH with H = -ia Hermitian, so e^{ta} = V diag(e^{itw}) V* is exact and
    unitary: one eigh of the (L, n, n) stack of directions, one expression for 4L."""
    n = u.shape[-1]
    w, v = hermitian_eigh(-1j * unit.reshape(-1, n, n))
    e = np.exp(1j * ((step * _OFFSETS)[:, None] * w[:, None]))  # e^{itw}, (L, 4, n)
    u = np.asarray(u, dtype=complex)[..., None, :, :] @ (v[:, None] * e[..., None, :])
    return u @ v.conj().swapaxes(-1, -2)[:, None]


@dataclass(frozen=True)
class Kernel:
    """An operator-valued kernel with optional analytic second-slot derivative.

    `eval` returns the M x M matrix kappa(s, t).  `d2`, when present, returns
    the real-linear directional derivative of t -> kappa(s, t) in direction x
    (a conjugate-linear expression for the anti-holomorphic built-ins).
    Kernels lacking `d2` fall back to the stencil, read from one `_values` call.
    `batch`, when present, maps point arrays, a point on the domain's `_axes`
    trailing axes (one on C^d, two on U(n), none on Gr(k, n): object arrays of
    projectors, member by member) and leading axes broadcast, to the values:
    (...) for a scalar kernel, (..., M, M) otherwise; its `d2` then maps
    (s, t, x) arrays the same way.  Every entry must depend on its own points
    alone, bit for bit, whatever the shapes are, given one leading axis at least
    (numpy's 0-d scalar arithmetic may round otherwise).
    """

    fiber_dim: int
    domain: Domain
    eval: Callable[[object, object], np.ndarray]
    d2: Optional[Callable[[object, object, object], np.ndarray]] = None
    name: str = "kernel"
    batch: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __call__(self, s, t) -> np.ndarray:
        return self.block(ss := (s,), ss if t is s else (t,))

    def block(self, ss: Sequence, ts: Sequence) -> np.ndarray:
        """The len(ss)*M x len(ts)*M matrix of blocks kappa(ss[l], ts[j]): the one-member `_values`
        of the points after `Domain.stack` checks each once, all of them once when ts is ss."""
        one = (self.domain.stack(ss),)
        return self._values(one, one if ts is ss else (self.domain.stack(ts),))[0]

    def _values(self, ss: Sequence, ts: Sequence) -> np.ndarray:
        """The (L, aM, bM) stack of the blocks kappa(ss[j], ts[j]), j < L, for members of a and b
        checked points.  Every kernel value is evaluated here, by one `batch` expression on the
        (L, a, ...) stacks as they are or one loop over `eval`; a block not M x M: DomainError."""
        m, a, b = self.fiber_dim, len(ss[0]) if len(ss) else 0, len(ts[0]) if len(ts) else 0
        if self.batch is not None:
            s = np.asarray(ss)
            t = s if ts is ss else np.asarray(ts)
            if a == b == 1:  # one-point members need fewer axes; one stack stays one array
                s, t = (s[:, 0],) * 2 if ts is ss else (s[:, 0], t[:, 0])
            elif a > 1 and b > 1:
                s, t = s[:, :, None], t[:, None]
            out = self.batch(s, t)
        else:
            out = np.array([[[self.eval(p, q) for q in tj] for p in sj] for sj, tj in zip(ss, ts)],
                           dtype=complex)
        if out.size != len(ss) * a * b * m * m:
            raise DomainError(f"{self.name}: kernel block of shape {out.shape[-2:]}, not M x M, "
                              f"M = {m}")
        out = out.reshape(len(ss), a, b, m, m).swapaxes(2, 3).reshape(len(ss), a * m, b * m)
        if not _finite(out):
            raise NumericsError(f"{self.name}: kernel value is not finite")
        return out

    def diagonal_jet(self, points: Sequence, directions: Sequence,
                     h: float = DEFAULT_STEP) -> tuple[np.ndarray, np.ndarray]:
        """The (L, M, M) stacks kappa(s_j, s_j) and d2_kappa(s_j, s_j)(x_j): the `_jet` of the
        probes, checked once by `jets`, `_kept` on every domain: both arrays are read-only, and a
        call on an equal kernel at the last call's probes and h, in (0, 0.01], returns the same."""
        return self._jet(*self.domain.jets(points, directions), h)

    @_kept
    def _jet(self, s: np.ndarray, x: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
        """diagonal_jet at checked probes: kappa(s_j, s_j) from one `_values` call, and `d2` at
        all L probes at once or, without it, the stencil, read from a second one."""
        m, ss = self.fiber_dim, s[:, None]  # the one-member stacks (s_j,)
        kss = self._values(ss, ss)
        if self.d2 is None:
            stencils, weights = self.domain._stencils(s, x, h)
            values = self._values(ss, stencils).reshape(len(ss), m, 4, m).swapaxes(1, 2)
            return kss, stencil_sum(weights, values)
        out = (np.asarray(self.d2(s, s, x), dtype=complex) if self.batch is not None  # (L, d)
               else np.array([self.d2(*a) for a in zip(s, s, x)], dtype=complex))
        if not _finite(out):
            raise NumericsError(f"{self.name}: kernel derivative is not finite")
        return kss, out.reshape(len(ss), m, m)


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
    if b.ndim != 2 or b.shape[0] != b.shape[1] or not b.size:
        raise ValueError(f"beta must be a non-empty square matrix, got shape {b.shape}")
    if np.linalg.norm(b - b.conj().T) > 1e-10:
        raise ValueError("beta must be Hermitian")
    values = _eigh(_as_matrix(b), b.conj().T, vectors=False)[0]
    if values.size and values[0] < -1e-10 * max(values[-1], 1.0):
        raise ValueError(f"beta must be PSD, min eigenvalue {values[0]:.3e}")
    dim = b.shape[0]
    domain = VectorDomain(dim, name=f"C^{dim}")
    b_re, b_im = b.real, b.imag

    def form(z, w):
        # real and imaginary parts of beta: v = B conj(w), then sum_j z_j v_j
        wr, wi, zr, zi = w.real[..., None, :], w.imag[..., None, :], z.real, z.imag
        vr, vi = np.add.reduce(b_re * wr + b_im * wi, -1), np.add.reduce(b_im * wr - b_re * wi, -1)
        return np.add.reduce(zr * vr - zi * vi, -1), np.add.reduce(zr * vi + zi * vr, -1)

    def batch(z, w):
        re, im = form(z, w)
        return _polar(np.exp(re), im)

    def d2(z, w, x):  # exp(beta(z, w)) beta(z, x)
        return _times(batch(z, w), *form(z, x))

    return _scalar_kernel(domain, batch, d2, f"fock:dim={dim}")


def feature_kernel(phi: Callable[[object], np.ndarray], fiber_dim: int, domain: Domain, name: str,
                   dphi: Optional[Callable[[object, object], np.ndarray]] = None) -> Kernel:
    """The finite-rank kernel kappa(s, t) = Phi(s)* Phi(t) of a feature map Phi(s): C^M -> C^D.

    dphi(t, x), when given, is the derivative of Phi along the domain's curve with the 1-jet
    (t, x), and d2 is Phi(s)* dphi(t, x); without it, d2 is the stencil's.  On U(n), Phi and dphi
    must map an (..., n, n) stack member by member, each with its one-matrix bits, and on Gr(k, n)
    Phi an object array of projectors, to (..., D, M): `batch` is `eval`, and a block of a x b
    points is a + b evaluations of Phi, one for a point and itself.
    """

    def ev(s, t):  # Phi read once when both slots are one stack
        return (ps := phi(s)).conj().swapaxes(-1, -2) @ (ps if t is s else phi(t))

    d2 = None if dphi is None else lambda s, t, x: phi(s).conj().swapaxes(-1, -2) @ dphi(t, x)
    batch = None if isinstance(domain, VectorDomain) else ev
    return Kernel(fiber_dim, domain, ev, d2, name, batch)


def _dilation_kernel(w: np.ndarray, n: int, name: str) -> Kernel:
    """The feature kernel of Phi(u) = (u (x) I_r) W on U(n), for an (n r, M) matrix W, and of its
    derivative (u a (x) I_r) W along u e^{ta}: one product of u and W read as n x rM, read back
    as (..., n r, M)."""
    wide, m = w.reshape(n, -1), w.shape[1]

    def phi(u):
        u = np.asarray(u, dtype=complex)
        return (u @ wide).reshape(u.shape[:-2] + (-1, m))

    return feature_kernel(phi, m, UnitaryDomain(n), name, lambda u, a: phi(
        np.asarray(u, dtype=complex) @ np.asarray(a, dtype=complex)))


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
    values, is_psd = _psd_spectra(_as_matrix(g, square=True)[None], tol)
    return bool(is_psd[0]), float(values[0, 0])


def _psd_spectra(grams, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """The ascending spectra of an (L, N, N) stack of finite Hermitian (within tol) Gram matrices,
    and whether each is PSD: its minimum eigenvalue >= -tol * max(1, lambda_max)."""
    a = np.asarray(grams, dtype=complex)
    adjoint = a.conj().swapaxes(-1, -2)
    herm_res = _frobenius(a - adjoint)
    if np.count_nonzero(herm_res > tol * np.maximum(1.0, _frobenius(a))):
        raise NumericsError(f"Gram matrix not Hermitian, ||G - G*|| = {herm_res.max():.3e}")
    values = _eigh(a, adjoint, vectors=False)[0]
    return values, values[:, 0] >= -tol * np.maximum(1.0, values[:, -1])


def _certify(grams: np.ndarray) -> np.ndarray:
    """The ascending spectra of L Gram matrices, each certified PSD; an error names the sample."""
    values, is_psd = _psd_spectra(grams)
    if np.count_nonzero(is_psd) < len(is_psd):
        j = int(np.argmin(is_psd))
        of = (len(grams) > 1) * f" (sample {j + 1} of {len(grams)})"
        raise NumericsError(f"Gram matrix is not PSD (min eigenvalue {values[j, 0]:.3e}); the "
                            f"input does not behave like a kernel on this sample{of}")
    return values


def _project(grams: np.ndarray, m: int, i: int, c: np.ndarray) -> np.ndarray:
    """Fiber projections at sample point i in L spaces, (L, NM, NM) finite Grams and (L, NM, K) c:
    kappa(s_i,s_i)^(-1) (G c)_i = kappa(s_i,s_i)^(-1) f(s_i) in block i, zeros elsewhere.
    Fails when kappa(s_i,s_i) is singular within threshold."""
    b = slice(i * m, (i + 1) * m)
    projected = np.zeros(c.shape, dtype=complex)
    projected[:, b] = _solve(grams[:, b, b], grams[:, b] @ c)
    return projected


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

    With a target `batch`, its `batch` takes stacks of `domain` (on Gr(k, n), object arrays of
    projectors, member by member): zeta and delta once per point of each slot, the images checked
    by one target `stack`, and delta* k delta one stacked product, with the bits of `eval`.
    """
    m = k_target.fiber_dim

    def delta(s):  # the fiber map at a point, its rows the target's fiber
        if (d := theta.fiber_map(s)).shape[0] != m:
            raise DomainError(f"fiber map shape {d.shape} incompatible with target fiber "
                              f"dimension {m}")
        return d

    def images(p):  # zeta and delta at each point of a stack, on its leading axes
        lead = p.shape[:p.ndim - domain._axes]
        flat = p.reshape((-1,) + p.shape[len(lead):])
        z = k_target.domain.stack([theta.zeta(q) for q in flat])
        d = np.array([delta(q) for q in flat]).reshape(lead + (m, -1 if len(flat) else fiber_dim))
        return z.reshape(lead + z.shape[1:]), d

    def batch(s, t):
        (zs, ds), (zt, dt) = (images(s),) * 2 if t is s else (images(s), images(t))
        lead = np.broadcast_shapes(ds.shape[:-2], dt.shape[:-2])
        return ds.conj().swapaxes(-1, -2) @ np.reshape(k_target.batch(zs, zt), lead + (m, m)) @ dt

    def ev(s, t):
        return delta(s).conj().T @ k_target(theta.zeta(s), theta.zeta(t)) @ delta(t)

    return Kernel(fiber_dim, domain, ev, name=name or f"pullback({k_target.name})",
                  batch=k_target.batch and batch)


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
    diagonal = gram[np.arange(n), :, np.arange(n)]
    lowest = float(np.min(_eigh(diagonal, diagonal.conj().swapaxes(-1, -2), vectors=False)[0]))
    # block (i, j) of G* - G is kappa(t_j, t_i)* - kappa(t_i, t_j)
    sym = gram.transpose(2, 3, 0, 1).conj() - gram
    return {
        "min_sigma": lowest,
        "embedding_lower_bound": lowest,
        "hermitian_symmetry_residual": float(np.max(np.linalg.norm(sym, axis=(1, 3)))),
    }
