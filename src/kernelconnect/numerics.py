"""Dense complex linear algebra, complex CSV helpers and seeded complex draws.

All routines work on plain numpy arrays (complex128) and are pure: no global state, inputs are
never mutated.  `grassmann verify` draws its unitaries here, without loading cpmaps.
"""

from __future__ import annotations

import re

import numpy as np

__all__ = [
    "NumericsError",
    "DEFAULT_TOL",
    "DEFAULT_STEP",
    "hermitian_eigh",
    "hermitian_solve",
    "format_complex",
    "parse_complex",
    "read_matrix_csv",
    "matrix_to_csv_text",
    "matrix_from_csv_text",
    "random_unitary",
]

DEFAULT_TOL = 1e-9
DEFAULT_STEP = 1e-4  # stencil truncation ~1e-12 |x|, along x / |x|, up to |s| = 0.9 on the disk


class NumericsError(ValueError):
    """Raised on invalid numeric input (non-square, non-PSD, non-finite...)."""


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of an array is finite: the library's one finiteness scan.  A count, as
    in its other tests of a boolean array: on a small one a reduction (ndarray.all) costs twice."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def _as_matrix(m, square: bool = False) -> np.ndarray:
    """m as a finite complex matrix; with `square`, a square matrix or an (..., M, M) stack."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 and not (square and a.ndim > 2):
        raise NumericsError(f"expected a matrix, got array of ndim {a.ndim}")
    if not _finite(a):
        raise NumericsError("matrix has non-finite entries")
    if square and a.shape[-1] != a.shape[-2]:
        raise NumericsError(f"matrix is not square: shape {a.shape}")
    return a


def hermitian_eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a (..., M, M) stack.

    The input is symmetrized as (M + M*)/2 first.  Returns (values, vectors)
    with values ascending and orthonormal eigenvector columns, so that
    M = V diag(values) V*.  A 1 x 1 input skips LAPACK, with LAPACK's bits.
    """
    a = _as_matrix(m, square=True)
    return _eigh(a, a.conj().swapaxes(-1, -2))


def _eigh(a: np.ndarray, adjoint: np.ndarray, vectors: bool = True) -> tuple:
    """hermitian_eigh of a finite (..., M, M) stack a, given its adjoint a*; without `vectors`,
    (values, None) from LAPACK's eigenvalue-only routine, which may differ in the last bits."""
    if a.shape[-1] == 1:
        return a[..., 0].real.copy(), np.ones(a.shape, dtype=complex) if vectors else None
    try:
        if not vectors:
            return np.linalg.eigvalsh(0.5 * (a + adjoint)), None
        return np.linalg.eigh(0.5 * (a + adjoint))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise NumericsError(f"eigendecomposition failed to converge: {exc}") from exc


def hermitian_solve(m, rhs) -> np.ndarray:
    """Solve M x = rhs for Hermitian M, or M (..., M, M) with rhs (..., M, K); fails if singular.
    The checked `_solve`: internal callers whose M came from `Kernel._values` call that."""
    return _solve(_as_matrix(m, square=True), rhs)


def _solve(a: np.ndarray, rhs) -> np.ndarray:
    """hermitian_solve of a finite (..., M, M) stack a."""
    one = a.shape[-1] == 1  # the eigenvalue is Re M and V = 1: no eigh, the same bits
    values, vectors = (a[..., 0].real, None) if one else _eigh(a, a.conj().swapaxes(-1, -2))
    mags = np.abs(values)  # the relative rule; on one finite eigenvalue it is |lambda| <= 1e-10
    lo, floor = (mags, 1e-10) if one else (mags.min(-1), 1e-10 * np.maximum(mags.max(-1), 1.0))
    if np.count_nonzero(lo <= floor):
        raise NumericsError(f"matrix is singular within threshold (|lambda|_min = {lo.min():.3e})")
    y = np.asarray(rhs, dtype=complex)
    if one:
        return y / values if y.ndim == 1 else y / values[..., None]
    y = vectors.conj().swapaxes(-1, -2) @ y
    return vectors @ (y / values) if y.ndim == 1 else vectors @ (y / values[..., None])


def _max_norm(rows) -> float:
    """max over the rows of a stack of np.linalg.norm(row), with its bits; 0.0 for no rows, and a
    NaN propagates.  Stacked norms, which round differently, screen the rows: only those within
    1e-9 (relative) of the top are normed one at a time."""
    rows = np.asarray(rows)
    screen = np.linalg.norm(rows.reshape(len(rows), -1), axis=1) if len(rows) else np.zeros(0)
    top = screen.max(initial=0.0)
    if not 0.0 < top < np.inf:  # NaN, or exact: no rows, all zero, or an overflow
        return float(top)
    return max(float(np.linalg.norm(rows[i])) for i in np.flatnonzero(screen >= top * (1 - 1e-9)))


# ---------------------------------------------------------------------------
# Complex CSV serialization: entries formatted `a+bi`, e.g. `1.5-0.25i`.  The grammar is ASCII: a
# real part with an optional `+bi`/`-bi`, or a bare `bi`, `i` or `-i`, whitespace allowed around
# the sign and the `i`.  Its canonical form, the one format_complex writes (`a+bi`, no whitespace),
# complex() reads with the same correctly rounded bits, so a canonical CSV row skips the cell parse.

_REAL = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"\s*([+-]?{_REAL})(?:\s*([+-])\s*({_REAL})\s*i)?\s*", re.ASCII)
_IMAG_RE = re.compile(rf"\s*([+-]?{_REAL}|[+-]?)\s*i\s*", re.ASCII)  # bare imaginary
_CELL = rf"[+-]?{_REAL}[+-]{_REAL}i"
_CANONICAL_ROW = re.compile(rf"{_CELL}(?:,{_CELL})*", re.ASCII)  # one line, never the whole text
_FORMAT = "%.17g%+.17gi"  # one cell, from its (real, imaginary) parts


def _normals(rng: np.random.Generator, count: int, dim=1) -> np.ndarray:
    """count standard complex normal vectors in C^dim (dim an int or a shape) from one draw, the
    stream and bits of count calls rng.standard_normal(dim) + 1j * rng.standard_normal(dim)."""
    z = rng.standard_normal((count, 2, *np.ravel(dim)))
    return z[:, 0] + 1j * z[:, 1]


def random_unitary(n: int, seed: int) -> np.ndarray:
    """A deterministic unitary from a seeded complex Gaussian: the one-seed `_random_unitaries`."""
    return _random_unitaries(n, [seed])[0]


def _random_unitaries(n: int, seeds) -> np.ndarray:
    """The (L, n, n) stack of random_unitary at L seeds: one generator per seed and one (2, n, n)
    draw each, then one QR and one phase fix, Q times the phases of diag R."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not len(seeds):
        raise ValueError("empty stack of seeds: no unitaries to draw")
    z = np.array([np.random.default_rng(seed).standard_normal((2, n, n)) for seed in seeds])
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    d = r.diagonal(0, -2, -1)[..., None, :]
    return q * (d / np.abs(d))


def format_complex(z: complex) -> str:
    z = complex(z)
    return _FORMAT % (z.real, z.imag)


def parse_complex(text: str) -> complex:
    m = _COMPLEX_RE.fullmatch(text)
    if m:
        real, sign, imag = m.groups()
        return complex(float(real), float(sign + imag) if imag else 0.0)
    m = _IMAG_RE.fullmatch(text)  # bare imaginary: `0.5i`, `-i`; the real part is +0.0
    if m:
        coeff = m.group(1)
        return complex(0.0, float(coeff + "1" if coeff in ("", "+", "-") else coeff))
    raise NumericsError(
        f"cannot parse complex literal {text!r}; expected `a+bi` (e.g. 1.5-0.25i)"
    )


def _csv_rows(m) -> list:
    """Each row of a complex matrix as one CSV line: one % of a row template over the row's
    interleaved (re, im), with the bits of format_complex on each entry."""
    a = np.ascontiguousarray(m, dtype=complex)
    row = ",".join([_FORMAT] * a.shape[1])
    return [row % tuple(p) for p in a.view(np.float64).tolist()]


def matrix_to_csv_text(m) -> str:
    """One line per row of m, each entry as format_complex writes it."""
    return "\n".join(_csv_rows(_as_matrix(m))) + "\n"


def matrix_from_csv_text(text: str) -> np.ndarray:
    """A canonical line is one complex() per cell; any other line is parsed cell by cell."""
    rows = []
    for line in text.splitlines():
        if _CANONICAL_ROW.fullmatch(line):
            rows.append(list(map(complex, line.replace("i", "j").split(","))))
        elif line.strip():
            rows.append([parse_complex(cell) for cell in line.split(",")])
    if not rows:
        raise NumericsError("empty CSV matrix")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise NumericsError("ragged CSV matrix")
    return np.array(rows, dtype=complex)


def read_matrix_csv(path) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_csv_text(fh.read())
