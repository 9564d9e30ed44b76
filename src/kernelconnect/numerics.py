"""Dense complex linear algebra and numerical differentiation helpers.

All routines work on plain numpy arrays (complex128) and are pure: no
global state, inputs are never mutated.
"""

from __future__ import annotations

import re
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "NumericsError",
    "DEFAULT_TOL",
    "DEFAULT_STEP",
    "approx_equal",
    "hermitian_eigh",
    "hermitian_solve",
    "directional_derivative",
    "five_point_weights",
    "format_complex",
    "parse_complex",
    "write_matrix_csv",
    "read_matrix_csv",
    "matrix_to_csv_text",
    "matrix_from_csv_text",
]

DEFAULT_TOL = 1e-9
DEFAULT_STEP = 1e-3


class NumericsError(ValueError):
    """Raised on invalid numeric input (non-square, non-PSD, non-finite...)."""


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise NumericsError(f"expected a matrix, got array of ndim {a.ndim}")
    if not np.all(np.isfinite(a)):
        raise NumericsError("matrix has non-finite entries")
    return a


def approx_equal(a, b, tol: float = DEFAULT_TOL, scale: float | None = None) -> bool:
    """Mixed absolute/relative comparison: |a-b| <= max(tol, tol*scale)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if scale is None:
        scale = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0))
    return bool(np.max(np.abs(a - b), initial=0.0) <= max(tol, tol * scale))


def hermitian_eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    The input is symmetrized as (M + M*)/2 first.  Returns (values, vectors)
    with values ascending and orthonormal eigenvector columns, so that
    M = V diag(values) V*.
    """
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise NumericsError(f"matrix is not square: shape {a.shape}")
    h = 0.5 * (a + a.conj().T)
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise NumericsError(f"eigendecomposition failed to converge: {exc}") from exc
    return values, vectors


def hermitian_solve(m, rhs, min_sigma: float = 1e-10) -> np.ndarray:
    """Solve M x = rhs for Hermitian M, failing loudly when M is singular."""
    values, vectors = hermitian_eigh(m)
    scale = max(np.max(np.abs(values)), 1.0)
    if np.min(np.abs(values)) <= min_sigma * scale:
        raise NumericsError(
            f"matrix is singular within threshold (|lambda|_min = "
            f"{np.min(np.abs(values)):.3e})"
        )
    y = vectors.conj().T @ np.asarray(rhs, dtype=complex)
    return vectors @ (y / values) if y.ndim == 1 else vectors @ (y / values[:, None])


def five_point_weights(h: float) -> tuple[np.ndarray, np.ndarray]:
    """Sample offsets and weights of the 5-point central first-derivative stencil."""
    ts = np.array([-2.0 * h, -h, 0.0, h, 2.0 * h])
    ws = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    return ts, ws


def directional_derivative(f: Callable[[float], np.ndarray], h: float = DEFAULT_STEP) -> np.ndarray:
    """Derivative at t=0 of a vector-valued map via the 5-point central stencil.

    Truncation error is O(h^4) for smooth f.
    """
    if h <= 0:
        raise NumericsError(f"step must be positive, got {h}")
    ts, ws = five_point_weights(h)
    acc = None
    for t, w in zip(ts, ws):
        if w == 0.0:
            continue
        val = np.asarray(f(t), dtype=complex)
        if not np.all(np.isfinite(val)):
            raise NumericsError(f"non-finite function value at t={t}")
        acc = w * val if acc is None else acc + w * val
    return acc


# ---------------------------------------------------------------------------
# Complex CSV serialization: entries formatted `a+bi`, e.g. `1.5-0.25i`.

_COMPLEX_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?:\s*([+-]\s*(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*i)?\s*$"
)


def format_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


_IMAG_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[+-]?)\s*i\s*$"
)


def parse_complex(text: str) -> complex:
    m = _COMPLEX_RE.match(text)
    if m:
        re_part = float(m.group(1))
        im_part = float(m.group(2).replace(" ", "")) if m.group(2) else 0.0
        return complex(re_part, im_part)
    m = _IMAG_RE.match(text)  # bare imaginary: `0.5i`, `-i`
    if m:
        coeff = m.group(1)
        if coeff in ("", "+"):
            return 1j
        if coeff == "-":
            return -1j
        return complex(0.0, float(coeff))
    raise NumericsError(
        f"cannot parse complex literal {text!r}; expected `a+bi` (e.g. 1.5-0.25i)"
    )


def matrix_to_csv_text(m) -> str:
    a = _as_matrix(m)
    return "\n".join(",".join(format_complex(z) for z in row) for row in a) + "\n"


def matrix_from_csv_text(text: str) -> np.ndarray:
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        rows.append([parse_complex(cell) for cell in line.split(",")])
    if not rows:
        raise NumericsError("empty CSV matrix")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise NumericsError("ragged CSV matrix")
    return np.array(rows, dtype=complex)


def write_matrix_csv(path, m) -> None:
    with open(path, "w") as fh:
        fh.write(matrix_to_csv_text(m))


def read_matrix_csv(path) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_csv_text(fh.read())
