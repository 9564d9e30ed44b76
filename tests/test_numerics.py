import numpy as np
import pytest

from kernelconnect.numerics import (
    NumericsError,
    approx_equal,
    directional_derivative,
    format_complex,
    hermitian_eigh,
    hermitian_solve,
    matrix_from_csv_text,
    matrix_to_csv_text,
    parse_complex,
)


def test_parse_complex_literals():
    assert parse_complex("1.5-0.25i") == 1.5 - 0.25j
    assert parse_complex("2") == 2.0 + 0j
    assert parse_complex("-3.5e-2+1e1i") == -0.035 + 10j
    assert parse_complex("0.1i") == 0.1j
    assert parse_complex("-i") == -1j
    with pytest.raises(NumericsError):
        parse_complex("nonsense")
    with pytest.raises(NumericsError):
        parse_complex("1+2j")


def test_complex_format_round_trip():
    for z in (0.0, 1.5 - 0.25j, -3.25j, 1e-17 + 1e17j, np.pi - np.e * 1j):
        assert parse_complex(format_complex(z)) == complex(z)


def test_csv_matrix_round_trip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    again = matrix_from_csv_text(matrix_to_csv_text(m))
    assert np.array_equal(m, again)


def test_csv_reader_rejects_ragged_input():
    with pytest.raises(NumericsError):
        matrix_from_csv_text("1+0i,2+0i\n3+0i\n")


def test_stencil_derivative_matches_analytic():
    # d/dt exp((0.3+0.2i) t) at 0 = 0.3+0.2i; 5-point stencil is O(h^4)
    c = 0.3 + 0.2j
    d = directional_derivative(lambda t: np.array([np.exp(c * t)]))
    assert abs(d[0] - c) < 1e-12


def test_stencil_derivative_rejects_bad_step():
    with pytest.raises(NumericsError):
        directional_derivative(lambda t: np.array([t]), h=0.0)


def test_hermitian_eigh_reconstructs():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    m = a + a.conj().T
    values, vectors = hermitian_eigh(m)
    assert np.all(np.diff(values) >= 0)
    assert np.linalg.norm(vectors @ np.diag(values) @ vectors.conj().T - m) < 1e-12


def test_hermitian_solve_and_singular_error():
    m = np.array([[2.0, 1j], [-1j, 2.0]])
    rhs = np.array([1.0, 1.0 + 1j])
    x = hermitian_solve(m, rhs)
    assert np.linalg.norm(m @ x - rhs) < 1e-12
    with pytest.raises(NumericsError):
        hermitian_solve(np.zeros((2, 2), dtype=complex), rhs)


def test_approx_equal():
    assert approx_equal(1.0, 1.0 + 1e-12)
    assert not approx_equal(1.0, 1.1)
