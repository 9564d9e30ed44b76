import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kernelconnect.numerics import (
    NumericsError,
    _max_norm,
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


@example(z=0.0)
@example(z=1.5 - 0.25j)
@example(z=-3.25j)
@example(z=1e-17 + 1e17j)
@example(z=np.pi - np.e * 1j)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(z=st.complex_numbers(allow_nan=False, allow_infinity=False))
def test_complex_format_round_trip(z):
    assert parse_complex(format_complex(z)) == complex(z)


def test_csv_matrix_round_trip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    again = matrix_from_csv_text(matrix_to_csv_text(m))
    assert np.array_equal(m, again)


def test_csv_reader_rejects_ragged_input():
    with pytest.raises(NumericsError):
        matrix_from_csv_text("1+0i,2+0i\n3+0i\n")


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(re=st.floats(-1e300, 1e300), im=st.floats(-1e300, 1e300))
def test_one_by_one_eigh_has_the_lapack_bits(re, im):
    m = np.array([[complex(re, im)]])
    values, vectors = hermitian_eigh(m)
    want_values, want_vectors = np.linalg.eigh(0.5 * (m + m.conj().T))
    assert values.dtype == want_values.dtype and vectors.dtype == want_vectors.dtype
    assert np.array_equal(values, want_values) and np.array_equal(vectors, want_vectors)


def test_hermitian_solve_takes_a_stack_and_names_a_singular_member():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    m = g @ np.swapaxes(g.conj(), -1, -2) + np.eye(3)
    rhs = rng.standard_normal((5, 3, 2)) + 1j * rng.standard_normal((5, 3, 2))
    x = hermitian_solve(m, rhs)
    assert x.shape == (5, 3, 2) and np.max(np.abs(m @ x - rhs)) < 1e-12
    for i in range(5):
        assert np.max(np.abs(x[i] - hermitian_solve(m[i], rhs[i]))) < 1e-14
    scalars = np.array([[[2.0 + 0j]], [[-0.5 + 0j]]])
    assert np.array_equal(hermitian_solve(scalars, np.ones((2, 1, 1))),
                          np.array([[[0.5 + 0j]], [[-2.0 + 0j]]]))
    m[3] = np.zeros((3, 3))
    with pytest.raises(NumericsError, match="singular"):
        hermitian_solve(m, rhs)


_SCALARS = np.array([[[2.5 - 0.3j]], [[-1e-3 + 0j]], [[7e8 + 1e-9j]], [[3e-10 + 0j]]])


@pytest.mark.parametrize("m, rhs", [
    (_SCALARS[0], np.array([1.0 + 2.0j])),
    (_SCALARS[1], np.array([[0.1 + 0.7j, -3.0, 1e-300j]])),
    (_SCALARS, np.array([0.3 - 0.1j])),
    (_SCALARS, np.arange(12).reshape(4, 1, 3) * (0.7 - 1.3j)),
    (_SCALARS, np.array([[1.0 + 1j, -2.0]])),
])
def test_one_by_one_solve_is_rhs_over_the_real_entry_bit_for_bit(m, rhs):
    want = rhs / (m[..., 0].real if rhs.ndim == 1 else m.real)
    got = hermitian_solve(m, rhs)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


@pytest.mark.parametrize("m, message", [
    (np.array([[np.nan + 0j]]), "non-finite"),
    (np.array([[1.0 + np.inf * 1j]]), "non-finite"),
    (np.array([[0.0 + 0j]]), "singular"),
    (np.array([[-1e-10 + 5j]]), "singular"),  # |lambda| <= 1e-10 max(|lambda|, 1)
    (np.concatenate([_SCALARS, [[[0.0]]]]), "singular"),
])
def test_one_by_one_solve_keeps_its_checks(m, message):
    with pytest.raises(NumericsError, match=message):
        hermitian_solve(m, np.ones(1))


def _loop_max(rows):
    """The max of per-row norms, a NaN propagating: the reference for _max_norm."""
    norms = [float(np.linalg.norm(r)) for r in rows]
    return float(np.max(norms)) if norms else 0.0


@pytest.mark.parametrize("shape", [(50, 1), (40, 3), (30, 4, 4), (1, 2), (200, 6)])
def test_max_norm_has_the_bits_of_the_max_of_per_row_norms(shape):
    rng = np.random.default_rng(sum(shape))
    for scale in (1e-15, 1.0, 1e8):
        rows = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        assert _max_norm(rows) == _loop_max(rows)
        assert _max_norm(rows.real) == _loop_max(rows.real)


def test_max_norm_on_ties_zero_rows_nan_and_no_rows():
    rng = np.random.default_rng(5)
    row = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    tied = np.array([row, row[::-1], 1j * row, row])  # equal norms, which may round apart
    assert _max_norm(tied) == _loop_max(tied)
    assert _max_norm(np.zeros((4, 3), dtype=complex)) == 0.0
    assert _max_norm(np.concatenate([np.zeros((3, 3)), tied])) == _loop_max(tied)
    assert _max_norm(np.zeros((0, 3))) == 0.0
    for i in range(4):  # a NaN propagates wherever it is, as Python's max would not
        rows = tied.copy()
        rows[i, 1] = np.nan
        assert np.isnan(_max_norm(rows))
    assert _max_norm(np.array([[np.inf, 0.0], [1.0, 2.0]])) == np.inf


@pytest.mark.parametrize("m", [np.array([[1.0, np.nan], [np.nan, 1.0]]),
                               np.array([[2.0, 0.0], [0.0, np.inf]]),
                               np.full((3, 2, 2), np.nan)])
def test_hermitian_solve_and_eigh_still_reject_a_non_finite_matrix(m):
    # internal callers trust matrices checked where they were computed; the public entries
    # check their own
    for call in (lambda: hermitian_solve(m, np.ones(2)), lambda: hermitian_eigh(m)):
        with pytest.raises(NumericsError, match="matrix has non-finite entries"):
            call()
