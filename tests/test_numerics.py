import re

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
    # any ASCII whitespace around the sign and the i, not only a space
    assert parse_complex("0.1+\t0.2i") == 0.1 + 0.2j
    assert parse_complex(" 1.5 -\n0.25 i ") == 1.5 - 0.25j
    assert str(parse_complex("1-\t0i")) == "(1-0j)"


@pytest.mark.parametrize("text", ["\u0660.\u0665", "\u0661+2i", "1+\u0662i", "\u0663i",
                                  "1\u00a0+2i", "\u20031"])
def test_parse_complex_grammar_is_ascii(text):
    # float() reads Arabic-Indic digits and Unicode spaces; the literal grammar does not
    with pytest.raises(NumericsError, match="cannot parse complex literal"):
        parse_complex(text)


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


def _bits(a):
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


_EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
         1.7976931348623157e308, 1.0, -1.0, 0.1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(shape=st.tuples(st.integers(1, 5), st.integers(1, 5)), data=st.data())
def test_csv_round_trip_is_bit_for_bit(shape, data):
    parts = st.one_of(st.sampled_from(_EDGE), st.floats(allow_nan=False, allow_infinity=False))
    size = 2 * shape[0] * shape[1]
    flat = np.array(data.draw(st.lists(parts, min_size=size, max_size=size)))
    m = flat.view(complex).reshape(shape)  # interleaved (re, im), signed zeros kept
    assert np.array_equal(_bits(matrix_from_csv_text(matrix_to_csv_text(m))), _bits(m))


def test_csv_text_is_the_per_entry_format():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((6, 5)) * 10.0 ** rng.integers(-320, 300, (6, 5)) + 1j * np.array(
        _EDGE[:5] * 6).reshape(6, 5)
    m[0, :] = [0.0, complex(-0.0, -0.0), complex(5e-324, -0.0), 1e308 - 1e308j, -1.5]
    for a in (m, m.T, m[:1], m[:, :1]):
        want = "".join(",".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) + "\n" for row in a)
        assert matrix_to_csv_text(a) == want
        assert [format_complex(z) for z in a[0]] == want.split("\n")[0].split(",")


@pytest.mark.parametrize("bare, canonical", [
    ("-i", "0-1i"), ("-1i", "0-1i"), (" - i ", "0-1i"), ("i", "0+1i"), ("+i", "0+1i"),
    ("-0.5i", "0-0.5i"),
])
def test_bare_imaginary_has_the_bits_of_its_canonical_form(bare, canonical):
    # `-i`, `-1i` and `0-1i` are one number, with real part +0.0, and write back as `0-1i`
    assert np.array_equal(_bits(parse_complex(bare)), _bits(parse_complex(canonical)))
    assert format_complex(parse_complex(bare)) == canonical


def test_csv_mixes_canonical_and_hand_written_rows():
    text = "1.5-0.25i,-0-0i\n 1.5 - 0.25 i , i\n\n  \n-2,-i\n0.5i,3e2+1E-1i\n"
    got = matrix_from_csv_text(text)
    want = np.array([[1.5 - 0.25j, complex(-0.0, -0.0)], [1.5 - 0.25j, 1j],
                     [complex(-2.0, 0.0), complex(0.0, -1.0)], [complex(0.0, 0.5), 300 + 0.1j]])
    assert np.array_equal(_bits(got), _bits(want))
    assert np.array_equal(_bits(got), _bits([[parse_complex(c) for c in line.split(",")]
                                              for line in text.splitlines() if line.strip()]))


@pytest.mark.parametrize("text, message", [
    ("", "empty CSV matrix"),
    (" \n\t\n", "empty CSV matrix"),
    ("1+0i,2+0i\n 3 , 4, 5\n", "ragged CSV matrix"),
    ("1+0i,2+0i\n1+0i,2+\u0660i\n", "cannot parse complex literal '2+\u0660i'"),
    ("1+0i,,2+0i\n", "cannot parse complex literal ''"),
])
def test_csv_reader_errors(text, message):
    with pytest.raises(NumericsError, match=re.escape(message)):
        matrix_from_csv_text(text)


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
