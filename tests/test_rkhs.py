import numpy as np
import pytest

from kernelconnect.cpmaps import cp_kernel, random_unital_cpmap, random_unitary
from kernelconnect.grassmann import HermitianProjector, coordinate_projector, universal_kernel
from kernelconnect.kernels import (
    DomainError,
    VectorDomain,
    feature_kernel,
    make_bergman_disk,
    make_fock,
)
from kernelconnect.numerics import NumericsError
from kernelconnect.rkhs import (
    RKHSElement,
    SampledRKHS,
    build_rkhs,
    evaluate_element,
    project_fiber,
    universality_residual,
)


def _disk_space():
    k = make_bergman_disk(2)
    pts = [np.array([z]) for z in (0.0, 0.3, -0.2 + 0.4j, 0.5j)]
    return build_rkhs(k, pts)


def test_reproducing_property():
    # <khat(t, 1), khat(s, 1)> = g* G f = kappa(s, t) on the sample, khat(t, 1) = e_t
    r = _disk_space()
    eye = np.eye(len(r.points))
    for i, s in enumerate(r.points):
        for j, t in enumerate(r.points):
            assert abs(eye[i] @ r.gram @ eye[j] - r.kernel(s, t)[0, 0]) < 1e-13


def test_evaluation_off_sample():
    # f(s) = sum_i kappa(s, t_i) c_i holds at points outside the sample too
    r = _disk_space()
    f = RKHSElement(r, np.array([0.0, 2.0 - 1j, 0.0, 0.0]))  # khat(t_1, 2 - i)
    s = np.array([0.1 - 0.2j])
    expected = r.kernel(s, r.points[1]) @ np.array([2.0 - 1j])
    assert np.linalg.norm(evaluate_element(f, s) - expected) < 1e-13


def test_fiber_projection_is_idempotent():
    r = _disk_space()
    rng = np.random.default_rng(2)
    c = rng.standard_normal(len(r.points)) + 1j * rng.standard_normal(len(r.points))
    f = RKHSElement(r, c)
    s = r.points[2]
    once = project_fiber(r, s, f)
    twice = project_fiber(r, s, once)
    assert np.linalg.norm(once.coefficients - twice.coefficients) < 1e-12


def test_fiber_projection_is_orthogonal():
    # the residual f - Pf is Gram-orthogonal to every generator at s
    r = _disk_space()
    rng = np.random.default_rng(3)
    c = rng.standard_normal(len(r.points)) + 1j * rng.standard_normal(len(r.points))
    f = RKHSElement(r, c)
    s = r.points[0]
    residual = f.coefficients - project_fiber(r, s, f).coefficients
    gen = np.eye(len(r.points))[0]  # khat(s, 1), s = t_0
    assert abs(gen.conj() @ r.gram @ residual) < 1e-12


def test_universality_residual_small_for_builtins():
    assert universality_residual(_disk_space()) < 1e-10
    k = make_fock(np.eye(2))
    rng = np.random.default_rng(4)
    pts = [0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)) for _ in range(5)]
    assert universality_residual(build_rkhs(k, pts)) < 1e-10


def test_universality_residual_is_rounding_on_any_matrix_with_invertible_diagonal_blocks():
    # a random non-Hermitian 8 x 8 "Gram" with PD 2 x 2 diagonal blocks, held with a kernel of
    # fiber dimension 2 whose own Gram it is not: the residual tests the blocks, not the kernel
    rng = np.random.default_rng(7)
    gram = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    for i in range(0, 8, 2):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        gram[i:i + 2, i:i + 2] = a @ a.conj().T + np.eye(2)
    assert np.abs(gram - gram.conj().T).max() > 1.0
    k = feature_kernel(lambda s: np.array([[1.0, np.conj(s[0])]]), 2, VectorDomain(1, name="C"),
                       "rank-one")
    hand = SampledRKHS(k, tuple(np.array([z]) for z in (0.1, 0.2, 0.3, 0.4)), gram, np.zeros(8))
    assert universality_residual(hand) <= 1e-13


def _universality_by_definition(r):
    """max over (s, t, v, w) of |(kappa(s,t) v | w) - <P_s khat(t,v), khat(s,w)>|, term by term.

    khat(t, v) has v in the block of t and zeros elsewhere; the pairing <f, g> is g* G f."""
    m = r.fiber_dim
    eye = np.eye(len(r.points) * m)  # row i*m + v is khat(t_i, e_v)
    res = 0.0
    for i, s in enumerate(r.points):
        for j, t in enumerate(r.points):
            kst = r.kernel(s, t)
            for v in range(m):
                proj = project_fiber(r, s, RKHSElement(r, eye[j * m + v])).coefficients
                for w in range(m):
                    res = max(res, abs(kst[w, v] - eye[i * m + w] @ r.gram @ proj))
    return res


def test_universality_residual_matches_its_definition():
    rng = np.random.default_rng(6)
    base = coordinate_projector(4, 2)
    grass_pts = [base] + [
        HermitianProjector(u @ base.p @ u.conj().T, 2)
        for u in (random_unitary(4, seed=60 + i) for i in range(3))]
    spaces = [
        _disk_space(),
        build_rkhs(make_fock(np.eye(2)),
                   [0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
                    for _ in range(4)]),
        build_rkhs(universal_kernel(4, 2), grass_pts),
    ]
    for r in spaces:
        assert abs(universality_residual(r) - _universality_by_definition(r)) <= 1e-14


def test_duplicate_points_rejected():
    k = make_bergman_disk(2)
    with pytest.raises(ValueError):
        build_rkhs(k, [np.array([0.1]), np.array([0.1])])


def test_points_of_the_wrong_size_are_named_as_in_a_gram():
    with pytest.raises(DomainError, match=r"C\^2: expected dimension 2, got 3 \(point 2 of 3\)"):
        build_rkhs(make_fock(np.eye(2)), [[0, 0], [1, 1j, 2], [0, 1]])


def test_non_psd_input_rejected():
    # kappa(s,t) = s + conj(t) is Hermitian-symmetric but indefinite
    from kernelconnect.kernels import Kernel

    bad = Kernel(1, VectorDomain(1, name="C"),
                 lambda s, t: np.array([[complex(s[0]) + np.conj(complex(t[0]))]]))
    pts = [np.array([z]) for z in (1.0, -1.0, 2.0)]
    with pytest.raises(NumericsError):
        build_rkhs(bad, pts)


def test_degenerate_kernel_fiber_projection_fails_loudly():
    k = feature_kernel(lambda s: np.array([[1.0, np.conj(s[0])]]), 2, VectorDomain(1, name="C"),
                       "rank-one")
    pts = [np.array([0.1]), np.array([0.5])]
    r = build_rkhs(k, pts)
    f = RKHSElement(r, np.array([1.0, 0.0, 0.0, 0.0]))  # khat(t_0, e_0)
    with pytest.raises(NumericsError):
        project_fiber(r, pts[0], f)
    with pytest.raises(NumericsError):
        universality_residual(r)


def test_duplicate_message_names_the_first_pair_of_vector_points():
    k = make_bergman_disk(2)
    pts = [np.array([z]) for z in (0.1, 0.2j, 0.3, 0.2j + 1e-13, 0.1, 0.3)]
    with pytest.raises(ValueError, match="duplicate sample points at indices 0 and 4"):
        build_rkhs(k, pts)
    with pytest.raises(ValueError, match="duplicate sample points at indices 0 and 2"):
        build_rkhs(k, pts[1:4] + [np.array([0.5])])


def test_duplicate_message_names_the_first_pair_of_projector_points():
    base = coordinate_projector(4, 2)
    others = [HermitianProjector(u @ base.p @ u.conj().T, 2)
              for u in (random_unitary(4, seed=70 + i) for i in range(3))]
    pts = [others[0], base, others[1], others[2],
           HermitianProjector(others[1].p.copy(), 2), base]
    with pytest.raises(ValueError, match="duplicate sample points at indices 1 and 5"):
        build_rkhs(universal_kernel(4, 2), pts)
    with pytest.raises(ValueError, match="duplicate sample points at indices 1 and 3"):
        build_rkhs(universal_kernel(4, 2), pts[1:5])


def test_lookup_keeps_the_one_point_rule():
    r = _disk_space()
    near = [np.array([complex(p[0]) + 1e-13]) for p in r.points]
    assert [r.point_index(p) for p in near[::-1]] == [3, 2, 1, 0]
    assert [r.point_index(p) for p in near] == [0, 1, 2, 3]
    for far in (np.array([0.3 + 1e-11]), np.array([0.7]), np.array([0.3, 0.0]), np.zeros((2, 2))):
        with pytest.raises(KeyError):
            r.point_index(far)
        with pytest.raises(KeyError):
            [r.point_index(p) for p in (r.points[0], far)]


@pytest.mark.parametrize("by_hand", [False, True])
def test_lookup_reads_the_held_sample(by_hand):
    # a space built by hand derives its held sample on first use; a point outside the sample, or
    # of another size, is still a KeyError
    r = _disk_space()
    r = SampledRKHS(r.kernel, r.points, r.gram, r.eigenvalues) if by_hand else r
    assert [r.point_index(p) for p in r.points[::-1]] == [3, 2, 1, 0]
    assert r._sample[0].shape == (4, 1) and r._sample[1].shape == (4, 1)
    for far in (0.3 + 1e-11, np.array([0.3, 0.0]), np.zeros(0), np.zeros((1, 1, 2))):
        with pytest.raises(KeyError):
            r.point_index(far)


def _spaces():
    """(kernel, sample, off-sample points) on the disk, C^2 (Fock), U(3) (cp_kernel), Gr(4, 2)."""
    base = coordinate_projector(4, 2)
    grass = [HermitianProjector(u @ base.p @ u.conj().T, 2)
             for u in (random_unitary(4, seed=110 + i) for i in range(5))]
    psi = random_unital_cpmap(3, 2, 4, np.random.default_rng(111))
    us = [random_unitary(3, seed=112 + i) for i in range(5)]
    return [
        (make_bergman_disk(2), [np.array([z]) for z in (0.0, 0.3, -0.2 + 0.4j)],
         [np.array([0.1 - 0.2j]), 0.6j]),
        (make_fock(np.eye(2)), [[0, 0], [1, 1j], [0.5, -1]], [np.array([0.2, 0.3j])]),
        (cp_kernel(psi), us[:3], us[3:]),
        (universal_kernel(4, 2), grass[:3], grass[3:]),
    ]


@pytest.mark.parametrize("case", range(4))
@pytest.mark.parametrize("by_hand", [False, True])
def test_evaluation_has_the_bits_of_the_kernel_block(case, by_hand):
    # evaluate_element checks s alone and reads the held sample: the bits of block((s,), points)
    k, pts, off = _spaces()[case]
    r = build_rkhs(k, pts)
    if by_hand:
        r = SampledRKHS(k, tuple(pts), r.gram, r.eigenvalues)
    c = np.random.default_rng(113).standard_normal(len(pts) * k.fiber_dim) + 0.5j
    f = RKHSElement(r, c)
    for s in (*pts, *off):
        assert evaluate_element(f, s).tobytes() == (k.block((s,), pts) @ f.coefficients).tobytes()


def test_a_hand_built_space_checks_its_sample_on_first_use():
    r = _disk_space()
    hand = SampledRKHS(r.kernel, (*r.points[:3], np.array([1.5])), r.gram, r.eigenvalues)
    f = RKHSElement(hand, np.ones(4, dtype=complex))
    message = r"too close to the unit circle \(point 4 of 4\)"
    with pytest.raises(DomainError, match=message):
        evaluate_element(f, np.array([0.1]))
    with pytest.raises(DomainError, match=message):
        hand.point_index(r.points[0])
    with pytest.raises(DomainError, match="too close to the unit circle"):
        evaluate_element(RKHSElement(r, np.ones(4, dtype=complex)), np.array([1.5]))


def test_points_of_one_size_in_mixed_shapes_build_and_are_found():
    r = build_rkhs(make_bergman_disk(2), [0.1, np.array([0.2]), 0.3 + 0.1j])
    assert [r.point_index(p) for p in (np.array([0.3 + 0.1j]), 0.2, np.array([0.1]))] == [2, 1, 0]
    with pytest.raises(KeyError):
        r.point_index(np.array([0.1, 0.0]))


def test_lookup_finds_projectors_by_their_matrix():
    base = coordinate_projector(4, 2)
    pts = [base] + [HermitianProjector(u @ base.p @ u.conj().T, 2)
                    for u in (random_unitary(4, seed=90 + i) for i in range(3))]
    r = build_rkhs(universal_kernel(4, 2), pts)
    assert [r.point_index(HermitianProjector(p.p.copy(), 2)) for p in pts[::-1]] == [3, 2, 1, 0]
    with pytest.raises(KeyError):
        r.point_index(coordinate_projector(4, 1))


def test_a_hand_built_space_with_no_points_finds_no_point_and_evaluates_to_zero():
    r = SampledRKHS(make_bergman_disk(2), (), np.zeros((0, 0), dtype=complex), np.zeros(0))
    with pytest.raises(KeyError, match="point is not among the sample points"):
        r.point_index(0.1)
    assert np.array_equal(evaluate_element(RKHSElement(r, np.zeros(0)), 0.1), [0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_hand_built_space_with_a_non_finite_gram_still_fails(bad):
    # project_fiber trusts the Gram that build_rkhs checked; a space built by hand with a value
    # that is not finite still raises, at the coefficients, and universality checks its blocks
    r = _disk_space()
    gram = r.gram.copy()
    gram[0, 0] = bad
    hand = type(r)(r.kernel, r.points, gram, r.eigenvalues)
    f = RKHSElement(hand, np.ones(len(r.points), dtype=complex))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite coefficients"):
        project_fiber(hand, r.points[0], f)
    with pytest.raises(NumericsError, match="matrix has non-finite entries"):
        universality_residual(hand)


def test_spaces_and_elements_compare_by_identity_without_reading_their_arrays():
    r = _disk_space()
    copy = SampledRKHS(r.kernel, r.points, r.gram.copy(), r.eigenvalues.copy())
    assert r == r and r != copy and not (r == copy)
    f = RKHSElement(r, np.ones(len(r.points)))
    assert f == f and f != RKHSElement(r, np.ones(len(r.points)))
    assert len({r, copy, f}) == 3  # hashable, each by its identity
