"""Numerically tolerant subspace lattice of a complex inner-product space."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from compoundness.errors import BadShape, DimensionMismatch, NonFinite
from compoundness.hilbert import (
    DEFAULT_TOL,
    Subspace,
    _rank,
    _scaled,
    join_s,
    meet_s,
    ortho_s,
    projector,
    ray,
    sasaki_s,
    span,
)
from compoundness.sampling import random_nested_pair, random_subspace, random_unitary

E1 = np.array([1, 0], dtype=complex)
E2 = np.array([0, 1], dtype=complex)


def test_span_collapses_linear_dependence():
    sub = span(np.column_stack([E1, 2 * E1]))
    assert sub.dim == 1
    assert sub.approx_equal(ray(E1))


def test_span_of_nothing_is_the_zero_subspace():
    sub = span(np.zeros((2, 0)))
    assert sub.dim == 0
    assert np.allclose(sub.projector(), 0.0)
    for empty in (np.zeros(0), np.zeros((0, 1)), np.zeros((0, 3))):
        sub = span(empty)
        assert (sub.dim, sub.ambient_dim) == (0, 0)


def test_span_of_mixed_diagonals_is_full_plane():
    vectors = np.column_stack([E1 + E2, E1 - E2])
    s = np.linalg.svd(vectors, compute_uv=False)
    assert np.allclose(s, [np.sqrt(2), np.sqrt(2)])
    assert span(vectors).dim == 2


def test_span_rejects_bad_inputs():
    for build in (span, Subspace):
        with pytest.raises(BadShape):
            build(np.zeros((2, 2, 2)))
        # a bad entry is named before a bad tolerance, one column or several,
        # and without a numpy warning on the way
        for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
            for cols in (1, 2, 3):
                frame = np.eye(4, dtype=complex)[:, :cols]
                frame[1, 0] = bad
                for tol in (DEFAULT_TOL, -1e-9, np.nan):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        with pytest.raises(NonFinite):
                            build(frame, tol)


def _svd_span(column, tol):
    """(rank, projector) of a column's span by an SVD and the rule s > tol * s_max."""
    u, s, _ = np.linalg.svd(column, full_matrices=False)
    rank = int(np.sum(s > tol * s[0])) if s[0] > 0.0 else 0
    return rank, u[:, :rank] @ u[:, :rank].conj().T


def _scaled_frame(column):
    """The one-column frame as the scaled algorithm builds it: the column
    scaled by :func:`_scaled`, over the norm of the scaled column."""
    x = _scaled(column[:, None])
    r = x.view(float)
    return x / np.sqrt(np.vdot(r, r))


def test_span_of_one_column_matches_its_svd():
    rng = np.random.default_rng(40)
    for dim in range(1, 13):
        for _ in range(10):
            u = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
            u /= np.linalg.norm(u, axis=0)
            # squared norms that are normal floats take the unscaled path,
            # the others the scaled one; both give the scaled algorithm's bits
            for scale in (1e-150, 1.0, 1e150, 1e-320, 1e-200, 1e200, 1e308):
                column = (u * scale)[:, 1]  # strided, as a column of a basis
                rank, expected = _svd_span(column[:, None], 1e-9)
                sub = span(column)
                assert sub.dim == rank == 1
                assert np.abs(sub.projector() - expected).max() <= 1e-12
                assert abs(np.vdot(sub.frame, sub.frame) - 1.0) <= 1e-15
                assert sub.frame.tobytes() == _scaled_frame(column).tobytes()


def test_span_of_one_column_whose_norm_overflows_is_its_ray():
    # the norm exceeds the largest float, so an SVD reports s = inf here
    for column, direction in (([1.5e308, 1.5e308], [1, 1]),
                              ([1.7e308 + 1.7e308j, 0.0], [1 + 1j, 0])):
        sub = ray(np.array(column))
        u = np.array(direction) / np.linalg.norm(direction)
        assert np.abs(sub.projector() - np.outer(u, u.conj())).max() <= 1e-15
        assert abs(np.vdot(sub.frame, sub.frame) - 1.0) <= 1e-15


def test_span_of_several_columns_whose_largest_singular_value_overflows():
    # the largest singular value exceeds the largest float, so an SVD of the
    # unscaled matrix reports s[0] = inf and no singular value passes the rule
    assert span(np.array([[1.5e308, 1.5e308], [1.5e308, -1.5e308]])).dim == 2
    assert span(np.array([[1.5e308, 0.0], [1.5e308, 1e300]])).dim == 2
    # independent columns with s[1] / s[0] about 3.3e-309: a line under the
    # default tol, as at a finite scale, and the plane at tol = 0
    skew = np.array([[1.5e308, 0.0], [1.5e308, 1.0]])
    line = span(skew)
    assert line.dim == span(skew * 2.0**-100).dim == 1
    assert np.abs(line.projector() - 0.5).max() <= 1e-15
    assert span(skew, tol=0.0).dim == 2


def test_span_of_several_columns_keeps_the_frame_of_an_unscaled_svd():
    rng = np.random.default_rng(41)
    for dim in range(2, 13):
        for cols in range(2, 7):
            for scale in (1.0, 3.7, 1e-3):
                a = rng.normal(size=(dim, cols)) + 1j * rng.normal(size=(dim, cols))
                if cols > 2:
                    a[:, -1] = a[:, 0] * (0.5 - 0.25j)
                a *= scale
                u, s, _ = np.linalg.svd(a, full_matrices=False)
                rank = int(np.sum(s > 1e-9 * s[0]))
                sub = span(a)
                assert sub.dim == rank
                assert np.abs(sub.frame - u[:, :rank]).max() <= 1e-15


def test_a_negative_tolerance_is_refused():
    for cols in (0, 1, 3):
        frame = np.eye(3, dtype=complex)[:, :cols]
        for tol in (-1e-9, -1.0, np.nan):
            with pytest.raises(ValueError, match="nonnegative"):
                Subspace(frame, tol)
    # the tolerance is named before the frame's orthonormality
    with pytest.raises(ValueError, match="nonnegative"):
        Subspace(np.column_stack([E1, E1]), np.nan)


def test_a_nan_tolerance_is_refused_by_span():
    # a NaN tolerance compares false both ways: it would make every span zero,
    # a ray not below itself and a ray's join with a plane zero
    v = np.array([1.0, 2.0j, -3.0])
    for vectors in (v, np.column_stack([v, np.ones(3)]), np.zeros((3, 0))):
        with pytest.raises(ValueError, match="nonnegative"):
            span(vectors, np.nan)


def test_span_of_one_column_is_zero_for_the_zero_vector_or_tol_at_least_one():
    assert span(np.zeros(3)).dim == 0
    assert span(np.zeros((3, 2))[:, 1]).dim == 0
    assert _svd_span(np.zeros((3, 1)), 1e-9)[0] == 0
    v = np.array([1.0, 2.0j, -3.0])
    for tol in (1.0, 2.5):
        assert _svd_span(v[:, None], tol)[0] == 0
        for scale in (1e-200, 1.0, 1e200):  # unscaled and scaled paths
            sub = span(v * scale, tol)
            assert (sub.dim, sub.ambient_dim, sub.tol) == (0, 3, tol)


def test_span_of_one_column_rejects_non_finite_entries_and_ray_rejects_zero():
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
        for other in (1e-200, 1.0, 1e200):
            with pytest.raises(NonFinite):
                span(np.array([other, bad]))
            with pytest.raises(NonFinite):
                span(np.array([[other, 0.0], [bad, 1.0]])[:, 0])
    with pytest.raises(BadShape):
        ray(np.zeros(2))


def test_subspace_keeps_a_read_only_copy_of_its_frame():
    frame = np.eye(2, dtype=complex)[:, :1].copy()
    sub = Subspace(frame)
    assert frame.flags.writeable
    frame[:, 0] = E2
    assert np.array_equal(sub.frame, E1[:, None])
    with pytest.raises(ValueError):
        sub.frame[0, 0] = 0.0


def test_meet_of_orthogonal_rays_is_zero():
    assert meet_s(ray(E1), ray(E2)).dim == 0


def test_join_of_skew_rays_is_full_plane():
    joined = join_s(ray(E1), ray(E1 + E2))
    assert joined.dim == 2
    assert joined.approx_equal(Subspace.full(2))


def test_complement_of_axis_in_three_dims():
    e1 = np.array([1, 0, 0], dtype=complex)
    rest = ortho_s(ray(e1))
    assert rest.dim == 2
    expected = span(np.eye(3, dtype=complex)[:, 1:])
    assert rest.approx_equal(expected)


def test_dimension_mismatch_is_rejected():
    with pytest.raises(DimensionMismatch):
        meet_s(ray(E1), ray(np.array([1, 0, 0], dtype=complex)))


def test_projector_of_zero_and_full():
    assert np.allclose(projector(Subspace.zero(3)), np.zeros((3, 3)))
    assert np.allclose(projector(Subspace.full(3)), np.eye(3))


def test_projector_of_diagonal_ray():
    p = projector(ray((E1 + E2) / np.sqrt(2)))
    assert np.allclose(p, np.full((2, 2), 0.5))
    assert np.allclose(p, p.conj().T)
    assert np.allclose(p @ p, p)


def test_sasaki_projects_skew_ray_onto_axis():
    result = sasaki_s(ray(E1), ray(E1 + E2))
    assert result.approx_equal(ray(E1))


def test_sasaki_fixes_contained_subspaces():
    rng = np.random.default_rng(0)
    for _ in range(25):
        dim = int(rng.integers(2, 5))
        inner, outer = random_nested_pair(rng, dim)
        assert sasaki_s(outer, inner).approx_equal(inner)


def test_sasaki_of_orthogonal_rays_is_zero():
    assert sasaki_s(ray(E1), ray(E2)).dim == 0


def _projected(a, b):
    """span(P_a F_b): the Sasaki projection as an image, independent of meet and join."""
    return span(a.projector() @ b.frame, max(a.tol, b.tol))


def test_sasaki_cross_check_at_a_tolerance_coarser_than_the_angle():
    # a tolerance coarser than the angle between the spaces makes the
    # formula drop a component the image keeps; sasaki_s is the formula
    eps = 1e-6
    a = ray(E1, tol=1e-3)
    b = ray(eps * E1 + E2, tol=1e-3)
    assert sasaki_s(a, b).dim == 0
    assert _projected(a, b).approx_equal(ray(E1))


def test_subspace_frame_must_be_orthonormal():
    from compoundness.errors import BadBasis

    with pytest.raises(BadBasis):
        Subspace(np.column_stack([E1, E1]))
    # finite entries whose Gram matrix overflows are not orthonormal either,
    # also where the overflow leaves NaN in it (complex entries)
    for big in (1e200, 1e200 + 1e200j, -1e200j):
        for cols in (1, 3):
            with np.errstate(invalid="ignore", over="ignore"):
                with pytest.raises(BadBasis):
                    Subspace(np.full((3, cols), big))
    # a vector is promoted to one column
    sub = Subspace(E2)
    assert sub.frame.shape == (2, 1) and np.array_equal(sub.frame[:, 0], E2)


def test_subspace_frame_check_stops_at_the_default_tolerance():
    from compoundness.errors import BadBasis

    # off the identity by 0.6 in the Gram matrix: P @ P - P has norm 0.99
    with pytest.raises(BadBasis):
        Subspace(np.array([[1, 0.6], [0, 0.8]]), tol=0.75)
    near = Subspace(np.diag([1, 1 + 2e-10]), tol=0.75)
    assert near.dim == 2


def test_span_is_frame_invariant():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        sub = random_subspace(rng, dim, rank=int(rng.integers(1, dim + 1)))
        mix = random_unitary(rng, sub.dim)
        again = Subspace(sub.frame @ mix)
        assert sub.approx_equal(again)


def test_equality_is_containment_both_ways():
    # rays 1.5e-9 apart in C^2: each is below the other within 2e-9 (the gap
    # is 1.5e-9), while their projectors differ by sqrt(2) times that
    a, b = ray(E1), ray(E1 + 1.5e-9 * E2)
    assert a.leq(b) and b.leq(a)
    assert a.approx_equal(b) and b.approx_equal(a)
    far = ray(E1 + 3e-9 * E2)
    assert not a.leq(far) and not a.approx_equal(far)


def test_leq_and_perp():
    assert ray(E1).leq(Subspace.full(2))
    assert not Subspace.full(2).leq(ray(E1))
    assert ray(E1).perp(ray(E2))
    assert not ray(E1).perp(ray(E1 + E2))


# -- randomized law checks ------------------------------------------------------


def test_orthomodular_law_on_random_nested_pairs():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(300):
        dim = int(rng.integers(2, 5))
        inner, outer = random_nested_pair(rng, dim)
        rebuilt = join_s(inner, meet_s(outer, ortho_s(inner)))
        worst = max(worst, np.linalg.norm(outer.projector() - rebuilt.projector()))
    assert worst <= 1e-9


def test_double_complement_on_random_subspaces():
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(300):
        dim = int(rng.integers(2, 5))
        a = random_subspace(rng, dim)
        worst = max(
            worst,
            np.linalg.norm(ortho_s(ortho_s(a)).projector() - a.projector()),
        )
    assert worst <= 1e-9


def test_de_morgan_on_random_subspaces():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(300):
        dim = int(rng.integers(2, 5))
        a = random_subspace(rng, dim)
        b = random_subspace(rng, dim)
        lhs = ortho_s(join_s(a, b))
        rhs = meet_s(ortho_s(a), ortho_s(b))
        worst = max(worst, np.linalg.norm(lhs.projector() - rhs.projector()))
    assert worst <= 1e-9


def test_sasaki_cross_check_on_random_subspaces():
    rng = np.random.default_rng(24)
    for _ in range(300):
        dim = int(rng.integers(2, 5))
        a = random_subspace(rng, dim)
        b = random_subspace(rng, dim)
        assert sasaki_s(a, b).approx_equal(_projected(a, b))


# -- one rank rule for meet and join ---------------------------------------------


def test_rank_counts_values_above_tol_times_the_largest():
    assert _rank(np.array([2.0, 1.0, 3e-9, 2e-9]), 1e-9) == 3
    assert _rank(np.array([1.0, 1.0]), 0.0) == 2
    assert _rank(np.zeros(3), 1e-9) == 0


def _tilted(rng, tilt, tol=DEFAULT_TOL):
    """(a, b) in C^2..C^4 at ``tol``: b's first columns are some of a's frame
    columns, each tilted by ``tilt`` towards a random direction; the rest
    are random."""
    n = int(rng.integers(2, 5))
    frame = random_unitary(rng, n)
    ra, rb = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
    shared = int(rng.integers(1, min(ra, rb) + 1))
    b = rng.standard_normal((n, rb)) + 1j * rng.standard_normal((n, rb))
    push = b[:, :shared] / np.linalg.norm(b[:, :shared], axis=0)
    b[:, :shared] = frame[:, :shared] + tilt * push
    return span(frame[:, :ra], tol), span(b, tol)


@pytest.mark.parametrize("low, high, seed", [(1e-10, 1e-3, 5), (1e-9, 3e-9, 6)],
                         ids=["tilts-1e-10-to-1e-3", "across-the-rank-boundary"])
def test_meet_and_join_keep_the_dimension_formula_and_the_order_on_tilted_pairs(
        low, high, seed):
    rng = np.random.default_rng(seed)
    for _ in range(400):
        tilt = float(np.exp(rng.uniform(np.log(low), np.log(high))))
        a, b = _tilted(rng, tilt)
        met, joined = meet_s(a, b), join_s(a, b)
        where = f"tilt={tilt:.2e} dims=({a.dim},{b.dim}) in C^{a.ambient_dim}"
        assert met.dim + joined.dim == a.dim + b.dim, where
        assert met.leq(a) and met.leq(b), where
        assert a.leq(joined) and b.leq(joined), where


@pytest.mark.parametrize("tol", [0.75, 0.9, 0.99])
def test_meet_and_join_keep_the_dimension_formula_and_the_order_at_coarse_tol(tol):
    # the meet decides its rank once, from the singular values of [F_a F_b]
    rng = np.random.default_rng(9)
    for _ in range(300):
        tilt = float(np.exp(rng.uniform(np.log(1e-2), np.log(3.0))))
        a, b = _tilted(rng, tilt, tol)
        met, joined = meet_s(a, b), join_s(a, b)
        where = f"tilt={tilt:.2e} dims=({a.dim},{b.dim}) in C^{a.ambient_dim}"
        assert met.dim + joined.dim == a.dim + b.dim, where
        assert met.leq(a) and met.leq(b), where


def test_meet_frames_are_orthonormal_at_every_tol():
    rng = np.random.default_rng(10)
    for tol in np.geomspace(1e-9, 2.0, 12):
        for _ in range(60):
            tilt = float(np.exp(rng.uniform(np.log(1e-10), np.log(3.0))))
            met = meet_s(*_tilted(rng, tilt, tol))
            gram = met.frame.conj().T @ met.frame
            assert np.abs(gram - np.eye(met.dim)).max(initial=0.0) <= 1e-12, (tol, tilt)


def _rays_at(theta):
    return ray(E1), ray(np.cos(theta) * E1 + np.sin(theta) * E2)


def test_the_rank_boundary_of_two_rays_is_the_same_for_span_join_and_meet():
    # at the default tol two unit rays at angle theta are one ray up to
    # theta = 2e-9 (s_min / s_max is about theta / 2), and a plane beyond
    a, b = _rays_at(1.8e-9)
    assert span(np.hstack([a.frame, b.frame])).dim == 1
    assert join_s(a, b).dim == 1
    met = meet_s(a, b)
    assert met.dim == 1 and met.leq(a) and met.leq(b)
    for theta in (2.2e-9, *np.geomspace(1e-8, 3e-5, 6)):
        a, b = _rays_at(theta)
        assert span(np.hstack([a.frame, b.frame])).dim == 2, theta
        assert join_s(a, b).dim == 2, theta
        assert meet_s(a, b).dim == 0, theta


def test_planes_in_three_dims_at_a_small_angle_meet_in_their_shared_ray():
    e1, e2, e3 = np.eye(3, dtype=complex)
    a = span(np.column_stack([e1, e2]))
    b = span(np.column_stack([e1, e2 + 1e-6 * e3]))
    met = meet_s(a, b)
    assert met.dim == 1 and met.approx_equal(ray(e1))
    assert join_s(a, b).dim == 3


def test_distributivity_fails_in_the_plane():
    # regression witness: a /\ (b \/ c) = a but (a/\b) \/ (a/\c) = 0
    a, b, c = ray(E1), ray(E2), ray(E1 + E2)
    lhs = meet_s(a, join_s(b, c))
    rhs = join_s(meet_s(a, b), meet_s(a, c))
    assert lhs.approx_equal(a)
    assert rhs.dim == 0
    assert not lhs.approx_equal(rhs)
