"""Operator states: linearity flags, tensor coefficients, quadruples."""

from __future__ import annotations

import numpy as np
import pytest

from compoundness.errors import (
    BadBasis,
    BadShape,
    MixedSignatures,
    NonFinite,
    ZeroOperator,
)
from compoundness.density import _normalized
from compoundness.hilbert import Subspace, _scaled, join_s, ray, span
from compoundness.operators import (
    ANTILINEAR,
    LINEAR,
    CompoundOperator,
    TensorVector,
    atomicity_probe,
    from_tensor,
    hs_norm,
    induced_map,
    quadruple,
    schmidt_tensor,
    to_tensor,
)
from compoundness.sampling import (
    complex_gaussian,
    random_operator,
    random_state_vector,
    random_subspace,
    random_tensor_vector,
)

E1 = np.array([1, 0], dtype=complex)
E2 = np.array([0, 1], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)


def test_identity_application():
    op = CompoundOperator(IDENTITY2)
    assert np.allclose(op.apply(E1), E1)


def test_rank_one_action():
    psi = random_state_vector(np.random.default_rng(0), 3)
    phi = random_state_vector(np.random.default_rng(1), 2)
    op = CompoundOperator(np.outer(phi, psi.conj()))
    assert np.allclose(op.apply(psi), phi)


def test_antilinear_identity_conjugates():
    op = CompoundOperator(IDENTITY2, ANTILINEAR)
    assert np.allclose(op.apply(1j * E1), -1j * E1)


def test_apply_rejects_wrong_length():
    with pytest.raises(BadShape):
        CompoundOperator(IDENTITY2).apply(np.zeros(3))


@pytest.mark.parametrize("flag_outer", [LINEAR, ANTILINEAR])
@pytest.mark.parametrize("flag_inner", [LINEAR, ANTILINEAR])
def test_composition_matches_sequential_action(flag_outer, flag_inner):
    rng = np.random.default_rng(5)
    outer = random_operator(rng, 3, 4, flag_outer)
    inner = random_operator(rng, 4, 2, flag_inner)
    composite = outer.compose(inner)
    expected_flag = LINEAR if flag_outer == flag_inner else ANTILINEAR
    assert composite.linearity == expected_flag
    for _ in range(10):
        v = complex_gaussian(rng, 2)
        assert np.allclose(composite.apply(v), outer.apply(inner.apply(v)))


def test_linear_adjoint_pairing():
    rng = np.random.default_rng(6)
    op = random_operator(rng, 3, 2, LINEAR)
    adj = op.adjoint()
    for _ in range(20):
        v = complex_gaussian(rng, 2)
        w = complex_gaussian(rng, 3)
        assert np.isclose(np.vdot(w, op.apply(v)), np.vdot(adj.apply(w), v))


def test_antilinear_adjoint_pairing_swaps_sides():
    rng = np.random.default_rng(7)
    op = random_operator(rng, 3, 2, ANTILINEAR)
    adj = op.adjoint()
    assert adj.linearity == ANTILINEAR
    for _ in range(20):
        v = complex_gaussian(rng, 2)
        w = complex_gaussian(rng, 3)
        assert np.isclose(np.vdot(w, op.apply(v)), np.vdot(v, adj.apply(w)))


# -- induced subspace maps -------------------------------------------------------


def test_induced_map_of_identity_fixes_subspaces():
    act = induced_map(CompoundOperator(np.eye(3, dtype=complex)))
    rng = np.random.default_rng(8)
    for _ in range(10):
        sub = random_subspace(rng, 3)
        assert act(sub).approx_equal(sub)


def test_induced_map_kills_exactly_the_kernel():
    # kernel is the last axis
    matrix = np.diag([1.0, 1.0, 0.0]).astype(complex)
    act = induced_map(CompoundOperator(matrix))
    e3 = np.eye(3, dtype=complex)[:, 2]
    assert act(ray(e3)).dim == 0
    inside = span(np.eye(3, dtype=complex)[:, :2])
    assert act(inside).dim == 2
    mixed = ray(np.array([1, 0, 1], dtype=complex))
    assert act(mixed).dim == 1  # not inside the kernel


def test_rays_map_to_rays_or_zero():
    rng = np.random.default_rng(9)
    for _ in range(50):
        op = random_operator(rng, 3, 3)
        act = induced_map(op)
        image = act(ray(random_state_vector(rng, 3)))
        assert image.dim in (0, 1)


def test_induced_map_preserves_joins_on_samples():
    rng = np.random.default_rng(10)
    for _ in range(500):
        d1 = int(rng.integers(2, 5))
        d2 = int(rng.integers(2, 5))
        flag = LINEAR if rng.integers(2) else ANTILINEAR
        act = induced_map(random_operator(rng, d2, d1, flag))
        a = random_subspace(rng, d1)
        b = random_subspace(rng, d1)
        lhs = act(join_s(a, b))
        rhs = join_s(act(a), act(b))
        assert lhs.approx_equal(rhs)


def test_induced_map_zero_to_zero():
    rng = np.random.default_rng(11)
    act = induced_map(random_operator(rng, 3, 2))
    assert act(Subspace.zero(2)).dim == 0


def test_antilinear_and_linear_agree_on_real_framed_subspaces():
    rng = np.random.default_rng(12)
    matrix = complex_gaussian(rng, 3, 3)
    lin = induced_map(CompoundOperator(matrix, LINEAR))
    anti = induced_map(CompoundOperator(matrix, ANTILINEAR))
    for _ in range(20):
        real_frame = np.linalg.qr(rng.standard_normal((3, 2)))[0].astype(complex)
        sub = Subspace(real_frame)
        assert lin(sub).approx_equal(anti(sub))


def test_antilinear_and_linear_differ_on_a_complex_ray():
    # conjugation moves the ray spanned by e1 + i e2, so the two induced
    # maps genuinely differ at the subspace level
    matrix = np.eye(2, dtype=complex)
    lin = induced_map(CompoundOperator(matrix, LINEAR))
    anti = induced_map(CompoundOperator(matrix, ANTILINEAR))
    sub = ray(E1 + 1j * E2)
    assert lin(sub).approx_equal(sub)
    assert not anti(sub).approx_equal(sub)


# -- tensor coefficient form ------------------------------------------------------


def test_single_term_is_a_rank_one_matrix():
    tv = TensorVector(np.array([1.0]), E1[:, None], E1[:, None])
    op = from_tensor(tv, LINEAR)
    assert np.allclose(op.matrix, np.outer(E1, E1.conj()))


def test_uniform_two_term_coefficients_give_scaled_identity():
    tv = TensorVector(
        np.array([1 / np.sqrt(2), 1 / np.sqrt(2)]), IDENTITY2, IDENTITY2
    )
    op = from_tensor(tv, LINEAR)
    assert np.allclose(op.matrix, IDENTITY2 / np.sqrt(2))


def test_from_tensor_rejects_unknown_linearity():
    tv = TensorVector(np.array([1.0]), E1[:, None], E1[:, None])
    with pytest.raises(ValueError, match="linearity must be"):
        from_tensor(tv, "sesquilinear")


def test_round_trip_in_fixed_bases():
    rng = np.random.default_rng(13)
    for flag in (LINEAR, ANTILINEAR):
        for _ in range(25):
            d1 = int(rng.integers(1, 9))
            d2 = int(rng.integers(1, 9))
            m = int(rng.integers(1, min(d1, d2) + 1))
            tv = random_tensor_vector(rng, d1, d2, m)
            op = from_tensor(tv, flag)
            back = to_tensor(op, tv.left_basis, tv.right_basis)
            assert np.allclose(back.coefficients, tv.coefficients, atol=1e-12)
            again = from_tensor(back, flag)
            assert np.allclose(again.matrix, op.matrix, atol=1e-12)


def test_to_tensor_rejects_non_orthonormal_bases():
    op = CompoundOperator(IDENTITY2)
    skew = np.column_stack([E1, E1 + E2])
    with pytest.raises(BadBasis):
        to_tensor(op, skew, IDENTITY2)


def test_to_tensor_rejects_bases_that_do_not_diagonalize():
    rng = np.random.default_rng(14)
    op = random_operator(rng, 2, 2)
    # generic operator is not diagonal over the computational bases
    with pytest.raises(BadBasis):
        to_tensor(op, IDENTITY2, IDENTITY2)


# at 1e±300, 1e±170 and 1e160 a norm of F v or of M would over- or underflow unscaled
SCALES = (1e-300, 1e-170, 1e-13, 1e-6, 1.0, 1e6, 1e13, 1e160, 1e170, 1e300)


def test_to_tensor_decides_alike_for_every_multiple_of_an_operator():
    m = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)  # not diagonal
    for flag in (LINEAR, ANTILINEAR):
        schmidt = schmidt_tensor(CompoundOperator(m, flag))
        for s in SCALES:
            op = CompoundOperator(s * m, flag)
            with pytest.raises(BadBasis, match="not diagonal"):
                to_tensor(op, IDENTITY2, IDENTITY2)
            tv = to_tensor(op, schmidt.left_basis, schmidt.right_basis)
            assert np.allclose(tv.coefficients, s * schmidt.coefficients, rtol=1e-12, atol=0)


def test_bases_follow_the_subspace_orthonormality_rule():
    skew = np.column_stack([E1, E1 + E2])
    nearly = np.eye(2, dtype=complex) + 1e-10  # within 1e-9 of orthonormal
    for build in (lambda b: TensorVector(np.ones(2), b, IDENTITY2),
                  lambda b: to_tensor(CompoundOperator(IDENTITY2), IDENTITY2, b)):
        with pytest.raises(BadBasis, match="frame columns are not orthonormal"):
            build(skew)
        build(nearly)
        with pytest.raises(BadBasis):
            build(np.eye(2) + 1e-8)


def test_schmidt_tensor_reconstructs_any_operator():
    rng = np.random.default_rng(15)
    for flag in (LINEAR, ANTILINEAR):
        for _ in range(20):
            op = random_operator(rng, int(rng.integers(1, 5)),
                                 int(rng.integers(1, 5)), flag)
            tv = schmidt_tensor(op)
            assert np.allclose(from_tensor(tv, flag).matrix, op.matrix, atol=1e-12)


def test_hs_norm_examples():
    assert hs_norm(CompoundOperator(np.zeros((2, 2)))) == 0.0
    assert np.isclose(hs_norm(CompoundOperator(IDENTITY2)), np.sqrt(2))
    tv = TensorVector(np.array([3 / 5, 4 / 5]), IDENTITY2, IDENTITY2)
    assert np.isclose(hs_norm(from_tensor(tv, LINEAR)), 1.0)


def test_hs_norm_equals_coefficient_norm():
    rng = np.random.default_rng(16)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        m = int(rng.integers(1, d + 1))
        tv = random_tensor_vector(rng, d, d, m)
        for flag in (LINEAR, ANTILINEAR):
            delta = abs(hs_norm(from_tensor(tv, flag))
                        - np.linalg.norm(tv.coefficients))
            assert delta <= 1e-12


# -- quadruples --------------------------------------------------------------------


def test_quadruple_of_scaled_identity():
    quad = quadruple(CompoundOperator(IDENTITY2 / np.sqrt(2)))
    assert np.allclose(quad.rho1.matrix, IDENTITY2 / 2)
    assert np.allclose(quad.rho2.matrix, IDENTITY2 / 2)


def test_quadruple_of_rank_one_operator():
    rng = np.random.default_rng(17)
    psi = random_state_vector(rng, 3)
    phi = random_state_vector(rng, 2)
    quad = quadruple(CompoundOperator(np.outer(phi, psi.conj())))
    assert np.allclose(quad.rho1.matrix, np.outer(psi, psi.conj()))
    assert np.allclose(quad.rho2.matrix, np.outer(phi, phi.conj()))


def test_quadruple_of_diagonal_coefficients():
    tv = TensorVector(np.array([3 / 5, 4 / 5]), IDENTITY2, IDENTITY2)
    quad = quadruple(from_tensor(tv, LINEAR))
    assert np.allclose(quad.rho1.matrix, np.diag([9 / 25, 16 / 25]))


def test_quadruple_rejects_zero():
    with pytest.raises(ZeroOperator):
        quadruple(CompoundOperator(np.zeros((2, 2))))


@pytest.mark.parametrize("flag", [LINEAR, ANTILINEAR])
def test_quadruple_builds_one_operator_and_the_former_states(flag, monkeypatch):
    # the states were formed through CompoundOperator(u) and its adjoint
    rng = np.random.default_rng(23)
    for d_out, d_in in ((1, 1), (2, 3), (4, 2), (5, 5)):
        op = CompoundOperator(random_operator(rng, d_in, d_out, flag).matrix * 1e-3, flag)
        unit = CompoundOperator(_scaled(op.matrix), flag)
        adj = unit.adjoint()
        rho1, rho2 = _normalized(adj._act(unit.matrix)), _normalized(unit._act(adj.matrix))
        built = []
        original = CompoundOperator.__post_init__
        monkeypatch.setattr(CompoundOperator, "__post_init__",
                            lambda self: built.append(self) or original(self))
        quad = quadruple(op)
        monkeypatch.undo()
        assert built == [quad.f21]
        assert np.array_equal(quad.rho1.matrix, rho1.matrix)
        assert np.array_equal(quad.rho2.matrix, rho2.matrix)
        assert np.array_equal(quad.f21.matrix, op.adjoint().matrix)


def test_quadruple_adjoint_has_same_flag():
    rng = np.random.default_rng(18)
    for flag in (LINEAR, ANTILINEAR):
        op = random_operator(rng, 3, 2, flag)
        quad = quadruple(op)
        assert quad.f21.linearity == flag
        assert quad.f21.matrix.shape == (2, 3)


def test_quadruple_density_validity_both_flags():
    rng = np.random.default_rng(19)
    for _ in range(100):
        d1 = int(rng.integers(1, 5))
        d2 = int(rng.integers(1, 5))
        flag = LINEAR if rng.integers(2) else ANTILINEAR
        quad = quadruple(random_operator(rng, d2, d1, flag))
        for rho in (quad.rho1, quad.rho2):
            m = rho.matrix
            assert np.linalg.norm(m - m.conj().T) <= 1e-12
            assert abs(np.trace(m).real - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(m)[0] >= -1e-10


def test_plan_is_the_quadruple_computed_once():
    op = random_operator(np.random.default_rng(20), 3, 2, ANTILINEAR)
    plan = op.plan
    assert op.plan is plan
    assert plan.f12 is op
    fresh = quadruple(op)
    for cached, direct in zip(plan[1:], fresh[1:]):
        assert np.array_equal(cached.matrix, direct.matrix)


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e170, 1e300])
def test_quadruple_takes_an_operator_state_up_to_a_nonzero_scalar(scale):
    rng = np.random.default_rng(21)
    for flag in (LINEAR, ANTILINEAR):
        op = random_operator(rng, 3, 2, flag)
        scaled = CompoundOperator(scale * op.matrix, flag)
        quad, ref = quadruple(scaled), quadruple(op)
        assert quad.f12 is scaled and quad.f21.linearity == flag
        assert np.array_equal(quad.f21.matrix, scaled.adjoint().matrix)
        for rho, want in ((quad.rho1, ref.rho1), (quad.rho2, ref.rho2)):
            assert np.abs(rho.matrix - want.matrix).max() <= 1e-14
        power = CompoundOperator(2.0 ** 900 * op.matrix, flag)
        for rho, want in zip(quadruple(power)[1:3], ref[1:3]):
            assert np.array_equal(rho.matrix, want.matrix)


# -- read-only values -------------------------------------------------------------


def test_operator_keeps_a_read_only_copy_of_its_matrix():
    m = IDENTITY2.copy()
    op = CompoundOperator(m)
    m[0, 0] = 5
    assert np.array_equal(op.matrix, IDENTITY2)
    assert m.flags.writeable
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5


@pytest.mark.parametrize("bad", [complex(x, 0.0) for x in (np.nan, np.inf, -np.inf)]
                         + [complex(0.0, x) for x in (np.nan, np.inf, -np.inf)])
def test_non_finite_entry_in_either_part_is_rejected(bad):
    m = IDENTITY2.copy()
    m[1, 0] = bad
    with pytest.raises(NonFinite):
        CompoundOperator(m)


# -- atomicity probe ----------------------------------------------------------------


def test_probe_equal_operators_consistent():
    rng = np.random.default_rng(20)
    op = random_operator(rng, 3, 3)
    report = atomicity_probe(op, op, 100, rng=rng)
    assert report.equal_on_samples and report.ordered_on_samples
    assert report.consistent and report.witness is None


def test_probe_zero_operator_sits_below_everything():
    rng = np.random.default_rng(21)
    zero = CompoundOperator(np.zeros((3, 3)))
    other = random_operator(rng, 3, 3)
    report = atomicity_probe(zero, other, 100, rng=rng)
    assert report.ordered_on_samples and not report.equal_on_samples
    assert report.zero_operator and report.consistent


def test_probe_scalar_multiples_are_equal_at_the_subspace_level():
    rng = np.random.default_rng(22)
    op = random_operator(rng, 3, 3)
    scaled = CompoundOperator((0.2 - 1.3j) * op.matrix)
    report = atomicity_probe(scaled, op, 100, rng=rng)
    assert report.equal_on_samples and report.consistent


def _report(report):
    witness = None if report.witness is None else report.witness.tobytes()
    return (report.samples, report.ordered_on_samples, report.equal_on_samples,
            report.zero_operator, report.consistent, witness)


def test_probe_report_is_the_same_for_every_multiple_of_either_operator():
    rng = np.random.default_rng(25)
    for flag in (LINEAR, ANTILINEAR):
        g = random_operator(rng, 3, 3, flag)
        reports = set()
        for s in SCALES:
            f = CompoundOperator(s * g.matrix, flag)
            for first, second in ((f, g), (g, f)):
                report = atomicity_probe(first, second, 50, rng=np.random.default_rng(7))
                assert report.equal_on_samples and report.consistent
                reports.add(_report(report))
        assert len(reports) == 1


def test_probe_orders_no_multiple_of_an_unrelated_operator():
    rng = np.random.default_rng(27)
    for flag in (LINEAR, ANTILINEAR):
        f, g = random_operator(rng, 3, 3, flag), random_operator(rng, 3, 3, flag)
        for s in SCALES:
            report = atomicity_probe(CompoundOperator(s * f.matrix, flag), g, 20,
                                     rng=np.random.default_rng(7))
            assert not report.ordered_on_samples and not report.equal_on_samples


def test_probe_zero_is_exact_zero():
    rng = np.random.default_rng(26)
    g = random_operator(rng, 3, 3)
    zero = CompoundOperator(np.zeros((3, 3)))
    report = atomicity_probe(g, zero, 20, rng=rng)
    assert not report.ordered_on_samples and not report.equal_on_samples
    assert report.consistent and report.witness is not None
    tiny = CompoundOperator(1e-150 * g.matrix)
    assert atomicity_probe(tiny, g, 20, rng=rng).equal_on_samples


def test_probe_finds_witness_for_enlarged_kernel():
    rng = np.random.default_rng(23)
    f_matrix = complex_gaussian(rng, 3, 3)
    v = random_state_vector(rng, 3)
    g_matrix = f_matrix @ (np.eye(3) - np.outer(v, v.conj()))
    report = atomicity_probe(
        CompoundOperator(f_matrix), CompoundOperator(g_matrix), 100, rng=rng
    )
    assert not report.ordered_on_samples
    assert report.witness is not None
    assert report.consistent  # ordering failed, so nothing to contradict


def test_probe_orders_and_equates_images_that_leq_orders_both_ways():
    # F v and G v are 1.5e-9 apart in C^2: span(F v) <= span(G v) and back
    f = CompoundOperator(np.array([[1.0], [0.0]]))
    g = CompoundOperator(np.array([[1.0], [1.5e-9]]))
    assert ray(f.apply([1.0])).leq(ray(g.apply([1.0])))
    for first, second in ((f, g), (g, f)):
        report = atomicity_probe(first, second, 10, rng=np.random.default_rng(3))
        assert report.ordered_on_samples and report.equal_on_samples
        assert report.witness is None


def test_probe_rejects_mixed_signatures():
    rng = np.random.default_rng(24)
    with pytest.raises(MixedSignatures):
        atomicity_probe(
            random_operator(rng, 2, 2, LINEAR),
            random_operator(rng, 2, 2, ANTILINEAR),
            10,
            rng=rng,
        )
