"""Proper states, projective updates, the cascade, and the Born oracle."""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest

from compoundness.cascade import (
    LEFT_FIRST,
    RIGHT_FIRST,
    CascadeTrace,
    born_probability,
    chain_order_check,
    check_prop2,
    run_cascade,
)
from compoundness.density import (
    ORTHOGONAL_CUTOFF,
    DensityState,
    _update,
    carrier,
    lueders,
    transition_probability,
)
from compoundness.errors import BadShape, NonFinite, NotADensity, ZeroOperator, ZeroVector
from compoundness.hilbert import DEFAULT_TOL, Subspace, ortho_s, ray, sasaki_s, span
from compoundness.operators import (
    ANTILINEAR,
    LINEAR,
    CompoundOperator,
    TensorVector,
    from_tensor,
    quadruple,
)
from compoundness.reporting import LawRecorder
from compoundness.sampling import (
    random_density,
    random_operator,
    random_state_vector,
    random_subspace,
    random_tensor_vector,
    random_unitary,
)

from oracles import kron_state, lueders_update

E1 = np.array([1, 0], dtype=complex)
E2 = np.array([0, 1], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)


# -- density states ------------------------------------------------------------


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-170, 1e170, 1e200, 1e300])
def test_pure_state_is_the_projector_onto_the_ray_at_any_scale(scale):
    rho = DensityState.pure([scale, scale])
    assert np.abs(rho.matrix - 0.5).max() <= 1e-15
    assert carrier(rho).approx_equal(ray(E1 + E2))
    with pytest.raises(ZeroVector):
        DensityState.pure([0.0, 0.0])


def test_density_validation_rejects_bad_matrices():
    with pytest.raises(NotADensity):
        DensityState(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(NotADensity):
        DensityState(IDENTITY2)  # trace 2
    with pytest.raises(NotADensity):
        DensityState(np.diag([1.5, -0.5]).astype(complex))  # negative eigenvalue
    with pytest.raises(BadShape):
        DensityState(np.ones((2, 3)))


SKEW = np.array([[0.0, 1.0], [-1.0, 0.0]])  # M - M^H = 2 SKEW, of norm 2 sqrt(2)
NON_FINITE = (NonFinite, "matrix contains NaN or infinite entries")
NOT_HERMITIAN = (NotADensity, "density operator is not Hermitian within 1e-12")


@pytest.mark.parametrize("matrix, error", [
    (np.array([[0.5, np.nan], [np.nan, 0.5]]), NON_FINITE),
    (np.diag([np.inf, 0.0]), NON_FINITE),
    (np.array([[0.5, 1j * np.inf], [-1j * np.inf, 0.5]]), NON_FINITE),
    (np.full((2, 3), np.nan), NON_FINITE),  # entries are checked before the shape
    (np.ones((2, 3)), (BadShape, "density operator must be square, got (2, 3)")),
    (np.array([[2.0, 1.0], [0.0, 0.0]]), NOT_HERMITIAN),  # checked before the trace
    (np.eye(2) / 2 + 1e-12 / 2 * SKEW, NOT_HERMITIAN),
    (np.eye(2), (NotADensity, "density operator has trace 2.0, expected 1")),
    (np.diag([1.0 + 2e-12, 0.0]), (NotADensity, f"density operator has trace {1.0 + 2e-12}, "
                                                 f"expected 1")),
    (np.diag([1.5, -0.5]),
     (NotADensity, "density operator has a significantly negative eigenvalue")),
    (np.diag([1.0 + 0.9e-12, 0.0]), None),
    # Hermitian within 1e-12 but not by half of it: the ordered checks accept it
    (np.eye(2) / 2 + 0.9e-12 / 8**0.5 * SKEW, None),
])
def test_density_validation_names_the_first_failed_check(matrix, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is None:
            assert np.array_equal(DensityState(matrix).matrix, matrix)
            return
        with pytest.raises(error[0]) as excinfo:
            DensityState(matrix)
    assert str(excinfo.value) == error[1]


def test_eigenvalue_floor_sits_between_minus_2e_10_and_minus_5e_11():
    with pytest.raises(NotADensity, match="negative eigenvalue"):
        DensityState(np.diag([1 + 2e-10, -2e-10]))
    rho = DensityState(np.diag([1 + 5e-11, -5e-11]))
    # validation reads eigenvalues only; the carrier decomposes on first read
    assert set(vars(rho)) == {"matrix"}
    assert carrier(rho).approx_equal(ray(E1))


def test_carrier_frames_are_the_eigenvectors_of_the_state_matrix():
    # bit for bit the frame a decomposition made during validation would give
    rng = np.random.default_rng(11)
    states = []
    for dim in range(1, 7):
        rho = random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
        states += [rho, lueders(rho, random_subspace(rng, dim, rank=int(rng.integers(1, dim + 1))))]
        states += quadruple(random_operator(rng, dim, int(rng.integers(1, 7))))[1:3]
    for rho in filter(None, states):
        w, v = np.linalg.eigh(rho.matrix)
        frame = carrier(rho).frame
        assert np.array_equal(frame, v[:, w.size - frame.shape[1]:])
        assert frame.shape[1] == np.count_nonzero(w > DEFAULT_TOL * w[-1])


def test_carrier_of_pure_state_is_its_ray():
    psi = random_state_vector(np.random.default_rng(0), 3)
    assert carrier(DensityState.pure(psi)).approx_equal(ray(psi))


def test_carrier_of_maximally_mixed_is_full():
    assert carrier(DensityState.maximally_mixed(2)).approx_equal(Subspace.full(2))


def test_carrier_threshold_drops_negligible_weight():
    rho = DensityState(np.diag([0.999999, 1e-15]) / (0.999999 + 1e-15))
    assert carrier(rho).approx_equal(ray(E1))


def test_lueders_fixes_states_supported_inside():
    rho = DensityState.pure(E1)
    result = lueders(rho, span(np.column_stack([E1, E2])))
    assert np.allclose(result.matrix, rho.matrix)


def test_lueders_collapses_mixed_state_to_ray():
    result = lueders(DensityState.maximally_mixed(2), ray(E1))
    assert np.allclose(result.matrix, np.outer(E1, E1.conj()))


def test_lueders_orthogonal_outcome_is_empty():
    assert lueders(DensityState.pure(E1), ray(E2)) is None


def test_lueders_is_idempotent():
    rng = np.random.default_rng(1)
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        rho = random_density(rng, dim)
        a = random_subspace(rng, dim, rank=int(rng.integers(1, dim + 1)))
        once = lueders(rho, a)
        if once is None:
            continue
        twice = lueders(once, a)
        assert np.linalg.norm(twice.matrix - once.matrix) <= 1e-9


def test_nested_updates_collapse_to_the_inner_one():
    # updating by the full space and then by a contained ray equals the
    # single update by the ray
    rho = DensityState.maximally_mixed(2)
    outer = Subspace.full(2)
    inner = ray(E1)
    via_both = lueders(lueders(rho, outer), inner)
    direct = lueders(rho, inner)
    assert np.allclose(via_both.matrix, direct.matrix)
    assert np.allclose(direct.matrix, np.outer(E1, E1.conj()))


def test_update_and_probability_match_the_projector_oracle():
    # properties of every rank, random ones and ones spanned by eigenvectors
    # of rho, so that exactly orthogonal outcomes occur
    rng = np.random.default_rng(11)
    cut = kept = 0
    for dim in range(1, 7):
        for _ in range(20):
            rho = random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
            eigenvectors = np.linalg.eigh(rho.matrix)[1]
            for rank in range(dim + 1):
                chosen = np.sort(rng.permutation(dim)[:rank])
                for a in (random_subspace(rng, dim, rank=rank),
                          Subspace(eigenvectors[:, chosen])):
                    p, expected = lueders_update(rho.matrix, a.frame, ORTHOGONAL_CUTOFF)
                    assert abs(transition_probability(rho, a) - p) <= 1e-12
                    updated = lueders(rho, a)
                    assert (updated is None) == (expected is None)
                    if updated is None:
                        cut += rank > 0
                    else:
                        kept += 1
                        assert np.abs(updated.matrix - expected).max() <= 1e-12
    assert cut > 20 and kept > 500


def test_transition_probability_examples():
    rho = DensityState.pure(E1)
    assert transition_probability(rho, Subspace.full(2)) == pytest.approx(1.0)
    assert transition_probability(rho, ray(E2)) == pytest.approx(0.0)
    mixed = DensityState.maximally_mixed(2)
    assert transition_probability(mixed, ray(E1 + E2)) == pytest.approx(0.5)


def test_probabilities_of_complementary_outcomes_sum_to_one():
    rng = np.random.default_rng(2)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        rho = random_density(rng, dim)
        a = random_subspace(rng, dim)
        total = transition_probability(rho, a) + transition_probability(rho, ortho_s(a))
        assert abs(total - 1.0) <= 1e-12


def test_transition_probability_is_the_trace_of_the_projected_state():
    rng = np.random.default_rng(12)
    for dim in range(1, 7):
        for _ in range(10):
            rho = random_density(rng, dim)
            for rank in range(dim + 1):
                a = random_subspace(rng, dim, rank=rank)
                p = a.frame @ a.frame.conj().T
                expected = np.trace(p @ rho.matrix).real
                assert abs(transition_probability(rho, a) - expected) <= 1e-15
                assert abs(_update(rho, a)[0] - expected) <= 1e-15


# -- worked cascade examples ------------------------------------------------------


def uniform_pair_state() -> CompoundOperator:
    return CompoundOperator(IDENTITY2 / np.sqrt(2), ANTILINEAR)


def test_uniform_state_aligned_outcomes():
    trace = run_cascade(uniform_pair_state(), ray(E1), ray(E1))
    assert trace.joint_probability == pytest.approx(0.5, abs=1e-12)
    kinds = [(s.side, s.kind) for s in trace.steps]
    assert kinds == [(1, "measure"), (2, "induce"), (2, "measure")]
    assert trace.steps[0].probability == pytest.approx(0.5, abs=1e-12)
    assert trace.steps[2].probability == pytest.approx(1.0, abs=1e-12)


def test_uniform_state_crossed_outcomes_are_impossible():
    trace = run_cascade(uniform_pair_state(), ray(E1), ray(E2))
    assert trace.joint_probability == pytest.approx(0.0, abs=1e-12)


def test_product_state_factorizes():
    rng = np.random.default_rng(3)
    psi1 = random_state_vector(rng, 2)
    phi1 = random_state_vector(rng, 2)
    tv = TensorVector(np.array([1.0]), psi1[:, None], phi1[:, None])
    op = from_tensor(tv, ANTILINEAR)
    for _ in range(10):
        left = random_state_vector(rng, 2)
        right = random_state_vector(rng, 2)
        joint = run_cascade(op, ray(left), ray(right)).joint_probability
        expected = abs(np.vdot(left, psi1)) ** 2 * abs(np.vdot(right, phi1)) ** 2
        assert joint == pytest.approx(expected, abs=1e-12)


def test_product_state_chain_descends_with_aligned_or_orthogonal_atoms():
    rng = np.random.default_rng(15)
    psi1 = random_state_vector(rng, 2)
    phi1 = random_state_vector(rng, 2)
    tv = TensorVector(np.array([1.0]), psi1[:, None], phi1[:, None])
    op = from_tensor(tv, ANTILINEAR)
    aligned = run_cascade(op, ray(psi1), ray(phi1))
    assert chain_order_check(aligned)
    # both per-side chains collapse immediately: two distinct carriers at most
    for side in (1, 2):
        dims = [s.carrier_pre.dim for s in aligned.steps if s.side == side]
        dims += [s.carrier_post.dim for s in aligned.steps if s.side == side]
        assert len(set(dims)) <= 2
    crossed = run_cascade(op, ray(psi1), ray(ortho_s(ray(phi1)).frame[:, 0]))
    assert crossed.joint_probability == pytest.approx(0.0, abs=1e-12)
    assert chain_order_check(crossed)


def test_cascade_rejects_zero_operator_and_non_rays():
    with pytest.raises(ZeroOperator):
        run_cascade(CompoundOperator(np.zeros((2, 2))), ray(E1), ray(E1))
    # the zero operator is named before an atom's shape or dimension
    with pytest.raises(ZeroOperator):
        run_cascade(CompoundOperator(np.zeros((2, 2))), Subspace.full(2), ray(E1))
    with pytest.raises(ZeroOperator):
        run_cascade(CompoundOperator(np.zeros((3, 2))), ray(E1), ray(E1))
    with pytest.raises(BadShape):
        run_cascade(uniform_pair_state(), Subspace.full(2), ray(E1))


def test_joint_probability_is_the_product_of_step_probabilities():
    rng = np.random.default_rng(4)
    tv = random_tensor_vector(rng, 3, 3, 2)
    op = from_tensor(tv, ANTILINEAR)
    trace = run_cascade(op, ray(random_state_vector(rng, 3)),
                        ray(random_state_vector(rng, 3)))
    product = 1.0
    for step in trace.steps:
        product *= step.probability
    assert trace.joint_probability == pytest.approx(product, abs=1e-15)


# -- values computed once per object ------------------------------------------------


def test_density_state_keeps_a_read_only_copy_of_its_matrix():
    m = np.diag([0.25, 0.75]).astype(complex)
    rho = DensityState(m)
    m[0, 0] = 5
    assert np.array_equal(rho.matrix, np.diag([0.25, 0.75]))
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0
    assert carrier(rho) is carrier(rho)


def _all_pairs(make_op, basis1, basis2):
    """Every outcome pair left-first, then the first pair right-first."""
    d1, d2 = basis1.shape[1], basis2.shape[1]
    runs = [(i, j, LEFT_FIRST) for i in range(d1) for j in range(d2)] + [(0, 0, RIGHT_FIRST)]
    return [run_cascade(make_op(), ray(basis1[:, i]), ray(basis2[:, j]), order=order)
            for i, j, order in runs]


def test_cascades_of_one_operator_build_its_quadruple_once(monkeypatch):
    import compoundness.operators as operators

    calls = []
    original = operators.quadruple
    monkeypatch.setattr(operators, "quadruple", lambda op: calls.append(op) or original(op))
    rng = np.random.default_rng(30)
    op = from_tensor(random_tensor_vector(rng, 3, 4, 3), ANTILINEAR)
    traces = _all_pairs(lambda: op, random_unitary(rng, 3), random_unitary(rng, 4))
    assert len(traces) == 3 * 4 + 1
    assert calls == [op]


def _assert_same_trace(a, b):
    """Every field of two traces equal, bit for bit."""
    assert a.joint_probability == b.joint_probability
    assert len(a.steps) == len(b.steps)
    for x, y in zip(a.steps, b.steps):
        assert (x.side, x.kind, x.probability) == (y.side, y.kind, y.probability)
        for sub in ("measured_property", "carrier_pre", "carrier_post"):
            assert getattr(x, sub).tol == getattr(y, sub).tol
            assert np.array_equal(getattr(x, sub).frame, getattr(y, sub).frame)
        assert np.array_equal(x.pre_state.matrix, y.pre_state.matrix)
        assert (x.post_state is None) == (y.post_state is None)
        if x.post_state is not None:
            assert np.array_equal(x.post_state.matrix, y.post_state.matrix)


def _fresh(op):
    return CompoundOperator(op.matrix.copy(), op.linearity)


def test_reused_operator_gives_the_traces_of_fresh_ones():
    rng = np.random.default_rng(31)
    for d1, d2, terms in ((2, 3, 1), (3, 3, 2), (4, 2, 2)):
        op = from_tensor(random_tensor_vector(rng, d1, d2, terms), ANTILINEAR)
        basis1, basis2 = random_unitary(rng, d1), random_unitary(rng, d2)
        reused = _all_pairs(lambda: op, basis1, basis2)
        fresh = _all_pairs(lambda: _fresh(op), basis1, basis2)
        for a, b in zip(reused, fresh):
            _assert_same_trace(a, b)


def _count_updates(monkeypatch):
    """Count the cascade steps made from here on: each computes one outcome
    probability (its post-state is built only when read)."""
    import compoundness.cascade as cascade

    calls = []
    original = cascade.transition_probability
    monkeypatch.setattr(cascade, "transition_probability",
                        lambda rho, a: calls.append(a) or original(rho, a))
    return calls


def test_an_unknown_order_is_refused():
    op = CompoundOperator(np.eye(2))
    with pytest.raises(ValueError, match="order must be"):
        run_cascade(op, ray([1.0, 0.0]), ray([1.0, 0.0]), order="both-at-once")


def test_interleaved_orders_and_first_atoms_give_the_traces_of_fresh_operators():
    # One basis for both sides of a square operator, so a left atom and a
    # right atom can have the same frame: only the order tells their heads apart.
    rng = np.random.default_rng(32)
    for d1, d2, terms, linearity in ((3, 3, 2, ANTILINEAR), (3, 3, 3, LINEAR),
                                     (2, 4, 2, ANTILINEAR)):
        op = from_tensor(random_tensor_vector(rng, d1, d2, terms), linearity)
        basis = random_unitary(rng, max(d1, d2))
        for i, j in ((0, 0), (1, 0), (0, 1), (1, 1), (0, 1), (0, 0)):
            for order in (LEFT_FIRST, RIGHT_FIRST, LEFT_FIRST):
                left, right = ray(basis[:d1, i]), ray(basis[:d2, j])
                trace = run_cascade(op, left, right, order=order)
                _assert_same_trace(trace, run_cascade(_fresh(op), left, right, order=order))
                # the first step names the caller's atom, not the one the head was made with
                first = left if order == LEFT_FIRST else right
                assert trace.steps[0].measured_property is first


def test_a_head_cut_short_by_an_orthogonal_outcome_is_reused(monkeypatch):
    rng = np.random.default_rng(33)
    tv = random_tensor_vector(rng, 3, 3, 2)
    op = from_tensor(tv, ANTILINEAR)
    outside = np.linalg.eigh(op.plan.rho1.matrix)[1][:, 0]  # rank 2 of 3: eigenvalue 0
    basis2 = random_unitary(rng, 3)
    pairs = [(ray(outside), ray(basis2[:, j])) for j in range(3)]
    pairs.append((ray(tv.left_basis[:, 0]), ray(basis2[:, 0])))
    calls = _count_updates(monkeypatch)
    traces = [run_cascade(op, left, right) for left, right in pairs]
    assert len(calls) == 1 + 3  # one cut head for three pairs, then head and tail
    assert [len(t.steps) for t in traces] == [1, 1, 1, 3]
    for (left, right), trace in zip(pairs, traces):
        assert trace.steps[0].measured_property is left
        _assert_same_trace(trace, run_cascade(_fresh(op), left, right))
    assert traces[0].joint_probability == 0.0


def test_equal_frames_with_another_tolerance_do_not_share_a_head(monkeypatch):
    rng = np.random.default_rng(34)
    op = from_tensor(random_tensor_vector(rng, 3, 2, 2), ANTILINEAR)
    left, right = ray(random_state_vector(rng, 3)), ray(random_state_vector(rng, 2))
    loose = Subspace(left.frame, tol=1e-6)
    calls = _count_updates(monkeypatch)
    run_cascade(op, left, right)
    assert len(calls) == 3
    trace = run_cascade(op, loose, right)
    assert len(calls) == 6
    assert trace.steps[0].measured_property is loose
    run_cascade(op, loose, right)
    assert len(calls) == 7


def test_a_sweep_makes_one_head_per_first_atom_and_one_tail_per_pair(monkeypatch):
    rng = np.random.default_rng(35)
    d1, d2 = 3, 4
    op = from_tensor(random_tensor_vector(rng, d1, d2, 3), ANTILINEAR)
    basis1, basis2 = random_unitary(rng, d1), random_unitary(rng, d2)
    calls = _count_updates(monkeypatch)
    traces = [run_cascade(op, ray(basis1[:, i]), ray(basis2[:, j]))
              for i in range(d1) for j in range(d2)]
    assert all(len(t.steps) == 3 for t in traces)
    # a head is two updates (measure, induce); a tail is one (the final measurement)
    assert len(calls) == 2 * d1 + d1 * d2


def test_a_sweep_scans_its_operator_for_zero_once(monkeypatch):
    rng = np.random.default_rng(37)
    op = from_tensor(random_tensor_vector(rng, 3, 2, 2), ANTILINEAR)
    basis1, basis2 = random_unitary(rng, 3), random_unitary(rng, 2)
    scans = []
    original = CompoundOperator.is_zero
    monkeypatch.setattr(CompoundOperator, "is_zero",
                        lambda self: scans.append(self) or original(self))
    run_cascade(op, ray(basis1[:, 0]), ray(basis2[:, 0]))
    first = len(scans)  # the first run's scan, and the quadruple's own
    _all_pairs(lambda: op, basis1, basis2)
    assert len(scans) == first and set(scans) == {op}


def test_a_sweep_that_reads_no_post_state_builds_one_state_per_row(monkeypatch):
    # two reduced states from the quadruple, then the induced state of each row,
    # which the row's final measurements share as their pre-state
    rng = np.random.default_rng(36)
    d1, d2 = 4, 5
    op = from_tensor(random_tensor_vector(rng, d1, d2, 3), ANTILINEAR)
    basis1, basis2 = random_unitary(rng, d1), random_unitary(rng, d2)
    lefts = [ray(basis1[:, i]) for i in range(d1)]
    rights = [ray(basis2[:, j]) for j in range(d2)]
    built = []
    original = DensityState.__post_init__
    monkeypatch.setattr(DensityState, "__post_init__",
                        lambda self: built.append(self) or original(self))
    traces = [run_cascade(op, left, right) for left in lefts for right in rights]
    assert all(len(t.steps) == 3 for t in traces)
    assert len(built) == 2 + d1


# -- born oracle -------------------------------------------------------------------


def test_born_single_term_is_certain():
    tv = TensorVector(np.array([1.0]), E1[:, None], E2[:, None])
    assert born_probability(tv, E1, E2) == pytest.approx(1.0)


def test_born_on_anticorrelated_coefficients():
    tv = TensorVector(
        np.array([1 / np.sqrt(2), -1 / np.sqrt(2)]), IDENTITY2, IDENTITY2
    )
    # paired outcomes carry the coefficient weight, crossed outcomes none
    assert born_probability(tv, E1, E1) == pytest.approx(0.5, abs=1e-12)
    assert born_probability(tv, E1, E2) == pytest.approx(0.0, abs=1e-12)


def test_born_is_scale_invariant_in_the_outcomes():
    rng = np.random.default_rng(5)
    tv = random_tensor_vector(rng, 3, 2, 2)
    psi = random_state_vector(rng, 3)
    phi = random_state_vector(rng, 2)
    base = born_probability(tv, psi, phi)
    assert born_probability(tv, 3.7 * psi, (0.2 - 2j) * phi) == pytest.approx(base)


def test_born_rejects_zero_vectors():
    tv = random_tensor_vector(np.random.default_rng(6), 2, 2, 1)
    with pytest.raises(ZeroVector):
        born_probability(tv, np.zeros(2), E1)
    # a zero outcome is named before a dimension mismatch
    for psi, phi in ((np.zeros(2), np.ones(3)), (np.ones(3), np.zeros(2))):
        with pytest.raises(ZeroVector):
            born_probability(tv, psi, phi)
    # a squared norm that underflows to 0 is not a zero vector
    tiny, unit = np.full(2, 1e-320), np.ones(2)
    for (psi, phi), expected in (((tiny, E1), (unit, E1)), ((E1, tiny), (E1, unit)),
                                 ((tiny, tiny), (unit, unit))):
        assert born_probability(tv, psi, phi) == pytest.approx(
            born_probability(tv, *expected), abs=1e-12)


def test_tensor_vector_keeps_private_copies_of_its_arrays():
    c = np.array([1 / np.sqrt(2), -1 / np.sqrt(2)], dtype=complex)
    left, right = IDENTITY2.copy(), IDENTITY2.copy()
    tv = TensorVector(c, left, right)
    c[0] = 0
    left[:, 0] = E2
    right[:, 0] = E2
    assert born_probability(tv, E1, E1) == pytest.approx(0.5, abs=1e-12)
    assert np.array_equal(tv.left_basis, IDENTITY2)
    for arr in (tv.coefficients, tv.left_basis, tv.right_basis, tv._state):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_born_state_is_built_once_and_gives_the_per_call_construction_bits():
    rng = np.random.default_rng(8)
    for _ in range(30):
        d1, d2 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        tv = random_tensor_vector(rng, d1, d2, int(rng.integers(1, min(d1, d2) + 1)))
        assert np.abs(tv._state - kron_state(tv)).max() <= 1e-12
        assert tv._state is tv._state
        assert tv._state_norm2 == float(np.vdot(tv._state, tv._state).real)
        for _ in range(3):
            psi = random_state_vector(rng, d1)
            phi = random_state_vector(rng, d2)
            # the state rebuilt on every call, as before it was cached
            state = kron_state(tv)
            overlap = np.vdot(np.kron(psi, phi), state)
            value = float(abs(overlap) ** 2) / (
                float(np.vdot(psi, psi).real) * float(np.vdot(phi, phi).real)
                * float(np.vdot(state, state).real)
            )
            assert born_probability(tv, psi, phi) == min(max(value, 0.0), 1.0)


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e170, 1e300])
def test_born_is_scale_free_in_the_outcomes_and_the_state(scale):
    rng = np.random.default_rng(9)
    for _ in range(10):
        d1, d2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        tv = random_tensor_vector(rng, d1, d2, int(rng.integers(1, min(d1, d2) + 1)))
        psi, phi = random_state_vector(rng, d1), random_state_vector(rng, d2)
        base = born_probability(tv, psi, phi)
        scaled_tv = TensorVector(scale * tv.coefficients, tv.left_basis, tv.right_basis)
        for args in ((tv, scale * psi, phi), (tv, psi, scale * phi),
                     (tv, scale * psi, scale * phi), (scaled_tv, psi, phi),
                     (scaled_tv, scale * psi, phi / scale)):
            assert born_probability(*args) == pytest.approx(base, abs=1e-14)
    anticorrelated = TensorVector(np.array([1, -1]) / np.sqrt(2), IDENTITY2, IDENTITY2)
    assert born_probability(anticorrelated, scale * E1, E1) == pytest.approx(0.5, abs=1e-15)


def test_born_matches_direct_kronecker_computation():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        tv = random_tensor_vector(rng, d1, d2, int(rng.integers(1, min(d1, d2) + 1)))
        psi = random_state_vector(rng, d1)
        phi = random_state_vector(rng, d2)
        state = kron_state(tv)
        expected = abs(np.vdot(np.kron(psi, phi), state)) ** 2 / np.vdot(state, state).real
        assert born_probability(tv, psi, phi) == pytest.approx(expected, abs=1e-12)


# -- cascade against the oracle ------------------------------------------------------


def test_cascade_reproduces_born_probabilities():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        m = int(rng.integers(1, min(d1, d2, 4) + 1))
        tv = random_tensor_vector(rng, d1, d2, m)
        op = from_tensor(tv, ANTILINEAR)
        psi = random_state_vector(rng, d1)
        phi = random_state_vector(rng, d2)
        joint = run_cascade(op, ray(psi), ray(phi)).joint_probability
        worst = max(worst, abs(joint - born_probability(tv, psi, phi)))
    assert worst <= 1e-9


def test_left_first_and_right_first_agree():
    rng = np.random.default_rng(9)
    for _ in range(50):
        d1, d2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        tv = random_tensor_vector(rng, d1, d2, int(rng.integers(1, min(d1, d2) + 1)))
        op = from_tensor(tv, ANTILINEAR)
        psi = random_state_vector(rng, d1)
        phi = random_state_vector(rng, d2)
        left = run_cascade(op, ray(psi), ray(phi), order=LEFT_FIRST)
        right = run_cascade(op, ray(psi), ray(phi), order=RIGHT_FIRST)
        assert abs(left.joint_probability - right.joint_probability) <= 1e-9


def test_joint_probabilities_sum_to_one_over_product_bases():
    rng = np.random.default_rng(10)
    for _ in range(20):
        d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        tv = random_tensor_vector(rng, d1, d2, int(rng.integers(1, min(d1, d2) + 1)))
        op = from_tensor(tv, ANTILINEAR)
        basis1 = random_unitary(rng, d1)
        basis2 = random_unitary(rng, d2)
        total = sum(
            run_cascade(op, ray(basis1[:, i]), ray(basis2[:, j])).joint_probability
            for i in range(d1)
            for j in range(d2)
        )
        assert abs(total - 1.0) <= 1e-9


# -- chain ordering -------------------------------------------------------------------


def test_cascade_traces_descend_when_atoms_refine_the_carriers():
    # full Schmidt rank makes the first measurement and the induction
    # refine their carriers; picking the final atom on (or orthogonal to)
    # the induced ray keeps the last step inside the descending regime
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = int(rng.integers(2, 4))
        tv = random_tensor_vector(rng, d, d, d)
        op = from_tensor(tv, ANTILINEAR)
        psi = random_state_vector(rng, d)
        induced_ray = ray(op.apply(psi))
        aligned = run_cascade(op, ray(psi), induced_ray)
        assert aligned.joint_probability > 0.0
        assert chain_order_check(aligned)
        perp_frame = ortho_s(induced_ray).frame
        orthogonal = run_cascade(op, ray(psi), ray(perp_frame[:, 0]))
        assert orthogonal.joint_probability == pytest.approx(0.0, abs=1e-12)
        assert chain_order_check(orthogonal)


def test_first_measurement_and_induction_always_descend_for_full_rank():
    rng = np.random.default_rng(14)
    for _ in range(25):
        d = int(rng.integers(2, 4))
        tv = random_tensor_vector(rng, d, d, d)
        op = from_tensor(tv, ANTILINEAR)
        trace = run_cascade(op, ray(random_state_vector(rng, d)),
                            ray(random_state_vector(rng, d)))
        for step in trace.steps[:2]:
            assert step.carrier_post.leq(step.carrier_pre)


def test_zero_probability_branches_descend_trivially():
    trace = run_cascade(uniform_pair_state(), ray(E1), ray(E2))
    assert chain_order_check(trace)


def test_manually_reversed_trace_fails_the_chain_check():
    trace = run_cascade(uniform_pair_state(), ray(E1), ray(E1))
    reversed_steps = []
    for step in trace.steps:
        reversed_steps.append(
            type(step)(
                side=step.side,
                kind=step.kind,
                measured_property=step.measured_property,
                pre_state=step.pre_state,
                probability=step.probability,
                carrier_pre=step.carrier_post,
                carrier_post=step.carrier_pre,
            )
        )
    assert not chain_order_check(type(trace)(tuple(reversed_steps), trace.joint_probability))


def test_misaligned_measurement_on_deficient_state_breaks_descent():
    # a rank-one compound state measured at a skew atom has positive
    # probability, but the collapsed carrier escapes the original one;
    # the check honestly reports that the descending regime was left
    tv = TensorVector(np.array([1.0]), E1[:, None], E1[:, None])
    op = from_tensor(tv, ANTILINEAR)
    trace = run_cascade(op, ray(E1 + E2), ray(E1))
    assert trace.joint_probability == pytest.approx(0.5, abs=1e-12)
    assert not chain_order_check(trace)


def _with_state_carriers(trace):
    """The trace with every post-carrier recomputed as carrier(post_state),
    and the final measurement's pre-carrier as the induced step's."""
    steps = [step if step.post_state is None
             else replace(step, carrier_post=carrier(step.post_state))
             for step in trace.steps]
    if len(steps) == 3:
        steps[2] = replace(steps[2], carrier_pre=steps[1].carrier_post)
    return CascadeTrace(tuple(steps), trace.joint_probability)


def test_post_carriers_are_the_rays_updated_onto():
    # the range of P_a rho P_a for a ray a with Tr(P_a rho) > 0 is a; the
    # kernel eigenvectors of rank-deficient reduced states give orthogonal
    # outcomes at the first or the final measurement. Each post-state, the
    # pure state |a><a| of its post-carrier built on first read, matches the
    # general frame update `lueders`, which serves as the oracle.
    rng = np.random.default_rng(15)
    kept = cut = 0
    chain_results = set()
    for d1 in range(1, 7):
        for d2 in range(1, 7):
            for linearity in (LINEAR, ANTILINEAR):
                tv = random_tensor_vector(rng, d1, d2, int(rng.integers(1, min(d1, d2) + 1)))
                op = from_tensor(tv, linearity)
                lefts = (random_state_vector(rng, d1),
                         np.linalg.eigh(op.plan.rho1.matrix)[1][:, 0])
                rights = (random_state_vector(rng, d2),
                          np.linalg.eigh(op.plan.rho2.matrix)[1][:, 0])
                for psi in lefts:
                    for phi in rights:
                        for order in (LEFT_FIRST, RIGHT_FIRST):
                            trace = run_cascade(op, ray(psi), ray(phi), order=order)
                            for step in trace.steps:
                                post = step.post_state
                                assert step.post_state is post
                                assert (post is None) == (step.carrier_post.dim == 0)
                                if post is None:
                                    cut += 1
                                    continue
                                kept += 1
                                assert step.carrier_post.dim == 1
                                assert step.carrier_post.approx_equal(carrier(post))
                                expected = lueders(step.pre_state, step.measured_property)
                                assert np.linalg.norm(post.matrix - expected.matrix) <= 1e-12
                            holds = chain_order_check(trace)
                            assert chain_order_check(_with_state_carriers(trace)) == holds
                            chain_results.add(holds)
    assert kept > 900 and cut > 50 and chain_results == {True, False}


# -- randomized update law report ------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 3])
def test_update_laws_hold_at_small_dimension(dim):
    report = LawRecorder(DEFAULT_TOL)
    check_prop2(dim, 120, np.random.default_rng(12 + dim), report)
    assert report.ok, report.failures[:3]
    assert report.max_discrepancy <= 1e-9


def test_update_law_report_records_failures_under_impossible_tolerance():
    report = LawRecorder(0.0)
    check_prop2(2, 20, np.random.default_rng(13), report)
    assert not report.ok  # float noise alone must trip an exact tolerance
    assert report.max_discrepancy > 0.0


@pytest.mark.parametrize("delta, updated, by_formula", [
    (5e-13, False, 0),  # at or below ORTHOGONAL_CUTOFF: no update
    (5e-10, True, 0),   # the band: the carrier drops the weight the update keeps
    (2e-9, True, 1),    # above DEFAULT_TOL: both sides are the ray
])
def test_carrier_bridge_band_between_the_cutoff_and_the_carrier_tolerance(
        delta, updated, by_formula):
    # check_prop2 compares carrier(lueders(rho, a)) with sasaki_s(a, carrier(rho))
    # only when p > 0.05, so its carrier-bridge law never meets this band
    rho = DensityState(np.diag([1 - delta, delta]).astype(complex))
    a = ray(E2)
    post = lueders(rho, a)
    assert (post is not None) == updated
    if updated:
        assert carrier(post).approx_equal(a)
    assert sasaki_s(a, carrier(rho)).dim == by_formula
