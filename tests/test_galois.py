"""Join-preserving maps, Galois duals, and the lattice they form."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compoundness.catalog import boolean, chain, mo, standard_lattices
from compoundness.errors import (
    MixedSignatures,
    NotJoinPreserving,
    NotMeetPreserving,
    TooLarge,
)
from compoundness.galois import (
    JoinMap,
    MeetMap,
    absurd_state,
    adjoint_of_meetmap,
    classify_map,
    compose_join_maps,
    enumerate_Q,
    galois_dual,
    is_join_preserving,
    is_meet_preserving,
    map_leq,
    order_antitone_check,
    pointwise_join,
    separation_state,
)
from compoundness.lattice import build_lattice, lattice_from_order

from oracles import (
    brute_glb,
    brute_join_irreducibles,
    brute_join_maps,
    brute_lub,
    brute_meet_maps,
    mo_join_map_count,
)

B2 = boolean(2).base
CHAIN2 = chain(2)
CHAIN3 = chain(3)
MO2 = mo(2).base
# sources whose join-irreducibles are partly comparable: in the pentagon c
# (listed before a) lies above a and not b; in 2x3, 01 < 02 and 10 is apart.
# The pentagon lists its top before its join-irreducibles, so its maps in
# table order are not in the order of their join-irreducible images.
N5 = build_lattice(["0", "1", "c", "b", "a"],
                   [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")])
C2XC3 = build_lattice([f"{i}{j}" for i in range(2) for j in range(3)],
                      [(f"{i}{j}", f"{i}{j + 1}") for i in range(2) for j in range(2)]
                      + [(f"0{j}", f"1{j}") for j in range(3)])
# boolean(3) with its elements in reverse: top first, each set before its subsets
B3_REVERSED = lattice_from_order(boolean(3).base.elements[::-1],
                                 boolean(3).base.leq[::-1, ::-1])


def identity_map(lat) -> JoinMap:
    return JoinMap(source=lat, target=lat, table=tuple(range(len(lat))))


def test_identity_is_join_preserving():
    assert is_join_preserving(tuple(range(len(B2))), B2, B2)


def test_separation_map_is_join_preserving_everywhere():
    for l1, l2 in itertools.product(standard_lattices().values(), repeat=2):
        assert is_join_preserving(separation_state(l1, l2).table, l1, l2)


def test_explicit_join_violation_detected():
    # B2 -> 2-chain sending both atoms to 1 but their join to 0
    table = (CHAIN2.bottom, CHAIN2.top, CHAIN2.top, CHAIN2.bottom)
    assert not is_join_preserving(table, B2, CHAIN2)
    with pytest.raises(NotJoinPreserving):
        JoinMap(source=B2, target=CHAIN2, table=table)


def test_bool_tables_are_not_join_preserving():
    assert not is_join_preserving((False, True), CHAIN2, CHAIN2)
    with pytest.raises(NotJoinPreserving):
        JoinMap(source=CHAIN2, target=CHAIN2, table=(False, True))
    assert is_join_preserving((0, 1), CHAIN2, CHAIN2)
    q = enumerate_Q(CHAIN2, CHAIN2)
    assert q.index_of((0, 1)) == q.index_of(np.array([0, 1])) == 1
    for table in ((False, True), (0.0, 1.0)):
        with pytest.raises(NotJoinPreserving):
            q.index_of(table)


def test_meetmap_validation():
    with pytest.raises(NotMeetPreserving):
        MeetMap(source=CHAIN2, target=CHAIN2, table=(0, 0))  # top not preserved


@pytest.mark.parametrize("l1, l2", [(CHAIN2, B2), (B2, CHAIN3), (MO2, B2)])
def test_meet_preservation_matches_brute_force_on_every_table(l1, l2):
    expected = brute_meet_maps(l1, l2)
    for table in itertools.product(range(len(l2)), repeat=len(l1)):
        assert is_meet_preserving(table, l1, l2) == (table in expected)


@pytest.mark.parametrize("l1, l2", [(B3_REVERSED, CHAIN2), (N5, CHAIN3), (C2XC3, CHAIN2),
                                    (CHAIN3.dual, B2), (chain(1), B2), (MO2, CHAIN3)])
def test_join_preservation_matches_brute_force_on_every_table(l1, l2):
    # bottoms at other indices than 0, and join-irreducibles out of order
    expected = brute_join_maps(l1, l2)
    for table in itertools.product(range(len(l2)), repeat=len(l1)):
        assert is_join_preserving(table, l1, l2) == (table in expected)
    some = max(expected)
    for table in (some[:-1], some + (l2.bottom,), (len(l2),) * len(l1),
                  tuple(bool(v) for v in some)):
        assert not is_join_preserving(table, l1, l2)


def test_a_map_keeps_its_table_when_the_callers_list_changes():
    t = [0, 1, 1, 1]
    f = JoinMap(source=B2, target=CHAIN2, table=t)
    t[3] = 0
    assert f.table == (0, 1, 1, 1)
    assert is_join_preserving(f.table, B2, CHAIN2)
    assert galois_dual(f).table == (B2.bottom, B2.top)


@pytest.mark.parametrize("table", [np.array([0, 1]), [0, 1]], ids=["array", "list"])
def test_a_map_from_an_array_or_a_list_holds_a_tuple_of_ints(table):
    q = enumerate_Q(CHAIN2, CHAIN2)
    f = JoinMap(source=CHAIN2, target=CHAIN2, table=table)
    for g in (f, MeetMap(source=CHAIN2, target=CHAIN2, table=table)):
        assert type(g.table) is tuple and all(type(v) is int for v in g.table)
    assert q.index_of(f) == 1
    assert classify_map(f) == classify_map(q.maps[1])


def test_reprs_name_the_map_kind_and_table():
    f = separation_state(CHAIN2, CHAIN3)
    assert repr(f) == "JoinMap((0, 2))"
    assert repr(galois_dual(f)) == "MeetMap((0, 0, 1))"


def test_dual_of_identity_is_identity():
    f = identity_map(B2)
    assert galois_dual(f).table == tuple(range(len(B2)))


def test_dual_of_separation_sends_everything_but_top_to_bottom():
    for l1, l2 in itertools.product(standard_lattices().values(), repeat=2):
        dual = galois_dual(separation_state(l1, l2))
        for b in range(len(l2)):
            expected = l1.top if b == l2.top else l1.bottom
            assert dual.table[b] == expected


def test_dual_of_absurd_is_constant_top():
    dual = galois_dual(absurd_state(B2, MO2))
    assert dual.table == (B2.top,) * len(MO2)


def test_adjoint_of_constant_top_is_the_absurd_map():
    # the constant-top meet map is dual to the constant-bottom join map
    g = MeetMap(source=MO2, target=B2, table=(B2.top,) * len(MO2))
    assert adjoint_of_meetmap(g).table == absurd_state(B2, MO2).table


def test_adjoint_of_identity_is_identity():
    g = MeetMap(source=B2, target=B2, table=tuple(range(len(B2))))
    assert adjoint_of_meetmap(g).table == tuple(range(len(B2)))


def test_adjoint_via_minimum_search_oracle_on_b2():
    g = MeetMap(source=B2, target=B2, table=tuple(range(len(B2))))
    f = adjoint_of_meetmap(g)
    for a in range(len(B2)):
        candidates = [b for b in range(len(B2)) if B2.leq[a, g.table[b]]]
        minima = [b for b in candidates if all(B2.leq[b, c] for c in candidates)]
        assert f.table[a] == minima[0]


@pytest.mark.parametrize(
    "l1,l2",
    [
        (CHAIN2, CHAIN2),
        (CHAIN2, CHAIN3),
        (CHAIN3, B2),
        (B2, CHAIN2),
        (B2, B2),
        (CHAIN2, MO2),
        (MO2, CHAIN2),
        (MO2, CHAIN3),
        (N5, MO2),
        (B2, N5),
    ],
)
def test_adjunction_holds_exhaustively(l1, l2):
    for f in enumerate_Q(l1, l2).maps:
        dual = galois_dual(f)
        for a in range(len(l1)):
            for b in range(len(l2)):
                assert bool(l1.leq[a, dual.table[b]]) == bool(l2.leq[f.table[a], b])
        assert adjoint_of_meetmap(dual).table == f.table


def test_dual_round_trip_from_the_meet_side():
    for g_table in sorted(brute_meet_maps(MO2, B2)):
        g = MeetMap(source=MO2, target=B2, table=g_table)
        assert galois_dual(adjoint_of_meetmap(g)).table == g_table


def test_deflation_and_inflation():
    for f in enumerate_Q(B2, B2).maps:
        dual = galois_dual(f)
        for b in range(len(B2)):
            assert B2.leq[f.table[dual.table[b]], b]  # f(f*(b)) <= b
        for a in range(len(B2)):
            assert B2.leq[a, dual.table[f.table[a]]]  # a <= f*(f(a))


def test_dual_is_a_bijection_onto_meet_maps():
    for l1, l2 in [(CHAIN2, B2), (B2, CHAIN3), (CHAIN3, MO2)]:
        duals = {galois_dual(f).table for f in enumerate_Q(l1, l2).maps}
        assert duals == brute_meet_maps(l2, l1)
        assert len(duals) == len(enumerate_Q(l1, l2))


# -- pointwise joins -----------------------------------------------------------


def test_empty_pointwise_join_is_absurd():
    empty = pointwise_join([], source=B2, target=CHAIN2)
    assert empty.table == absurd_state(B2, CHAIN2).table
    with pytest.raises(MixedSignatures):
        pointwise_join([])


def test_singleton_pointwise_join_is_identity_on_maps():
    f = identity_map(MO2)
    assert pointwise_join([f]).table == f.table


def test_join_of_all_maps_is_separation():
    q = enumerate_Q(B2, CHAIN2)
    top = pointwise_join(list(q.maps))
    assert top.table == separation_state(B2, CHAIN2).table


def test_pointwise_join_is_least_upper_bound():
    q = enumerate_Q(B2, B2)
    rng = np.random.default_rng(3)
    for _ in range(50):
        subset = [q.maps[i] for i in rng.integers(len(q), size=3)]
        joined = pointwise_join(subset)
        assert all(map_leq(f, joined) for f in subset)
        for g in q.maps:
            if all(map_leq(f, g) for f in subset):
                assert map_leq(joined, g)


def test_mixed_signatures_rejected():
    with pytest.raises(MixedSignatures):
        pointwise_join([identity_map(B2), identity_map(MO2)])
    with pytest.raises(MixedSignatures):
        map_leq(identity_map(B2), identity_map(CHAIN3))


def test_pointwise_join_rejects_an_explicit_lattice_that_disagrees():
    f = identity_map(B2)
    with pytest.raises(MixedSignatures, match="explicit source"):
        pointwise_join([f], source=MO2)
    with pytest.raises(MixedSignatures, match="explicit target"):
        pointwise_join([f], target=CHAIN3)
    assert pointwise_join([f], source=B2, target=B2).table == f.table


def test_map_leq_rejects_maps_of_different_kinds():
    f = identity_map(B2)
    with pytest.raises(MixedSignatures):
        map_leq(f, galois_dual(f))


def test_galois_functions_reject_maps_of_the_other_kind():
    # a meet map's table can pass a join map's checks, so each function checks the kind
    for l1, l2 in [(CHAIN3, CHAIN3), (B2, CHAIN3), (B2, B2)]:
        for f in enumerate_Q(l1, l2).maps:
            with pytest.raises(MixedSignatures):
                galois_dual(galois_dual(f))
            with pytest.raises(MixedSignatures):
                adjoint_of_meetmap(f)
    for l1, l2, combine in [(B2, CHAIN3, lambda g, h: pointwise_join([g, h])),
                            (CHAIN3, CHAIN3, compose_join_maps)]:
        duals = [galois_dual(f) for f in enumerate_Q(l1, l2).maps]
        for g, h in itertools.product(duals, repeat=2):
            with pytest.raises(MixedSignatures):
                combine(g, h)
    # a join map and a meet map between the same lattices
    f = identity_map(B2)
    with pytest.raises(MixedSignatures):
        pointwise_join([f, galois_dual(f)])


# -- separation / absurd ---------------------------------------------------------


def test_separation_on_two_chains_is_identity():
    assert separation_state(CHAIN2, CHAIN2).table == (0, 1)


def test_separation_dominates_identity_pointwise():
    sep = separation_state(B2, B2)
    assert map_leq(identity_map(B2), sep)


def test_absurd_dual_makes_everything_caused_by_existence():
    dual = galois_dual(absurd_state(CHAIN3, CHAIN3))
    assert all(v == CHAIN3.top for v in dual.table)


# -- enumeration -----------------------------------------------------------------


def test_enumerated_sizes_match_free_atom_choices():
    assert len(enumerate_Q(CHAIN2, CHAIN2)) == 2
    assert len(enumerate_Q(B2, CHAIN2)) == 4
    assert len(enumerate_Q(CHAIN2, B2)) == 4


@pytest.mark.parametrize(
    "l1,l2",
    [
        (CHAIN2, CHAIN2),
        (CHAIN2, CHAIN3),
        (CHAIN3, CHAIN2),
        (CHAIN3, CHAIN3),
        (B2, CHAIN2),
        (CHAIN2, B2),
        (B2, B2),
        (CHAIN3, MO2),
        (MO2, CHAIN3),
        (MO2, B2),
        (B2, MO2),
        *((src, tgt) for src in (N5, C2XC3) for tgt in (CHAIN3, B2, MO2)),
        *((src, tgt) for tgt in (N5, C2XC3) for src in (CHAIN3, B2, MO2)),
        (chain(1), chain(1)),
        (B3_REVERSED, CHAIN2),
    ],
)
def test_enumeration_matches_brute_force(l1, l2):
    q = enumerate_Q(l1, l2)
    tables = [f.table for f in q.maps]
    assert tables == sorted(brute_join_maps(l1, l2))


def test_enumeration_guard():
    with pytest.raises(TooLarge):
        enumerate_Q(boolean(4).base, CHAIN2)


def test_qlattice_bounds_and_pointwise_join_table():
    for l1, l2 in itertools.product(standard_lattices().values(), repeat=2):
        q = enumerate_Q(l1, l2)
        # Q's bounds as its tables find them, not as index_of does
        assert q.maps[q.lattice.top].table == separation_state(l1, l2).table
        assert q.maps[q.lattice.bottom].table == absurd_state(l1, l2).table
        t = np.array([f.table for f in q.maps])
        lub = np.array([[brute_lub(l2.leq, [a, b]) for b in range(len(l2))]
                        for a in range(len(l2))])
        # the map at join_table[i, j] is the pointwise join of maps i and j
        assert np.array_equal(t[q.lattice.join_table], lub[t[:, None], t[None]])
    q = enumerate_Q(B2, B2)
    for i, j in itertools.product(range(len(q)), repeat=2):
        joined = pointwise_join([q.maps[i], q.maps[j]])
        assert q.lattice.join2(i, j) == q.index_of(joined)


def test_qlattice_meet_is_the_pointwise_join_of_lower_bounds():
    # completeness gives the meet as the join of all common lower bounds
    q = enumerate_Q(B2, CHAIN3)
    for i, j in itertools.product(range(len(q)), repeat=2):
        lower = [
            q.maps[k]
            for k in range(len(q))
            if q.lattice.leq[k, i] and q.lattice.leq[k, j]
        ]
        expected = pointwise_join(lower, source=B2, target=CHAIN3)
        assert q.lattice.meet2(i, j) == q.index_of(expected)


def test_qlattice_meet_table_matches_brute_force_on_the_pointwise_order():
    for l1, l2 in itertools.product(standard_lattices().values(), repeat=2):
        q = enumerate_Q(l1, l2)
        # Q is certified by its joins and its bottom; its meets wait for a read
        assert "meet_table" not in vars(q.lattice)
        t = np.array([f.table for f in q.maps])
        order = l2.leq[t[:, None, :], t[None, :, :]].all(axis=2)
        # Q reads its order off its join table: f <= g iff f v g = g
        assert np.array_equal(q.lattice.leq, order)
        meets = q.lattice.meet_table
        assert not meets.flags.writeable
        for i in range(len(q)):
            for j in range(i, len(q)):
                assert meets[i, j] == brute_glb(order, [i, j])


def test_large_qlattice_tables_match_brute_force_on_sampled_pairs():
    # 1,080 maps with 384 join-irreducibles: meet keys of seven 64-bit words
    mo3 = mo(3).base
    q = enumerate_Q(mo3, MO2)
    t = np.array([f.table for f in q.maps])
    order = MO2.leq[t[:, None, :], t[None, :, :]].all(axis=2)
    assert np.array_equal(q.lattice.leq, order)
    rng = np.random.default_rng(5)
    for i, j in rng.integers(len(q), size=(2000, 2)).tolist():
        assert q.lattice.meet_table[i, j] == brute_glb(order, [i, j])
        assert q.lattice.join_table[i, j] == brute_lub(order, [i, j])
    # more than 64 here too, so the exhaustive meet check above covers keys
    # of several words
    assert len(brute_join_irreducibles(enumerate_Q(MO2, MO2).lattice.leq)) > 64


def test_q_lattice_build_stays_in_quadratic_memory():
    # a cubic meet/join build needs over 200 MB here
    tracemalloc.start()
    try:
        enumerate_Q(chain(6), chain(6)).lattice.meet_table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_q_join_keys_are_built_without_a_per_position_temporary():
    # a rows x cols x |L1| index of the pointwise joins peaks at 3.7 MiB here
    enumerate_Q(MO2, MO2).lattice.join_table
    tracemalloc.start()
    try:
        enumerate_Q(MO2, MO2).lattice.join_table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


def test_candidate_filter_runs_in_row_blocks():
    # 46,656 candidates (six incomparable atoms): checking every pair on all
    # rows at once builds candidates x pairs temporaries of about 7 MB
    mo3 = mo(3).base
    enumerate_Q(mo3, chain(6))
    tracemalloc.start()
    try:
        enumerate_Q(mo3, chain(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_in_guard_pair_that_ran_out_of_memory_enumerates():
    # 1,080 maps: a cubic meet/join build needs several GB for this pair
    mo3 = mo(3).base
    q = enumerate_Q(mo3, MO2)
    assert len(q) == 1080
    assert {f.table for f in q.maps} == brute_join_maps(mo3, MO2)


def test_oversized_q_is_refused_before_its_tables_are_built():
    # 13,376 maps: the order, meet and join tables would need several GB
    q = enumerate_Q(mo(3).base, mo(3).base)
    with pytest.raises(TooLarge, match="13376 maps"):
        q.lattice


@pytest.mark.parametrize("n, k", list(itertools.product((1, 2, 3), repeat=2)))
def test_mo_to_mo_counts_match_the_closed_form_without_tables(n, k):
    l1, l2 = mo(n).base, mo(k).base
    q = enumerate_Q(l1, l2)
    assert len(q) == mo_join_map_count(n, k)
    assert q.top_map.table == separation_state(l1, l2).table
    assert q.bottom_map.table == absurd_state(l1, l2).table
    assert q.index_of(q.maps[-1]) == len(q) - 1
    assert "lattice" not in vars(q)


def test_index_of_refuses_a_map_of_another_signature():
    q = enumerate_Q(B2, CHAIN3)
    for other in (JoinMap(B2, CHAIN2, (0, 1, 1, 1)), galois_dual(q.maps[0])):
        with pytest.raises(MixedSignatures):
            q.index_of(other)
    # the same table is one of Q's maps when the signatures agree
    assert q.maps[q.index_of((0, 1, 1, 1))].table == (0, 1, 1, 1)


def test_qlattice_closed_under_arbitrary_pointwise_joins():
    q = enumerate_Q(MO2, CHAIN3)
    rng = np.random.default_rng(11)
    for _ in range(100):
        size = int(rng.integers(0, 5))
        subset = [q.maps[i] for i in rng.integers(len(q), size=size)]
        joined = pointwise_join(subset, source=MO2, target=CHAIN3)
        q.index_of(joined)  # raises if the join escaped the enumeration


# -- duality order laws -----------------------------------------------------------


def test_antitone_extremes_and_equal_maps():
    sep = separation_state(B2, B2)
    bot = absurd_state(B2, B2)
    assert order_antitone_check(bot, sep)
    assert order_antitone_check(sep, sep)


def test_antitone_law_exhaustive_on_small_pairs():
    for l1, l2 in [(CHAIN2, B2), (B2, B2), (CHAIN3, CHAIN3)]:
        q = enumerate_Q(l1, l2)
        duals = [galois_dual(f) for f in q.maps]
        for i, j in itertools.product(range(len(q)), repeat=2):
            forward = map_leq(q.maps[i], q.maps[j])
            backward = map_leq(duals[j], duals[i])
            assert forward == backward
            assert order_antitone_check(q.maps[i], q.maps[j])


def test_dual_of_pointwise_join_is_pointwise_meet_of_duals():
    q = enumerate_Q(B2, CHAIN3)
    duals = {f.table: galois_dual(f) for f in q.maps}
    rng = np.random.default_rng(5)
    for _ in range(100):
        subset = [q.maps[i] for i in rng.integers(len(q), size=int(rng.integers(1, 4)))]
        joined = pointwise_join(subset)
        lhs = galois_dual(joined).table
        rhs = tuple(
            B2.meet([duals[f.table].table[b] for f in subset])
            for b in range(len(CHAIN3))
        )
        assert lhs == rhs


# -- classification ----------------------------------------------------------------


def test_separation_on_two_chain_is_both_atomistic_and_separation_like():
    flags = classify_map(separation_state(CHAIN2, CHAIN2))
    assert flags == ("atomistic", "separation-like")


def test_identity_on_b2_is_atomistic():
    assert classify_map(identity_map(B2)) == ("atomistic",)


def test_atom_collapsing_map_not_atomistic():
    # both atoms to the top: 1 is neither an atom nor the bottom
    table = (B2.bottom, B2.top, B2.top, B2.top)
    flags = classify_map(JoinMap(source=B2, target=B2, table=table))
    assert "atomistic" not in flags


def test_partially_collapsing_map_is_other():
    a, b, one = B2.index("a"), B2.index("b"), B2.index("1")
    table = (B2.bottom, one, b, one)
    assert classify_map(JoinMap(source=B2, target=B2, table=table)) == ("other",)


def test_compose_join_maps_signature_check():
    with pytest.raises(MixedSignatures):
        compose_join_maps(identity_map(B2), identity_map(CHAIN3))
    f = separation_state(CHAIN3, B2)
    g = identity_map(CHAIN3)
    assert compose_join_maps(f, g).table == f.table


# -- sampled property: adjunction from random enumerated maps ----------------------


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_adjunction_property_on_sampled_maps(data):
    q = enumerate_Q(MO2, B2)
    f = data.draw(st.sampled_from(q.maps))
    dual = galois_dual(f)
    a = data.draw(st.integers(0, len(MO2) - 1))
    b = data.draw(st.integers(0, len(B2) - 1))
    assert bool(MO2.leq[a, dual.table[b]]) == bool(B2.leq[f.table[a], b])
