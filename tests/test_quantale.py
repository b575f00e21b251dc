"""Finite proper-state spaces and the transition quantale over them."""

from __future__ import annotations

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from compoundness.catalog import boolean, chain, mo
from compoundness.errors import (
    IllDefined,
    NotJoinPreserving,
    NotMember,
    TooLarge,
    UnknownElement,
)
from compoundness.galois import compose_join_maps, pointwise_join
from compoundness.quantale import (
    ProperStateSpace,
    TransitionMap,
    check_quantale_laws,
    compose,
    empty_transition,
    enumerate_members,
    epimorphism_check,
    identity_transition,
    is_member,
    property_propagation,
    transition_tables,
    union_join,
)
from compoundness import lattice, quantale
from compoundness.lattice import _row_blocks
from compoundness.quantale import _codes, _image_array, _triple_laws
from oracles import brute_members, brute_propagations, brute_triple_laws

CHAIN2 = chain(2)
CHAIN3 = chain(3)


def two_state_space() -> ProperStateSpace:
    return ProperStateSpace(("p", "q"), CHAIN2, (1, 1))


def three_state_space() -> ProperStateSpace:
    # p and q share the middle property, r carries the top
    return ProperStateSpace(("p", "q", "r"), CHAIN3, (1, 1, 2))


def boolean_state_space() -> ProperStateSpace:
    b2 = boolean(2).base
    return ProperStateSpace(("p", "q", "r"), b2, (b2.index("a"), b2.index("b"), b2.index("a")))


def member_codes(members) -> np.ndarray:
    return _codes(_image_array(members, len(members[0].space)))


def as_sets(space: ProperStateSpace, maps) -> list[tuple[frozenset[int], ...]]:
    """Each map's images of the states, as sets of state indices."""
    return [
        tuple(frozenset(s for s in range(len(space)) if image >> s & 1) for image in f.images)
        for f in maps
    ]


def test_masks_outside_the_state_space_are_rejected():
    space = three_state_space()
    f = identity_transition(space)
    for mask in (-1, -8, 1 << len(space)):
        for read in (f.act, space.strongest_property, space.closure):
            with pytest.raises(IndexError, match="out of range"):
                read(mask)


def test_bool_masks_are_rejected():
    space = three_state_space()
    f = identity_transition(space)
    # nor is a float a mask
    for mask in (True, False, np.True_, np.False_, 1.0, 0.0):
        for read in (f.act, space.strongest_property, space.closure):
            with pytest.raises(IndexError, match="out of range"):
                read(mask)


def test_unknown_state_labels_are_named():
    space = two_state_space()
    with pytest.raises(UnknownElement, match="'zz'"):
        space.mask(["p", "zz"])
    with pytest.raises(UnknownElement, match="'zz'"):
        TransitionMap.from_images(space, [["p"], ["zz"]])


def test_transition_tables_refuse_more_than_350_members_or_7_states():
    space = two_state_space()
    with pytest.raises(TooLarge, match="350 members, got 351"):
        transition_tables([identity_transition(space)] * 351)
    eight = ProperStateSpace(tuple("abcdefgh"), CHAIN2, (1,) * 8)
    with pytest.raises(TooLarge, match="up to 7 states, got 8"):
        transition_tables([identity_transition(eight)])


def test_bool_properties_are_rejected():
    with pytest.raises(UnknownElement):
        ProperStateSpace(("p",), CHAIN2, (True,))


@pytest.mark.parametrize("images", [(True, 2), (1, np.True_), (1.0, 2), (1, 4), (-1, 0)])
def test_images_that_are_no_masks_of_the_states_are_rejected(images):
    with pytest.raises(ValueError, match="out of range"):
        TransitionMap(two_state_space(), images)


def test_images_may_be_numpy_integers():
    f = TransitionMap(two_state_space(), (np.int64(1), np.uint8(3)))
    assert f.act(1) == 1 and f.act(2) == 3


def test_strongest_property_and_closure():
    space = three_state_space()
    assert space.strongest_property(space.mask([])) == CHAIN3.bottom
    assert space.strongest_property(space.mask(["p"])) == 1
    assert space.strongest_property(space.mask(["p", "r"])) == CHAIN3.top
    assert space.closure(space.mask(["p"])) == space.mask(["p", "q"])
    assert space.closure(space.mask(["r"])) == space.mask(["p", "q", "r"])


def test_preorder_allows_equal_properties_on_distinct_states():
    space = three_state_space()
    p, q = space.mask(["p"]), space.mask(["q"])
    assert space.strongest_property(p) == space.strongest_property(q)


def test_identity_and_empty_maps_are_members():
    for space in (two_state_space(), three_state_space()):
        assert is_member(identity_transition(space))
        assert is_member(empty_transition(space))


def test_explicit_three_state_counterexample_is_not_a_member():
    space = three_state_space()
    # sends a state from the shared middle class into the top class: the
    # closure of {p} contains q, but f({p}) stays in the middle class
    bad = TransitionMap.from_images(space, [["p"], ["r"], []])
    assert not is_member(bad)


def test_non_members_exist_and_brute_force_finds_them():
    space = three_state_space()
    non_members = [
        images
        for images in itertools.product(range(8), repeat=3)
        if not is_member(TransitionMap(space, images))
    ]
    assert non_members  # the membership condition genuinely excludes maps
    assert (space.mask(["p"]), space.mask(["r"]), 0) in set(non_members)


def test_member_counts_on_the_reference_spaces():
    assert len(enumerate_members(two_state_space())) == 10
    assert len(enumerate_members(three_state_space())) == 135


def test_enumeration_guard():
    # 2^25 candidates and their act table would take several GB: refuse first
    space = ProperStateSpace(tuple("abcde"), CHAIN2, (1,) * 5)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            enumerate_members(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_compose_with_identity_and_membership_preservation():
    space = three_state_space()
    members = enumerate_members(space)
    ident = identity_transition(space)
    rng = np.random.default_rng(0)
    for _ in range(25):
        f = members[rng.integers(len(members))]
        assert compose(f, ident).images == f.images
        assert compose(ident, f).images == f.images
        g = members[rng.integers(len(members))]
        assert is_member(compose(f, g))


def test_compose_rejects_non_members():
    space = three_state_space()
    bad = TransitionMap.from_images(space, [["p"], ["r"], []])
    with pytest.raises(NotMember):
        compose(bad, identity_transition(space))


def _spaces_sharing_labels() -> tuple[ProperStateSpace, ...]:
    # one space, a twin of the same structure, and a space on the same states
    # with another closure: the union or composite of a member of the first
    # and one of the last need not be a member of either space
    return (ProperStateSpace(("p", "q"), CHAIN2, (1, 1)),
            ProperStateSpace(("p", "q"), chain(2), (1, 1)),
            ProperStateSpace(("p", "q"), CHAIN3, (1, 2)))


def test_union_join_refuses_maps_from_another_space():
    one, twin, other = _spaces_sharing_labels()
    pairs = list(itertools.product(enumerate_members(one), enumerate_members(other)))
    unions = [TransitionMap(one, tuple(x | y for x, y in zip(f.images, g.images)))
              for f, g in pairs]
    assert not all(is_member(u) for u in unions)
    for f, g in pairs:
        for maps in ([f, g], [g, f]):
            with pytest.raises(NotMember, match="different state spaces"):
                union_join(maps)
    assert is_member(union_join([identity_transition(one), identity_transition(twin)]))


def test_compose_refuses_maps_from_another_space():
    one, twin, other = _spaces_sharing_labels()
    for f, g in itertools.product(enumerate_members(one), enumerate_members(other)):
        for outer, inner in ((f, g), (g, f)):
            with pytest.raises(NotMember, match="different state spaces"):
                compose(outer, inner)
    assert compose(identity_transition(twin), identity_transition(one)).images == (1, 2)


def test_union_join_empty_and_bounds():
    space = two_state_space()
    bottom = union_join([], space=space)
    assert bottom.images == empty_transition(space).images
    members = enumerate_members(space)
    total = union_join(members, space=space)
    assert is_member(total)
    assert all(
        total.act(1 << i) | f.act(1 << i) == total.act(1 << i)
        for f in members
        for i in range(len(space))
    )


def test_distributivity_exhaustive_on_three_states():
    space = three_state_space()
    members = enumerate_members(space)
    comp, union = transition_tables(members)
    assert np.array_equal(comp[:, union], union[comp[:, :, None], comp[:, None, :]])
    assert np.array_equal(comp[union], union[comp[:, None, :], comp[None, :, :]])
    assert np.array_equal(comp[comp], comp[:, comp])


@pytest.mark.parametrize("table", ["comp", "union"])
@pytest.mark.parametrize("corner", [(0, 0), (0, -1), (-1, 0), (-1, -1)])
def test_triple_laws_find_one_corrupted_entry_in_the_first_and_last_blocks(table, corner):
    # 80 members make eight blocks; the corners sit in the first and last ones
    space = ProperStateSpace(("p", "q", "r"), CHAIN2, (0, 1, 1))
    members = enumerate_members(space)
    tables = dict(zip(("comp", "union"), transition_tables(members)))
    m = len(tables["comp"])
    assert m >= 80 and len(_row_blocks(m, m * m)) > 2
    tables[table][corner] = (tables[table][corner] + 1) % m
    laws = _triple_laws(tables["comp"], tables["union"], member_codes(members))
    assert laws == brute_triple_laws(tables["comp"], tables["union"])
    assert not all(laws)


def test_triple_laws_agree_with_the_oracle_on_every_single_entry_corruption():
    # 8 members: each of the 2 * 64 entries set to each of its 7 other values
    space = ProperStateSpace(("p", "q"), CHAIN2, (0, 1))
    members = enumerate_members(space)
    codes = member_codes(members)
    tables = transition_tables(members)
    m = len(members)
    assert m == 8
    cases = 0
    for t, (i, j), value in itertools.product(range(2), itertools.product(range(m), repeat=2),
                                              range(m)):
        if value == tables[t][i, j]:
            continue
        corrupt = [table.copy() for table in tables]
        corrupt[t][i, j] = value
        assert _triple_laws(*corrupt, codes) == brute_triple_laws(*corrupt), (t, i, j, value)
        cases += 1
    assert cases == 896


def test_triple_laws_agree_with_the_oracle_on_every_symmetric_pair_corruption(monkeypatch):
    # the maps of the three-state space that send r into {r} are closed under
    # composition and union; blocks of 4 rows make 7 blocks of 27 members
    space = three_state_space()
    members = [f for f in enumerate_members(space) if f.images[2] in (0, 4)]
    comp, union = transition_tables(members)
    codes = member_codes(members)
    m = len(members)
    monkeypatch.setattr(lattice, "_BLOCK_ENTRIES", 4 * m * m)
    assert m == 27 and len(_row_blocks(m, m * m)) == 7
    for i, j in itertools.combinations_with_replacement(range(m), 2):
        corrupt = union.copy()
        corrupt[i, j] = corrupt[j, i] = (union[i, j] + 1) % m
        # still symmetric, so each distributive law compares the pairs k >= j
        assert np.array_equal(corrupt, corrupt.T)
        laws = _triple_laws(comp, corrupt, codes)
        assert laws == brute_triple_laws(comp, corrupt), (i, j)
        assert not all(laws)


def test_one_law_check_reads_its_members_once(monkeypatch):
    # one image array and one act table of all m members; the union-closure
    # check adds the one-row act table of their union
    space = three_state_space()
    members = enumerate_members(space)
    rows = {"images": [], "act": []}
    image_array, act_table = quantale._image_array, quantale._act_table
    monkeypatch.setattr(quantale, "_image_array",
                        lambda maps, n: rows["images"].append(len(maps)) or image_array(maps, n))
    monkeypatch.setattr(quantale, "_act_table",
                        lambda images: rows["act"].append(len(images)) or act_table(images))
    assert check_quantale_laws(space, members).ok
    assert rows == {"images": [len(members)], "act": [len(members), 1]}


def test_duplicate_members_point_to_their_last_copy():
    # of equal members the last counts, so every table entry is the one
    # index its lookup picks for its code and the laws still hold
    space = three_state_space()
    members = enumerate_members(space)
    m = len(members)
    doubled = list(members) + list(members[:3])
    last = np.array([m + i if i < 3 else i for i in range(m)])
    source = np.r_[np.arange(m), np.arange(3)]
    for table, table2 in zip(transition_tables(members), transition_tables(doubled)):
        assert table2.dtype == np.int16
        assert np.array_equal(table2, last[table[np.ix_(source, source)]])
    comp, union = transition_tables(doubled)
    assert (_triple_laws(comp, union, member_codes(doubled)) == brute_triple_laws(comp, union)
            == (True, True, True))
    report = check_quantale_laws(space, doubled)
    assert report == dataclasses.replace(check_quantale_laws(space, members), members=m + 3,
                                         epimorphism=epimorphism_check(space, doubled))
    assert report.ok


def test_quantale_laws_check_in_quadratic_memory():
    # all-triples arrays would take 37 MiB here; row blocks keep it near 1.3 MiB
    space = ProperStateSpace(("p", "q", "r"), chain(4), (1, 2, 3))
    members = enumerate_members(space)
    assert len(members) == 198
    tracemalloc.start()
    try:
        assert check_quantale_laws(space, members).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


def test_transition_tables_reject_lists_not_closed_under_products():
    space = two_state_space()
    swap = TransitionMap.from_images(space, [["q"], ["p"]])
    to_p = TransitionMap.from_images(space, [["p"], ["p"]])
    to_q = TransitionMap.from_images(space, [["q"], ["q"]])
    assert all(is_member(f) for f in (swap, to_p, to_q))
    with pytest.raises(NotMember, match="composition"):
        transition_tables([swap])  # swap o swap is the identity
    with pytest.raises(NotMember, match="union"):
        transition_tables([to_p, to_q])  # closed under composition only


@pytest.mark.parametrize("make_space", [two_state_space, three_state_space, boolean_state_space])
def test_members_and_tables_agree_with_the_set_level_oracle(make_space):
    space = make_space()
    members = enumerate_members(space)
    sets = as_sets(space, members)
    assert len(set(sets)) == len(sets)
    assert set(sets) == brute_members(space.lattice.leq, space.c_map)
    comp, union = transition_tables(members)
    for i, f in enumerate(sets):
        for j, g in enumerate(sets):
            assert sets[comp[i, j]] == tuple(
                frozenset().union(*(f[t] for t in g_s)) for g_s in g
            )
            assert sets[union[i, j]] == tuple(a | b for a, b in zip(f, g))
    assert (_triple_laws(comp, union, member_codes(members)) == brute_triple_laws(comp, union)
            == (True, True, True))


def test_composition_distributes_over_sampled_arbitrary_unions():
    space = three_state_space()
    members = enumerate_members(space)
    rng = np.random.default_rng(1)
    for _ in range(50):
        f = members[rng.integers(len(members))]
        gs = [members[i] for i in rng.integers(len(members), size=int(rng.integers(0, 5)))]
        lhs = compose(f, union_join(gs, space=space))
        rhs = union_join([compose(f, g) for g in gs], space=space)
        assert lhs.images == rhs.images


# -- property propagation -----------------------------------------------------


def test_identity_propagates_to_the_identity_join_map():
    space = three_state_space()
    prop = property_propagation(identity_transition(space))
    assert prop.table == tuple(range(len(CHAIN3)))


def test_empty_transition_propagates_to_constant_bottom():
    space = three_state_space()
    prop = property_propagation(empty_transition(space))
    assert prop.table == (CHAIN3.bottom,) * len(CHAIN3)


def test_collapse_of_property_sharing_states_is_join_preserving():
    space = three_state_space()
    collapse = TransitionMap.from_images(space, [["q"], ["q"], ["r"]])
    assert is_member(collapse)
    prop = property_propagation(collapse)
    assert prop.table == tuple(range(len(CHAIN3)))  # classes are preserved


def test_ill_defined_propagation_reports_a_witness():
    space = three_state_space()
    bad = TransitionMap.from_images(space, [["p"], ["r"], []])
    with pytest.raises(IllDefined) as excinfo:
        property_propagation(bad)
    left, right = excinfo.value.witness
    assert space.strongest_property(space.mask(left)) == space.strongest_property(
        space.mask(right)
    )


def test_propagation_needs_join_generating_properties():
    # a lattice element that no state generates cannot be propagated
    lantern = mo(2).base
    space = ProperStateSpace(("p",), lantern, (lantern.index("a"),))
    with pytest.raises(NotJoinPreserving):
        property_propagation(identity_transition(space))


def test_sample_raises_for_its_first_bad_member():
    # {a} does not join-generate MO2: the identity propagates to a table
    # that is not join-preserving; split_pq sends the equal-property {p}
    # and {q} to subsets of different properties
    lantern = mo(2).base
    space = ProperStateSpace(("p", "q"), lantern, (lantern.index("a"),) * 2)
    ident = identity_transition(space)
    split_pq = TransitionMap.from_images(space, [["p"], []])
    with pytest.raises(NotJoinPreserving) as excinfo:
        epimorphism_check(space, [ident, split_pq, ident])
    assert str(excinfo.value) == "table (0, 1, 0, 0, 0, 1) does not preserve joins"
    with pytest.raises(IllDefined) as excinfo:
        epimorphism_check(space, [split_pq, ident, split_pq])
    assert str(excinfo.value) == "propagation is not well defined on equal-property subsets"
    assert excinfo.value.witness == (("p",), ("q",))


def test_propagation_of_top_dominates_all_propagations():
    space = two_state_space()
    members = enumerate_members(space)
    top = union_join(members, space=space)
    top_prop = property_propagation(top)
    for f in members:
        prop = property_propagation(f)
        assert all(
            CHAIN2.leq[prop.table[x], top_prop.table[x]] for x in range(len(CHAIN2))
        )


# -- the quantale morphism ------------------------------------------------------


def test_epimorphism_exhaustive_on_two_states():
    space = two_state_space()
    members = enumerate_members(space)
    report = epimorphism_check(space, members)
    assert report.ok and report.maps == len(members)


def test_epimorphism_on_sampled_pairs_of_the_three_state_space():
    space = three_state_space()
    members = enumerate_members(space)
    rng = np.random.default_rng(2)
    sample = [members[i] for i in rng.integers(len(members), size=12)]
    assert epimorphism_check(space, sample).ok


def test_epimorphism_identity_alone():
    space = two_state_space()
    assert epimorphism_check(space, [identity_transition(space)]).ok


def test_propagation_is_a_morphism_by_direct_comparison():
    space = three_state_space()
    members = enumerate_members(space)
    rng = np.random.default_rng(3)
    for _ in range(50):
        f = members[rng.integers(len(members))]
        g = members[rng.integers(len(members))]
        lhs = property_propagation(compose(f, g))
        rhs = compose_join_maps(property_propagation(f), property_propagation(g))
        assert lhs.table == rhs.table
        lhs = property_propagation(union_join([f, g]))
        rhs = pointwise_join([property_propagation(f), property_propagation(g)])
        assert lhs.table == rhs.table


def test_full_law_report_on_both_reference_spaces():
    for space in (two_state_space(), three_state_space()):
        report = check_quantale_laws(space)
        assert report.ok
        assert report.right_distributive  # observed to hold on these models


def test_report_ok_requires_right_distributivity():
    report = check_quantale_laws(two_state_space())
    assert report.ok
    assert not dataclasses.replace(report, right_distributive=False).ok


def test_report_laws_list_every_boolean_field_and_ok_requires_each():
    report = check_quantale_laws(two_state_space())
    assert report.laws == {"associative": True, "left_distributive": True,
                           "right_distributive": True, "union_closed": True,
                           "bottom_is_empty": True}
    for law in report.laws:
        assert not dataclasses.replace(report, **{law: False}).ok, law


def test_law_report_with_a_boolean_property_lattice():
    b2 = boolean(2).base
    space = ProperStateSpace(("p", "q", "r"), b2, (b2.index("a"), b2.index("b"), b2.index("a")))
    report = check_quantale_laws(space)
    assert report.ok


def test_four_state_space_laws_on_sampled_triples():
    # four states produce tens of thousands of members, so the guarded
    # all-triples tables do not apply; the laws are checked on a sample
    space = ProperStateSpace(("p", "q", "r", "s"), CHAIN3, (1, 1, 2, 2))
    members = enumerate_members(space)
    assert len(members) > 350  # beyond the exhaustive-table guard
    rng = np.random.default_rng(4)
    for _ in range(300):
        f, g, h = (members[i] for i in rng.integers(len(members), size=3))
        assert compose(compose(f, g), h).images == \
            compose(f, compose(g, h)).images
        lhs = compose(f, union_join([g, h]))
        rhs = union_join([compose(f, g), compose(f, h)])
        assert lhs.images == rhs.images
        lhs = compose(union_join([g, h]), f)
        rhs = union_join([compose(g, f), compose(h, f)])
        assert lhs.images == rhs.images
        assert is_member(compose(f, g))
    sample = [members[i] for i in rng.integers(len(members), size=8)]
    assert epimorphism_check(space, sample).ok


def _four_state_sample():
    # the sample of test_four_state_space_laws_on_sampled_triples, drawn
    # after its 300 triples
    space = ProperStateSpace(("p", "q", "r", "s"), CHAIN3, (1, 1, 2, 2))
    members = enumerate_members(space)
    rng = np.random.default_rng(4)
    for _ in range(300):
        rng.integers(len(members), size=3)
    return space, [members[i] for i in rng.integers(len(members), size=8)]


def _three_state_sample():
    space = three_state_space()
    members = enumerate_members(space)
    rng = np.random.default_rng(2)
    return space, [members[i] for i in rng.integers(len(members), size=12)]


def _all_members(lattice, c_map):
    def make():
        space = ProperStateSpace(tuple(f"s{i}" for i in range(len(c_map))), lattice, c_map)
        return space, enumerate_members(space)
    return make


# every member set and sample that the tests and the quantale suite hand to
# check_quantale_laws or epimorphism_check
_MORPHISM_SAMPLES = {
    "two-states": _all_members(CHAIN2, (1, 1)),
    "three-states": _all_members(CHAIN3, (1, 1, 2)),
    "chain3-1-2-1": _all_members(CHAIN3, (1, 2, 1)),
    "chain3-1-2-2": _all_members(CHAIN3, (1, 2, 2)),
    "boolean-a-b-a": _all_members(boolean(2).base, (1, 2, 1)),
    "boolean-a-b-b": _all_members(boolean(2).base, (1, 2, 2)),
    "chain4-198-members": _all_members(chain(4), (1, 2, 3)),
    "three-state-sample": _three_state_sample,
    "four-state-sample": _four_state_sample,
    "identity-alone": lambda: (two_state_space(), [identity_transition(two_state_space())]),
}


@pytest.mark.parametrize("name", list(_MORPHISM_SAMPLES))
def test_propagation_morphism_agrees_with_the_set_level_oracle(name):
    # the pair comparison that per-map validation makes redundant in the
    # library, recomputed from the set-level definitions
    space, sample = _MORPHISM_SAMPLES[name]()
    tables, failures = brute_propagations(space.lattice.leq, space.c_map,
                                          as_sets(space, sample))
    assert tables == [property_propagation(f).table for f in sample]
    assert failures == []
    assert epimorphism_check(space, sample).maps == len(sample)
