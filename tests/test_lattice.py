"""Order core: posets, lattices, orthocomplements, Sasaki projection."""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compoundness.catalog import boolean, chain, mo
from compoundness.errors import (
    CompoundnessError,
    NoBounds,
    NotALattice,
    NotAPoset,
    NotComplement,
    NotInvolutive,
    NotOrderReversing,
    NotOrthomodular,
    PreconditionViolated,
    UnknownElement,
)
from compoundness.lattice import (
    attach_ortho,
    build_lattice,
    foulis_order_check,
    lattice_from_order,
)

from compoundness.galois import enumerate_Q

from oracles import brute_atoms, brute_glb, brute_join_irreducibles, brute_lub


def test_two_chain_builds_from_one_pair():
    lat = build_lattice(["0", "1"], [("0", "1")])
    assert lat.bottom == lat.index("0")
    assert lat.top == lat.index("1")
    assert lat.le(0, 1) and not lat.le(1, 0)


def test_b2_meets_and_joins_match_brute_force():
    lat = boolean(2).base
    a, b = lat.index("a"), lat.index("b")
    assert lat.meet2(a, b) == lat.index("0")
    assert lat.join2(a, b) == lat.index("1")
    for x, y in itertools.product(range(len(lat)), repeat=2):
        assert lat.meet2(x, y) == brute_glb(lat.leq, [x, y])
        assert lat.join2(x, y) == brute_lub(lat.leq, [x, y])


def test_bowtie_poset_is_not_a_lattice():
    # {a, b} below {c, d}: two minimal upper bounds, so no join
    with pytest.raises(NotALattice):
        build_lattice(["a", "b", "c", "d"],
                      [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


def test_poset_with_every_join_but_no_bottom_is_not_a_lattice():
    # a, b < 1: every pair has a join, so only the missing bottom shows
    leq = np.array([[1, 0, 1], [0, 1, 1], [0, 0, 1]], dtype=bool)
    with pytest.raises(NotALattice, match="'a' and 'b' have no meet"):
        lattice_from_order(["a", "b", "1"], leq)
    with pytest.raises(NotALattice, match="'a' and 'b' have no meet"):
        build_lattice(["a", "b", "1"], [("a", "1"), ("b", "1")])


def test_cycle_is_rejected_as_antisymmetry_failure():
    with pytest.raises(NotAPoset):
        build_lattice(["x", "y", "z"], [("x", "y"), ("y", "x"), ("x", "z")])


def test_raw_order_matrix_must_be_reflexive_and_transitive():
    with pytest.raises(NotAPoset, match="reflexive"):
        lattice_from_order(["x", "y"], np.array([[False, True], [False, True]]))
    rel = np.eye(3, dtype=bool)
    rel[0, 1] = rel[1, 2] = True  # missing (0, 2)
    with pytest.raises(NotAPoset, match="transitive"):
        lattice_from_order(["x", "y", "z"], rel)


def test_empty_carrier_has_no_bounds():
    with pytest.raises(NoBounds):
        build_lattice([], [])


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        build_lattice(["x", "x"], [])


def test_unknown_pair_labels_rejected():
    with pytest.raises(UnknownElement):
        build_lattice(["x", "y"], [("x", "zz")])
    with pytest.raises(UnknownElement):
        build_lattice(["x", "y"], [(0, 5)])


def test_empty_meet_is_top_and_empty_join_is_bottom():
    lat = boolean(2).base
    assert lat.meet([]) == lat.top
    assert lat.join([]) == lat.bottom


def test_join_of_complementary_atoms_is_top():
    lat = boolean(2).base
    assert lat.join([lat.index("a"), lat.index("b")]) == lat.index("1")


def test_meet_of_mo2_orthogonal_atoms_is_bottom():
    lat = mo(2).base
    assert lat.meet([lat.index("a"), lat.index("a'")]) == lat.index("0")


def test_meet_rejects_unknown_elements():
    lat = chain(2)
    with pytest.raises(UnknownElement):
        lat.meet([0, 7])
    with pytest.raises(UnknownElement):
        lat.index("nope")


def test_bools_are_not_element_indices():
    lat = chain(3)
    for call in (lambda: lat.join2(True, 2), lambda: lat.meet2(0, False),
                 lambda: lat.le(True, 1), lambda: lat.join([False])):
        with pytest.raises(UnknownElement):
            call()


@pytest.mark.parametrize("pair", [(False, True), (0, True), (0.0, 1), (0, 1.0), (0, 2)])
def test_pair_entries_that_are_no_index_or_label_are_refused(pair):
    with pytest.raises(UnknownElement, match="out of range"):
        build_lattice(["a", "b"], [pair])


def test_pair_entries_may_be_numpy_integers():
    lat = build_lattice(["a", "b"], [(np.int64(0), np.uint8(1))])
    assert lat.le(0, 1) and not lat.le(1, 0)


N5 = build_lattice(["0", "a", "b", "c", "1"],
                   [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")])


@pytest.mark.parametrize(
    "lat,expected",
    [
        (chain(2), ["1"]),
        (boolean(2).base, ["a", "b"]),
        (mo(2).base, ["a", "a'", "b", "b'"]),
    ],
)
def test_atoms_cover_the_bottom(lat, expected):
    assert [lat.elements[i] for i in lat.atoms()] == expected


@pytest.mark.parametrize(
    "lat",
    [chain(n) for n in range(1, 6)] + [boolean(n).base for n in (1, 2, 3)]
    + [mo(n).base for n in (1, 2, 3)]
    + [N5, enumerate_Q(chain(3), boolean(2).base).lattice, enumerate_Q(mo(2).base, chain(3)).lattice],
)
def test_atoms_match_brute_force(lat):
    assert lat.atoms() == tuple(brute_atoms(lat.leq))
    assert all(type(a) is int for a in lat.atoms())


@pytest.mark.parametrize(
    "lat",
    [chain(3), boolean(2).base, mo(2).base, boolean(3).base, mo(3).base]
    + [chain(n) for n in (2, 4, 5, 6, 7)],
)
def test_meet_join_are_bounds_for_every_subset(lat):
    indices = range(len(lat))
    for size in range(len(lat) + 1):
        for subset in itertools.combinations(indices, size):
            xs = list(subset)
            expected_meet = brute_glb(lat.leq, xs) if xs else lat.top
            expected_join = brute_lub(lat.leq, xs) if xs else lat.bottom
            assert lat.meet(xs) == expected_meet
            assert lat.join(xs) == expected_join


@pytest.mark.parametrize(
    "lat",
    [chain(n) for n in range(2, 8)] + [boolean(n).base for n in (2, 3)]
    + [mo(n).base for n in (2, 3)],
)
def test_dual_is_the_lattice_of_the_reversed_order(lat):
    dual = lat.dual
    rebuilt = lattice_from_order(lat.elements, lat.leq.T)
    assert dual.elements == lat.elements
    assert np.array_equal(dual.leq, lat.leq.T)
    assert np.array_equal(dual.meet_table, rebuilt.meet_table)
    assert np.array_equal(dual.join_table, rebuilt.join_table)
    assert (dual.bottom, dual.top) == (lat.top, lat.bottom)


@pytest.mark.parametrize(
    "lat",
    [chain(n) for n in range(2, 8)] + [boolean(n).base for n in (2, 3)]
    + [mo(n).base for n in (2, 3)],
)
def test_join_irreducibles_match_brute_force(lat):
    assert list(lat.join_irreducibles()) == brute_join_irreducibles(lat.leq)


def test_join_irreducibles_generate_by_joins():
    for lat in (chain(3), boolean(3).base, mo(2).base):
        jis = lat.join_irreducibles()
        for x in range(len(lat)):
            below = [j for j in jis if lat.leq[j, x]]
            assert lat.join(below) == x


# -- orthocomplements ---------------------------------------------------------


def test_boolean_complement_is_a_valid_ortholattice():
    ol = boolean(2)
    a, b = ol.base.index("a"), ol.base.index("b")
    assert ol.ortho_of(a) == b


def test_mo2_is_orthomodular_but_not_distributive():
    ol = mo(2)
    base = ol.base
    a, b, bp = base.index("a"), base.index("b"), base.index("b'")
    # distributivity fails: a /\ (b \/ b') = a, (a/\b) \/ (a/\b') = 0
    assert base.meet2(a, base.join2(b, bp)) == a
    assert base.join2(base.meet2(a, b), base.meet2(a, bp)) == base.bottom


def _stock_by_pairs(kind: str, n: int):
    """A stock lattice built from generating label pairs, with its
    complement table (None for a chain)."""
    if kind == "chain":
        return build_lattice([str(i) for i in range(n)], [(i, i + 1) for i in range(n - 1)]), None
    if kind == "boolean":
        full = (1 << n) - 1

        def label(mask: int) -> str:
            if mask == 0:
                return "0"
            if mask == full:
                return "1"
            return "".join(c for i, c in enumerate("abcdefgh"[:n]) if mask >> i & 1)

        labels = [label(m) for m in range(full + 1)]
        pairs = [(label(lo), label(hi)) for lo, hi in itertools.product(range(full + 1), repeat=2)
                 if lo & hi == lo]
        return build_lattice(labels, pairs), [labels.index(label(full & ~m)) for m in range(full + 1)]
    labels = ["0", *itertools.chain.from_iterable((c, c + "'") for c in "abcdefgh"[:n]), "1"]
    atoms = labels[1:-1]
    base = build_lattice(labels, [("0", x) for x in atoms] + [(x, "1") for x in atoms] + [("0", "1")])
    partner = {c: c + "'" for c in atoms[::2]} | {c + "'": c for c in atoms[::2]} | {"0": "1", "1": "0"}
    return base, [labels.index(partner[x]) for x in labels]


@pytest.mark.parametrize("kind, n", [("chain", n) for n in range(1, 9)]
                         + [("boolean", k) for k in range(4)] + [("mo", n) for n in range(1, 4)])
def test_catalog_lattice_equals_the_one_built_from_its_pairs(kind, n):
    made = {"chain": chain, "boolean": boolean, "mo": mo}[kind](n)
    base, ortho = (made, None) if kind == "chain" else (made.base, list(made.ortho))
    want, want_ortho = _stock_by_pairs(kind, n)
    assert base.elements == want.elements
    for table in ("leq", "join_table", "meet_table"):
        assert np.array_equal(getattr(base, table), getattr(want, table)), table
    assert (base.bottom, base.top, ortho) == (want.bottom, want.top, want_ortho)


@pytest.mark.parametrize("make, size", [
    (chain, -1), (chain, 2.5), (chain, True), (chain, "3"),
    (boolean, -1), (boolean, 9), (boolean, True), (boolean, 2.0),
    (mo, -1), (mo, 9), (mo, True), (mo, None),
])
def test_catalog_refuses_a_size_out_of_range_up_front(make, size):
    accepted = "0..inf" if make is chain else "0..8"
    with pytest.raises(ValueError, match=re.escape(f"must be an integer in {accepted}, got {size!r}")):
        make(size)


def test_catalog_sizes_at_the_ends_of_their_range():
    with pytest.raises(NoBounds):
        chain(0)
    assert [len(chain(1)), len(boolean(0)), len(mo(0)), len(boolean(8)), len(mo(8))] == [1, 1, 2, 256, 18]


def test_self_complement_on_atom_is_rejected():
    base = boolean(2).base
    ortho = [base.index("1"), base.index("a"), base.index("b"), base.index("0")]
    # a and b both fail; the first in index order is named
    with pytest.raises(NotComplement, match=re.escape("'a' /\\ its complement is not the bottom")):
        attach_ortho(base, ortho)


def test_non_involutive_table_is_rejected():
    base = boolean(2).base
    zero, a, b, one = (base.index(x) for x in "0ab1")
    # a and b both fail; the first in index order is named
    with pytest.raises(NotInvolutive, match=re.escape("ortho(ortho('a')) != 'a'")):
        attach_ortho(base, [one, b, one, zero])


def test_non_order_reversing_involution_is_rejected():
    base = boolean(2).base
    zero, a, b, one = (base.index(x) for x in "0ab1")
    # swaps 0<->a and b<->1: involutive, but 0<=b does not reverse
    # (0, b) is the first failing pair in row-major order; (0, 1) and (a, 1) fail too
    with pytest.raises(NotOrderReversing,
                       match=re.escape("'0' <= 'b' but complements are not reversed")):
        attach_ortho(base, [a, zero, one, b])


@pytest.mark.parametrize("ortho", [(True, False), (1.5, 0.2), (1.0, 0.0), ("1", "0"), (1, 2)])
def test_ortho_entries_must_be_element_indices(ortho):
    with pytest.raises(UnknownElement, match="out of range"):
        attach_ortho(chain(2), ortho)


def test_ortho_entries_may_be_numpy_integers():
    ol = attach_ortho(chain(2), np.array([1, 0]))
    assert ol.ortho == (1, 0) and all(type(v) is int for v in ol.ortho)


@pytest.mark.parametrize("lat, orthocomplements", [
    (chain(2), 1), (chain(3), 0), (chain(4), 0), (chain(5), 0),
    # complements are unique in a distributive lattice; mo(2) pairs its four atoms
    (boolean(2).base, 1), (mo(2).base, 3), (boolean(3).base, 1),
])
def test_every_accepted_ortho_table_joins_each_element_to_the_top(lat, orthocomplements):
    # attach_ortho checks a /\ a' = 0 but not a v a' = 1, which must follow
    accepted = 0
    for table in itertools.permutations(range(len(lat))):
        try:
            ol = attach_ortho(lat, table)
        except CompoundnessError:
            continue
        accepted += 1
        assert all(lat.join2(a, ol.ortho_of(a)) == lat.top for a in range(len(lat)))
    assert accepted == orthocomplements


def test_benzene_ring_fails_orthomodularity():
    # 0 < a < b < 1 and 0 < b' < a' < 1 with the primed chain separate
    labels = ["0", "a", "b", "b'", "a'", "1"]
    pairs = [("0", "a"), ("a", "b"), ("b", "1"), ("0", "b'"), ("b'", "a'"), ("a'", "1")]
    base = build_lattice(labels, pairs)
    ortho = [5, 4, 3, 2, 1, 0]
    # (a, b) is the first of several failing pairs in row-major order
    with pytest.raises(NotOrthomodular, match=re.escape("fails for 'a' <= 'b'")):
        attach_ortho(base, ortho)


# -- sasaki projection --------------------------------------------------------


@pytest.mark.parametrize("ol", [boolean(2), mo(2), boolean(3)])
def test_sasaki_fixes_elements_below_target(ol):
    for a, b in itertools.product(range(len(ol)), repeat=2):
        if ol.base.leq[b, a]:
            assert ol.sasaki(a, b) == b


def test_sasaki_on_mo2_incompatible_atoms():
    ol = mo(2)
    a, b = ol.base.index("a"), ol.base.index("b")
    assert ol.sasaki(a, b) == a


@pytest.mark.parametrize("ol", [boolean(2), mo(2), boolean(3)])
def test_sasaki_of_complement_is_bottom(ol):
    for a in range(len(ol)):
        assert ol.sasaki(a, ol.ortho_of(a)) == ol.base.bottom


@pytest.mark.parametrize("ol", [boolean(2), mo(2), boolean(3)])
def test_sasaki_is_isotone_and_below_target(ol):
    base = ol.base
    for a in range(len(base)):
        for b, c in itertools.product(range(len(base)), repeat=2):
            assert base.leq[ol.sasaki(a, b), a]
            if base.leq[b, c]:
                assert base.leq[ol.sasaki(a, b), ol.sasaki(a, c)]


@pytest.mark.parametrize("ol", [boolean(2), mo(2), boolean(3)])
def test_compatible_pairs_reduce_sasaki_to_meet(ol):
    for a, b in itertools.product(range(len(ol)), repeat=2):
        if ol.compatible(a, b):
            assert ol.sasaki(a, b) == ol.base.meet2(a, b)


def test_compatibility_examples():
    b2 = boolean(2)
    for a, b in itertools.product(range(len(b2)), repeat=2):
        assert b2.compatible(a, b)  # distributive, so everything commutes
    lantern = mo(2)
    a, b = lantern.base.index("a"), lantern.base.index("b")
    assert not lantern.compatible(a, b)
    assert lantern.compatible(a, lantern.ortho_of(a))


@pytest.mark.parametrize("ol", [boolean(2), mo(2), boolean(3)])
def test_nested_sasaki_composition_law(ol):
    for a in range(len(ol)):
        for a_prime in range(len(ol)):
            if ol.base.leq[a_prime, a]:
                assert foulis_order_check(ol, a, a_prime)


def test_foulis_check_idempotence_and_identity_cases():
    ol = mo(2)
    top = ol.base.top
    for a in range(len(ol)):
        assert foulis_order_check(ol, a, a)  # each projection is idempotent
    assert foulis_order_check(ol, top, top)  # projection onto top is identity
    b2 = boolean(2)
    assert foulis_order_check(b2, b2.base.top, b2.base.top)


def test_foulis_check_requires_nested_arguments():
    ol = mo(2)
    a, b = ol.base.index("a"), ol.base.index("b")
    with pytest.raises(PreconditionViolated):
        foulis_order_check(ol, a, b)


# -- randomized construction property ----------------------------------------


@st.composite
def random_relations(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=10,
        )
    )
    return n, pairs


@given(random_relations())
@settings(max_examples=200, deadline=None)
def test_build_lattice_either_rejects_or_returns_true_bounds(case):
    n, pairs = case
    labels = [f"e{i}" for i in range(n)]
    try:
        lat = build_lattice(labels, pairs)
    except (NotAPoset, NotALattice):
        return
    for x, y in itertools.product(range(n), repeat=2):
        assert lat.meet2(x, y) == brute_glb(lat.leq, [x, y])
        assert lat.join2(x, y) == brute_lub(lat.leq, [x, y])
    assert all(lat.leq[lat.bottom, x] and lat.leq[x, lat.top] for x in range(n))
