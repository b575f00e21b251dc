"""Finite models of proper-state spaces and their transition quantale.

A proper-state space is a finite set of states with a map assigning each
state its strongest actual property in a finite lattice. The admissible
state transitions are the union-preserving subset maps compatible with the
induced closure; under union and composition they form a quantale, and
reading each transition at the property level yields a join-preserving
propagation of properties. That reading is a quantale morphism, which
:func:`epimorphism_check` verifies on explicit samples.

Subsets of the state space are represented as bitmasks throughout. The
bulk checks (membership, enumeration, the composition table, the morphism
check) index one array, the act table of k maps on n states: a
(k, 2**n) array whose row i is map i's image of every subset mask.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import IllDefined, NotMember, TooLarge, UnknownElement
from .galois import JoinMap
from .lattice import FiniteLattice, _indices_ok, _row_blocks

ENUMERATION_GUARD = 4


@dataclass(frozen=True, eq=False)
class ProperStateSpace:
    """States, a property lattice, and the strongest-property assignment."""

    states: tuple[str, ...]
    lattice: FiniteLattice
    c_map: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.states)) != len(self.states):
            raise ValueError("state labels must be distinct")
        if len(self.c_map) != len(self.states):
            raise ValueError("c_map must assign a property to every state")
        if not _indices_ok(self.c_map, len(self.lattice)):
            raise UnknownElement(f"c_map {self.c_map} has an index out of range "
                                 f"for {len(self.lattice)} elements")

    def __len__(self) -> int:
        return len(self.states)

    def mask(self, labels: Iterable[str]) -> int:
        """Bitmask of the subset named by ``labels``; UnknownElement names
        a label that is not a state."""
        out = 0
        for label in labels:
            try:
                out |= 1 << self.states.index(label)
            except ValueError:
                raise UnknownElement(f"no state labelled {label!r}") from None
        return out

    def subset_labels(self, mask: int) -> tuple[str, ...]:
        return tuple(s for i, s in enumerate(self.states) if mask >> i & 1)

    @cached_property
    def _strongest_by_mask(self) -> tuple[int, ...]:
        # a mask's property: its highest state's property joined with the rest's
        out = np.array([self.lattice.bottom])
        for value in self.c_map:
            out = np.concatenate([out, self.lattice.join_table[out, value]])
        return tuple(out.tolist())

    def _check_mask(self, mask: int) -> int:
        if not _indices_ok((mask,), 1 << len(self.states)):
            raise IndexError(f"mask {mask} out of range for {len(self.states)} states")
        return mask

    def strongest_property(self, mask: int) -> int:
        """C(T): the join of the states' properties; C of empty is bottom."""
        return self._strongest_by_mask[self._check_mask(mask)]

    @cached_property
    def _closure_by_property(self) -> tuple[int, ...]:
        below = self.lattice.leq[list(self.c_map)].T.astype(np.int64)
        return tuple((below @ (1 << np.arange(len(self.states)))).tolist())

    @cached_property
    def _closure_by_mask(self) -> np.ndarray:
        return np.array(self._closure_by_property)[list(self._strongest_by_mask)]

    def closure(self, mask: int) -> int:
        """The induced closure: every state whose property is below C(T)."""
        return self._closure_by_property[self.strongest_property(mask)]


@dataclass(frozen=True, eq=False)
class TransitionMap:
    """A union-preserving subset map, given by its images on singletons."""

    space: ProperStateSpace
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.images) != len(self.space):
            raise ValueError("need one image per state")
        if not _indices_ok(self.images, 1 << len(self.space)):
            raise ValueError(f"image masks {self.images} are out of range "
                             f"for {len(self.space)} states")

    @classmethod
    def from_images(cls, space: ProperStateSpace,
                    images: Sequence[Iterable[str]]) -> "TransitionMap":
        return cls(space, tuple(space.mask(img) for img in images))

    def act(self, mask: int) -> int:
        mask = self.space._check_mask(mask)
        return int(_act_table(_image_array([self], len(self.space)))[0, mask])

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{s}->{{{','.join(self.space.subset_labels(img))}}}"
            for s, img in zip(self.space.states, self.images)
        )
        return f"TransitionMap({parts})"


def identity_transition(space: ProperStateSpace) -> TransitionMap:
    return TransitionMap(space, tuple(1 << i for i in range(len(space))))


def empty_transition(space: ProperStateSpace) -> TransitionMap:
    return TransitionMap(space, (0,) * len(space))


def _image_array(maps: Sequence[TransitionMap], n: int) -> np.ndarray:
    """The (k, n) array of singleton images of k maps on n states."""
    return np.array([f.images for f in maps], dtype=np.int64).reshape(len(maps), n)


def _act_table(images: np.ndarray) -> np.ndarray:
    """Act table of maps with singleton images ``images`` (k, n); a mask's
    image is its highest state's image or'd with the image of the rest."""
    act = np.zeros((len(images), 1 << images.shape[1]), dtype=images.dtype)
    for s, column in enumerate(images.T):
        np.bitwise_or(act[:, :1 << s], column[:, None], out=act[:, 1 << s:2 << s])
    return act


def _compatible(space: ProperStateSpace, images: np.ndarray) -> np.ndarray:
    """Per row of ``images``: whether f(cl(T)) lies in cl(f(T)) for all T."""
    closure, act = space._closure_by_mask, _act_table(images)
    return ~(act[:, closure] & ~closure[act]).any(axis=1)


def is_member(f: TransitionMap) -> bool:
    """Closure compatibility: f(cl(T)) is contained in cl(f(T)) for all T."""
    return bool(_compatible(f.space, _image_array([f], len(f.space)))[0])


def _same_space(a: ProperStateSpace, b: ProperStateSpace) -> bool:
    """Whether two spaces have one closure: the same states, the same
    ``c_map`` and lattices of the same structure."""
    return a is b or (a.states == b.states and a.c_map == b.c_map
                      and a.lattice.same_structure(b.lattice))


def compose(outer: TransitionMap, inner: TransitionMap) -> TransitionMap:
    """(outer o inner)(T) = outer(inner(T)). Members compose to a member, as
    union-preserving maps are monotone: f(g(cl T)) <= f(cl gT) <= cl(fgT)."""
    if not _same_space(outer.space, inner.space):
        raise NotMember("transition maps act on different state spaces")
    if not (is_member(outer) and is_member(inner)):
        raise NotMember("can only compose closure-compatible transition maps")
    return TransitionMap(inner.space, tuple(outer.act(image) for image in inner.images))


def union_join(maps: Sequence[TransitionMap],
               space: ProperStateSpace | None = None) -> TransitionMap:
    """Pointwise union; the empty union is the constant-empty bottom map."""
    maps = list(maps)
    if not maps:
        if space is None:
            raise ValueError("the empty union needs an explicit state space")
        return empty_transition(space)
    if not all(_same_space(f.space, maps[0].space) for f in maps):
        raise NotMember("transition maps act on different state spaces")
    if not all(is_member(f) for f in maps):
        raise NotMember("can only join closure-compatible transition maps")
    images = np.bitwise_or.reduce(_image_array(maps, len(maps[0].space)))
    return TransitionMap(maps[0].space, tuple(images.tolist()))


def property_propagation(f: TransitionMap) -> JoinMap:
    """Read a transition at the property level: C(T) maps to C(f(T)).

    Well-definedness (equal strongest properties give equal images) is
    checked over all subsets; a violation raises IllDefined with a witness
    pair. The table extends to the whole lattice by sending x to
    C(f({states below x})), which is join-preserving whenever the state
    properties join-generate the lattice.
    """
    return _propagations(f.space, _act_table(_image_array([f], len(f.space))))[0]


def _propagations(space: ProperStateSpace, act: np.ndarray) -> list[JoinMap]:
    """:func:`property_propagation` of each row of the act table ``act``, in
    order: the first row that is ill defined or not join-preserving raises;
    the rows before the first ill-defined one are validated before it is."""
    strongest = np.array(space._strongest_by_mask)
    _, first, inverse = np.unique(strongest, return_index=True, return_inverse=True)
    first_mask, below = first[inverse], list(space._closure_by_property)
    props = strongest[act]
    ill = props != props[:, first_mask]
    good = int(np.append(ill.any(axis=1), True).argmax())  # the first ill-defined row, if any
    maps = [JoinMap(space.lattice, space.lattice, tuple(row))
            for row in props[:good, below].tolist()]
    if good < len(props):
        mask = int(ill[good].argmax())
        raise IllDefined(
            "propagation is not well defined on equal-property subsets",
            witness=(space.subset_labels(int(first_mask[mask])), space.subset_labels(mask)),
        )
    return maps


def enumerate_members(space: ProperStateSpace) -> tuple[TransitionMap, ...]:
    """All closure-compatible transition maps, in lexicographic order of images."""
    n = len(space)
    if n > ENUMERATION_GUARD:
        raise TooLarge(f"enumeration guard is {ENUMERATION_GUARD} states, got {n}")
    candidates = np.indices((1 << n,) * n).reshape(n, 1 << n * n).T
    kept = candidates[_compatible(space, candidates)]
    return tuple(TransitionMap(space, tuple(images)) for images in kept.tolist())


@dataclass(frozen=True)
class EpimorphismReport:
    """Outcome of checking that propagation is a quantale morphism.

    ``maps`` counts the sample maps validated. Every returned report is ok:
    the first ill-defined or non-join-preserving map raises instead.
    """

    maps: int

    @property
    def ok(self) -> bool:
        return True


def epimorphism_check(space: ProperStateSpace,
                      sample: Sequence[TransitionMap]) -> EpimorphismReport:
    """Verify that propagation respects composition and union on ``sample``.

    Sample maps are read in ``space`` as by :func:`property_propagation`, so
    the first ill-defined or non-join-preserving one raises. Nothing is left
    to compare on pairs: C(T) = C(T') gives C(fgT) = C(fgT'), so f o g
    propagates to the composite of the two propagations, and
    C(fT u gT) = C(fT) v C(gT), so f u g propagates to their pointwise join.
    """
    _propagations(space, _act_table(_image_array(sample, len(space))))
    return EpimorphismReport(maps=len(sample))


@dataclass(frozen=True)
class QuantaleLawReport:
    """Exhaustive law check over the full set of enumerated members."""

    members: int
    associative: bool
    left_distributive: bool
    right_distributive: bool
    union_closed: bool
    bottom_is_empty: bool
    epimorphism: EpimorphismReport

    @property
    def laws(self) -> dict[str, bool]:
        """Each boolean law field by name, in field order."""
        # postponed annotations make each field's type its source text
        return {f.name: getattr(self, f.name) for f in fields(self) if f.type == "bool"}

    @property
    def ok(self) -> bool:
        return all(self.laws.values()) and self.epimorphism.ok


def _triple_laws(comp: np.ndarray, union: np.ndarray,
                 codes: np.ndarray) -> tuple[bool, bool, bool]:
    """Associativity, left and right distributivity on every triple (i, j, k):
    (ij)k = i(jk), i(j u k) = ij u ik and (i u j)k = ik u jk, compared as
    (B, m, m) arrays for each block of B values of one index.

    Associativity, over the middle index j, gathers whole rows of ``comp``
    and of ``comp.T``. The distributive laws compare rows of C = codes[comp]
    picked by a row of ``union`` with the OR of two rows of C. As
    :func:`transition_tables` checks each ``union[a, b]`` against
    ``codes[a] | codes[b]`` and each entry is the one index its lookup picks
    for its code, two entries are equal exactly when their codes are.
    Both are symmetric in their union arguments j, k if ``union`` is, and then
    a block of j takes k from its first row on (k >= j); else every k.
    """
    m = len(comp)
    comp_t = np.ascontiguousarray(comp.T)
    coded = codes.take(comp)  # C above
    coded_t = np.ascontiguousarray(coded.T)
    symmetric = np.array_equal(union, union.T)
    associative = left = right = True
    for block in _row_blocks(m, m * m):
        associative = associative and bool((
            comp.take(comp_t[block], axis=0)
            == comp_t.take(comp[block], axis=0).transpose(0, 2, 1)).all())
        lo = block.start if symmetric else 0
        left = left and bool((coded_t.take(union[block, lo:], axis=0)
                              == (coded_t[block, None] | coded_t[lo:])).all())
        right = right and bool((coded.take(union[block, lo:], axis=0)
                                == (coded[block, None] | coded[lo:])).all())
    return associative, left, right


def _codes(images: np.ndarray) -> np.ndarray:
    """Image codes of maps with singleton images ``images`` (..., n), in the
    narrowest unsigned dtype that holds every code on n states. State s's
    image fills bits [n*s, n*s + n); the digits never overlap, so the OR of
    two maps' codes is the code of their pointwise union."""
    n = images.shape[-1]
    codes = images @ np.array([1 << n * s for s in range(n)], dtype=np.int64)
    return codes.astype(np.min_scalar_type((1 << n * n) - 1))


def _tables(members: Sequence[TransitionMap], n: int | None = None) -> tuple[np.ndarray, ...]:
    """:func:`transition_tables` and the image array, codes and act table it
    reads ``members`` into, on n states (by default the first member's)."""
    m = len(members)
    if m > 350:
        raise TooLarge(f"exhaustive triple checks are guarded to 350 members, got {m}")
    states = len(members[0].space) if members else 0
    if states > 7:
        raise TooLarge(f"image codes fit in 64 bits up to 7 states, got {states}")
    images = _image_array(members, states if n is None else n)
    codes, act = _codes(images), _act_table(images)
    order = np.argsort(codes, kind="stable")
    tables = []
    for law, wanted in (("composition", _codes(act[:, images])),
                        ("union", codes[:, None] | codes)):
        found = order[np.searchsorted(codes[order], wanted, side="right") - 1]
        if not np.array_equal(codes[found], wanted):
            raise NotMember(f"members are not closed under {law}")
        tables.append(found.astype(np.int16))
    return tables[0], tables[1], images, codes, act


def transition_tables(members: Sequence[TransitionMap]) -> tuple[np.ndarray, np.ndarray]:
    """Index tables for composition and union over ``members``.

    ``comp[i, j]`` is the index of members[i] o members[j] and
    ``union[i, j]`` of their pointwise union, found by image code
    (:func:`_codes`; a union's is the OR of the two members' codes); of
    equal members the last counts. A product outside ``members`` raises
    NotMember.
    """
    return _tables(members)[:2]


def check_quantale_laws(space: ProperStateSpace,
                        members: Sequence[TransitionMap] | None = None) -> QuantaleLawReport:
    """Exhaustively verify the quantale laws on a small state space.

    Associativity and both distributivity sides are checked over every
    triple of members in row blocks of O(m**2) memory; closure under arbitrary
    unions is checked on the full member set; every member's propagation is
    validated, which makes propagation a morphism (:func:`epimorphism_check`).
    """
    if members is None:
        members = enumerate_members(space)
    comp, union, images, codes, act = _tables(members, len(space))
    associative, left, right = _triple_laws(comp, union, codes)

    total = np.bitwise_or.reduce(images, axis=0)
    union_closed = bool(_compatible(space, total[None])[0]
                        and (codes == np.bitwise_or.reduce(codes)).any())
    bottom_ok = bool((codes == 0).any())
    return QuantaleLawReport(
        members=len(members),
        associative=associative,
        left_distributive=left,
        right_distributive=right,
        union_closed=union_closed,
        bottom_is_empty=bottom_ok,
        epimorphism=EpimorphismReport(maps=len(_propagations(space, act))),
    )
