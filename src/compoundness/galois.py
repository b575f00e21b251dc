"""Join-preserving maps between finite lattices and their Galois duals.

A join-preserving map from a property lattice L1 to a property lattice L2
models how actuality of a property of one part of a two-part system forces
actuality of a property of the other. Its Galois dual runs the other way
and assigns to each property its weakest cause. The collection of all such
maps is itself a complete lattice under the pointwise order, with the
separation map on top and the constant-bottom (absurd) map at the bottom.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    MixedSignatures,
    NotJoinPreserving,
    NotMeetPreserving,
    TooLarge,
)
from .lattice import FiniteLattice, _indices_ok, _lattice, _row_blocks, _table_by_key

ENUMERATION_GUARD = 8
# with Q's tables, chain(8) to chain(8) (3,432 maps) peaks at about 140 MB RSS
Q_GUARD = 4096


def is_join_preserving(table: Sequence[int], source: FiniteLattice,
                       target: FiniteLattice) -> bool:
    """Whether ``table`` keeps the bottom and the join of every two distinct
    elements other than it, which between finite lattices keeps all joins."""
    if len(table) != len(source) or not _indices_ok(table, len(target)):
        return False
    if table[source.bottom] != target.bottom:
        return False
    join = target._join_rows
    for x, y, xy in source._join_pairs:
        if table[xy] != join[table[x]][table[y]]:
            return False
    return True


def is_meet_preserving(table: Sequence[int], source: FiniteLattice,
                       target: FiniteLattice) -> bool:
    """Dual of :func:`is_join_preserving`: top to top, binary meets kept."""
    return is_join_preserving(table, source.dual, target.dual)


@dataclass(frozen=True, eq=False, repr=False)
class _LatticeMap:
    """A map between two finite lattices, given by its table of images."""

    source: FiniteLattice
    target: FiniteLattice
    table: tuple[int, ...]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.table})"

    def __call__(self, x: int) -> int:
        self.source.check_element(x)
        return self.table[x]

    def _keep_table(self) -> None:
        if type(self.table) is not tuple:  # a validated list or array, as Python ints
            object.__setattr__(self, "table", tuple(map(int, self.table)))

    def same_signature(self, other: "_LatticeMap") -> bool:
        """Whether ``other`` is a map of the same kind between the same lattices."""
        return (type(self) is type(other) and self.source.same_structure(other.source)
                and self.target.same_structure(other.target))


@dataclass(frozen=True, eq=False, repr=False)
class JoinMap(_LatticeMap):
    """A validated join-preserving map between two finite lattices."""

    def __post_init__(self) -> None:
        if not is_join_preserving(self.table, self.source, self.target):
            raise NotJoinPreserving(f"table {self.table} does not preserve joins")
        self._keep_table()


@dataclass(frozen=True, eq=False, repr=False)
class MeetMap(_LatticeMap):
    """A validated meet-preserving map; source and target play reversed
    roles relative to the join map it is dual to."""

    def __post_init__(self) -> None:
        if not is_meet_preserving(self.table, self.source, self.target):
            raise NotMeetPreserving(f"table {self.table} does not preserve meets")
        self._keep_table()


def map_leq(f: JoinMap | MeetMap, g: JoinMap | MeetMap) -> bool:
    """Pointwise order on maps of one kind: f <= g iff f(x) <= g(x) everywhere."""
    if not f.same_signature(g):
        raise MixedSignatures("maps differ in kind or in source or target lattices")
    return all(f.target.leq[f.table[x], g.table[x]] for x in range(len(f.source)))


def _upper_adjoint(table: Sequence[int], source: FiniteLattice,
                   target: FiniteLattice) -> tuple[int, ...]:
    """For each b of ``target``, the join in ``source`` of every a whose
    image under the join-preserving ``table`` lies below b: each a is joined
    into the entries of the up-set of its image, in increasing a."""
    up, join = target._up_rows, source._join_rows
    out = [source.bottom] * len(target)
    for a, fa in enumerate(table):
        for b in up[fa]:
            out[b] = join[out[b]][a]
    return tuple(out)


def galois_dual(f: JoinMap) -> MeetMap:
    """The unique meet-preserving adjoint of ``f``.

    f*(b) is the join of every a with f(a) <= b, i.e. the weakest cause of
    b; the pair satisfies a <= f*(b) iff f(a) <= b.
    """
    if not isinstance(f, JoinMap):
        raise MixedSignatures("galois_dual takes a join-preserving map")
    table = _upper_adjoint(f.table, f.source, f.target)
    return MeetMap(source=f.target, target=f.source, table=table)


def adjoint_of_meetmap(g: MeetMap) -> JoinMap:
    """Recover the join-preserving adjoint of a meet-preserving map.

    f(a) is the minimum of every b with a <= g(b); that minimum exists
    because g preserves meets. This is :func:`galois_dual` between the
    order duals, and round-trips with it.
    """
    if not isinstance(g, MeetMap):
        raise MixedSignatures("adjoint_of_meetmap takes a meet-preserving map")
    table = _upper_adjoint(g.table, g.source.dual, g.target.dual)
    return JoinMap(source=g.target, target=g.source, table=table)


def separation_state(source: FiniteLattice, target: FiniteLattice) -> JoinMap:
    """The top of the map lattice: every nonzero property maps to the top,
    so neither side induces anything nontrivial on the other."""
    table = tuple(
        target.bottom if x == source.bottom else target.top
        for x in range(len(source))
    )
    return JoinMap(source=source, target=target, table=table)


def absurd_state(source: FiniteLattice, target: FiniteLattice) -> JoinMap:
    """The bottom of the map lattice: the constant-bottom map, whose dual
    makes every property a consequence of mere existence."""
    return JoinMap(
        source=source, target=target, table=(target.bottom,) * len(source)
    )


def pointwise_join(maps: Sequence[JoinMap], source: FiniteLattice | None = None,
                   target: FiniteLattice | None = None) -> JoinMap:
    """Least upper bound of ``maps`` in the pointwise order.

    The empty join is the absurd (constant-bottom) map; in that case the
    source and target lattices must be passed explicitly.
    """
    maps = list(maps)
    if not maps:
        if source is None or target is None:
            raise MixedSignatures(
                "the empty pointwise join needs explicit source and target"
            )
        return absurd_state(source, target)
    head = maps[0]
    if not isinstance(head, JoinMap):
        raise MixedSignatures("pointwise_join takes join-preserving maps")
    for f in maps[1:]:
        if not head.same_signature(f):
            raise MixedSignatures("maps differ in kind or in source or target lattices")
    if source is not None and not head.source.same_structure(source):
        raise MixedSignatures("explicit source disagrees with the maps")
    if target is not None and not head.target.same_structure(target):
        raise MixedSignatures("explicit target disagrees with the maps")
    table = tuple(
        head.target.join([f.table[x] for f in maps])
        for x in range(len(head.source))
    )
    return JoinMap(source=head.source, target=head.target, table=table)


def compose_join_maps(outer: JoinMap, inner: JoinMap) -> JoinMap:
    """(outer o inner)(x) = outer(inner(x))."""
    if not (isinstance(outer, JoinMap) and isinstance(inner, JoinMap)):
        raise MixedSignatures("compose_join_maps takes join-preserving maps")
    if not inner.target.same_structure(outer.source):
        raise MixedSignatures("inner target does not match outer source")
    table = tuple(outer.table[inner.table[x]] for x in range(len(inner.source)))
    return JoinMap(source=inner.source, target=outer.target, table=table)


@dataclass(frozen=True, eq=False)
class QLattice:
    """All join-preserving maps between two lattices, sorted by table.

    ``lattice`` is the (validated) finite lattice whose element i stands
    for ``maps[i]``, ordered pointwise; its top is the separation map and
    its bottom the absurd map. Its O(|Q|^2) tables are built on first read.
    """

    maps: tuple[JoinMap, ...]
    # the maps' tables as rows, in a dtype that holds every x * |L2| + y
    _tables: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.maps)

    def index_of(self, f: JoinMap | tuple[int, ...]) -> int:
        head = self.maps[0]
        if isinstance(f, _LatticeMap) and not head.same_signature(f):
            raise MixedSignatures("the map differs in kind or in source or target lattices")
        table = f.table if isinstance(f, JoinMap) else tuple(f)
        # a bool or an integral float compares as an int, so check before the search
        ok = _indices_ok(table, len(head.target))
        i = bisect_left(self.maps, table, key=lambda g: g.table) if ok else len(self)
        if i == len(self) or self.maps[i].table != table:
            raise NotJoinPreserving(f"table {table} is not one of the enumerated maps")
        return i

    @property
    def top_map(self) -> JoinMap:
        head = self.maps[0]
        return self.maps[self.index_of(separation_state(head.source, head.target))]

    @property
    def bottom_map(self) -> JoinMap:
        head = self.maps[0]
        return self.maps[self.index_of(absurd_state(head.source, head.target))]

    @cached_property
    def lattice(self) -> FiniteLattice:
        """Q's join is pointwise and must give one of the maps, which with the
        absurd map as bottom makes Q a lattice; f <= g iff f v g = g."""
        if len(self) > Q_GUARD:
            raise TooLarge(f"Q has {len(self)} maps; at about 9 bytes a pair its tables would "
                           f"take {9 * len(self) ** 2 / 1e9:.1f} GB (guard: {Q_GUARD} maps)")
        arr, head = self._tables, self.maps[0]
        n, m = len(head.source), len(head.target)
        join = head.target.join_table.astype(np.int64)
        # a map's key is its table read as a base-|L2| number
        radix = m ** np.arange(n - 1, -1, -1)

        def pair_keys(r: slice, c: slice) -> np.ndarray:  # digit by digit, by Horner's rule
            key = join[arr[r, 0]][:, arr[c, 0]]
            for x in range(1, n):
                key *= m
                key += join[arr[r, x]][:, arr[c, x]]
            return key
        labels = tuple(",".join(str(v) for v in f.table) for f in self.maps)
        join_table = _table_by_key(arr @ radix, pair_keys, labels, "join")
        # distinct maps under a pointwise order form a poset
        return _lattice(labels, join_table == np.arange(len(arr)), join_table)


def enumerate_Q(source: FiniteLattice, target: FiniteLattice) -> QLattice:
    """Enumerate every join-preserving map from ``source`` to ``target``.

    Such a map is fixed by its images of the join-irreducibles (JIs), and
    is monotone; so the candidates' tables are built in one pass over the
    JIs, fewest elements below first. Each step branches every candidate
    on the image v of JI j, keeps it if v lies above its column j (the join
    of the images already placed below j), and joins v into every column
    x >= j. Each map arises once, and sends the bottom to the bottom, as no
    JI lies below it. A monotone table keeps the join of comparable
    elements, so only incomparable pairs are checked, in row blocks; table
    lookups are 1-D takes at x * |L2| + y. Q's tables wait for the first
    read of ``QLattice.lattice``. Guarded to ``ENUMERATION_GUARD`` elements
    per lattice.
    """
    if len(source) > ENUMERATION_GUARD or len(target) > ENUMERATION_GUARD:
        raise TooLarge(
            f"enumeration guard is {ENUMERATION_GUARD} elements per side, got "
            f"{len(source)} and {len(target)}"
        )
    n, m = len(source), len(target)
    # a linear extension of the JIs, which element indices need not be
    jis = sorted(source.join_irreducibles(), key=lambda j: source.leq[:, j].sum())
    # elements and flat indices x * m + y alike fit in dtype
    dtype = np.min_scalar_type(m * m - 1)
    join, leq = target.join_table.astype(dtype).ravel(), target.leq.ravel()
    candidates = np.full((1, n), target.bottom, dtype=dtype)
    for j in jis:
        v = np.tile(np.arange(m, dtype=dtype), len(candidates))
        candidates = np.repeat(candidates, m, axis=0)
        keep = leq.take(candidates[:, j] * m + v)
        candidates, v = candidates[keep], v[keep, None]
        up = source.leq[j]
        candidates[:, up] = join.take(candidates[:, up] * m + v)
    xs, ys = np.nonzero(np.triu(~(source.leq | source.leq.T)))
    xy = source.join_table[xs, ys]
    preserved = np.empty(len(candidates), dtype=bool)
    for rows in _row_blocks(len(candidates), len(xs)):
        c = candidates[rows]
        preserved[rows] = (c[:, xy] == join.take(c[:, xs] * m + c[:, ys])).all(axis=1)
    arr = candidates[preserved]
    # rows in lexicographic order: the last key passed to lexsort is the primary one
    arr = arr[np.lexsort(arr.T[::-1])]
    maps = tuple(JoinMap(source=source, target=target, table=tuple(t)) for t in arr.tolist())
    return QLattice(maps=maps, _tables=arr)


def order_antitone_check(f: JoinMap, g: JoinMap) -> bool:
    """Law check: (f <= g pointwise) iff (g* <= f* pointwise).

    Always true for valid join maps; exposed so suites can assert it.
    """
    return map_leq(f, g) == map_leq(galois_dual(g), galois_dual(f))


ATOMISTIC = "atomistic"
SEPARATION_LIKE = "separation-like"
OTHER = "other"


def classify_map(f: JoinMap) -> tuple[str, ...]:
    """Classify a join map by how it treats atoms.

    ``atomistic`` maps send every atom to an atom or the bottom (the
    maximal-determinism pattern); ``separation-like`` means the map is
    exactly the separation state. Both flags can hold at once; a map with
    neither is labelled ``other``.
    """
    target_atoms = set(f.target.atoms())
    atomistic = all(
        f.table[a] in target_atoms or f.table[a] == f.target.bottom
        for a in f.source.atoms()
    )
    separation_like = f.table == separation_state(f.source, f.target).table
    flags = []
    if atomistic:
        flags.append(ATOMISTIC)
    if separation_like:
        flags.append(SEPARATION_LIKE)
    return tuple(flags) if flags else (OTHER,)
