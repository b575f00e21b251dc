"""Finite posets, complete lattices, and orthocomplemented variants.

Elements are identified by integer position; textual labels are carried
for display only. Construction checks what defines a lattice: a partial
order with every binary join, and a bottom. The meet table and the other
derived tables are built on first read; a lattice is immutable and safe
to share between threads. Joins and meets are looked up by packed bit-mask
keys (up-sets, and the join-irreducibles below) in blocks of rows, so
building an n-element lattice needs O(n^2) memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
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


@dataclass(frozen=True, eq=False)
class FiniteLattice:
    """A finite complete lattice with dense order and operation tables.

    ``leq[i, j]`` holds iff element ``i`` is below element ``j``.
    ``join_table``/``meet_table`` give the least upper / greatest lower
    bound of every pair; the meet table is built on first read. Use
    :func:`build_lattice` or :func:`lattice_from_order` to construct
    validated instances.
    """

    elements: tuple[str, ...]
    leq: np.ndarray
    join_table: np.ndarray
    bottom: int
    top: int

    def __post_init__(self) -> None:
        for table in (self.leq, self.join_table):
            table.setflags(write=False)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"FiniteLattice({list(self.elements)!r})"

    @cached_property
    def meet_table(self) -> np.ndarray:
        """x /\\ y is the element whose join-irreducibles below (a bottom
        counts as one) are those below both."""
        table = _intersection_table(self.leq[_join_irreducible(self.join_table)].T,
                                    self.elements, "meet")
        table.setflags(write=False)
        return table

    @cached_property
    def dual(self) -> "FiniteLattice":
        """The order dual: the same elements under the reversed order, so
        meets and joins swap roles, and so do the bottom and the top."""
        return FiniteLattice(elements=self.elements, leq=self.leq.T, join_table=self.meet_table,
                             bottom=self.top, top=self.bottom)

    @cached_property
    def _up_rows(self) -> list[list[int]]:
        return [np.flatnonzero(row).tolist() for row in self.leq]  # lists index faster

    @cached_property
    def _join_rows(self) -> list[list[int]]:
        return self.join_table.tolist()

    @cached_property
    def _join_pairs(self) -> list[tuple[int, int, int]]:
        """(x, y, x v y) for each x < y with neither one the bottom."""
        rest = [v for v in range(len(self)) if v != self.bottom]
        return [(x, y, self._join_rows[x][y]) for i, x in enumerate(rest) for y in rest[i + 1:]]

    def label(self, x: int) -> str:
        self.check_element(x)
        return self.elements[x]

    def index(self, label: str) -> int:
        """Return the index of ``label``, raising UnknownElement if absent."""
        try:
            return self.elements.index(label)
        except ValueError:
            raise UnknownElement(f"no element labelled {label!r}") from None

    def check_element(self, x: int) -> None:
        if not _indices_ok((x,), len(self.elements)):
            raise UnknownElement(
                f"index {x!r} out of range for {len(self.elements)} elements"
            )

    def le(self, x: int, y: int) -> bool:
        self.check_element(x)
        self.check_element(y)
        return bool(self.leq[x, y])

    def meet2(self, x: int, y: int) -> int:
        return self.dual.join2(x, y)

    def join2(self, x: int, y: int) -> int:
        self.check_element(x)
        self.check_element(y)
        return int(self.join_table[x, y])

    def meet(self, xs: Iterable[int]) -> int:
        """Greatest lower bound of ``xs``; the empty meet is the top."""
        return self.dual.join(xs)

    def join(self, xs: Iterable[int]) -> int:
        """Least upper bound of ``xs``; the empty join is the bottom."""
        acc = self.bottom
        for x in xs:
            self.check_element(x)
            acc = int(self.join_table[acc, x])
        return acc

    def atoms(self) -> tuple[int, ...]:
        """Elements covering the bottom: only the bottom and x lie below x."""
        return tuple(np.flatnonzero(self.leq.sum(axis=0) == 2).tolist())

    def join_irreducibles(self) -> tuple[int, ...]:
        """Elements other than the bottom that are not the join of the
        elements strictly below."""
        irreducible = _join_irreducible(self.join_table)
        irreducible[self.bottom] = False
        return tuple(np.flatnonzero(irreducible).tolist())

    def same_structure(self, other: "FiniteLattice") -> bool:
        """Whether two lattices have identical order tables (labels ignored)."""
        return len(self) == len(other) and bool(np.array_equal(self.leq, other.leq))


def _indices_ok(values: Iterable, n: int) -> bool:
    """Whether every value is an element index below ``n``: an int or a
    numpy integer, in 0..n-1. A bool is no index (numpy reads it as a mask),
    although Python's bool is an int subclass; nor is a float."""
    for v in values:
        if not (type(v) is int or isinstance(v, np.integer)) or not 0 <= v < n:
            return False
    return True


_BLOCK_ENTRIES = 1 << 16  # entries in the largest temporary of a row-blocked loop


def _row_blocks(rows: int, per_row: int) -> list[slice]:
    """Slices covering range(rows), each as many rows of ``per_row`` entries
    as fit in ``_BLOCK_ENTRIES``, and at least one."""
    step = max(1, _BLOCK_ENTRIES // max(1, per_row))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _table_by_key(keys: np.ndarray, pair_keys, labels: Sequence[str], what: str) -> np.ndarray:
    """The table of a commutative operation on elements with distinct keys.

    ``pair_keys(rows, cols)`` gives the keys of the results on a block of
    rows, from the block's first column on; a key counts as one entry per
    8 bytes. Each result is looked up among the sorted keys and must match
    exactly, else NotALattice.
    """
    n = len(keys)
    order = np.argsort(keys)
    ranked = keys[order]
    table = np.empty((n, n), dtype=np.intp)
    for rows in _row_blocks(n, n * keys.itemsize // 8):
        lo = rows.start
        want = pair_keys(rows, slice(lo, None))
        hit = order[np.minimum(np.searchsorted(ranked, want), n - 1)]
        miss = keys[hit] != want
        if miss.any():
            x, y = np.argwhere(miss)[0] + lo
            raise NotALattice(f"elements {labels[x]!r} and {labels[y]!r} have no {what}")
        table[rows, lo:] = hit
        table[lo:, rows] = hit.T
    return table


def _intersection_table(bits: np.ndarray, labels: Sequence[str], what: str) -> np.ndarray:
    """For all x and y, the element z with bits[z] = bits[x] & bits[y].

    Each row of bits is packed into 64-bit words, which compare as one
    opaque byte string.
    """
    padded = np.zeros((len(bits), -(-bits.shape[1] // 64) * 64), dtype=bool)
    padded[:, :bits.shape[1]] = bits
    words = np.packbits(padded, axis=1).view(np.uint64)
    key = f"V{words.shape[1] * 8}"
    return _table_by_key(words.view(key)[:, 0],
                         lambda r, c: (words[r, None] & words[c]).view(key)[..., 0], labels, what)


def _join_irreducible(join_table: np.ndarray) -> np.ndarray:
    """Mask of the elements z that are not x v y with x != z != y.

    In a finite lattice these are the join-irreducibles and the bottom:
    z is the join of the elements strictly below it iff two of its lower
    covers join to it.
    """
    idx = np.arange(len(join_table))
    irreducible = np.ones(len(join_table), dtype=bool)
    irreducible[join_table[(join_table != idx[:, None]) & (join_table != idx)]] = False
    return irreducible


def _lattice(labels: tuple[str, ...], rel: np.ndarray, join_table: np.ndarray) -> FiniteLattice:
    """The lattice on the partial order ``rel`` with the joins ``join_table``,
    if it has a bottom: two minimal elements have no meet (NotALattice)."""
    minimal = np.flatnonzero(rel.sum(axis=0) == 1)
    if len(minimal) > 1:
        x, y = minimal[:2]
        raise NotALattice(f"elements {labels[x]!r} and {labels[y]!r} have no meet")
    return FiniteLattice(elements=labels, leq=rel, join_table=join_table,
                         bottom=int(minimal[0]), top=int(rel.all(axis=0).argmax()))


def lattice_from_order(elements: Sequence[str], leq: np.ndarray) -> FiniteLattice:
    """Validate an explicit order matrix and build the lattice over it.

    The matrix is checked for reflexivity, antisymmetry, and transitivity
    (NotAPoset on failure), then for existence of all binary joins and of
    a bottom (NotALattice); the meets are built on first read.
    """
    labels = tuple(str(e) for e in elements)
    if not labels:
        raise NoBounds("an empty element list has no bottom or top")
    if len(set(labels)) != len(labels):
        raise ValueError("element labels must be distinct")
    rel = np.array(leq, dtype=bool)
    n = len(labels)
    if rel.shape != (n, n):
        raise ValueError(f"order matrix must be {n}x{n}, got {rel.shape}")

    diag = np.diagonal(rel)
    if not diag.all():
        bad = int(np.flatnonzero(~diag)[0])
        raise NotAPoset(f"not reflexive: {labels[bad]!r} is not below itself")
    sym = rel & rel.T & ~np.eye(n, dtype=bool)
    if sym.any():
        x, y = map(int, np.argwhere(sym)[0])
        raise NotAPoset(f"not antisymmetric: {labels[x]!r} and {labels[y]!r} form a cycle")
    # x reaches y in two steps iff some z has x <= z <= y (exact float32 counts)
    steps = rel.astype(np.float32)
    gap = np.argwhere((steps @ steps > 0) & ~rel)
    if gap.size:
        x, y = gap[0]
        raise NotAPoset(
            f"not transitive: {labels[x]!r} reaches {labels[y]!r} in two steps "
            "but the pair is not related"
        )

    # x v y is the element whose up-set is the intersection of theirs
    return _lattice(labels, rel, _intersection_table(rel, labels, "join"))


def build_lattice(elements: Sequence[str], leq_pairs: Iterable[tuple]) -> FiniteLattice:
    """Build a lattice from labels and generating order pairs.

    ``leq_pairs`` may mention labels or integer indices; the pairs generate
    the order, i.e. the reflexive-transitive closure is taken before
    validation. Cycles therefore surface as antisymmetry failures.
    """
    labels = tuple(str(e) for e in elements)
    n = len(labels)

    def resolve(entry) -> int:
        if entry in labels:
            return labels.index(entry)
        if isinstance(entry, str):
            raise UnknownElement(f"no element labelled {entry!r}")
        if not _indices_ok((entry,), n):
            raise UnknownElement(f"index {entry} out of range")
        return int(entry)

    rel = np.eye(n, dtype=bool)
    for lo, hi in leq_pairs:
        rel[resolve(lo), resolve(hi)] = True
    for k in range(n):
        rel |= np.outer(rel[:, k], rel[k, :])
    return lattice_from_order(labels, rel)


@dataclass(frozen=True, eq=False)
class OrthoLattice:
    """A finite lattice with a validated orthocomplementation.

    The complement is an order-reversing involution satisfying
    a /\\ a' = 0, hence a \\/ a' = (a /\\ a')' = 1, and the orthomodular
    law a <= b  =>  b = a \\/ (b /\\ a').
    """

    base: FiniteLattice
    ortho: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.base)

    def ortho_of(self, a: int) -> int:
        self.base.check_element(a)
        return self.ortho[a]

    def sasaki(self, a: int, b: int) -> int:
        """Sasaki projection of b onto a: a /\\ (b \\/ a')."""
        return self.base.meet2(a, self.base.join2(b, self.ortho_of(a)))

    def compatible(self, a: int, b: int) -> bool:
        """Whether a = (a/\\b) \\/ (a/\\b') and the symmetric identity hold."""
        base = self.base
        lhs = base.join2(base.meet2(a, b), base.meet2(a, self.ortho_of(b)))
        rhs = base.join2(base.meet2(b, a), base.meet2(b, self.ortho_of(a)))
        return lhs == a and rhs == b


def attach_ortho(base: FiniteLattice, ortho: Sequence[int]) -> OrthoLattice:
    """Validate an orthocomplement table and attach it to ``base``."""
    n, values = len(base), tuple(ortho)
    if len(values) != n:
        raise ValueError(f"ortho table must list all {n} elements")
    if not _indices_ok(values, n):
        raise UnknownElement(f"ortho table {values} has an index out of range for {n} elements")
    table = tuple(int(v) for v in values)

    # each check names its first failure in row-major (a, b) order
    t, idx, labels = np.array(table), np.arange(n), base.elements
    bad = np.flatnonzero(t[t] != idx)
    if bad.size:
        a = labels[bad[0]]
        raise NotInvolutive(f"ortho(ortho({a!r})) != {a!r}")
    bad = np.argwhere(base.leq & ~base.leq[t[None, :], t[:, None]])
    if bad.size:
        a, b = (labels[i] for i in bad[0])
        raise NotOrderReversing(f"{a!r} <= {b!r} but complements are not reversed")
    # then a v a' = (a /\ a')' = 0' = 1: an order-reversing involution swaps v and /\
    bad = np.flatnonzero(base.meet_table[idx, t] != base.bottom)
    if bad.size:
        raise NotComplement(f"{labels[bad[0]]!r} /\\ its complement is not the bottom")
    law = base.join_table[idx[:, None], base.meet_table[idx, t[:, None]]]  # a v (b /\ a')
    bad = np.argwhere(base.leq & (law != idx))
    if bad.size:
        a, b = (labels[i] for i in bad[0])
        raise NotOrthomodular(f"orthomodular law fails for {a!r} <= {b!r}")
    return OrthoLattice(base=base, ortho=table)


def foulis_order_check(ol: OrthoLattice, a: int, a_prime: int) -> bool:
    """Exhaustively verify the composition law for nested Sasaki projections.

    For a' <= a the projection onto a' absorbs a preceding projection onto
    a: phi_a'(phi_a(b)) = phi_a'(b) for every b. Raises PreconditionViolated
    when a' is not below a.
    """
    ol.base.check_element(a)
    ol.base.check_element(a_prime)
    if not ol.base.leq[a_prime, a]:
        raise PreconditionViolated(
            f"{ol.base.elements[a_prime]!r} is not below {ol.base.elements[a]!r}"
        )
    return all(
        ol.sasaki(a_prime, ol.sasaki(a, b)) == ol.sasaki(a_prime, b)
        for b in range(len(ol))
    )
