"""Finite posets, complete lattices, and orthocomplemented variants.

Elements are identified by integer position; textual labels are carried
for display only. The order relation and the meet/join operations are
dense tables validated exhaustively at construction time, after which a
lattice is immutable and safe to share between threads. The meet and join
tables are built one row at a time over bit-mask down-sets, so building an
n-element lattice needs O(n^2) memory.
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
    ``meet_table``/``join_table`` give the greatest lower / least upper
    bound of every pair. Use :func:`build_lattice` or
    :func:`lattice_from_order` to construct validated instances.
    """

    elements: tuple[str, ...]
    leq: np.ndarray
    meet_table: np.ndarray
    join_table: np.ndarray
    bottom: int
    top: int

    def __post_init__(self) -> None:
        for table in (self.leq, self.meet_table, self.join_table):
            table.setflags(write=False)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"FiniteLattice({list(self.elements)!r})"

    @cached_property
    def dual(self) -> "FiniteLattice":
        """The order dual: the same elements under the reversed order, so
        meets and joins swap roles, and so do the bottom and the top."""
        return FiniteLattice(
            elements=self.elements,
            leq=self.leq.T,
            meet_table=self.join_table,
            join_table=self.meet_table,
            bottom=self.top,
            top=self.bottom,
        )

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
        if not isinstance(x, (int, np.integer)) or not 0 <= x < len(self.elements):
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
        """Elements covering the bottom."""
        out = []
        for x in range(len(self.elements)):
            if x == self.bottom:
                continue
            strictly_below = set(np.flatnonzero(self.leq[:, x])) - {x}
            if strictly_below == {self.bottom}:
                out.append(x)
        return tuple(out)

    def join_irreducibles(self) -> tuple[int, ...]:
        """Elements that are not the join of the elements strictly below."""
        out = []
        for x in range(len(self.elements)):
            if x == self.bottom:
                continue
            strictly_below = [z for z in np.flatnonzero(self.leq[:, x]) if z != x]
            if self.join(strictly_below) != x:
                out.append(x)
        return tuple(out)

    def same_structure(self, other: "FiniteLattice") -> bool:
        """Whether two lattices have identical order tables (labels ignored)."""
        return len(self) == len(other) and bool(np.array_equal(self.leq, other.leq))


def _bitsets(rows: np.ndarray) -> list[int]:
    """Each row as an int whose bit j is set iff the row holds at column j."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _glb_table(leq: np.ndarray, labels: Sequence[str], what: str) -> np.ndarray:
    """Greatest lower bounds of all pairs of a validated order, row by row.

    Sorting by down-set size gives a linear extension, in which the greatest
    lower bound of x and y, if any, is their last common lower bound. On the
    transposed order the same function gives the least upper bounds.
    """
    n = leq.shape[0]
    ext = np.argsort(leq.sum(axis=0), kind="stable")
    # down[x] has bit r set iff the r-th element of the extension is <= x
    down = _bitsets(leq[ext].T)
    ext = ext.tolist()
    table = [[0] * n for _ in range(n)]
    for x, down_x in enumerate(down):
        row = table[x]
        for y in range(x, n):
            common = down_x & down[y]
            z = ext[common.bit_length() - 1]
            if not common or common & ~down[z]:
                raise NotALattice(
                    f"elements {labels[x]!r} and {labels[y]!r} have no {what}"
                )
            row[y] = table[y][x] = z
    return np.array(table, dtype=np.intp)


def lattice_from_order(elements: Sequence[str], leq: np.ndarray) -> FiniteLattice:
    """Validate an explicit order matrix and build the lattice over it.

    The matrix is checked for reflexivity, antisymmetry, and transitivity
    (NotAPoset on failure), then for existence of all binary meets and
    joins (NotALattice) and of the two bounds (NoBounds).
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
    # x reaches y in two steps iff y is above something above x
    up = _bitsets(rel)
    reach = [0] * n
    for x, z in np.argwhere(rel).tolist():
        reach[x] |= up[z]
    for x in range(n):
        gap = reach[x] & ~up[x]
        if gap:
            y = (gap & -gap).bit_length() - 1
            raise NotAPoset(
                f"not transitive: {labels[x]!r} reaches {labels[y]!r} in two steps "
                "but the pair is not related"
            )

    meet_table = _glb_table(rel, labels, "meet")
    join_table = _glb_table(rel.T, labels, "join")
    bottoms = np.flatnonzero(rel.all(axis=1))
    tops = np.flatnonzero(rel.all(axis=0))
    if bottoms.size == 0 or tops.size == 0:
        raise NoBounds("order has no bottom or top element")
    return FiniteLattice(
        elements=labels,
        leq=rel,
        meet_table=meet_table,
        join_table=join_table,
        bottom=int(bottoms[0]),
        top=int(tops[0]),
    )


def build_lattice(elements: Sequence[str], leq_pairs: Iterable[tuple]) -> FiniteLattice:
    """Build a lattice from labels and generating order pairs.

    ``leq_pairs`` may mention labels or integer indices; the pairs generate
    the order, i.e. the reflexive-transitive closure is taken before
    validation. Cycles therefore surface as antisymmetry failures.
    """
    labels = tuple(str(e) for e in elements)
    if len(set(labels)) != len(labels):
        raise ValueError("element labels must be distinct")
    n = len(labels)
    if n == 0:
        raise NoBounds("an empty element list has no bottom or top")

    def resolve(entry) -> int:
        if isinstance(entry, (int, np.integer)):
            if not 0 <= entry < n:
                raise UnknownElement(f"index {entry} out of range")
            return int(entry)
        if entry in labels:
            return labels.index(entry)
        raise UnknownElement(f"no element labelled {entry!r}")

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
    a /\\ a' = 0, a \\/ a' = 1, and the orthomodular law
    a <= b  =>  b = a \\/ (b /\\ a').
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
    n = len(base)
    table = tuple(int(v) for v in ortho)
    if len(table) != n:
        raise ValueError(f"ortho table must list all {n} elements")
    for a in table:
        base.check_element(a)

    for a in range(n):
        if table[table[a]] != a:
            raise NotInvolutive(
                f"ortho(ortho({base.elements[a]!r})) != {base.elements[a]!r}"
            )
    for a in range(n):
        for b in range(n):
            if base.leq[a, b] and not base.leq[table[b], table[a]]:
                raise NotOrderReversing(
                    f"{base.elements[a]!r} <= {base.elements[b]!r} but complements "
                    "are not reversed"
                )
    for a in range(n):
        if base.meet2(a, table[a]) != base.bottom:
            raise NotComplement(
                f"{base.elements[a]!r} /\\ its complement is not the bottom"
            )
        if base.join2(a, table[a]) != base.top:
            raise NotComplement(
                f"{base.elements[a]!r} \\/ its complement is not the top"
            )
    for a in range(n):
        for b in range(n):
            if base.leq[a, b] and base.join2(a, base.meet2(b, table[a])) != b:
                raise NotOrthomodular(
                    f"orthomodular law fails for {base.elements[a]!r} <= "
                    f"{base.elements[b]!r}"
                )
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
