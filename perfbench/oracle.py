"""Independent brute-force answers for the benchmark's exact workloads.

Nothing here imports ``compoundness``. The lattice orders are written out
from their definitions, joins come from scanning the order for least upper
bounds, join-preserving maps are found by filtering every table that sends
bottom to bottom (the method of ``tests/oracles.brute_join_maps``,
vectorized), and quantale members by testing every union-preserving subset
map against the closure condition, with the states sorted by property.

Run ``python3 perfbench/oracle.py`` to rewrite ``perfbench/expected.json``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib

import numpy as np

EXPECTED_PATH = pathlib.Path(__file__).with_name("expected.json")


def chain_order(n: int) -> np.ndarray:
    idx = np.arange(n)
    return idx[:, None] <= idx[None, :]


def boolean_order(atoms: int) -> np.ndarray:
    masks = np.arange(1 << atoms)
    return (masks[:, None] & masks[None, :]) == masks[:, None]


def mo_order(n: int) -> np.ndarray:
    """Labels 0, a, a', b, b', ..., 1 in that order."""
    size = 2 * n + 2
    leq = np.eye(size, dtype=bool)
    leq[0, :] = True
    leq[:, -1] = True
    return leq


LATTICE_ORDERS = {
    **{f"chain({n})": (lambda n=n: chain_order(n)) for n in range(2, 8)},
    "boolean(2)": lambda: boolean_order(2),
    "boolean(3)": lambda: boolean_order(3),
    "mo(2)": lambda: mo_order(2),
    "mo(3)": lambda: mo_order(3),
}


def lub_table(leq: np.ndarray) -> np.ndarray:
    """Least upper bound of every pair, by scanning the order."""
    n = leq.shape[0]
    out = np.empty((n, n), dtype=np.intp)
    for x, y in itertools.product(range(n), repeat=2):
        upper = [z for z in range(n) if leq[x, z] and leq[y, z]]
        least = [z for z in upper if all(leq[z, w] for w in upper)]
        if len(least) != 1:
            raise ValueError(f"pair ({x}, {y}) has no least upper bound")
        out[x, y] = least[0]
    return out


def bottom_of(leq: np.ndarray) -> int:
    return int(np.flatnonzero(leq.all(axis=1))[0])


def join_map_tables(leq1: np.ndarray, leq2: np.ndarray) -> np.ndarray:
    """Every join-preserving table L1 -> L2, one per row, in sorted order."""
    n1, n2 = leq1.shape[0], leq2.shape[0]
    j1, j2 = lub_table(leq1), lub_table(leq2)
    b1, b2 = bottom_of(leq1), bottom_of(leq2)
    free = [x for x in range(n1) if x != b1]
    grid = np.indices((n2,) * len(free), dtype=np.int8).reshape(len(free), -1).T
    tables = np.full((grid.shape[0], n1), b2, dtype=np.int8)
    tables[:, free] = grid
    keep = np.ones(len(tables), dtype=bool)
    for x in range(n1):
        for y in range(x + 1, n1):
            keep &= tables[:, j1[x, y]] == j2[tables[:, x], tables[:, y]]
    found = tables[keep]
    return found[np.lexsort(found.T[::-1])]


def tables_digest(rows) -> str:
    """Order-independent digest of a set of map tables."""
    text = ";".join(",".join(str(int(v)) for v in row) for row in sorted(map(tuple, rows)))
    return hashlib.sha256(text.encode()).hexdigest()


def member_images(leq: np.ndarray, c_map: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Closure-compatible union-preserving maps on a proper-state space,
    each as its tuple of singleton image bitmasks."""
    join = lub_table(leq)
    n = len(c_map)
    bottom = bottom_of(leq)
    strongest = []
    for mask in range(1 << n):
        acc = bottom
        for i in range(n):
            if mask >> i & 1:
                acc = int(join[acc, c_map[i]])
        strongest.append(acc)
    closure = [
        sum(1 << i for i in range(n) if leq[c_map[i], strongest[mask]])
        for mask in range(1 << n)
    ]

    def act(images, mask):
        out = 0
        for i in range(n):
            if mask >> i & 1:
                out |= images[i]
        return out

    return [
        images for images in itertools.product(range(1 << n), repeat=n)
        if all(not act(images, closure[m]) & ~closure[act(images, m)] for m in range(1 << n))
    ]


def compute_expected(q_pairs, quantale_classes) -> dict:
    q = {}
    for a, b in q_pairs:
        rows = join_map_tables(LATTICE_ORDERS[a](), LATTICE_ORDERS[b]())
        q[f"{a}->{b}"] = {"maps": int(len(rows)), "sha256": tables_digest(rows)}
    members = {}
    for name, c_map in quantale_classes:
        c_map = tuple(sorted(c_map))
        images = member_images(LATTICE_ORDERS[name](), c_map)
        members[f"{name}:{','.join(map(str, c_map))}"] = {
            "members": len(images), "sha256": tables_digest(images)}
    return {"q_lattice": q, "quantale": members}


def main() -> None:
    from workloads import Q_POOL, Q_PROBE, QUANTALE_CLASSES

    expected = compute_expected(list(Q_POOL) + list(Q_PROBE), QUANTALE_CLASSES)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}")


if __name__ == "__main__":
    main()
