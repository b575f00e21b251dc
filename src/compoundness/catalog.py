"""Small stock lattices used throughout the tests and verification suites."""

from __future__ import annotations

import numpy as np

from .lattice import FiniteLattice, OrthoLattice, _indices_ok, attach_ortho, lattice_from_order


def _check_size(n, most: float) -> None:
    if not _indices_ok((n,), most + 1):
        raise ValueError(f"size must be an integer in 0..{most}, got {n!r}")


def chain(n: int) -> FiniteLattice:
    """The n-element chain 0 < 1 < ... < n-1; chain(0) has no bounds."""
    _check_size(n, float("inf"))
    return lattice_from_order([str(i) for i in range(n)], np.triu(np.ones((n, n), dtype=bool)))


def boolean(num_atoms: int) -> OrthoLattice:
    """The powerset of ``num_atoms`` generators with set complement.

    boolean(2) is the four-element lattice {0, a, b, 1}.
    """
    _check_size(num_atoms, 8)
    names = "abcdefgh"[:num_atoms]
    full = (1 << num_atoms) - 1
    masks = np.arange(full + 1)
    labels = ["".join(c for i, c in enumerate(names) if m >> i & 1) for m in range(full + 1)]
    labels[full] = "1"
    labels[0] = "0"  # boolean(0) is the one-point lattice 0
    base = lattice_from_order(labels, (masks[:, None] & masks) == masks[:, None])
    return attach_ortho(base, (masks ^ full).tolist())


def mo(n: int) -> OrthoLattice:
    """The horizontal sum MO_n: 2n pairwise incomparable atoms x, x'.

    mo(2) is the six-element lattice {0, a, a', b, b', 1}; every atom's
    complement is its primed partner. Orthomodular but not distributive.
    """
    _check_size(n, 8)
    labels = ["0", *(x for c in "abcdefgh"[:n] for x in (c, c + "'")), "1"]
    top = 2 * n + 1
    leq = np.eye(top + 1, dtype=bool)
    leq[0, :] = leq[:, top] = True
    atoms = [((x - 1) ^ 1) + 1 for x in range(1, top)]  # x <-> x'
    return attach_ortho(lattice_from_order(labels, leq), [top, *atoms, 0])


def standard_lattices() -> dict[str, FiniteLattice]:
    """The four-lattice family the exhaustive map checks run over."""
    return {
        "2-chain": chain(2),
        "3-chain": chain(3),
        "B2": boolean(2).base,
        "MO2": mo(2).base,
    }
