"""Independent brute-force oracles used to freeze expected test values.

Everything in here recomputes results from first principles (scans over
relation tables, exhaustive candidate filtering, Kronecker products) so
the main library code paths are never the thing checking themselves.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def brute_glb(leq: np.ndarray, xs: list[int]) -> int | None:
    """Greatest lower bound by scanning the relation table."""
    n = leq.shape[0]
    lower = [z for z in range(n) if all(leq[z, x] for x in xs)]
    greatest = [z for z in lower if all(leq[w, z] for w in lower)]
    if not greatest:
        return None
    assert len(greatest) == 1
    return greatest[0]


def brute_lub(leq: np.ndarray, xs: list[int]) -> int | None:
    """Least upper bound by scanning the relation table."""
    n = leq.shape[0]
    upper = [z for z in range(n) if all(leq[x, z] for x in xs)]
    least = [z for z in upper if all(leq[z, w] for w in upper)]
    if not least:
        return None
    assert len(least) == 1
    return least[0]


def brute_atoms(leq: np.ndarray) -> list[int]:
    """Elements above the bottom with nothing strictly between."""
    n = leq.shape[0]
    bottom = next(b for b in range(n) if leq[b].all())
    return [x for x in range(n) if x != bottom and leq[bottom, x]
            and not any(leq[bottom, y] and leq[y, x] for y in range(n) if y not in (bottom, x))]


def brute_join_irreducibles(leq: np.ndarray) -> list[int]:
    """Elements other than the bottom that are not the join of those strictly below."""
    n = leq.shape[0]
    return [z for z in range(n) if leq[:, z].sum() > 1
            and brute_lub(leq, [w for w in range(n) if leq[w, z] and w != z]) != z]


def brute_join_maps(source, target) -> set[tuple[int, ...]]:
    """Every join-preserving table, by filtering all |L2|^|L1| candidates."""
    n1, n2 = len(source), len(target)
    found = set()
    for table in itertools.product(range(n2), repeat=n1):
        if table[source.bottom] != target.bottom:
            continue
        if all(
            table[source.join2(x, y)] == target.join2(table[x], table[y])
            for x in range(n1)
            for y in range(x, n1)
        ):
            found.add(table)
    return found


def mo_join_map_count(n: int, k: int) -> int:
    """|Q(MO_n, MO_k)| in closed form (n, k >= 1), counted by f(1).

    Any two of the 2n atoms of MO_n join to 1, and f preserves that join.
    f(1) = 0: the absurd map. f(1) = an atom c: every atom goes to c, or one
    atom goes to 0 and the rest to c. f(1) = 1: one atom goes to 0 and the
    rest to 1, or no atom goes to 0, j atoms go one-to-one to atoms of
    MO_k and the rest to 1.
    """
    return (1 + 2 * k * (1 + 2 * n) + 2 * n
            + sum(math.comb(2 * n, j) * math.perm(2 * k, j) for j in range(2 * n + 1)))


def brute_meet_maps(source, target) -> set[tuple[int, ...]]:
    """Every meet-preserving table, by exhaustive filtering."""
    n1, n2 = len(source), len(target)
    found = set()
    for table in itertools.product(range(n2), repeat=n1):
        if table[source.top] != target.top:
            continue
        if all(
            table[source.meet2(x, y)] == target.meet2(table[x], table[y])
            for x in range(n1)
            for y in range(x, n1)
        ):
            found.add(table)
    return found


def brute_members(leq: np.ndarray, c_map) -> set[tuple[frozenset[int], ...]]:
    """Every closure-compatible transition map, as its images of the states.

    A set T of states has the strongest property C(T), the least upper
    bound of its states' properties, and the closure cl(T) of every state
    whose property lies below C(T). A map, extended to sets by union, is a
    member when f(cl(T)) is contained in cl(f(T)) for every T.
    """
    states = range(len(c_map))
    subsets = [frozenset(t) for r in range(len(c_map) + 1)
               for t in itertools.combinations(states, r)]

    def closure(t):
        strongest = brute_lub(leq, [c_map[s] for s in t])
        return frozenset(s for s in states if leq[c_map[s], strongest])

    def image(f, t):
        return frozenset().union(*(f[s] for s in t))

    return {
        f for f in itertools.product(subsets, repeat=len(c_map))
        if all(image(f, closure(t)) <= closure(image(f, t)) for t in subsets)
    }


def brute_propagations(leq: np.ndarray, c_map, maps) -> tuple[list, list]:
    """Propagation tables of transition maps, and the pairs they fail on.

    A map is given by its images of the states, as sets. Its propagation
    sends each property x to C(f(T_x)), where T_x holds every state whose
    property lies below x; it is None when two sets of equal strongest
    property have images of different strongest properties. For every pair
    (f, g) of maps with propagations, f o g must propagate to the composite
    of theirs and f u g to their pointwise join; each pair that does not is
    listed as (law, i, j).
    """
    states = range(len(c_map))
    subsets = [frozenset(t) for r in range(len(c_map) + 1)
               for t in itertools.combinations(states, r)]
    strongest = {t: brute_lub(leq, [c_map[s] for s in t]) for t in subsets}
    below = [frozenset(s for s in states if leq[c_map[s], x]) for x in range(len(leq))]
    lub = [[brute_lub(leq, [a, b]) for b in range(len(leq))] for a in range(len(leq))]

    def image(f, t):
        return frozenset().union(*(f[s] for s in t))

    known: dict = {}

    def propagation(f):
        if f not in known:
            seen: dict = {}
            defined = all(seen.setdefault(strongest[t], strongest[image(f, t)])
                          == strongest[image(f, t)] for t in subsets)
            known[f] = tuple(strongest[image(f, t)] for t in below) if defined else None
        return known[f]

    tables = [propagation(f) for f in maps]
    failures = []
    for (i, f), (j, g) in itertools.product(enumerate(maps), repeat=2):
        pf, pg = tables[i], tables[j]
        if pf is None or pg is None:
            continue
        if propagation(tuple(image(f, g_s) for g_s in g)) != tuple(pf[y] for y in pg):
            failures.append(("composition", i, j))
        if propagation(tuple(a | b for a, b in zip(f, g))) != tuple(
                lub[a][b] for a, b in zip(pf, pg)):
            failures.append(("union", i, j))
    return tables, failures


def brute_triple_laws(comp, union) -> tuple[bool, bool, bool]:
    """Associativity, left and right distributivity of index tables.

    ``comp[i][j]`` indexes f_i o f_j and ``union[i][j]`` f_i u f_j; every
    triple (i, j, k) is compared: (ij)k = i(jk), i(j u k) = ij u ik and
    (i u j)k = ik u jk.
    """
    comp = [[int(x) for x in row] for row in comp]
    union = [[int(x) for x in row] for row in union]
    associative = left = right = True
    for i, ci in enumerate(comp):
        for j, cj in enumerate(comp):
            cij, uij = ci[j], union[i][j]
            for k in range(len(comp)):
                associative &= comp[cij][k] == ci[cj[k]]
                left &= ci[union[j][k]] == union[cij][ci[k]]
                right &= comp[uij][k] == union[comp[i][k]][cj[k]]
    return associative, left, right


def kron_state(tv) -> np.ndarray:
    """The compound state vector assembled directly in the product space."""
    d1 = tv.left_basis.shape[0]
    d2 = tv.right_basis.shape[0]
    state = np.zeros(d1 * d2, dtype=complex)
    for i in range(tv.terms):
        state += tv.coefficients[i] * np.kron(tv.left_basis[:, i], tv.right_basis[:, i])
    return state


def lueders_update(rho: np.ndarray, frame: np.ndarray,
                   cutoff: float) -> tuple[float, np.ndarray | None]:
    """(Tr(P rho), P rho P / Tr(P rho)) for P = F F^H, with n x n products.

    The state is None when Tr(P rho) is at or below ``cutoff``.
    """
    proj = frame @ frame.conj().T
    p = min(max(float(np.trace(proj @ rho).real), 0.0), 1.0)
    if p <= cutoff:
        return p, None
    return p, proj @ rho @ proj / float(np.trace(proj @ rho @ proj).real)
