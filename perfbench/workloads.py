"""The four benchmark workloads: item generation, execution and checking.

An item is one self-contained verification task. Items come in passes:
every pass of a workload has the same composition (the same lattice
pairs, space classes, suites or dimensions), and the seed only draws the
order and the concrete data. Whole passes keep a run's cost independent
of the seed, so figures from different seeds are comparable.

The library is always reached through ``compoundness`` module attributes
at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import oracle

TOL = 1e-9

CATALOG_LATTICES = (
    "chain(2)", "chain(3)", "chain(4)", "chain(5)", "chain(6)", "chain(7)",
    "boolean(2)", "boolean(3)", "mo(2)", "mo(3)",
)

# In-guard pairs whose enumerate_Q raises MemoryError under the 2 GiB
# address-space cap (the |Q|^3 intermediates of the Q-lattice build).
# Items must not fail, so these are measured by the q-lattice probe
# instead; the first two are the probe pairs.
Q_OOM = (
    ("chain(7)", "chain(7)"), ("mo(3)", "mo(2)"),
    ("boolean(3)", "boolean(3)"), ("boolean(3)", "mo(3)"),
    ("mo(2)", "mo(3)"), ("mo(3)", "boolean(3)"),
)
Q_PROBE = Q_OOM[:2]
PROBE_METRIC = "galois.enumerate_Q.probe_oom_pairs"

# In-guard pairs that pass but take 1.1-6.3 s each (2-core x86 host):
# one of them would outweigh the rest of a pass. mo(3)->mo(3) has 13,376
# maps and its candidate filter alone outlasts a run.
Q_SLOW = (
    ("mo(3)", "mo(3)"),
    ("chain(6)", "chain(7)"), ("chain(7)", "chain(6)"),
    ("chain(7)", "boolean(3)"), ("chain(7)", "mo(2)"), ("chain(7)", "mo(3)"),
    ("mo(3)", "chain(6)"), ("mo(3)", "chain(7)"), ("boolean(3)", "chain(7)"),
)

Q_POOL = tuple(
    pair for pair in itertools.product(CATALOG_LATTICES, repeat=2)
    if pair not in Q_OOM and pair not in Q_SLOW
)

# (lattice, c_map, items per pass). Every class covers all join-irreducibles
# of the lattice. By cost, classes hold pass positions 1-75 (2 states, 8-16
# members), 76-95 (80 and 88 members) and 96-100 (128-198 members), so the
# median and the 90th percentile each fall inside one class, not on a
# boundary between two. Four-state spaces exceed the 350-member guard of
# transition_tables; the 291-344 member spaces (3-5 s each) would make a
# single item a quarter of a run.
QUANTALE_PASS = (
    ("chain(2)", (0, 1), 15),
    ("chain(2)", (1, 1), 20),
    ("chain(3)", (1, 2), 30),
    ("boolean(2)", (1, 2), 10),
    ("chain(2)", (0, 1, 1), 10),
    ("chain(3)", (0, 1, 2), 10),
    ("chain(2)", (0, 0, 1), 1),
    ("boolean(2)", (0, 1, 2), 1),
    ("chain(3)", (1, 1, 2), 1),
    ("boolean(2)", (1, 1, 2), 1),
    ("chain(4)", (1, 2, 3), 1),
)
QUANTALE_CLASSES = tuple((name, c_map) for name, c_map, _ in QUANTALE_PASS)

VERIFY_SUITES = ("orthomodular", "sasaki", "tensor-iso", "quadruple", "cascade-born", "prop2")
VERIFY_TRIALS = 20

CASCADE_DIMS = range(4, 13)


@dataclass
class Item:
    key: tuple
    data: dict[str, Any] = field(default_factory=dict)


@dataclass
class Outcome:
    ok: bool
    discrepancy: float = 0.0
    detail: str = ""


def catalog_lattice(cp, name: str):
    """Build a catalog lattice afresh from its name, e.g. ``mo(2)``."""
    kind, arg = name[:-1].split("(")
    if kind == "chain":
        return cp.chain(int(arg))
    if kind == "boolean":
        return cp.boolean(int(arg)).base
    return cp.mo(int(arg)).base


def class_key(name: str, c_map) -> str:
    return f"{name}:{','.join(str(v) for v in sorted(c_map))}"


class Workload:
    name = ""
    address_space_cap: int | None = None
    lattices: tuple[str, ...] = ()
    # passes of a traced run: fixed, so that its call counts repeat at one seed
    trace_passes = 1

    def __init__(self, cp, expected: dict):
        self.cp = cp
        self.expected = expected

    def setup(self) -> None:
        """Check that the catalog builds the lattices the oracle assumes."""
        self.orders = {name: oracle.LATTICE_ORDERS[name]() for name in self.lattices}
        self.joins = {name: oracle.lub_table(order) for name, order in self.orders.items()}
        for name, order in self.orders.items():
            if not np.array_equal(catalog_lattice(self.cp, name).leq, order):
                raise RuntimeError(f"catalog {name} disagrees with the oracle's order")

    def items(self, seed: int, pass_index: int) -> list[Item]:
        raise NotImplementedError

    def warmup_item(self) -> Item:
        raise NotImplementedError

    def run(self, item: Item):
        """The library's work on one item; returns what ``check`` needs."""
        raise NotImplementedError

    def check(self, item: Item, result) -> Outcome:
        """The benchmark's own checking of one item's result."""
        raise NotImplementedError

    def probe(self) -> dict[str, float]:
        """Extra per-layer observations made once in a traced run.

        Only q-lattice runs probe pairs; elsewhere none can fail.
        """
        return {PROBE_METRIC: 0.0}


def _rng(seed: int, pass_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, pass_index])


class QLattice(Workload):
    name = "q-lattice"
    address_space_cap = 2 << 30
    lattices = CATALOG_LATTICES

    def items(self, seed, pass_index):
        order = _rng(seed, pass_index).permutation(len(Q_POOL))
        return [Item(Q_POOL[i]) for i in order]

    def warmup_item(self):
        return Item(("mo(2)", "boolean(2)"))

    def run(self, item):
        cp = self.cp
        a, b = item.key
        q = cp.enumerate_Q(catalog_lattice(cp, a), catalog_lattice(cp, b))
        tables, duals, backs = [], [], []
        for f in q.maps:
            g = cp.galois_dual(f)
            tables.append(f.table)
            duals.append(g.table)
            backs.append(cp.adjoint_of_meetmap(g).table)
        return tables, duals, backs, q.lattice.leq, q.lattice.join_table

    def check(self, item, result):
        a, b = item.key
        tables, duals, backs, q_leq, q_join = result
        want = self.expected["q_lattice"][f"{a}->{b}"]
        if len(tables) != want["maps"]:
            return Outcome(False, detail=f"{len(tables)} maps, expected {want['maps']}")
        if oracle.tables_digest(tables) != want["sha256"]:
            return Outcome(False, detail="map set differs from the oracle's")
        t, d = np.array(tables), np.array(duals)
        if not np.array_equal(np.array(backs), t):
            return Outcome(False, detail="galois_dual round trip broke")
        leq1, leq2 = self.orders[a], self.orders[b]
        # Q is ordered pointwise, and its join is the pointwise join
        if not np.array_equal(q_leq, leq2[t[:, None, :], t[None, :, :]].all(axis=2)):
            return Outcome(False, detail="Q order is not the pointwise order")
        if not np.array_equal(t[q_join], self.joins[b][t[:, None, :], t[None, :, :]]):
            return Outcome(False, detail="Q join is not the pointwise join")
        n1, n2 = leq1.shape[0], leq2.shape[0]
        # a <= f*(b)  iff  f(a) <= b, for every map, a and b at once
        lhs = leq1[np.arange(n1)[None, :, None], d[:, None, :]]
        rhs = leq2[t[:, :, None], np.arange(n2)[None, None, :]]
        if not np.array_equal(lhs, rhs):
            return Outcome(False, detail="adjunction fails")
        return Outcome(True)

    def probe(self):
        """Run enumerate_Q on the probe pairs; count MemoryErrors."""
        ooms = 0
        for a, b in Q_PROBE:
            try:
                q = self.cp.enumerate_Q(catalog_lattice(self.cp, a), catalog_lattice(self.cp, b))
            except MemoryError:
                ooms += 1
                continue
            tables = [f.table for f in q.maps]
            want = self.expected["q_lattice"][f"{a}->{b}"]
            if oracle.tables_digest(tables) != want["sha256"]:
                raise RuntimeError(f"probe {a}->{b} returned a wrong map set")
        return {PROBE_METRIC: float(ooms)}


class Quantale(Workload):
    name = "quantale"
    lattices = tuple(sorted({name for name, _, _ in QUANTALE_PASS}))

    def items(self, seed, pass_index):
        rng = _rng(seed, pass_index)
        out = []
        for name, c_map, count in QUANTALE_PASS:
            for _ in range(count):
                perm = rng.permutation(len(c_map))
                states = tuple(f"s{int(v)}" for v in rng.permutation(10)[:len(c_map)])
                out.append(Item((name, tuple(int(c_map[i]) for i in perm)),
                                {"states": states}))
        return [out[i] for i in rng.permutation(len(out))]

    def warmup_item(self):
        return Item(("chain(3)", (1, 2)), {"states": ("p", "q")})

    def run(self, item):
        cp = self.cp
        name, c_map = item.key
        space = cp.ProperStateSpace(item.data["states"], catalog_lattice(cp, name), c_map)
        members = cp.enumerate_members(space)
        return members, cp.check_quantale_laws(space, members)

    def check(self, item, result):
        members, report = result
        name, c_map = item.key
        want = self.expected["quantale"][class_key(name, c_map)]
        if len(members) != want["members"] or report.members != want["members"]:
            return Outcome(False, detail=f"{len(members)} members, expected {want['members']}")
        # relabel states in order of property, as the oracle numbers them;
        # states of equal property are interchangeable, so ties do not matter
        order = sorted(range(len(c_map)), key=c_map.__getitem__)
        bit = [0] * len(c_map)
        for new, old in enumerate(order):
            bit[old] = 1 << new

        def relabel(mask):
            return sum(b for i, b in enumerate(bit) if mask >> i & 1)

        images = [tuple(relabel(f.images[old]) for old in order) for f in members]
        if oracle.tables_digest(images) != want["sha256"]:
            return Outcome(False, detail="member set differs from the oracle's")
        laws = {
            "associative": report.associative,
            "left_distributive": report.left_distributive,
            "right_distributive": report.right_distributive,
            "union_closed": report.union_closed,
            "bottom_is_empty": report.bottom_is_empty,
            "epimorphism": report.epimorphism.ok,
        }
        broken = [law for law, holds in laws.items() if not holds]
        if broken:
            return Outcome(False, detail=f"quantale laws fail: {', '.join(broken)}")
        return Outcome(True)


class VerifySmall(Workload):
    name = "verify-small"
    trace_passes = 25

    def items(self, seed, pass_index):
        rng = _rng(seed, pass_index)
        seeds = rng.integers(2**31, size=len(VERIFY_SUITES))
        return [Item((VERIFY_SUITES[i], int(seeds[i]))) for i in rng.permutation(len(VERIFY_SUITES))]

    def warmup_item(self):
        return Item(("cascade-born", 0))

    def run(self, item):
        name, item_seed = item.key
        return self.cp.run_suite(name, item_seed, VERIFY_TRIALS)

    def check(self, item, report):
        ok = not report.failures and report.max_discrepancy <= TOL
        return Outcome(ok, report.max_discrepancy,
                       detail="" if ok else f"failures: {report.failures[:3]}")


def _unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases.conj()


class CascadeSweep(Workload):
    name = "cascade-sweep"

    def item(self, rng: np.random.Generator, d1: int, d2: int) -> Item:
        terms = int(rng.integers(1, min(d1, d2) + 1))
        coefficients = rng.standard_normal(terms) + 1j * rng.standard_normal(terms)
        tv = self.cp.TensorVector(coefficients, _unitary(rng, d1)[:, :terms],
                                  _unitary(rng, d2)[:, :terms])
        return Item((d1, d2, terms), {
            "tv": tv, "basis1": _unitary(rng, d1), "basis2": _unitary(rng, d2),
        })

    def items(self, seed, pass_index):
        rng = _rng(seed, pass_index)
        out = [self.item(rng, d1, d2) for d1, d2 in itertools.product(CASCADE_DIMS, repeat=2)]
        return [out[i] for i in rng.permutation(len(out))]

    def warmup_item(self):
        return self.item(np.random.default_rng(0), 4, 4)

    def run(self, item):
        cp = self.cp
        tv, basis1, basis2 = item.data["tv"], item.data["basis1"], item.data["basis2"]
        op = cp.from_tensor(tv, cp.ANTILINEAR)
        d1, d2 = basis1.shape[0], basis2.shape[0]
        cascade = np.empty((d1, d2))
        born = np.empty((d1, d2))
        for i in range(d1):
            for j in range(d2):
                cascade[i, j] = cp.run_cascade(
                    op, cp.span(basis1[:, i]), cp.span(basis2[:, j])).joint_probability
                born[i, j] = cp.born_probability(tv, basis1[:, i], basis2[:, j])
        right_first = cp.run_cascade(op, cp.span(basis1[:, 0]), cp.span(basis2[:, 0]),
                                     order=cp.cascade.RIGHT_FIRST).joint_probability
        return cascade, born, right_first

    def check(self, item, result):
        cascade, born, right_first = result
        worst = max(float(np.abs(cascade - born).max()),
                    abs(float(cascade.sum()) - 1.0),
                    abs(float(right_first - cascade[0, 0])))
        return Outcome(worst <= TOL, worst,
                       detail="" if worst <= TOL else f"discrepancy {worst:.3e}")


WORKLOADS = {w.name: w for w in (QLattice, Quantale, VerifySmall, CascadeSweep)}
