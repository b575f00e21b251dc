"""Seeded randomized verification campaigns over the whole library.

Each suite draws ``trials`` random instances from a fixed seed, checks a
family of laws, and reports every violation with its discrepancy. Reports
are deterministic given (name, seed, trials) up to the elapsed field.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from . import cascade as cascade_mod
from .catalog import boolean, chain, mo, standard_lattices
from .errors import UnknownSuite
from .galois import (
    enumerate_Q,
    galois_dual,
    adjoint_of_meetmap,
    pointwise_join,
    order_antitone_check,
)
from .hilbert import DEFAULT_TOL, Subspace, join_s, meet_s, ortho_s, sasaki_s, span
from .operators import (
    ANTILINEAR,
    LINEAR,
    from_tensor,
    hs_norm,
    quadruple,
    to_tensor,
)
from .quantale import ProperStateSpace, check_quantale_laws, enumerate_members
from .reporting import LawRecorder, VerificationReport
from .sampling import (
    random_nested_pair,
    random_operator,
    random_state_vector,
    random_subspace,
    random_tensor_vector,
    random_unitary,
)


def _suite_galois(rng: np.random.Generator, trials: int, rec: LawRecorder) -> None:
    enumerated = [
        (n1, n2, enumerate_Q(l1, l2))
        for (n1, l1), (n2, l2) in itertools.product(standard_lattices().items(), repeat=2)
    ]
    for _ in range(trials):
        n1, n2, q = enumerated[rng.integers(len(enumerated))]
        f = q.maps[rng.integers(len(q))]
        g = q.maps[rng.integers(len(q))]
        dual = galois_dual(f)
        where = f"{n1}->{n2} f={f.table} g={g.table}"
        adjunction = all(
            bool(f.source.leq[a, dual.table[b]]) == bool(f.target.leq[f.table[a], b])
            for a in range(len(f.source))
            for b in range(len(f.target))
        )
        rec.require("galois-adjunction", adjunction, where)
        rec.require("galois-round-trip",
                    adjoint_of_meetmap(dual).table == f.table, where)
        rec.require("order-antitone", order_antitone_check(f, g), where)
        subset = [q.maps[i] for i in rng.integers(len(q), size=3)]
        joined_dual = galois_dual(pointwise_join(subset, f.source, f.target))
        met = tuple(
            f.source.meet([galois_dual(h).table[b] for h in subset])
            for b in range(len(f.target))
        )
        rec.require("dual-of-join-is-meet-of-duals",
                    joined_dual.table == met, where)


def _suite_orthomodular(rng: np.random.Generator, trials: int, rec: LawRecorder) -> None:
    for _ in range(trials):
        dim = int(rng.integers(2, 5))
        inner, outer = random_nested_pair(rng, dim)
        rebuilt = join_s(inner, meet_s(outer, ortho_s(inner)))
        rec.check(
            "orthomodular",
            np.linalg.norm(outer.projector() - rebuilt.projector()),
            f"dim={dim}",
        )
        a = random_subspace(rng, dim)
        rec.check(
            "double-complement",
            np.linalg.norm(ortho_s(ortho_s(a)).projector() - a.projector()),
            f"dim={dim} rank={a.dim}",
        )
        b = random_subspace(rng, dim)
        lhs = ortho_s(join_s(a, b))
        rhs = meet_s(ortho_s(a), ortho_s(b))
        rec.check(
            "de-morgan",
            np.linalg.norm(lhs.projector() - rhs.projector()),
            f"dim={dim} ranks=({a.dim},{b.dim})",
        )


def _projected(a: Subspace, b: Subspace) -> Subspace:
    """span(P_a F_b): the Sasaki projection of ``b`` onto ``a`` as an image,
    the reference that ``sasaki_s``'s lattice formula is checked against."""
    return span(a.projector() @ b.frame, a.tol)


def _suite_sasaki(rng: np.random.Generator, trials: int, rec: LawRecorder) -> None:
    lantern = mo(2)
    for _ in range(trials):
        dim = int(rng.integers(2, 5))
        a = random_subspace(rng, dim)
        b = random_subspace(rng, dim)
        by_formula = sasaki_s(a, b)
        rec.check(
            "sasaki-cross-check",
            np.linalg.norm(by_formula.projector() - _projected(a, b).projector()),
            f"dim={dim} ranks=({a.dim},{b.dim})",
        )
        rec.require("sasaki-below-target", by_formula.leq(a), f"dim={dim}")
        c = random_subspace(rng, dim)
        rec.require("sasaki-isotone", by_formula.leq(sasaki_s(a, join_s(b, c))),
                    f"dim={dim}")
        # lattice side, exhaustively on the six-element lantern
        x = int(rng.integers(len(lantern)))
        y = int(rng.integers(len(lantern)))
        if lantern.compatible(x, y):
            rec.require(
                "sasaki-compatible-meet",
                lantern.sasaki(x, y) == lantern.base.meet2(x, y),
                f"MO2 x={x} y={y}",
            )


def _suite_tensor_iso(rng: np.random.Generator, trials: int, rec: LawRecorder) -> None:
    for _ in range(trials):
        dim_left = int(rng.integers(1, 9))
        dim_right = int(rng.integers(1, 9))
        terms = int(rng.integers(1, min(dim_left, dim_right) + 1))
        tv = random_tensor_vector(rng, dim_left, dim_right, terms)
        where = f"dims=({dim_left},{dim_right}) m={terms}"
        for flag in (LINEAR, ANTILINEAR):
            op = from_tensor(tv, flag)
            rec.check(
                f"hs-norm-{flag}",
                abs(hs_norm(op) - float(np.linalg.norm(tv.coefficients))),
                where,
            )
            back = to_tensor(op, tv.left_basis, tv.right_basis)
            rec.check(
                f"round-trip-{flag}",
                float(np.linalg.norm(back.coefficients - tv.coefficients)),
                where,
            )


def _suite_quadruple(rng: np.random.Generator, trials: int, rec: LawRecorder) -> None:
    for _ in range(trials):
        d1 = int(rng.integers(1, 5))
        d2 = int(rng.integers(1, 5))
        flag = LINEAR if rng.integers(2) else ANTILINEAR
        op = random_operator(rng, d2, d1, flag)
        quad = quadruple(op)
        where = f"dims=({d1},{d2}) {flag}"
        for name, rho in (("rho1", quad.rho1), ("rho2", quad.rho2)):
            m = rho.matrix
            rec.check(f"{name}-hermitian", np.linalg.norm(m - m.conj().T), where)
            rec.check(f"{name}-trace", abs(float(np.trace(m).real) - 1.0), where)
            rec.check(f"{name}-positive",
                      max(0.0, -float(np.linalg.eigvalsh(m)[0])), where)
        if flag == LINEAR:
            v = random_state_vector(rng, d1)
            w = random_state_vector(rng, d2)
            rec.check(
                "adjoint-pairing",
                abs(np.vdot(w, op.apply(v)) - np.vdot(quad.f21.apply(w), v)),
                where,
            )


def _suite_cascade_born(rng: np.random.Generator, trials: int, rec: LawRecorder) -> None:
    for trial in range(trials):
        d1 = int(rng.integers(2, 5))
        d2 = int(rng.integers(2, 5))
        terms = int(rng.integers(1, min(d1, d2, 4) + 1))
        tv = random_tensor_vector(rng, d1, d2, terms)
        op = from_tensor(tv, ANTILINEAR)
        psi = random_state_vector(rng, d1)
        phi = random_state_vector(rng, d2)
        where = f"dims=({d1},{d2}) m={terms}"
        left = cascade_mod.run_cascade(op, span(psi), span(phi))
        expected = cascade_mod.born_probability(tv, psi, phi)
        rec.check("cascade-vs-born",
                  abs(left.joint_probability - expected), where)
        right = cascade_mod.run_cascade(
            op, span(psi), span(phi), order=cascade_mod.RIGHT_FIRST
        )
        rec.check("order-independence",
                  abs(left.joint_probability - right.joint_probability), where)
        if trial % 10 == 0:
            basis1 = random_unitary(rng, d1)
            basis2 = random_unitary(rng, d2)
            total = sum(
                cascade_mod.run_cascade(
                    op, span(basis1[:, i]), span(basis2[:, j])
                ).joint_probability
                for i in range(d1)
                for j in range(d2)
            )
            rec.check("completeness", abs(total - 1.0), where)


def _suite_prop2(rng: np.random.Generator, trials: int, rec: LawRecorder) -> None:
    for dim in (2, 3):
        sub_rng = np.random.default_rng(rng.integers(2**63))
        cascade_mod.check_prop2(dim, trials // 2, sub_rng, rec)


def _quantale_spaces() -> list[ProperStateSpace]:
    """Two fixed spaces, then for each small lattice one space per choice
    of filler: one state per join-irreducible keeps propagation total, and
    a nonbottom filler state keeps the member count enumerable."""
    spaces = [ProperStateSpace(("p", "q"), chain(2), (1, 1)),
              ProperStateSpace(("p", "q", "r"), chain(3), (1, 1, 2))]
    for lattice in (chain(2), chain(3), boolean(2).base):
        jis = lattice.join_irreducibles()
        for filler in jis:
            c_map = jis + (filler,)
            spaces.append(ProperStateSpace(
                tuple(f"s{i}" for i in range(len(c_map))), lattice, c_map))
    return spaces


def _suite_quantale(rng: np.random.Generator, trials: int, rec: LawRecorder) -> None:
    for space in _quantale_spaces()[:trials]:
        members = enumerate_members(space)
        report = check_quantale_laws(space, members)
        where = f"states={space.states} c_map={space.c_map} members={len(members)}"
        for law, holds in report.laws.items():
            rec.require("quantale-" + law.replace("_", "-"), holds, where)
        rec.require("quantale-epimorphism", report.epimorphism.ok, where)


_SUITES = {
    "galois": _suite_galois,
    "orthomodular": _suite_orthomodular,
    "sasaki": _suite_sasaki,
    "tensor-iso": _suite_tensor_iso,
    "quadruple": _suite_quadruple,
    "cascade-born": _suite_cascade_born,
    "prop2": _suite_prop2,
    "quantale": _suite_quantale,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int, trials: int, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Run one named suite; deterministic given (name, seed, trials)."""
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    rng = np.random.default_rng(seed)
    rec = LawRecorder(tol)
    start = time.perf_counter()
    _SUITES[name](rng, trials, rec)
    elapsed = time.perf_counter() - start
    return VerificationReport(
        suite=name,
        seed=seed,
        trials=trials,
        failures=tuple(rec.failures),
        max_discrepancy=rec.max_discrepancy,
        elapsed_s=elapsed,
    )
