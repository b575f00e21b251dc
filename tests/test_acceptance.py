"""Acceptance gate: every stated criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) and
enforces its runtime budget. Seeds are fixed, so the whole module is
deterministic.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager

import numpy as np

from compoundness.cascade import (
    LEFT_FIRST,
    RIGHT_FIRST,
    born_probability,
    check_prop2,
    run_cascade,
)
from compoundness.catalog import standard_lattices
from compoundness.galois import (
    absurd_state,
    adjoint_of_meetmap,
    enumerate_Q,
    galois_dual,
    separation_state,
)
from compoundness.hilbert import join_s, meet_s, ortho_s, ray, span
from compoundness.operators import (
    ANTILINEAR,
    LINEAR,
    CompoundOperator,
    atomicity_probe,
    from_tensor,
    hs_norm,
    quadruple,
    to_tensor,
)
from compoundness.quantale import check_quantale_laws, enumerate_members
from compoundness.reporting import LawRecorder
from compoundness.sampling import (
    complex_gaussian,
    random_nested_pair,
    random_operator,
    random_state_vector,
    random_subspace,
    random_tensor_vector,
    random_unitary,
)
from compoundness.suites import _quantale_spaces


@contextmanager
def criterion(number: int, title: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {title}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.2f}s, budget {budget_s:.0f}s): {title}")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def _all_pairs():
    lattices = standard_lattices()
    return [
        (l1, l2)
        for l1, l2 in itertools.product(lattices.values(), repeat=2)
    ]


def _row_indexer(tables: np.ndarray, base: int):
    """Map rows of int tables to their index within ``tables``."""
    pows = base ** np.arange(tables.shape[1], dtype=np.int64)
    keys = tables.astype(np.int64) @ pows
    order = np.argsort(keys)
    sorted_keys = keys[order]

    def lookup(rows: np.ndarray) -> np.ndarray:
        wanted = rows.astype(np.int64) @ pows
        positions = np.searchsorted(sorted_keys, wanted)
        assert np.array_equal(sorted_keys[positions], wanted), "row not enumerated"
        return order[positions]

    return lookup


def test_criterion_01_galois_adjunction_exhaustive():
    with criterion(1, "Galois adjunction and round trip, all enumerated maps", 5.0):
        for l1, l2 in _all_pairs():
            for f in enumerate_Q(l1, l2).maps:
                dual = galois_dual(f)
                for a in range(len(l1)):
                    for b in range(len(l2)):
                        assert bool(l1.leq[a, dual.table[b]]) == bool(
                            l2.leq[f.table[a], b]
                        )
                assert adjoint_of_meetmap(dual).table == f.table


def test_criterion_02_q_lattice_structure():
    with criterion(2, "Q(L1,L2) is a complete lattice with the right bounds", 5.0):
        lattices = standard_lattices()
        for l1, l2 in _all_pairs():
            q = enumerate_Q(l1, l2)
            assert q.maps[q.lattice.top].table == separation_state(l1, l2).table
            assert q.maps[q.lattice.bottom].table == absurd_state(l1, l2).table
            # the lattice join is the pointwise join (checked via tables)
            arr = np.array([f.table for f in q.maps], dtype=np.int64)
            lookup = _row_indexer(arr, len(l2))
            joined = l2.join_table[arr[:, None, :], arr[None, :, :]]
            m = len(q)
            expected = lookup(joined.reshape(m * m, -1)).reshape(m, m)
            assert np.array_equal(expected, q.lattice.join_table)
        # the advertised sizes, against an independent brute-force filter
        for l1, l2, size in (
            (lattices["2-chain"], lattices["2-chain"], 2),
            (lattices["B2"], lattices["2-chain"], 4),
        ):
            q = enumerate_Q(l1, l2)
            brute = {
                table
                for table in itertools.product(range(len(l2)), repeat=len(l1))
                if table[l1.bottom] == l2.bottom
                and all(
                    table[l1.join2(x, y)] == l2.join2(table[x], table[y])
                    for x in range(len(l1))
                    for y in range(len(l1))
                )
            }
            assert {f.table for f in q.maps} == brute
            assert len(q) == size


def test_criterion_03_duality_is_an_order_anti_isomorphism():
    with criterion(3, "duality antitone law and join-to-meet exchange, all pairs", 30.0):
        for l1, l2 in _all_pairs():
            q = enumerate_Q(l1, l2)
            arr = np.array([f.table for f in q.maps], dtype=np.int64)
            duals = np.array(
                [galois_dual(f).table for f in q.maps], dtype=np.int64
            )
            forward = l2.leq[arr[:, None, :], arr[None, :, :]].all(axis=2)
            backward = l1.leq[duals[:, None, :], duals[None, :, :]].all(axis=2)
            assert np.array_equal(forward, backward.T)
            # dual of the pointwise join is the pointwise meet of the duals
            lookup = _row_indexer(arr, len(l2))
            m = len(q)
            joined = l2.join_table[arr[:, None, :], arr[None, :, :]]
            join_idx = lookup(joined.reshape(m * m, -1)).reshape(m, m)
            dual_of_join = duals[join_idx]
            meet_of_duals = l1.meet_table[duals[:, None, :], duals[None, :, :]]
            assert np.array_equal(dual_of_join, meet_of_duals)


def test_criterion_04_hilbert_lattice_laws():
    with criterion(4, "orthomodularity, complements, De Morgan, Sasaki agreement", 30.0):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for dim in (2, 3, 4):
            for _ in range(1000):
                inner, outer = random_nested_pair(rng, dim)
                rebuilt = join_s(inner, meet_s(outer, ortho_s(inner)))
                worst = max(worst, np.linalg.norm(
                    outer.projector() - rebuilt.projector()))
                a = random_subspace(rng, dim)
                b = random_subspace(rng, dim)
                worst = max(worst, np.linalg.norm(
                    ortho_s(ortho_s(a)).projector() - a.projector()))
                worst = max(worst, np.linalg.norm(
                    ortho_s(join_s(a, b)).projector()
                    - meet_s(ortho_s(a), ortho_s(b)).projector()))
                by_formula = meet_s(a, join_s(b, ortho_s(a)))
                by_image = span(a.projector() @ b.frame, max(a.tol, b.tol))
                worst = max(worst, np.linalg.norm(
                    by_formula.projector() - by_image.projector()))
        assert worst <= 1e-9, f"max discrepancy {worst:.3e}"


def test_criterion_05_tensor_isomorphism():
    with criterion(5, "Hilbert-Schmidt norm identity and coefficient round trips", 5.0):
        rng = np.random.default_rng(2025)
        for _ in range(300):
            d1 = int(rng.integers(1, 9))
            d2 = int(rng.integers(1, 9))
            m = int(rng.integers(1, min(d1, d2) + 1))
            tv = random_tensor_vector(rng, d1, d2, m)
            for flag in (LINEAR, ANTILINEAR):
                op = from_tensor(tv, flag)
                assert abs(hs_norm(op) - np.linalg.norm(tv.coefficients)) <= 1e-12
                back = to_tensor(op, tv.left_basis, tv.right_basis)
                assert np.abs(back.coefficients - tv.coefficients).max() <= 1e-12
                assert np.abs(from_tensor(back, flag).matrix - op.matrix).max() <= 1e-12


def test_criterion_06_quadruple_validity():
    with criterion(6, "reduced states of random operators are densities", 10.0):
        rng = np.random.default_rng(2026)
        for _ in range(500):
            d1 = int(rng.integers(1, 5))
            d2 = int(rng.integers(1, 5))
            flag = LINEAR if rng.integers(2) else ANTILINEAR
            quad = quadruple(random_operator(rng, d2, d1, flag))
            for rho in (quad.rho1, quad.rho2):
                matrix = rho.matrix
                assert np.linalg.norm(matrix - matrix.conj().T) <= 1e-12
                assert np.linalg.eigvalsh(matrix)[0] >= -1e-10
                assert abs(float(np.trace(matrix).real) - 1.0) <= 1e-12


def test_criterion_07_cascade_reproduces_born_probabilities():
    with criterion(7, "cascade equals the Born oracle, completeness, order freedom", 30.0):
        rng = np.random.default_rng(2027)
        for _ in range(500):
            d1 = int(rng.integers(2, 5))
            d2 = int(rng.integers(2, 5))
            m = int(rng.integers(1, min(d1, d2, 4) + 1))
            tv = random_tensor_vector(rng, d1, d2, m)
            op = from_tensor(tv, ANTILINEAR)
            psi = random_state_vector(rng, d1)
            phi = random_state_vector(rng, d2)
            left = run_cascade(op, ray(psi), ray(phi), order=LEFT_FIRST)
            right = run_cascade(op, ray(psi), ray(phi), order=RIGHT_FIRST)
            expected = born_probability(tv, psi, phi)
            assert abs(left.joint_probability - expected) <= 1e-9
            assert abs(left.joint_probability - right.joint_probability) <= 1e-9
            basis1 = random_unitary(rng, d1)
            basis2 = random_unitary(rng, d2)
            total = sum(
                run_cascade(op, ray(basis1[:, i]), ray(basis2[:, j])).joint_probability
                for i in range(d1)
                for j in range(d2)
            )
            assert abs(total - 1.0) <= 1e-9


def test_criterion_08_update_law_hypotheses():
    with criterion(8, "projective update laws and the Sasaki carrier bridge", 30.0):
        for dim in (2, 3):
            report = LawRecorder(1e-9)
            check_prop2(dim, 500, np.random.default_rng(2028 + dim), report)
            assert report.ok, report.failures[:3]
            assert report.max_discrepancy <= 1e-9


def test_criterion_09_quantale_laws_and_epimorphism():
    with criterion(9, "quantale laws and the propagation morphism, exhaustive", 30.0):
        for space in _quantale_spaces():
            members = enumerate_members(space)
            report = check_quantale_laws(space, members)
            assert report.associative
            assert report.left_distributive
            assert report.union_closed and report.bottom_is_empty
            assert report.epimorphism.ok
            assert report.right_distributive  # also observed; reported for the record


def test_criterion_10_atomicity_probe():
    with criterion(10, "ordered operator pairs are equal or zero on sampled rays", 10.0):
        rng = np.random.default_rng(2030)
        for _ in range(200):
            d1 = int(rng.integers(2, 5))
            d2 = int(rng.integers(2, 5))
            g_op = random_operator(rng, d2, d1)
            style = rng.integers(3)
            if style == 0:
                f_op = CompoundOperator(np.zeros((d2, d1)))
            elif style == 1:
                scale = complex_gaussian(rng)
                f_op = CompoundOperator(scale * g_op.matrix)
            else:
                f_op = g_op
            report = atomicity_probe(f_op, g_op, 200, rng=rng)
            assert report.ordered_on_samples
            assert report.consistent
            assert report.zero_operator or report.equal_on_samples
