"""The measurement cascade on a two-part system and its Born-rule oracle.

Measuring an atom on one side of a compound state collapses that side's
proper state, makes the collapsed carrier actual, and thereby induces a
property on the other side through the operator state; the other side
updates projectively and is then measured in turn. The product of the
measurement-step probabilities reproduces the tensor-product transition
probability, which :func:`born_probability` computes independently via an
explicit Kronecker construction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .density import (ORTHOGONAL_CUTOFF, DensityState, _update, carrier, lueders,
                      transition_probability)
from .errors import BadShape, DimensionMismatch, ZeroOperator, ZeroVector
from .hilbert import Subspace, _scaled, sasaki_s
from .operators import CompoundOperator, TensorVector, induced_map
from .sampling import (
    random_density,
    random_density_in,
    random_subspace,
    random_subspace_in,
    random_unitary,
)

LEFT_FIRST = "left-first"
RIGHT_FIRST = "right-first"

MEASURE = "measure"
INDUCE = "induce"


@dataclass(frozen=True)
class CascadeStep:
    """One transition in a cascade run.

    Measurement steps carry the outcome probability; induction steps are
    deterministic consequences and carry probability one. For a ray a with
    p = Tr(P_a rho) > 0, P_a rho P_a / p = |a><a| whatever rho is, so the
    post-state is the pure state of ``carrier_post`` (None when that is 0),
    built and validated as a ``DensityState`` on first read.
    """

    side: int
    kind: str
    measured_property: Subspace
    pre_state: DensityState
    probability: float
    carrier_pre: Subspace
    carrier_post: Subspace

    @cached_property
    def post_state(self) -> DensityState | None:
        f = self.carrier_post.frame
        return DensityState(f @ f.conj().T) if f.shape[1] else None


@dataclass(frozen=True)
class CascadeTrace:
    """The recorded steps of a cascade and their joint probability."""

    steps: tuple[CascadeStep, ...]
    joint_probability: float


def _step(side: int, kind: str, prop: Subspace, pre: DensityState,
          carrier_pre: Subspace) -> CascadeStep:
    """Measure or induce the ray ``prop`` from ``pre``, computing p = Tr(P rho) only: an
    orthogonal outcome has a zero post-carrier, else ``prop`` (P rho P / p = |prop><prop|)."""
    p = transition_probability(pre, prop)
    if p <= ORTHOGONAL_CUTOFF:
        probability, carrier_post = 0.0, Subspace.zero(prop.ambient_dim)
    else:
        probability, carrier_post = (p if kind == MEASURE else 1.0), prop
    return CascadeStep(side, kind, prop, pre, probability, carrier_pre, carrier_post)


def run_cascade(op: CompoundOperator, left_atom: Subspace, right_atom: Subspace,
                order: str = LEFT_FIRST) -> CascadeTrace:
    """Measure one atom per side, propagating the collapse across sides.

    With the default order: measure ``left_atom`` on the first reduced
    state, induce the image of the collapsed carrier on the second side,
    update the second state projectively, then measure ``right_atom``.
    An orthogonal outcome terminates the run with joint probability zero.
    Each step with a post-state has the ray it updated onto as post-carrier,
    and that ray's pure state, built and validated on first read, as post-state.

    The head of the run (the first measurement and the induced update)
    depends only on the operator, the order and the first atom. ``op``
    keeps its last head, so consecutive runs that share the order and the
    first atom (one row of an outcome grid) compute it once; only the
    final measurement runs per pair. One head per operator is kept.
    """
    if "_cascade_head" not in vars(op) and op.is_zero():  # a kept head: found nonzero
        raise ZeroOperator("cannot run a cascade from the zero operator")
    if left_atom.dim != 1 or right_atom.dim != 1:
        raise BadShape("measured properties must be atoms (rays)")
    if left_atom.ambient_dim != op.dim_in or right_atom.ambient_dim != op.dim_out:
        raise DimensionMismatch(
            f"atoms must live in C^{op.dim_in} and C^{op.dim_out}"
        )
    if order == LEFT_FIRST:
        first, second = left_atom, right_atom
    elif order == RIGHT_FIRST:
        first, second = right_atom, left_atom
    else:
        raise ValueError(f"order must be {LEFT_FIRST!r} or {RIGHT_FIRST!r}")

    head = _head(op, order, first)
    h = head[0]
    measured = CascadeStep(h.side, MEASURE, first, h.pre_state, h.probability,
                           h.carrier_pre, h.carrier_post)
    if not head[-1].carrier_post.dim:
        return CascadeTrace((measured, *head[1:]), 0.0)
    induced = head[1]
    final = _step(induced.side, MEASURE, second, induced.post_state, induced.carrier_post)
    return CascadeTrace((measured, induced, final),
                        measured.probability * induced.probability * final.probability)


def _head(op: CompoundOperator, order: str, atom: Subspace) -> tuple[CascadeStep, ...]:
    """The first measurement of ``atom`` and, unless it is orthogonal, the
    induced update: kept on ``op`` for the next run with the same key."""
    key = (order, atom.tol, atom.frame.tobytes())
    memo = vars(op).get("_cascade_head")
    if memo is not None and memo[0] == key:
        return memo[1]
    quad = op.plan
    if order == LEFT_FIRST:
        (side1, rho1), (side2, rho2), bridge = (1, quad.rho1), (2, quad.rho2), quad.f12
    else:
        (side1, rho1), (side2, rho2), bridge = (2, quad.rho2), (1, quad.rho1), quad.f21
    measured = _step(side1, MEASURE, atom, rho1, carrier(rho1))
    head: tuple[CascadeStep, ...] = (measured,)
    if measured.carrier_post.dim:
        head += (_step(side2, INDUCE, induced_map(bridge)(measured.carrier_post),
                       rho2, carrier(rho2)),)
    vars(op)["_cascade_head"] = (key, head)  # as functools.cached_property stores on frozen objects
    return head


def born_probability(tv: TensorVector, psi, phi) -> float:
    """Transition probability computed directly in the tensor space.

    |<psi x phi, sum_i c_i psi_i x phi_i>|^2 normalized by the squared
    norms of the outcome vectors and of the compound state. Built with
    explicit Kronecker products, independent of the cascade machinery. The
    compound state sum_i c_i psi_i x phi_i and its squared norm are built
    once per tensor vector and cached on it (one d1*d2 vector); each call
    builds only psi x phi, as the flattened outer product (the same
    products as ``np.kron`` on vectors). When a squared norm or their
    product is not a normal float, all three vectors are first brought to
    unit scale by powers of two, so nonzero multiples agree within rounding.
    An outcome is scanned for a nonzero entry only when its squared norm is 0.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    norms = (float(np.vdot(psi, psi).real), float(np.vdot(phi, phi).real), tv._state_norm2)
    if (norms[0] == 0.0 and not psi.any()) or (norms[1] == 0.0 and not phi.any()):
        raise ZeroVector("measurement outcomes must be nonzero vectors")
    if psi.shape[0] != tv.left_basis.shape[0] or phi.shape[0] != tv.right_basis.shape[0]:
        raise DimensionMismatch("outcome vectors do not match the state's spaces")
    state = tv._state
    denominator = math.prod(norms)
    if not (sys.float_info.min <= min(*norms, denominator) and denominator < math.inf):
        psi, phi, state = _scaled(psi), _scaled(phi), _scaled(state)
        norms = tuple(float(np.vdot(v, v).real) for v in (psi, phi, state))
        if norms[2] == 0.0:
            raise ZeroOperator("the compound state has zero norm")
        denominator = math.prod(norms)
    overlap = np.vdot(np.multiply(psi[:, None], phi[None, :]).ravel(), state)
    return min(max(float(abs(overlap) ** 2) / denominator, 0.0), 1.0)


def chain_order_check(trace: CascadeTrace) -> bool:
    """Whether carriers weakly descend along each side's subchain.

    Each step's post-carrier must be contained in its pre-carrier, and
    consecutive steps on the same side must join up (the later pre-carrier
    contained in the earlier post-carrier). Zero-probability terminations
    descend trivially.
    """
    per_side: dict[int, list[CascadeStep]] = {}
    for step in trace.steps:
        per_side.setdefault(step.side, []).append(step)
    for steps in per_side.values():
        if not all(step.carrier_post.leq(step.carrier_pre) for step in steps):
            return False
        for earlier, later in zip(steps, steps[1:]):
            if not later.carrier_pre.leq(earlier.carrier_post):
                return False
    return True


def check_prop2(dim: int, trials: int, rng: np.random.Generator, rec) -> None:
    """Randomized checks that projective updates order proper states.

    Per trial: (i) states supported inside the updated property are fixed
    points; (ii) with commuting projectors and the state supported in b,
    updating by a keeps the carrier inside b; (iii) updating by a then by
    a nested a' equals updating by a' alone; and the carrier of an update
    equals the Sasaki projection of the carrier onto the property. Each
    check goes to ``rec``, a :class:`~compoundness.reporting.LawRecorder`.
    """
    for _ in range(trials):
        # (i) fixed point: carrier(rho) inside a
        a = random_subspace(rng, dim, rank=int(rng.integers(1, dim + 1)))
        rho = random_density_in(rng, a)
        updated = lueders(rho, a)
        gap = (np.linalg.norm(updated.matrix - rho.matrix)
               if updated is not None else np.inf)
        rec.check("fixed-point", gap, a=a.frame, rho=rho.matrix)

        # carrier bridge: carrier of the update is the Sasaki projection
        rho = random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
        a = random_subspace(rng, dim, rank=int(rng.integers(1, dim + 1)))
        p, updated = _update(rho, a)
        if p > 0.05:
            lhs = carrier(updated)
            rhs = sasaki_s(a, carrier(rho))
            gap = np.linalg.norm(lhs.projector() - rhs.projector())
            rec.check("carrier-bridge", gap, a=a.frame, rho=rho.matrix)

        # (ii) commuting compatibility: shared eigenbasis projectors
        basis = random_unitary(rng, dim)
        cols = rng.permutation(dim)
        nb = int(rng.integers(1, dim + 1))
        na = int(rng.integers(1, dim + 1))
        b = Subspace(basis[:, np.sort(cols[:nb])])
        a_cols = np.sort(rng.permutation(dim)[:na])
        a = Subspace(basis[:, a_cols])
        rho = random_density_in(rng, b)
        p, updated = _update(rho, a)
        if p > 0.05:
            moved = carrier(updated)
            gap = np.linalg.norm(
                (np.eye(dim) - b.projector()) @ moved.projector()
            )
            rec.check("commuting-stability", gap, a=a.frame, b=b.frame, rho=rho.matrix)

        # (iii) nested composition: a' inside a absorbs the outer update
        na = int(rng.integers(1, dim + 1))
        a = random_subspace(rng, dim, rank=na)
        a_inner = random_subspace_in(rng, a, rank=int(rng.integers(1, na + 1)))
        rho = random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
        p, once = _update(rho, a_inner)
        if p > 0.05:
            twice = lueders(lueders(rho, a), a_inner)
            gap = (np.linalg.norm(twice.matrix - once.matrix)
                   if once is not None and twice is not None else np.inf)
            rec.check("nested-composition", gap,
                      a=a.frame, a_inner=a_inner.frame, rho=rho.matrix)
