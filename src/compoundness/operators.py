"""Linear and anti-linear operators as atomic states of compoundness.

An operator F from H1 to H2 encodes how atoms (rays) of the first space
induce atoms of the second: the induced subspace map sends A to the span
of F applied to a frame of A. Operators correspond to coefficient vectors
over paired orthonormal bases; the linear flag pairs with the dual-space
form <psi_i|-> and the anti-linear flag with the <-|psi_i> form, and the
Hilbert-Schmidt norm of the operator equals the norm of the coefficients.

An anti-linear operator is stored as (matrix, flag) and acts as
``matrix @ conj(vector)``. Note that at the subspace level conjugation is
invisible only on subspaces with real-coefficient frames; on a general
complex subspace the anti-linear action spans M @ conj(frame), which can
differ from the linear action with the same matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .density import DensityState, _normalized
from .errors import (
    BadBasis,
    BadShape,
    DimensionMismatch,
    MixedSignatures,
    NonFinite,
    ZeroOperator,
)
from .hilbert import DEFAULT_TOL, Subspace, _finite, _owned_matrix, _scaled, span

LINEAR = "linear"
ANTILINEAR = "antilinear"


@dataclass(frozen=True, eq=False)
class CompoundOperator:
    """A linear or anti-linear map between two finite-dimensional spaces.

    Holds a private, read-only copy of the matrix, so values derived from it
    can be kept: :attr:`plan` and the last head of
    :func:`~compoundness.cascade.run_cascade`.
    """

    matrix: np.ndarray
    linearity: str = LINEAR

    def __post_init__(self) -> None:
        m = _finite(_owned_matrix(self.matrix))
        object.__setattr__(self, "matrix", m)
        if self.linearity not in (LINEAR, ANTILINEAR):
            raise ValueError(f"linearity must be {LINEAR!r} or {ANTILINEAR!r}")

    @cached_property
    def plan(self) -> "Quadruple":
        """``quadruple(self)``, computed once per operator."""
        return quadruple(self)

    @property
    def dim_in(self) -> int:
        return self.matrix.shape[1]

    @property
    def dim_out(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"CompoundOperator({self.dim_in}->{self.dim_out}, {self.linearity})"

    def is_zero(self) -> bool:
        return not self.matrix.any()

    def _act(self, x: np.ndarray) -> np.ndarray:
        """``matrix @ x``, with ``x`` conjugated first when anti-linear."""
        return self.matrix @ (x.conj() if self.linearity == ANTILINEAR else x)

    def apply(self, vector) -> np.ndarray:
        """Apply to a vector; anti-linear operators conjugate first."""
        v = np.asarray(vector, dtype=complex).reshape(-1)
        if v.shape[0] != self.dim_in:
            raise BadShape(f"vector has length {v.shape[0]}, expected {self.dim_in}")
        return self._act(v)

    def compose(self, inner: "CompoundOperator") -> "CompoundOperator":
        """self o inner. Two anti-linear factors make a linear composite."""
        if inner.dim_out != self.dim_in:
            raise DimensionMismatch(
                f"cannot compose {self.dim_in}->{self.dim_out} after "
                f"{inner.dim_in}->{inner.dim_out}"
            )
        flag = LINEAR if self.linearity == inner.linearity else ANTILINEAR
        return CompoundOperator(self._act(inner.matrix), flag)

    def adjoint(self) -> "CompoundOperator":
        """Adjoint with the same linearity flag.

        Linear: <phi, F psi> = <F' phi, psi>. Anti-linear: the pairing
        swaps, <phi, F psi> = <psi, F' phi>, which makes the adjoint
        matrix the plain transpose.
        """
        if self.linearity == LINEAR:
            return CompoundOperator(self.matrix.conj().T, LINEAR)
        return CompoundOperator(self.matrix.T, ANTILINEAR)


def induced_map(op: CompoundOperator) -> Callable[[Subspace], Subspace]:
    """The subspace map A -> span(F applied to a frame of A).

    Sends the zero subspace to the zero subspace, rays to rays or zero,
    and preserves joins.
    """

    def act(a: Subspace) -> Subspace:
        if a.ambient_dim != op.dim_in:
            raise DimensionMismatch(
                f"subspace lives in C^{a.ambient_dim}, operator expects C^{op.dim_in}"
            )
        return span(op._act(a.frame), a.tol)

    return act


@dataclass(frozen=True, eq=False)
class TensorVector:
    """Coefficients over a pair of orthonormal bases, one per side.

    Holds private, read-only copies of the three arrays, so the compound
    vector :attr:`_state` can be kept. Each basis must be a frame in the
    sense of :class:`~compoundness.hilbert.Subspace`, which raises BadBasis.
    """

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.coefficients, dtype=complex).reshape(-1)
        c.setflags(write=False)
        left = Subspace(self.left_basis).frame
        right = Subspace(self.right_basis).frame
        if left.shape[1] != c.shape[0] or right.shape[1] != c.shape[0]:
            raise BadBasis(
                f"{c.shape[0]} coefficients need bases with that many columns, "
                f"got {left.shape[1]} and {right.shape[1]}"
            )
        if not np.isfinite(c).all():
            raise NonFinite("coefficients contain NaN or infinite entries")
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "left_basis", left)
        object.__setattr__(self, "right_basis", right)

    @property
    def terms(self) -> int:
        return self.coefficients.shape[0]

    @cached_property
    def _state(self) -> np.ndarray:
        """sum_i c_i psi_i x phi_i in C^(d1 d2), built once by explicit Kronecker products."""
        state = np.zeros(self.left_basis.shape[0] * self.right_basis.shape[0], dtype=complex)
        for i in range(self.terms):
            state += self.coefficients[i] * np.kron(self.left_basis[:, i], self.right_basis[:, i])
        state.setflags(write=False)
        return state

    @cached_property
    def _state_norm2(self) -> float:
        """The squared norm of :attr:`_state`, computed once."""
        return float(np.vdot(self._state, self._state).real)

    def __repr__(self) -> str:
        return (
            f"TensorVector({self.terms} terms, "
            f"C^{self.left_basis.shape[0]} x C^{self.right_basis.shape[0]})"
        )


def from_tensor(tv: TensorVector, linearity: str) -> CompoundOperator:
    """Build the operator sum of c_i times the rank-one term pairing the
    i-th left basis vector with the i-th right basis vector.

    The linear flag uses the dual-space pairing <psi_i|->; the anti-linear
    flag uses <-|psi_i>, so the operator acts on conjugated input.
    """
    left = tv.left_basis.conj() if linearity == LINEAR else tv.left_basis
    return CompoundOperator((tv.right_basis * tv.coefficients) @ left.T, linearity)


def to_tensor(op: CompoundOperator, left_basis, right_basis) -> TensorVector:
    """Read coefficients of ``op`` off a pair of orthonormal bases.

    The bases must diagonalize the operator (a Schmidt pair); otherwise
    the single-index form cannot represent it and BadBasis is raised. The
    residual is measured relative to the norm of ``op``, with both brought
    to unit scale by one power of two, so ``op`` and any nonzero multiple
    of it are decided alike. Round-trips with :func:`from_tensor` in the
    same bases.
    """
    left = Subspace(left_basis).frame
    right = Subspace(right_basis).frame
    if left.shape[1] != right.shape[1]:
        raise BadBasis("left and right bases must have the same number of columns")
    if left.shape[0] != op.dim_in or right.shape[0] != op.dim_out:
        raise BadBasis(
            f"bases of shape {left.shape} and {right.shape} do not fit a "
            f"{op.dim_in}->{op.dim_out} operator"
        )
    source = left.conj() if op.linearity == ANTILINEAR else left
    coeff_matrix = right.conj().T @ op.matrix @ source
    c = np.diagonal(coeff_matrix).copy()
    tv = TensorVector(c, left, right)
    diff, m = _scaled(np.array([from_tensor(tv, op.linearity).matrix - op.matrix,
                                op.matrix]))
    residual, norm = np.linalg.norm(diff), np.linalg.norm(m)
    if residual > DEFAULT_TOL * norm:
        raise BadBasis(
            f"operator is not diagonal over the given bases "
            f"(relative residual {residual / norm:.3e})"
        )
    return tv


def schmidt_tensor(op: CompoundOperator) -> TensorVector:
    """Canonical coefficient form of any operator via singular values.

    The bases are the singular vector pairs, so the coefficients are the
    (nonnegative) singular values; zero singular values are kept to match
    the smaller dimension.
    """
    u, s, vh = np.linalg.svd(op.matrix, full_matrices=False)
    left = vh.conj().T if op.linearity == LINEAR else vh.T
    return TensorVector(s.astype(complex), left, u)


def hs_norm(op: CompoundOperator) -> float:
    """Hilbert-Schmidt norm; equals the 2-norm of any coefficient form."""
    return float(np.linalg.norm(op.matrix))


class Quadruple(NamedTuple):
    """An operator state with both reduced proper states and its adjoint."""

    f12: CompoundOperator
    rho1: DensityState
    rho2: DensityState
    f21: CompoundOperator


def quadruple(op: CompoundOperator) -> Quadruple:
    """Unpack an operator state into (F, F'F/Tr, FF'/Tr, F').

    The two middle entries are the trace-normalized reduced proper states
    of the two sides, formed from F brought to unit scale by a power of two:
    valid density operators for every nonzero multiple of F, equal within rounding.
    """
    if op.is_zero():
        raise ZeroOperator("the zero operator has no associated proper states")
    u = _scaled(op.matrix)
    h = u.conj().T
    left = h @ u if op.linearity == LINEAR else u.T @ u.conj()
    return Quadruple(op, _normalized(left), _normalized(u @ h), op.adjoint())


@dataclass(frozen=True)
class AtomicityReport:
    """Outcome of sampling two operators' induced maps on random rays.

    ``ordered_on_samples``: the first map stayed below the second on every
    sampled ray. ``equal_on_samples``: they agreed on every sampled ray.
    ``witness`` is the first ray where they differed, if any. A strictly
    ordered, unequal, nonzero first map would contradict atomicity of
    ray-preserving maps; ``consistent`` records that no such configuration
    was observed.
    """

    samples: int
    ordered_on_samples: bool
    equal_on_samples: bool
    zero_operator: bool
    witness: np.ndarray | None

    @property
    def consistent(self) -> bool:
        return self.zero_operator or self.equal_on_samples or not self.ordered_on_samples


def atomicity_probe(f_op: CompoundOperator, g_op: CompoundOperator, ray_samples: int,
                    rng: np.random.Generator) -> AtomicityReport:
    """Sample rays and compare the induced maps of two operators.

    Checks, ray by ray, whether span(F v) is contained in span(G v) by
    :meth:`~compoundness.hilbert.Subspace.leq`, and whether the two spans
    are equal: ordered and of the same dimension. A nonzero F that stays
    strictly below G on the samples would be a counterexample to
    atomicity; the report says whether the samples are consistent with
    there being none. ``span`` brings each image to unit scale, so F and G
    may be replaced by any nonzero multiples without changing the report.
    """
    if f_op.matrix.shape != g_op.matrix.shape or f_op.linearity != g_op.linearity:
        raise MixedSignatures("operators must share shape and linearity")

    ordered = True
    equal = True
    witness = None
    dim = f_op.dim_in
    for _ in range(ray_samples):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        fv, gv = span(f_op._act(v)), span(g_op._act(v))
        ray_ordered = fv.leq(gv)
        ray_equal = ray_ordered and fv.dim == gv.dim
        if not ray_equal and witness is None:
            witness = v
        equal = equal and ray_equal
        ordered = ordered and ray_ordered
    return AtomicityReport(
        samples=ray_samples,
        ordered_on_samples=ordered,
        equal_on_samples=equal,
        zero_operator=bool(f_op.is_zero()),
        witness=witness,
    )
