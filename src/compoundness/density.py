"""Density operators as proper states, carriers, and projective updates.

A proper state of one part of a compound system is a density operator;
its carrier (the range of the operator) is the strongest property that is
actual in that state. The projective update implements the minimal
disturbance transition onto a measured or induced property.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadShape, DimensionMismatch, NotADensity, ZeroVector
from .hilbert import DEFAULT_TOL, Subspace, _finite, _owned_matrix, _rank, span

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

# Outcomes with probability at or below this cutoff count as orthogonal
# (empty) outcomes. Kept well under DEFAULT_TOL so that truncated branches
# never move probability sums by more than the advertised 1e-9.
ORTHOGONAL_CUTOFF = 1e-12


@dataclass(frozen=True, eq=False)
class DensityState:
    """A validated density operator: Hermitian, PSD, unit trace.

    Holds a private, read-only copy of the matrix. Validation reads |M - M^H|
    by one ``np.vdot`` against half its tolerance, and the trace; if either
    fails, it checks entries, shape, Hermitian norm and trace in that order.
    Then it reads the eigenvalues; :func:`carrier` decomposes it on first read.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _owned_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite: named below
            d = m - m.conj().T if m.shape[0] == m.shape[1] else None
        if d is None or not (np.vdot(d, d).real <= HERMITIAN_TOL**2 / 4
                             and abs(m.trace().real - 1.0) <= TRACE_TOL):
            _finite(m)
            if d is None:
                raise BadShape(f"density operator must be square, got {m.shape}")
            if np.linalg.norm(d) > HERMITIAN_TOL:
                raise NotADensity("density operator is not Hermitian within 1e-12")
            trace = float(np.trace(m).real)
            if abs(trace - 1.0) > TRACE_TOL:
                raise NotADensity(f"density operator has trace {trace}, expected 1")
        if float(np.linalg.eigvalsh(m)[0]) < EIGENVALUE_FLOOR:
            raise NotADensity("density operator has a significantly negative eigenvalue")

    @classmethod
    def pure(cls, vector) -> "DensityState":
        """The projector onto span(vector), which must be a ray."""
        f = span(np.asarray(vector, dtype=complex).reshape(-1)).frame
        if not f.shape[1]:
            raise ZeroVector("cannot build a pure state from the zero vector")
        return cls(f @ f.conj().T)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityState":
        return cls(np.eye(dim, dtype=complex) / dim)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"DensityState(dim {self.dim})"

    @cached_property
    def _carrier(self) -> Subspace:
        # the trace is 1 within TRACE_TOL, so the top eigenvalue is near 1/dim or above
        w, v = np.linalg.eigh(self.matrix)
        return Subspace(v[:, w.size - _rank(w[::-1], DEFAULT_TOL):])


def _normalized(m: np.ndarray) -> DensityState:
    """The Hermitian part of ``m`` scaled to unit trace; ``m`` is overwritten."""
    m += m.conj().T
    m /= 2.0
    return DensityState(m / float(np.trace(m).real))


def carrier(rho: DensityState) -> Subspace:
    """The range of ``rho``: its strongest actual property.

    Spanned by the eigenvectors whose eigenvalues exceed ``DEFAULT_TOL``
    relative to the largest one. Computed once per state, on first read.
    """
    return rho._carrier


def _frame_in(rho: DensityState, a: Subspace) -> np.ndarray:
    """The frame of ``a``, which must live in the space of ``rho``."""
    if a.ambient_dim != rho.dim:
        raise DimensionMismatch(f"property lives in C^{a.ambient_dim}, state in C^{rho.dim}")
    return a.frame


def transition_probability(rho: DensityState, a: Subspace) -> float:
    """Probability of the outcome ``a``: Tr(P_a rho), clipped to [0, 1].

    Computed as Re <F, rho F> = Tr(F^H rho F) for the orthonormal frame F
    of ``a`` (one ``np.vdot``), which equals Tr(P_a rho) since P_a = F F^H.
    """
    f = _frame_in(rho, a)
    return min(max(float(np.vdot(f, rho.matrix @ f).real), 0.0), 1.0)


def _update(rho: DensityState, a: Subspace) -> tuple[float, DensityState | None]:
    """(Tr(P_a rho), the update :func:`lueders` gives), both from K = F^H rho F."""
    f = _frame_in(rho, a)
    k = f.conj().T @ rho.matrix @ f
    p = min(max(float(k.trace().real), 0.0), 1.0)
    if p <= ORTHOGONAL_CUTOFF:
        return p, None
    return p, _normalized(f @ k @ f.conj().T)


def lueders(rho: DensityState, a: Subspace) -> DensityState | None:
    """Projective update of ``rho`` onto ``a``.

    Returns None when the outcome is (numerically) orthogonal, i.e. when
    Tr(P_a rho) <= ORTHOGONAL_CUTOFF; otherwise P_a rho P_a renormalized.
    P_a rho P_a is computed in the frame F of ``a`` as F (F^H rho F) F^H,
    which costs O(n^2 r) for a rank-r property instead of two n x n
    products; the result is validated as every ``DensityState`` is. The
    carrier of the result is always contained in ``a``.
    """
    return _update(rho, a)[1]
