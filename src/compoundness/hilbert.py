"""Subspaces of finite-dimensional complex inner-product spaces.

The closed subspaces of a Hilbert space form an orthomodular lattice with
intersection as meet, span of the union as join, and the orthogonal
complement as orthocomplementation. This module realizes that lattice
numerically: a subspace is stored as an orthonormal frame plus a relative
tolerance that governs every rank decision and comparison.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BadBasis, BadShape, DimensionMismatch, NonFinite

DEFAULT_TOL = 1e-9


def _as_matrix(arr: np.ndarray) -> np.ndarray:
    """``arr`` with a vector made one column; BadShape unless it is then 2-D."""
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise BadShape(f"expected a matrix, got ndim={arr.ndim}")
    return arr


def _finite(arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFinite("matrix contains NaN or infinite entries")
    return arr


def _scaled(a: np.ndarray) -> np.ndarray:
    """``a`` times the power of two that brings its largest real or imaginary
    part into [1/2, 1); zero stays zero. Norms of the result neither
    underflow nor overflow, and the scaling is exact for every entry above
    2^-1022 times the largest."""
    x = np.ascontiguousarray(a, dtype=complex).view(float)
    return np.ldexp(x, -math.frexp(float(np.abs(x).max()))[1]).view(complex)


def _rank(s: np.ndarray, tol: float) -> int:
    """The number of descending values ``s`` above ``tol`` times the largest
    (0 when the largest is 0): the one rank rule of the Hilbert lattice."""
    return int(np.count_nonzero(s > tol * s[0]))


def _owned_matrix(a) -> np.ndarray:
    """A private, read-only copy of ``a``, shaped by ``_as_matrix``; entries unchecked."""
    arr = _as_matrix(np.array(a, dtype=complex, order="C"))
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace stored as an orthonormal frame.

    The zero subspace has a frame with zero columns, which keeps the
    orthonormality invariant meaningful. Containment is decided on projectors,
    within ``tol`` in Frobenius norm, and equality is containment both ways.
    The frame is a private, read-only copy of the array passed in, read once
    for dev = max|F^H F - I|. NaN or infinite entries, a tol not >= 0 (NaN
    too) or a bad dev fail that one test, and are then named in that order.
    """

    frame: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        frame = _owned_matrix(self.frame)
        object.__setattr__(self, "frame", frame)
        if frame.shape[1] == 1:
            dev = abs(np.vdot(frame, frame) - 1.0)
        else:
            with np.errstate(invalid="ignore", over="ignore"):  # non-finite: checked below
                gram = frame.conj().T @ frame
            gram.ravel()[:: gram.shape[0] + 1] -= 1.0  # the diagonal, through a view
            dev = np.abs(gram).max(initial=0.0)
        # never past DEFAULT_TOL, so that projector() is a projector at any tol
        if not (dev <= min(max(self.tol, 1e-12), DEFAULT_TOL) and self.tol >= 0):
            _finite(frame)
            if not self.tol >= 0:
                raise ValueError("tolerance must be nonnegative")
            raise BadBasis("frame columns are not orthonormal")

    @classmethod
    def zero(cls, ambient_dim: int, tol: float = DEFAULT_TOL) -> "Subspace":
        return cls(np.zeros((ambient_dim, 0), dtype=complex), tol)

    @classmethod
    def full(cls, ambient_dim: int, tol: float = DEFAULT_TOL) -> "Subspace":
        return cls(np.eye(ambient_dim, dtype=complex), tol)

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[0]

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of C^{self.ambient_dim})"

    def projector(self) -> np.ndarray:
        return self.frame @ self.frame.conj().T

    def leq(self, other: "Subspace") -> bool:
        """Containment: self is a subspace of other, within tolerance."""
        bound = _comparison_bound(self, other)
        p, q = self.projector(), other.projector()
        return bool(np.linalg.norm(q @ p - p) <= bound)

    def approx_equal(self, other: "Subspace") -> bool:
        """Equality: each subspace is contained in the other."""
        return self.leq(other) and other.leq(self)

    def perp(self, other: "Subspace") -> bool:
        """Whether the two subspaces are orthogonal."""
        bound = _comparison_bound(self, other)
        return bool(np.linalg.norm(self.frame.conj().T @ other.frame) <= bound)


def _shared_tol(a: Subspace, b: Subspace) -> float:
    """The larger tolerance of two subspaces of one space; DimensionMismatch otherwise."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"subspaces live in C^{a.ambient_dim} and C^{b.ambient_dim}"
        )
    return max(a.tol, b.tol)


def _comparison_bound(a: Subspace, b: Subspace) -> float:
    """The Frobenius-norm bound of ``leq`` and ``perp``:
    the pair's shared tolerance times max(1, ambient dimension)."""
    return _shared_tol(a, b) * max(1.0, a.ambient_dim)


def span(vectors, tol: float = DEFAULT_TOL) -> Subspace:
    """Orthonormalize the column span of ``vectors``.

    Rank is decided by :func:`_rank` on the singular values; an empty matrix
    spans the zero subspace. The matrix is first brought to unit scale by
    :func:`_scaled`, so that the largest singular value neither underflows
    nor overflows. One column needs no SVD: its norm s is its only singular
    value (a ray iff s > tol * s), finite exactly when every entry is. When
    s^2 is a normal float the column is used unscaled: a power of two cancels
    exactly in x / s, so the frame has the scaled path's bits.
    """
    arr = _as_matrix(np.asarray(vectors, dtype=complex))
    if arr.size == 0:
        return Subspace.zero(arr.shape[0], tol)
    if arr.shape[1] == 1:
        x = np.ascontiguousarray(arr)
        r = x.view(float)
        s2 = float(np.vdot(r, r))
        if not sys.float_info.min <= s2 < math.inf:
            x = _scaled(x)
            r = x.view(float)
            s2 = float(np.vdot(r, r))
        s = math.sqrt(s2)
        if not math.isfinite(s):
            raise NonFinite("matrix contains NaN or infinite entries")
        if not s > tol * s:
            return Subspace.zero(arr.shape[0], tol)
        return Subspace(x / s, tol)
    u, s, _ = np.linalg.svd(_finite(_scaled(arr)), full_matrices=False)
    return Subspace(u[:, :_rank(s, tol)], tol)


def ray(vector, tol: float = DEFAULT_TOL) -> Subspace:
    """The one-dimensional subspace spanned by a nonzero vector."""
    sub = span(vector, tol)
    if sub.dim != 1:
        raise BadShape("a ray needs exactly one independent nonzero vector")
    return sub


def projector(a: Subspace) -> np.ndarray:
    """Orthogonal projector onto ``a`` (Hermitian and idempotent)."""
    return a.projector()


def ortho_s(a: Subspace) -> Subspace:
    """Orthogonal complement."""
    n, r = a.frame.shape
    if r == 0:
        return Subspace.full(n, a.tol)
    if r == n:
        return Subspace.zero(n, a.tol)
    u, _, _ = np.linalg.svd(a.frame, full_matrices=True)
    return Subspace(u[:, r:], a.tol)


def join_s(a: Subspace, b: Subspace) -> Subspace:
    """Span of the union."""
    tol = _shared_tol(a, b)
    return span(np.hstack([a.frame, b.frame]), tol)


def meet_s(a: Subspace, b: Subspace) -> Subspace:
    """Intersection, from the null vectors Z = [X; Y] of the matrix [F_a F_b]
    that :func:`join_s` spans: each column gives F_a x = -F_b y.

    The rank of [F_a F_b] is decided once, by :func:`_rank` as in ``join_s``,
    so dim(a \\/ b) + dim(a /\\ b) = dim a + dim b (the meet is zero at full
    rank or rank 0). The frame is W = F_a X - F_b Y, column-normalized:
    W^H W = 2I - diag(s^2) for the singular values s of Z, so its columns
    are orthogonal and lie between a and b.
    """
    tol = _shared_tol(a, b)
    if not (a.dim and b.dim):
        return Subspace.zero(a.ambient_dim, tol)
    stacked = np.hstack([a.frame, b.frame])
    _, s, vh = np.linalg.svd(stacked)
    rank = _rank(s, tol)
    if rank in (0, stacked.shape[1]):
        return Subspace.zero(a.ambient_dim, tol)
    w = a.frame @ vh[rank:, :a.dim].conj().T - b.frame @ vh[rank:, a.dim:].conj().T
    return Subspace(w / np.linalg.norm(w, axis=0), tol)


def sasaki_s(a: Subspace, b: Subspace) -> Subspace:
    """Sasaki projection of ``b`` onto ``a``: the lattice formula a /\\ (b \\/ a')."""
    return meet_s(a, join_s(b, ortho_s(a)))
