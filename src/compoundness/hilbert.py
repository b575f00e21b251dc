"""Subspaces of finite-dimensional complex inner-product spaces.

The closed subspaces of a Hilbert space form an orthomodular lattice with
intersection as meet, span of the union as join, and the orthogonal
complement as orthocomplementation. This module realizes that lattice
numerically: a subspace is stored as an orthonormal frame plus a relative
tolerance that governs every rank decision and comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadBasis,
    BadShape,
    CrossCheckFailed,
    DimensionMismatch,
    NonFinite,
)

DEFAULT_TOL = 1e-9


def _as_complex_matrix(a) -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise BadShape(f"expected a matrix, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise NonFinite("matrix contains NaN or infinite entries")
    return arr


def _owned_matrix(a) -> np.ndarray:
    """A private, read-only copy of ``a``, checked as by ``_as_complex_matrix``."""
    arr = _as_complex_matrix(np.array(a, dtype=complex, order="C"))
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace stored as an orthonormal frame.

    The zero subspace has a frame with zero columns, which keeps the
    orthonormality invariant meaningful. Equality and containment are
    decided on projectors, within ``tol`` in Frobenius norm. The frame is
    a private, read-only copy of the array passed in.
    """

    frame: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        frame = _owned_matrix(self.frame)
        object.__setattr__(self, "frame", frame)
        if self.tol < 0:
            raise ValueError("tolerance must be nonnegative")
        gram = frame.conj().T @ frame
        gram.flat[:: gram.shape[0] + 1] -= 1.0
        if gram.shape[0] and np.abs(gram).max() > max(self.tol, 1e-12):
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
        tol = _shared_tol(self, other)
        p, q = self.projector(), other.projector()
        return bool(np.linalg.norm(q @ p - p) <= tol * max(1.0, self.ambient_dim))

    def approx_equal(self, other: "Subspace") -> bool:
        tol = _shared_tol(self, other)
        return bool(
            np.linalg.norm(self.projector() - other.projector())
            <= tol * max(1.0, self.ambient_dim)
        )

    def perp(self, other: "Subspace") -> bool:
        """Whether the two subspaces are orthogonal."""
        tol = _shared_tol(self, other)
        return bool(
            np.linalg.norm(self.frame.conj().T @ other.frame)
            <= tol * max(1.0, self.ambient_dim)
        )


def _shared_tol(a: Subspace, b: Subspace) -> float:
    """The larger tolerance of two subspaces of one space; DimensionMismatch otherwise."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"subspaces live in C^{a.ambient_dim} and C^{b.ambient_dim}"
        )
    return max(a.tol, b.tol)


def span(vectors, tol: float = DEFAULT_TOL) -> Subspace:
    """Orthonormalize the column span of ``vectors``.

    Rank is the number of singular values above ``tol`` times the largest
    one; an empty matrix spans the zero subspace. The matrix is first scaled
    by a power of two from its largest real or imaginary part, so that the
    largest singular value neither underflows nor overflows. One column
    needs no SVD: its norm s is its only singular value (a ray iff s > tol * s).
    """
    arr = _as_complex_matrix(vectors)
    if arr.size == 0:
        return Subspace.zero(arr.shape[0], tol)
    x = np.ascontiguousarray(arr).view(float)
    x = np.ldexp(x, -math.frexp(float(np.abs(x).max()))[1])
    if arr.shape[1] == 1:
        s = math.sqrt(np.vdot(x, x))
        if not s > tol * s:
            return Subspace.zero(arr.shape[0], tol)
        return Subspace(x.view(complex) / s, tol)
    u, s, _ = np.linalg.svd(x.view(complex), full_matrices=False)
    if s[0] <= 0.0:
        return Subspace.zero(arr.shape[0], tol)
    rank = int(np.sum(s > tol * s[0]))
    return Subspace(u[:, :rank], tol)


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
    """Intersection, computed as the kernel of (I - P_a) + (I - P_b)."""
    tol = _shared_tol(a, b)
    n = a.ambient_dim
    m = 2.0 * np.eye(n) - a.projector() - b.projector()
    w, v = np.linalg.eigh(m)
    cutoff = tol * max(1.0, float(w[-1])) if w.size else tol
    keep = w < cutoff
    if not keep.any():
        return Subspace.zero(n, tol)
    return Subspace(v[:, keep], tol)


def _sasaki_sides(a: Subspace, b: Subspace) -> tuple[Subspace, Subspace]:
    """The two sides of :func:`sasaki_s`'s cross-check: (formula, image)."""
    tol = _shared_tol(a, b)
    return meet_s(a, join_s(b, ortho_s(a))), span(a.projector() @ b.frame, tol)


def sasaki_s(a: Subspace, b: Subspace) -> Subspace:
    """Sasaki projection of ``b`` onto ``a``, cross-checked two ways.

    The lattice formula a /\\ (b \\/ a') and the image of b's frame under
    the projector onto a must agree within tolerance; disagreement raises
    CrossCheckFailed, signalling a tolerance problem.
    """
    by_formula, by_image = _sasaki_sides(a, b)
    if not by_formula.approx_equal(by_image):
        gap = np.linalg.norm(by_formula.projector() - by_image.projector())
        raise CrossCheckFailed(
            f"sasaki formula and projector image disagree by {gap:.3e}"
        )
    return by_image
