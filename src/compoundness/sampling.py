"""Seeded random generators for subspaces, states, and operators.

All functions take an explicit ``numpy.random.Generator`` so that every
randomized check in the package is reproducible from its seed.
"""

from __future__ import annotations

import numpy as np

from .density import DensityState, _normalized
from .hilbert import Subspace
from .operators import LINEAR, CompoundOperator, TensorVector


def complex_gaussian(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR with phase correction."""
    q, r = np.linalg.qr(complex_gaussian(rng, dim, dim))
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases.conj()


def random_state_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = complex_gaussian(rng, dim)
    return v / np.linalg.norm(v)


def random_subspace(rng: np.random.Generator, dim: int,
                    rank: int | None = None) -> Subspace:
    """Uniform random subspace; rank drawn from 0..dim when not given."""
    if rank is None:
        rank = int(rng.integers(0, dim + 1))
    if rank == 0:
        return Subspace.zero(dim)
    return Subspace(random_unitary(rng, dim)[:, :rank])


def random_subspace_in(rng: np.random.Generator, ambient: Subspace,
                       rank: int) -> Subspace:
    """Random subspace of dimension ``rank`` contained in ``ambient``."""
    if rank == 0:
        return Subspace.zero(ambient.ambient_dim, ambient.tol)
    mix = random_unitary(rng, ambient.dim)[:, :rank]
    return Subspace(ambient.frame @ mix, ambient.tol)


def random_nested_pair(rng: np.random.Generator, dim: int) -> tuple[Subspace, Subspace]:
    """A pair (inner, outer) with inner contained in outer, by extension."""
    frame = random_unitary(rng, dim)
    inner_rank = int(rng.integers(0, dim + 1))
    outer_rank = int(rng.integers(inner_rank, dim + 1))
    inner = Subspace(frame[:, :inner_rank]) if inner_rank else Subspace.zero(dim)
    outer = Subspace(frame[:, :outer_rank]) if outer_rank else Subspace.zero(dim)
    return inner, outer


def random_density(rng: np.random.Generator, dim: int,
                   rank: int | None = None) -> DensityState:
    """Random mixed state of the given rank (full rank by default)."""
    if rank is None:
        rank = dim
    g = complex_gaussian(rng, dim, rank)
    return _normalized(g @ g.conj().T)


def random_density_in(rng: np.random.Generator, support: Subspace) -> DensityState:
    """Random full-rank state on ``support``: its carrier lies inside it."""
    k = support.dim
    if k == 0:
        raise ValueError("cannot support a state on the zero subspace")
    g = complex_gaussian(rng, k, k)
    return _normalized(support.frame @ (g @ g.conj().T) @ support.frame.conj().T)


def random_operator(rng: np.random.Generator, dim_out: int, dim_in: int,
                    linearity: str = LINEAR) -> CompoundOperator:
    return CompoundOperator(complex_gaussian(rng, dim_out, dim_in), linearity)


def random_tensor_vector(rng: np.random.Generator, dim_left: int,
                         dim_right: int, terms: int) -> TensorVector:
    """Random coefficients over random orthonormal partial bases."""
    if terms > min(dim_left, dim_right):
        raise ValueError("cannot have more terms than the smaller dimension")
    left = random_unitary(rng, dim_left)[:, :terms]
    right = random_unitary(rng, dim_right)[:, :terms]
    return TensorVector(complex_gaussian(rng, terms), left, right)
