"""Orthonormal bases of H-perp for the subspaces H that cut the simplex."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import OutOfRange

ORTHO_TOL = 1e-11


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of the orthogonal complement of a k-dim subspace H.

    `vectors` has one row per complement direction, so codim = rows and
    k = n + 1 - codim.  All section formulas are phrased in terms of this
    complement basis.
    """

    n: int
    vectors: np.ndarray  # shape (codim, n+1), rows orthonormal

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[1] != self.n + 1:
            raise ValueError("basis rows must live in R^(n+1)")
        g = v @ v.T
        if np.max(np.abs(g - np.eye(v.shape[0]))) > ORTHO_TOL:
            raise ValueError("rows are not orthonormal within tolerance")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def codim(self) -> int:
        return self.vectors.shape[0]

    @property
    def k(self) -> int:
        return self.n + 1 - self.codim

    def sum_squares(self) -> float:
        """Sum over basis rows of (coordinate sum)^2."""
        sums = self.vectors.sum(axis=1)
        return float(sums @ sums)

    def h_basis(self) -> np.ndarray:
        """Orthonormal basis of H itself (rows), by completing this one."""
        full = linalg.extend_to_orthonormal_basis(list(self.vectors), self.n + 1)
        return np.array(full[self.codim:])

    def vertex_distances_sq(self) -> np.ndarray:
        """dist(H, e_j)^2 for every vertex e_j, via the projector identity."""
        return np.sum(self.vectors**2, axis=0)


def basis_from_rows(rows, orthonormalize: bool = True) -> SubspaceBasis:
    """Build a SubspaceBasis from spanning rows of H-perp."""
    rows = [np.asarray(r, dtype=float).ravel() for r in rows]
    if not rows:
        raise ValueError("need at least one row")
    n = len(rows[0]) - 1
    if orthonormalize:
        rows = linalg.gram_schmidt(rows)
    return SubspaceBasis(n=n, vectors=np.array(rows))


def hyperplane_basis(normal) -> SubspaceBasis:
    """Codimension-1 basis from a single normal vector."""
    v = np.asarray(normal, dtype=float).ravel()
    return basis_from_rows([v])


def complement_of_span(spanning) -> SubspaceBasis:
    """Basis of H-perp for H given by a spanning set of vectors.

    Raises RankDeficient when the spanning vectors are linearly dependent.
    """
    spanning = np.asarray(spanning, dtype=float)
    m = len(spanning)
    full = linalg.extend_to_orthonormal_basis(spanning.reshape(m, -1))
    return SubspaceBasis(n=len(full) - 1, vectors=np.array(full[m:]))


def random_subspace_through_centroid(n: int, k: int, rng: np.random.Generator) -> SubspaceBasis:
    """H-perp basis of a random k-dim subspace containing the centroid.

    A Gaussian matrix conditioned to contain the all-ones direction, then
    orthonormalized; the fiber through the centroid is sampled
    rotation-invariantly.
    """
    if not (1 <= k <= n):
        raise OutOfRange(f"k={k} outside 1..{n}")
    cols = np.vstack([np.ones(n + 1) / np.sqrt(n + 1.0), rng.standard_normal((k - 1, n + 1))])
    return complement_of_span(cols)
