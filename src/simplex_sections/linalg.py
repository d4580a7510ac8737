"""Minimal dense linear algebra for ambient dimensions up to ~16.

Plain numpy arrays in, plain numpy arrays out.  Everything here is one
Householder QR, sign-fixed to the Gram-Schmidt basis, followed by column
pivoting on the complement projector (basis completion); the geometry
upstream never needs more than a 16x16 system, so there are no sparse or
blocked paths.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import RankDeficient

PIVOT_RTOL = 1e-10


def orthonormalize(vectors) -> np.ndarray:
    """Orthonormal rows spanning the linearly independent rows of `vectors`.

    One Householder QR with the signs chosen so that diag R > 0, which is
    the Gram-Schmidt basis: rows 0..i span the first i + 1 inputs.  Raises
    RankDeficient when |R_ii| falls below PIVOT_RTOL times the input scale.
    """
    a = np.array(vectors, dtype=float)
    m, dim = a.shape
    if m > dim:
        raise RankDeficient(f"{m} vectors cannot be independent in R^{dim}")
    scale = math.sqrt(np.einsum("ij,ij->i", a, a).max()) if m else 0.0
    if m and scale == 0.0:
        raise RankDeficient("all input vectors are zero")
    q, r = np.linalg.qr(a.T)
    d = np.diag(r)
    if np.any(np.abs(d) < PIVOT_RTOL * scale):
        raise RankDeficient(f"residual {np.min(np.abs(d)):.3e} below pivot threshold")
    return q.T * np.sign(d)[:, None]


def extend_to_orthonormal_basis(vectors, dim: int | None = None) -> list[np.ndarray]:
    """Complete linearly independent vectors to an orthonormal basis of R^dim.

    The first rows are `orthonormalize(vectors)`.  The remaining rows come
    from column pivoting on the complement projector W = I - QQ^T
    (Businger & Golub 1965): each step takes the column of largest norm,
    i.e. the standard basis vector with the largest residual (first index
    on ties), so the completion is deterministic.
    """
    m = len(vectors)
    if dim is None:
        dim = len(vectors[0])
    basis = np.empty((dim, dim))
    basis[:m] = orthonormalize(np.array(vectors, dtype=float).reshape(m, dim))
    w = np.eye(dim) - basis[:m].T @ basis[:m]
    for i in range(m, dim):
        # w projects onto a (dim - i)-dim space, so its largest column norm
        # is at least sqrt((dim - i) / dim) and the pivot never vanishes
        col_sq = np.einsum("ij,ij->j", w, w)
        j = int(np.argmax(col_sq))
        v = w[:, j] / math.sqrt(col_sq[j])
        w -= v[:, None] * (v @ w)
        basis[i] = v
    return list(basis)
