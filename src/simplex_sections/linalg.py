"""Minimal dense linear algebra for ambient dimensions up to ~16.

Plain numpy arrays in, plain numpy arrays out.  Everything here is one
Householder QR, sign-fixed to the Gram-Schmidt basis, followed by column
pivoting on the complement projector (basis completion), on one matrix or
a stack of them; the geometry upstream never needs more than a 16x16
system, so there are no sparse or blocked paths.
"""
from __future__ import annotations

import numpy as np

from .errors import RankDeficient

PIVOT_RTOL = 1e-10


def orthonormalize(vectors) -> np.ndarray:
    """Orthonormal rows spanning the linearly independent rows of `vectors`.

    One Householder QR with the signs chosen so that diag R > 0, which is
    the Gram-Schmidt basis: rows 0..i span the first i + 1 inputs.  Raises
    RankDeficient when |R_ii| falls below PIVOT_RTOL times the input scale.
    A (T, m, dim) stack is orthonormalized matrix by matrix in one call.
    """
    a = np.array(vectors, dtype=float)
    m, dim = a.shape[-2:]
    if m > dim:
        raise RankDeficient(f"{m} vectors cannot be independent in R^{dim}")
    scale = np.sqrt(np.einsum("...ij,...ij->...i", a, a).max(axis=-1, initial=0.0))
    if m and not scale.all():
        raise RankDeficient("all input vectors are zero")
    q, r = np.linalg.qr(a.swapaxes(-1, -2))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    if (np.abs(d) < PIVOT_RTOL * scale[..., None]).any():
        raise RankDeficient(f"residual {np.min(np.abs(d)):.3e} below pivot threshold")
    return q.swapaxes(-1, -2) * np.sign(d)[..., None]


def orthonormal_completions(q: np.ndarray) -> np.ndarray:
    """(T, dim - m, dim): the rows completing each (m, dim) matrix of
    orthonormal rows in the stack `q` to an orthonormal basis of R^dim.

    Column pivoting on the complement projector W = I - Q^T Q (Businger &
    Golub 1965): each step takes the column of largest norm, i.e. the
    standard basis vector with the largest residual (first index on ties),
    so the completion is deterministic.  Every product is a stacked matmul,
    so each matrix of the stack rounds as it would alone.
    """
    t, m, dim = q.shape
    rows = np.arange(t)
    w = np.eye(dim) - q.swapaxes(1, 2) @ q
    out = np.empty((t, dim - m, dim))
    for i in range(dim - m):
        # w projects onto a (dim - m - i)-dim space, so its largest column
        # norm is at least sqrt((dim - m - i) / dim) and the pivot never vanishes
        col_sq = (w * w).sum(axis=1)
        j = col_sq.argmax(axis=1)
        v = w[rows, :, j] / np.sqrt(col_sq[rows, j])[:, None]
        w -= v[:, :, None] * (v[:, None, :] @ w)
        out[:, i] = v
    return out


def extend_to_orthonormal_basis(vectors, dim: int | None = None) -> list[np.ndarray]:
    """Complete linearly independent vectors to an orthonormal basis of R^dim.

    The first rows are `orthonormalize(vectors)`, the rest their
    `orthonormal_completions`.
    """
    m = len(vectors)
    if dim is None:
        dim = len(vectors[0])
    q = orthonormalize(np.array(vectors, dtype=float).reshape(m, dim))
    return list(np.concatenate([q, orthonormal_completions(q[None])[0]]))
