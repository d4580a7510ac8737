"""Minimal dense linear algebra for ambient dimensions up to ~16.

Plain numpy arrays in, plain numpy arrays out.  Everything here is pivoted
elimination, classical Gram-Schmidt, or a Householder QR followed by
column pivoting on the complement projector (basis completion); the
geometry upstream never needs more than a 16x16 system, so there are no
sparse or blocked paths.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import RankDeficient

PIVOT_RTOL = 1e-10


def gram_schmidt(vectors) -> list[np.ndarray]:
    """Orthonormalize a list of linearly independent vectors.

    Classical Gram-Schmidt with a second orthogonalization pass, which keeps
    Q^T Q - I below ~1e-14 even for nearly dependent inputs at sweep
    endpoints.  Raises RankDeficient when a residual norm falls below
    PIVOT_RTOL times the input scale.
    """
    vs = [np.asarray(v, dtype=float).ravel() for v in vectors]
    if not vs:
        return []
    scale = max(float(np.linalg.norm(v)) for v in vs)
    if scale == 0.0:
        raise RankDeficient("all input vectors are zero")
    basis: list[np.ndarray] = []
    for v in vs:
        w = v.copy()
        for _ in range(2):
            for q in basis:
                w -= (q @ w) * q
        norm = float(np.linalg.norm(w))
        if norm < PIVOT_RTOL * scale:
            raise RankDeficient(f"vector residual {norm:.3e} below pivot threshold")
        basis.append(w / norm)
    return basis


def extend_to_orthonormal_basis(vectors, dim: int | None = None) -> list[np.ndarray]:
    """Complete linearly independent vectors to an orthonormal basis of R^dim.

    The first rows orthonormalize the inputs in order: one Householder QR
    with the signs chosen so that diag R > 0, which is the Gram-Schmidt
    basis.  Raises RankDeficient when |R_ii| falls below PIVOT_RTOL times
    the input scale, the criterion of gram_schmidt.  The remaining rows come
    from column pivoting on the complement projector W = I - QQ^T
    (Businger & Golub 1965): each step takes the column of largest norm,
    i.e. the standard basis vector with the largest residual (first index
    on ties), so the completion is deterministic.
    """
    m = len(vectors)
    if dim is None:
        dim = len(vectors[0])
    a = np.array(vectors, dtype=float).reshape(m, dim)
    if m > dim:
        raise RankDeficient(f"{m} vectors cannot be independent in R^{dim}")
    scale = math.sqrt(np.einsum("ij,ij->i", a, a).max()) if m else 0.0
    if m and scale == 0.0:
        raise RankDeficient("all input vectors are zero")
    q, r = np.linalg.qr(a.T)
    d = np.diag(r)
    if np.any(np.abs(d) < PIVOT_RTOL * scale):
        raise RankDeficient(f"residual {np.min(np.abs(d)):.3e} below pivot threshold")
    basis = np.empty((dim, dim))
    basis[:m] = q.T * np.sign(d)[:, None]
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


def _pivoted_elimination(A: np.ndarray):
    """Row-reduce A with partial pivoting.

    Returns (U, sign, colscale) where U is upper triangular.
    """
    U = np.array(A, dtype=float)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError("square matrix required")
    m = U.shape[0]
    colscale = float(np.max(np.abs(U))) if U.size else 0.0
    sign = 1.0
    for col in range(m):
        piv = col + int(np.argmax(np.abs(U[col:, col])))
        if piv != col:
            U[[col, piv]] = U[[piv, col]]
            sign = -sign
        p = U[col, col]
        if p == 0.0:
            continue
        rows = slice(col + 1, m)
        factors = U[rows, col] / p
        U[rows, col:] -= np.outer(factors, U[col, col:])
        U[rows, col] = 0.0
    return U, sign, colscale


def det(A) -> float:
    """Determinant via pivoted elimination.  Zero is a valid answer."""
    U, sign, scale = _pivoted_elimination(A)
    if scale == 0.0:
        return 0.0
    d = sign
    for p in np.diag(U):
        d *= p
    return float(d)


def rank(points: np.ndarray, tol: float = 1e-8) -> int:
    """Numerical rank of a stack of row vectors, relative SVD threshold."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        return 0
    s = np.linalg.svd(pts, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))
