"""Minimal dense linear algebra for ambient dimensions up to ~16.

Plain numpy arrays in, plain numpy arrays out.  Everything here is pivoted
elimination or classical Gram-Schmidt; the geometry upstream never needs
more than a 16x16 system, so there are no sparse or blocked paths.
"""
from __future__ import annotations

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
    """Complete an (orthonormalized) set of vectors to a full basis of R^dim.

    Greedy: repeatedly appends the standard basis vector with the largest
    residual, so the result is deterministic.
    """
    basis = gram_schmidt(vectors) if len(list(vectors)) else []
    if dim is None:
        dim = len(basis[0])
    while len(basis) < dim:
        best, best_res = None, -1.0
        for j in range(dim):
            w = np.zeros(dim)
            w[j] = 1.0
            for q in basis:
                w -= (q @ w) * q
            res = float(np.linalg.norm(w))
            if res > best_res:
                best, best_res = w, res
        if best_res < PIVOT_RTOL:
            raise RankDeficient("cannot extend basis")
        for q in basis:
            best -= (q @ best) * q
        basis.append(best / np.linalg.norm(best))
    return basis


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
