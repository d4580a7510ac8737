import math

import numpy as np
import pytest

from simplex_sections import subspaces
from simplex_sections.errors import RankDeficient


def test_basis_orthonormal_validation():
    with pytest.raises(ValueError):
        subspaces.SubspaceBasis(n=3, vectors=np.array([[1.0, 1.0, 0.0, 0.0]]))


def test_basis_from_rows_orthonormalizes():
    b = subspaces.basis_from_rows([[1, 1, 0, 0], [1, 0, 1, 0]])
    g = b.vectors @ b.vectors.T
    assert np.max(np.abs(g - np.eye(2))) < 1e-12
    assert b.codim == 2 and b.k == 2


def test_hyperplane_basis():
    b = subspaces.hyperplane_basis([3.0, 0.0, -4.0, 0.0])
    assert b.codim == 1
    assert np.allclose(b.vectors[0], [0.6, 0.0, -0.8, 0.0])


def test_complement_roundtrip():
    rng = np.random.default_rng(0)
    span = rng.standard_normal((3, 7))
    b = subspaces.complement_of_span(span)
    assert b.codim == 4
    # complement rows are orthogonal to the original span
    assert np.max(np.abs(b.vectors @ span.T)) < 1e-10


def test_complement_of_dependent_span_raises():
    with pytest.raises(RankDeficient):
        subspaces.complement_of_span([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0],
                                      [1.0, 1.0, 1.0, 1.0]])


def test_h_basis_spans_h():
    rng = np.random.default_rng(1)
    b = subspaces.random_subspace_through_centroid(5, 3, rng)
    h = b.h_basis()
    assert h.shape == (3, 6)
    assert np.max(np.abs(h @ b.vectors.T)) < 1e-10
    # H contains the centroid direction
    ones = np.ones(6) / math.sqrt(6)
    resid = ones - h.T @ (h @ ones)
    assert np.linalg.norm(resid) < 1e-10


def test_vertex_distances():
    b = subspaces.complement_of_span([np.eye(4)[2], np.eye(4)[3]])
    d2 = b.vertex_distances_sq()
    assert np.allclose(d2, [1.0, 1.0, 0.0, 0.0], atol=1e-12)


def test_sum_squares_matches_definition():
    rng = np.random.default_rng(2)
    b = subspaces.random_subspace_through_centroid(6, 4, rng)
    want = sum(float(row.sum()) ** 2 for row in b.vectors)
    assert b.sum_squares() == pytest.approx(want, rel=1e-13)
    # rows orthogonal to the all-ones vector have zero coordinate sums
    assert b.sum_squares() == pytest.approx(0.0, abs=1e-20)
