import numpy as np
import pytest

from simplex_sections import extremal, linalg
from simplex_sections.errors import RankDeficient


def test_gram_schmidt_axis_aligned():
    q = linalg.gram_schmidt([[1.0, 0.0], [1.0, 1.0]])
    assert np.allclose(q[0], [1.0, 0.0])
    assert np.allclose(q[1], [0.0, 1.0])


def test_gram_schmidt_normalizes_single_vector():
    (q,) = linalg.gram_schmidt([[3.0, 4.0]])
    assert np.allclose(q, [0.6, 0.8])


def test_gram_schmidt_orthonormality_identity():
    q = np.array(linalg.gram_schmidt([[1, 1, 0], [1, 0, 1]]))
    assert np.max(np.abs(q @ q.T - np.eye(2))) < 1e-12


def test_gram_schmidt_random_orthonormality():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = int(rng.integers(2, 10))
        k = int(rng.integers(1, m + 1))
        q = np.array(linalg.gram_schmidt(rng.standard_normal((k, m))))
        assert np.max(np.abs(q @ q.T - np.eye(k))) < 1e-11


def test_gram_schmidt_near_degenerate_reorthogonalization():
    # nearly parallel inputs still give an orthonormal pair
    v = np.array([1.0, 2.0, 3.0])
    w = v + 1e-7 * np.array([0.0, 1.0, 0.0])
    q = np.array(linalg.gram_schmidt([v, w]))
    assert np.max(np.abs(q @ q.T - np.eye(2))) < 1e-11


def test_gram_schmidt_rank_deficient():
    with pytest.raises(RankDeficient):
        linalg.gram_schmidt([[1.0, 2.0], [2.0, 4.0]])


def _cofactor_det3(m):
    m = np.asarray(m, dtype=float)
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def test_det_identity():
    assert linalg.det(np.eye(4)) == pytest.approx(1.0, abs=0)


def test_det_against_cofactor_expansion():
    rng = np.random.default_rng(2)
    for _ in range(200):
        m = rng.standard_normal((3, 3))
        assert linalg.det(m) == pytest.approx(_cofactor_det3(m), rel=1e-11, abs=1e-13)


def test_det_product_rule():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        lhs = linalg.det(a @ b)
        rhs = linalg.det(a) * linalg.det(b)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_det_compressed_simplex_vertex_matrix():
    # vertex matrix of the delta-compressed simplex, n+1 = 6, delta = -0.1
    n, delta = 5, -0.1
    w = np.concatenate([np.ones(3), -np.ones(3)])
    m = np.eye(n + 1) + delta * np.outer(w, w)
    assert linalg.det(m) == pytest.approx(1.0 + (n + 1) * delta, abs=1e-12)
    assert linalg.det(m) == pytest.approx(0.4, abs=1e-12)


def test_det_singular_is_zero():
    assert linalg.det([[1.0, 2.0], [2.0, 4.0]]) == pytest.approx(0.0, abs=1e-14)


def test_extend_to_orthonormal_basis():
    rng = np.random.default_rng(4)
    base = linalg.gram_schmidt(rng.standard_normal((2, 6)))
    full = np.array(linalg.extend_to_orthonormal_basis(base, 6))
    assert full.shape == (6, 6)
    assert np.max(np.abs(full @ full.T - np.eye(6))) < 1e-11


def _greedy_extend(vectors, dim):
    # reference: the per-unit-vector greedy completion that the pivoted
    # projector replaces; it appends the e_j with the largest residual
    basis = linalg.gram_schmidt(vectors) if len(vectors) else []
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
        for q in basis:
            best -= (q @ best) * q
        basis.append(best / np.linalg.norm(best))
    return np.array(basis)


@pytest.mark.parametrize("dim", range(4, 14))
def test_extend_matches_greedy_on_random_spans(dim):
    rng = np.random.default_rng([8, dim])
    for m in range(1, dim):
        for _ in range(10):
            span = rng.standard_normal((m, dim))
            got = np.array(linalg.extend_to_orthonormal_basis(span, dim))
            assert np.max(np.abs(got - _greedy_extend(list(span), dim))) <= 1e-13


def test_extend_matches_greedy_projectors_on_ties():
    # coordinate spans, the all-ones span and the conjectured k-dim maximizer
    # leave exactly tied residuals, where rounding may pick another e_j; the
    # complement must still span the same space
    cases = [[np.eye(6)[0], np.eye(6)[3]], [np.eye(5)[4]], [np.ones(7)]]
    cases = [(span, np.array(linalg.extend_to_orthonormal_basis(span, len(span[0])))[len(span):])
             for span in cases]
    for n, k in [(4, 3), (5, 3), (6, 4), (8, 5), (10, 7), (12, 2)]:
        rest = np.r_[np.zeros(k - 1), np.ones(n + 2 - k)]
        span = [np.eye(n + 1)[i] for i in range(k - 1)] + [rest]
        cases.append((span, extremal.conjectured_kdim_maximizer(n, k).vectors))
    for span, got in cases:
        want = _greedy_extend(span, len(span[0]))[len(span):]
        assert np.max(np.abs(got @ got.T - np.eye(len(got)))) <= 1e-14
        assert np.max(np.abs(got.T @ got - want.T @ want)) <= 1e-14


def test_extend_rank_deficient():
    with pytest.raises(RankDeficient):
        linalg.extend_to_orthonormal_basis([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]], 3)
    with pytest.raises(RankDeficient):
        linalg.extend_to_orthonormal_basis(np.eye(3)[[0, 1, 2, 0]], 3)
    with pytest.raises(RankDeficient):
        linalg.extend_to_orthonormal_basis([np.zeros(4)], 4)


def test_rank():
    assert linalg.rank(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])) == 2
    assert linalg.rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1
    assert linalg.rank(np.zeros((3, 3))) == 0
