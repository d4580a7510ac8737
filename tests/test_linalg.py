import numpy as np
import pytest

from simplex_sections import extremal, linalg
from simplex_sections.errors import RankDeficient


def test_gram_schmidt_axis_aligned():
    q = linalg.orthonormalize([[1.0, 0.0], [1.0, 1.0]])
    assert np.allclose(q[0], [1.0, 0.0])
    assert np.allclose(q[1], [0.0, 1.0])


def test_gram_schmidt_normalizes_single_vector():
    (q,) = linalg.orthonormalize([[3.0, 4.0]])
    assert np.allclose(q, [0.6, 0.8])


def test_gram_schmidt_orthonormality_identity():
    q = np.array(linalg.orthonormalize([[1, 1, 0], [1, 0, 1]]))
    assert np.max(np.abs(q @ q.T - np.eye(2))) < 1e-12


def test_gram_schmidt_random_orthonormality():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = int(rng.integers(2, 10))
        k = int(rng.integers(1, m + 1))
        q = np.array(linalg.orthonormalize(rng.standard_normal((k, m))))
        assert np.max(np.abs(q @ q.T - np.eye(k))) < 1e-11


def test_gram_schmidt_near_degenerate_reorthogonalization():
    # nearly parallel inputs still give an orthonormal pair
    v = np.array([1.0, 2.0, 3.0])
    w = v + 1e-7 * np.array([0.0, 1.0, 0.0])
    q = np.array(linalg.orthonormalize([v, w]))
    assert np.max(np.abs(q @ q.T - np.eye(2))) < 1e-11


def test_gram_schmidt_rank_deficient():
    with pytest.raises(RankDeficient):
        linalg.orthonormalize([[1.0, 2.0], [2.0, 4.0]])


def test_extend_to_orthonormal_basis():
    rng = np.random.default_rng(4)
    base = linalg.orthonormalize(rng.standard_normal((2, 6)))
    full = np.array(linalg.extend_to_orthonormal_basis(base, 6))
    assert full.shape == (6, 6)
    assert np.max(np.abs(full @ full.T - np.eye(6))) < 1e-11


def _greedy_extend(vectors, dim):
    # reference: the per-unit-vector greedy completion that the pivoted
    # projector replaces; it appends the e_j with the largest residual
    basis = []
    for v in vectors:  # classical Gram-Schmidt with a second pass
        w = np.array(v, dtype=float)
        for _ in range(2):
            for q in basis:
                w -= (q @ w) * q
        basis.append(w / np.linalg.norm(w))
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


def test_stacked_orthonormalize_and_completion_match_each_matrix():
    # a stack rounds matrix by matrix as one matrix does alone
    rng = np.random.default_rng(12)
    for dim in range(2, 14):
        for m in range(1, dim + 1):
            a = rng.standard_normal((5, m, dim))
            q = linalg.orthonormalize(a)
            rest = linalg.orthonormal_completions(q)
            assert rest.shape == (5, dim - m, dim)
            for t in range(5):
                assert np.array_equal(q[t], linalg.orthonormalize(a[t]))
                full = np.array(linalg.extend_to_orthonormal_basis(a[t], dim))
                assert np.array_equal(np.concatenate([q[t], rest[t]]), full)


def test_stacked_orthonormalize_rank_deficient():
    a = np.random.default_rng(3).standard_normal((4, 2, 5))
    a[2, 1] = 2.0 * a[2, 0]
    with pytest.raises(RankDeficient):
        linalg.orthonormalize(a)
