import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simplex_sections import closed_form as cf
from simplex_sections import extremal, oracle
from simplex_sections.errors import CounterexampleFound, OutOfRange


def _random_signed(n, K, rng):
    while True:
        a = cf.random_direction_fixed_sum(n, K, rng)
        if a.positive_indices() and a.negative_indices():
            return a


# --- concentrate --------------------------------------------------------------

def test_concentrate_fixed_point():
    d = cf.Direction.make([0.8, -0.6, 0.0, 0.0], canonicalize=False)
    sol = extremal.concentrate_transform(d)
    assert sol.gamma == pytest.approx(1.0, abs=1e-12)
    assert sol.beta == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(sol.transformed.a, d.a, atol=1e-12)


def test_concentrate_preserves_constraints():
    rng = np.random.default_rng(0)
    for K in (0.0, 0.3, 0.7, 0.99):
        for _ in range(200):
            a = _random_signed(6, K, rng)
            sol = extremal.concentrate_transform(a)
            t = sol.transformed
            assert np.linalg.norm(t.a) == pytest.approx(1.0, abs=1e-12)
            assert t.ksum == pytest.approx(K, abs=1e-11)
            assert 0.0 - 1e-9 <= sol.gamma <= 1.0 + 1e-9
            assert 0.0 - 1e-9 <= sol.beta <= 1.0 + 1e-9
            assert len(t.negative_indices()) == 1
            assert len(t.positive_indices()) == len(a.positive_indices())


def test_concentrate_positive_block():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = _random_signed(5, 0.4, rng)
        sol = extremal.concentrate_transform(a, block="positive")
        t = sol.transformed
        assert t.ksum == pytest.approx(0.4, abs=1e-11)
        assert len(t.positive_indices()) == 1
        assert len(t.negative_indices()) == len(a.negative_indices())


def test_concentration_chain_reaches_two_coordinates():
    rng = np.random.default_rng(2)
    for K in (0.0, 0.3, 0.8):
        for _ in range(100):
            a = _random_signed(6, K, rng)
            step1 = extremal.concentrate_transform(a, "negative")
            step2 = extremal.concentrate_transform(step1.transformed, "positive")
            t = step2.transformed
            nz = np.asarray(t.a)[np.abs(t.a) > 1e-12]
            assert nz.size == 2
            assert cf.residue_functional(t) == pytest.approx(
                1.0 / math.sqrt(2.0 - K * K), abs=1e-10
            )


def test_concentrate_monotone_single_positive():
    # with one positive coordinate every functional term is positive and the
    # termwise argument is sound: the functional must not decrease
    rng = np.random.default_rng(3)
    for _ in range(300):
        a = cf.random_direction_sign_pattern(6, 1, rng)
        sol = extremal.concentrate_transform(a)
        assert cf.residue_functional(sol.transformed) >= cf.residue_functional(a) - 1e-10


def test_concentrate_monotonicity_fails_in_general():
    """Known defect of the rescaling argument, pinned as a regression.

    The termwise bound behind the concentration step does not survive the
    sum once the functional's terms alternate in sign (two or more positive
    coordinates).  This witness decreases the functional; the geometric
    oracle confirms both volumes, so the transform itself is implemented
    correctly.
    """
    a = cf.Direction.make(
        [0.72079322, 0.35403099, 0.15700724, -0.18466174, -0.28074983, -0.46641987]
    )
    sol = extremal.concentrate_transform(a)
    f_before = cf.residue_functional(a)
    f_after = cf.residue_functional(sol.transformed)
    assert f_after < f_before - 1e-3  # strictly decreases
    spec = oracle.regular_simplex(5)
    for d in (a, sol.transformed):
        rv = cf.residue_volume(d).value
        ov = oracle.polytope_volume(oracle.hyperplane_section_vertices(spec, d)).value
        assert ov == pytest.approx(rv, rel=1e-10)


def test_concentrate_rejects_bad_K():
    rng = np.random.default_rng(4)
    a = _random_signed(5, 1.2, rng)
    with pytest.raises(OutOfRange):
        extremal.concentrate_transform(a)


# --- balance --------------------------------------------------------------------

def test_balance_fixed_point():
    coords = np.array([0.9, -0.3, -0.3, -0.3])
    d = cf.Direction.make(coords / np.linalg.norm(coords), canonicalize=False)
    sol = extremal.balance_transform(d)
    assert sol.gamma == pytest.approx(1.0, abs=1e-10)
    assert sol.beta == pytest.approx(1.0, abs=1e-10)


def test_balance_explicit_example():
    coords = np.array([0.7, 0.3, -0.5, -0.3, -0.2])
    d = cf.Direction.make(coords / np.linalg.norm(coords), canonicalize=False)
    sol = extremal.balance_transform(d)
    t = sol.transformed
    negs = np.asarray(t.a)[t.negative_indices()]
    assert np.ptp(negs) < 1e-14
    assert sol.gamma >= 1.0 - 1e-12
    assert sol.beta >= sol.gamma - 1e-12
    assert cf.residue_functional(t) <= cf.residue_functional(d) + 1e-10


def test_balance_preserves_constraints():
    rng = np.random.default_rng(5)
    for K in (0.0, 0.4, 0.9):
        for _ in range(200):
            a = _random_signed(6, K, rng)
            sol = extremal.balance_transform(a)
            t = sol.transformed
            assert np.linalg.norm(t.a) == pytest.approx(1.0, abs=1e-12)
            assert t.ksum == pytest.approx(K, abs=1e-11)
            assert sol.gamma >= 1.0 - 1e-9
            assert sol.beta >= sol.gamma - 1e-9
            negs = np.asarray(t.a)[t.negative_indices()]
            assert np.ptp(negs) < 1e-12


def test_balance_monotone_at_sum_zero():
    rng = np.random.default_rng(6)
    for _ in range(500):
        a = _random_signed(6, 0.0, rng)
        sol = extremal.balance_transform(a)
        assert cf.residue_functional(sol.transformed) <= cf.residue_functional(a) + 1e-10


def test_balance_single_positive_reaches_face_parallel():
    # one positive coordinate: balancing lands on the face-parallel family
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = cf.random_direction_sign_pattern(5, 1, rng)
        sol = extremal.balance_transform(a)
        assert cf.residue_volume(sol.transformed).value == pytest.approx(
            cf.special_min_volume(5), rel=1e-11
        )


def test_balance_idempotent():
    rng = np.random.default_rng(8)
    for _ in range(100):
        a = _random_signed(6, 0.2, rng)
        once = extremal.balance_transform(a).transformed
        twice = extremal.balance_transform(once).transformed
        assert np.max(np.abs(np.asarray(once.a) - np.asarray(twice.a))) < 1e-11


# --- sandwich inequality ----------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-6, 50.0), min_size=1, max_size=10))
def test_product_sum_sandwich(xs):
    low, mid, high = extremal.product_sum_sandwich(xs)
    assert low <= mid * (1 + 1e-12)
    assert mid <= high * (1 + 1e-12)


def test_sandwich_equality_cases():
    low, mid, high = extremal.product_sum_sandwich([0.7])
    assert low == pytest.approx(mid, rel=1e-15)
    assert mid == pytest.approx(high, rel=1e-15)
    low, mid, high = extremal.product_sum_sandwich([0.3, 0.3, 0.3])
    assert mid == pytest.approx(high, rel=1e-14)  # AGM is tight at equal inputs
    assert low < mid


# --- frustum minimization -----------------------------------------------------------

@pytest.mark.parametrize("N,want", [(2, 0.5), (3, 0.5), (4, 0.5)])
def test_minimize_frustum_small_N(N, want):
    x, v = extremal.minimize_frustum(N, 2000)
    assert x == pytest.approx(want, abs=1e-8)
    assert v == pytest.approx(oracle.frustum_volume(N, want), rel=1e-12)


def test_minimize_frustum_N5_prefers_endpoint():
    x, v = extremal.minimize_frustum(5, 2000)
    assert x == pytest.approx(0.0, abs=1e-8)
    assert v == pytest.approx(oracle.frustum_volume(5, 0.0), rel=1e-12)
    assert oracle.frustum_volume(5, 0.0) < oracle.frustum_volume(5, 0.5)


# --- randomized verification ---------------------------------------------------------

def test_verify_global_minimum_small_dimensions():
    for n in (2, 3, 4):
        rep = extremal.verify_global_minimum(n, trials=2000, seed=100 + n)
        assert rep.passed
        assert rep.margin >= -1e-10
        assert rep.min_value >= rep.floor - 1e-10


def test_verify_global_minimum_p2_family_floor():
    # the two-positive family bottoms at the frustum midpoint values
    assert oracle.frustum_volume(2, 0.5) == pytest.approx(0.5, rel=1e-12)
    assert oracle.frustum_volume(3, 0.5) == pytest.approx(9 * math.sqrt(6) / 125, rel=1e-12)
    rep = extremal.verify_global_minimum(3, trials=4000, seed=9)
    assert rep.per_pattern[2] >= 0.5 - 1e-10


def test_verify_global_minimum_domain():
    with pytest.raises(OutOfRange):
        extremal.verify_global_minimum(5, 100, 0)


def test_explore_search_runs_for_larger_n():
    rep = extremal.explore_minimum_search(5, trials=500, seed=1)
    assert rep.min_value > 0


def test_verify_kdim_bounds():
    rep = extremal.verify_kdim_bounds(5, 3, trials=150, seed=11)
    assert rep.passed
    assert rep.witness_saturates
    assert rep.max_ratio_general <= 1.0 + 1e-12
    assert rep.witness_value == pytest.approx(math.sqrt(6) / 4, rel=1e-12)


def test_kdim_witness_closed_form():
    for n, k in ((4, 3), (5, 3), (5, 4), (6, 4)):
        basis = extremal.conjectured_kdim_maximizer(n, k)
        poly = oracle.kdim_section_vertices(oracle.regular_simplex(n), basis)
        got = oracle.polytope_volume(poly).value
        want = math.sqrt(n + 1) / (math.factorial(k - 1) * math.sqrt(n + 2 - k))
        assert got == pytest.approx(want, abs=1e-9)


def test_sign_pattern_type():
    a = cf.random_direction_sign_pattern(6, 2, np.random.default_rng(12))
    sp = extremal.SignPattern.of(a)
    assert (sp.P, sp.N, sp.n) == (2, 5, 6)
    with pytest.raises(OutOfRange):
        extremal.SignPattern(P=0, N=3, n=5)
