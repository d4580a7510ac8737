import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simplex_sections import closed_form as cf
from simplex_sections import extremal, oracle, subspaces
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
        assert ov == pytest.approx(rv, rel=1e-10, abs=0)


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
            cf.special_min_volume(5), rel=1e-11, abs=0
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
    assert low == pytest.approx(mid, rel=1e-15, abs=0)
    assert mid == pytest.approx(high, rel=1e-15, abs=0)
    low, mid, high = extremal.product_sum_sandwich([0.3, 0.3, 0.3])
    assert mid == pytest.approx(high, rel=1e-14, abs=0)  # AGM is tight at equal inputs
    assert low < mid


# --- frustum minimization -----------------------------------------------------------

@pytest.mark.parametrize("N,want", [(2, 0.5), (3, 0.5), (4, 0.5)])
def test_minimize_frustum_small_N(N, want):
    x, v = extremal.minimize_frustum(N, 2000)
    assert x == pytest.approx(want, abs=1e-8)
    assert v == pytest.approx(oracle.frustum_volume(N, want), rel=1e-12, abs=0)


def test_minimize_frustum_N5_prefers_endpoint():
    x, v = extremal.minimize_frustum(5, 2000)
    assert x == pytest.approx(0.0, abs=1e-8)
    assert v == pytest.approx(oracle.frustum_volume(5, 0.0), rel=1e-12, abs=0)
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
    assert oracle.frustum_volume(2, 0.5) == pytest.approx(0.5, rel=1e-12, abs=0)
    assert oracle.frustum_volume(3, 0.5) == pytest.approx(9 * math.sqrt(6) / 125, rel=1e-12, abs=0)
    rep = extremal.verify_global_minimum(3, trials=4000, seed=9)
    assert rep.per_pattern[2] >= 0.5 - 1e-10


def test_verify_global_minimum_domain():
    with pytest.raises(OutOfRange):
        extremal.verify_global_minimum(5, 100, 0)


def test_explore_search_runs_for_larger_n():
    rep = extremal.explore_minimum_search(5, trials=500, seed=1)
    assert rep.min_value > 0


def _min_search_reference(n, trials, seed, check_floor):
    """The per-direction search loop: one sampler and residue call per direction."""
    rng = np.random.default_rng(seed)
    floor = extremal.special_min_volume(n)
    best, best_dir, per_pattern = math.inf, (), {}
    per = max(trials // n, 1)
    for P in range(1, n + 1):
        pattern_best = math.inf
        for _ in range(per):
            a = cf.random_direction_sign_pattern(n, P, rng)
            vol = cf.residue_volume(a).value
            pattern_best = min(pattern_best, vol)
            if vol < best:
                best, best_dir = vol, tuple(float(c) for c in a.a)
            if check_floor and vol < floor - 1e-10:
                raise CounterexampleFound(
                    f"section volume {vol} below the face-parallel minimum {floor}",
                    witness=tuple(float(c) for c in a.a),
                )
        per_pattern[P] = pattern_best
    return extremal.MinSearchReport(
        n=n, trials=per * n, floor=floor, min_value=best, min_direction=best_dir,
        margin=best - floor, per_pattern=per_pattern, passed=True,
    )


@pytest.mark.parametrize("chunk", [7, cf.DIRECTION_CHUNK])
@pytest.mark.parametrize("n", range(2, 9))
def test_min_search_matches_per_direction_loop(monkeypatch, n, chunk):
    monkeypatch.setattr(cf, "DIRECTION_CHUNK", chunk)  # 7: cells span many blocks
    for seed in range(6):
        for trials in (n, 120, 301):
            want = _min_search_reference(n, trials, seed, check_floor=n <= 4)
            got = extremal._min_search(n, trials, seed, check_floor=n <= 4)
            assert got == want, (seed, trials)


@pytest.mark.parametrize("chunk", [1, cf.DIRECTION_CHUNK])
def test_min_search_witness_is_first_violation(monkeypatch, chunk):
    # a floor at the first direction's volume: that direction passes, and
    # the witness must be the first later one in draw order 1e-10 below it
    monkeypatch.setattr(cf, "DIRECTION_CHUNK", chunk)
    n, trials, seed = 4, 200, 3
    first = cf.random_direction_sign_pattern(n, 1, np.random.default_rng(seed))
    monkeypatch.setattr(extremal, "special_min_volume",
                        lambda n: cf.residue_volume(first).value)
    with pytest.raises(CounterexampleFound) as want:
        _min_search_reference(n, trials, seed, check_floor=True)
    with pytest.raises(CounterexampleFound) as got:
        extremal.verify_global_minimum(n, trials, seed)
    assert got.value.witness == want.value.witness != tuple(first.a.tolist())
    assert str(got.value) == str(want.value)


def test_verify_kdim_bounds():
    rep = extremal.verify_kdim_bounds(5, 3, trials=150, seed=11)
    assert rep.passed
    assert rep.witness_saturates
    assert rep.max_ratio_general <= 1.0 + 1e-12
    assert rep.witness_value == pytest.approx(math.sqrt(6) / 4, rel=1e-12, abs=0)


def _kdim_bounds_reference(n, k, trials, seed):
    """The per-subspace loop the blocked sweep replaced: its report, or the
    CounterexampleFound it raises, and every (volume, qualified) pair."""
    general, conditional = extremal.brascamp_lieb_bounds(n, k)
    threshold = (n + 1.0 - k) / (n + 2.0 - k)
    rng = np.random.default_rng(seed)
    spec = oracle.regular_simplex(n)
    seen, max_general, max_conditional, qualified, raised = [], 0.0, 0.0, 0, None
    for _ in range(trials):
        basis = subspaces.random_subspace_through_centroid(n, k, rng)
        vol = oracle.polytope_volume(oracle.kdim_section_vertices(spec, basis)).value
        near = bool(np.all(basis.vertex_distances_sq() <= threshold + 1e-12))
        seen.append((vol, near))
        if raised is None and vol > general + 1e-9:
            raised = (f"volume {vol} above the general bound {general}", basis.vectors.tolist())
        max_general = max(max_general, vol / general)
        if near:
            qualified += 1
            if raised is None and vol > conditional + 1e-9:
                raised = (f"volume {vol} above the sharp bound {conditional}",
                          basis.vectors.tolist())
            max_conditional = max(max_conditional, vol / conditional)
    witness = oracle.polytope_volume(oracle.kdim_section_vertices(
        spec, extremal.conjectured_kdim_maximizer(n, k))).value
    report = extremal.SubspaceBoundReport(
        n=n, k=k, trials=trials, general_bound=general, conditional_bound=conditional,
        max_ratio_general=max_general, max_ratio_conditional=max_conditional,
        qualified_count=qualified, witness_value=witness,
        witness_saturates=abs(witness - conditional) <= 1e-9,
    )
    return report, raised, seen


@pytest.mark.parametrize("chunk", [7, cf.DIRECTION_CHUNK])
def test_verify_kdim_bounds_matches_per_subspace_loop(chunk, monkeypatch):
    monkeypatch.setattr(cf, "DIRECTION_CHUNK", chunk)  # 7: many blocks per sweep
    for n, k, trials in [(4, 3, 40), (5, 3, 23), (6, 4, 61), (7, 5, 15), (8, 5, 9), (5, 2, 30)]:
        want, raised, _ = _kdim_bounds_reference(n, k, trials, n * k)
        assert raised is None
        got = extremal.verify_kdim_bounds(n, k, trials, n * k)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)


@pytest.mark.parametrize("kind", ["general", "sharp", "both"])
@pytest.mark.parametrize("chunk", [7, cf.DIRECTION_CHUNK])
def test_verify_kdim_bounds_witness_is_first_violation(kind, chunk, monkeypatch):
    # plant a bound between the largest volume before subspace 14 and its
    # own, larger one: the first violation opens the third block of 7, and
    # subspace 18 of the same block violates too
    n, k, trials, seed, first = 5, 3, 60, 37, 14
    general, conditional = extremal.brascamp_lieb_bounds(n, k)
    _, _, seen = _kdim_bounds_reference(n, k, trials, seed)
    vol, near = seen[first]
    before = max(v for v, _ in seen[:first])  # qualified or not
    planted = (before + vol) / 2.0
    assert near and vol > before + 1e-6 and seen[18][1] and seen[18][0] > planted
    bounds = {"general": (planted, conditional), "sharp": (general, planted),
              "both": (planted, planted)}[kind]
    monkeypatch.setattr(extremal, "brascamp_lieb_bounds", lambda n, k: bounds)
    _, raised, _ = _kdim_bounds_reference(n, k, trials, seed)
    rng = np.random.default_rng(seed)
    for _ in range(first + 1):
        basis = subspaces.random_subspace_through_centroid(n, k, rng)
    name = "sharp" if kind == "sharp" else "general"  # the general bound is checked first
    assert raised == (f"volume {vol} above the {name} bound {planted}", basis.vectors.tolist())
    monkeypatch.setattr(cf, "DIRECTION_CHUNK", chunk)
    with pytest.raises(CounterexampleFound) as got:
        extremal.verify_kdim_bounds(n, k, trials, seed)
    assert (str(got.value), got.value.witness) == raised


@pytest.mark.parametrize("trials", [0, -3])
def test_verify_kdim_bounds_needs_a_trial(trials):
    with pytest.raises(OutOfRange):
        extremal.verify_kdim_bounds(4, 3, trials, 1)


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
