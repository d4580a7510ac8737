import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simplex_sections import closed_form as cf
from simplex_sections import subspaces
from simplex_sections.errors import DegenerateInput, EmptySection, OutOfRange


# --- special directions and closed-form constants --------------------------

def test_special_min_values():
    assert cf.special_min_volume(2) == pytest.approx(2 * math.sqrt(2) / 3, rel=1e-15, abs=0)
    assert cf.special_min_volume(3) == pytest.approx((3 / 4) ** 2.5, rel=1e-15, abs=0)
    # n = 4 evaluates to the rational multiple 128/750 of 1
    assert cf.special_min_volume(4) == pytest.approx(128 / 750, rel=1e-14, abs=0)


def test_special_max_values():
    assert cf.special_max_volume(2) == pytest.approx(math.sqrt(3 / 2), rel=1e-15, abs=0)
    assert cf.special_max_volume(3) == pytest.approx(2 / (2 * math.sqrt(2)), rel=1e-15, abs=0)
    assert cf.special_max_volume(4) == pytest.approx(
        math.sqrt(5) / (6 * math.sqrt(2)), rel=1e-15, abs=0
    )


@pytest.mark.parametrize("n", range(2, 11))
def test_residue_matches_special_directions(n):
    assert cf.residue_volume(cf.a_min_direction(n)).value == pytest.approx(
        cf.special_min_volume(n), rel=1e-12, abs=0
    )
    assert cf.residue_volume(cf.a_max_direction(n)).value == pytest.approx(
        cf.special_max_volume(n), rel=1e-12, abs=0
    )


# --- residue formula --------------------------------------------------------

def test_residue_max_direction_n2():
    d = cf.Direction.make([1 / math.sqrt(2), 0.0, -1 / math.sqrt(2)])
    assert cf.residue_volume(d).value == pytest.approx(math.sqrt(3 / 2), rel=1e-13, abs=0)


def test_residue_tied_pair_n3():
    r = cf.residue_volume(cf.Direction.make([0.5, 0.5, -0.5, -0.5]))
    assert r.value == pytest.approx(0.5, abs=5e-10)
    assert abs(r.value - 0.5) <= 5 * r.err + 1e-12


def test_residue_tied_pair_n4():
    d = cf.Direction.make(math.sqrt(6 / 5) * np.array([0.5, 0.5, -1 / 3, -1 / 3, -1 / 3]))
    r = cf.residue_volume(d)
    assert r.value == pytest.approx(9 * math.sqrt(6) / 125, abs=5e-10)


def test_residue_requires_sign_change():
    with pytest.raises(EmptySection):
        cf.residue_volume(cf.Direction.make([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(EmptySection):
        cf.residue_volume(cf.Direction.make([0.5, 0.5, 0.5, 0.5]))


def test_prefactor_identity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = 6
        a = cf.random_direction_fixed_sum(n, float(rng.uniform(0, 1)), rng)
        f = cf.residue_functional(a)
        pref = math.sqrt(n + 1 - a.ksum**2) / math.factorial(n - 1)
        assert cf.residue_volume(a).value == pytest.approx(pref * f, rel=1e-12, abs=0)


def test_functional_two_coordinate_values():
    # one positive, one negative coordinate, sum zero: the value is 1/sqrt(2)
    d = cf.Direction.make([1 / math.sqrt(2), -1 / math.sqrt(2), 0.0, 0.0])
    assert cf.residue_functional(d) == pytest.approx(1 / math.sqrt(2), rel=1e-13, abs=0)
    assert cf.residue_functional(cf.a_max_direction(5)) == pytest.approx(
        1 / math.sqrt(2), rel=1e-13, abs=0
    )


def _exact_residue_sum(coords):
    """[t_0..t_n] x_+^(n-1) in rationals, from the divided-difference table."""
    t = sorted(Fraction(c) for c in coords)
    p = len(t) - 2

    @functools.cache
    def dd(i, j):
        if t[i] == t[j]:  # coincident knots: a Taylor coefficient of x_+^p
            return math.comb(p, j - i) * t[i] ** (p - j + i) if t[i] > 0 else Fraction(0)
        return (dd(i + 1, j) - dd(i, j - 1)) / (t[j] - t[i])

    return dd(0, len(t) - 1)


@pytest.mark.parametrize(
    "coords",
    [
        [0.5, 0.5 + 5e-7, 0.5 + 1e-6, -0.3, -0.7, -0.5],
        [0.3, 0.3 + 2e-6, 0.3 + 4e-6, 0.3 + 6e-6, -0.6, -0.6],
        [1, 1, 1, -1, -1, -1],
        [5e-324, 0.7, -0.7, 0],
        # near-zero coordinates keep their sign, however small
        [1, 1, -1e-11, -1e-11],
        [0.6, 5e-13, -0.2, -0.5, 0.1, -0.3],
        [1, 1, 1, -1e-9, -2e-9, -3e-9],
        [0.502, 0.337, 0.226, -0.764, -3e-13],
        [0.7, 0.2, -2e-13, -3e-13, -0.5],
    ],
    ids=[
        "triple-tie",
        "quadruple-tie",
        "exact-tie",
        "subnormal",
        "thin-square",
        "tiny-positive-snap",
        "tiny-negatives-thin",
        "tiny-negative-snap",
        "two-tiny-negatives-snap",
    ],
)
def test_residue_ties_match_exact_rationals(coords):
    d = cf.Direction.make(coords)
    n = d.n
    exact = _exact_residue_sum(d.a)
    assert abs(Fraction(cf.residue_functional(d)) - exact) <= Fraction(1e-13) * exact
    # the volume is sqrt(q) with q rational: |v - sqrt(q)| <= e iff
    # (v - e)^2 <= q <= (v + e)^2, so both checks stay exact
    K = sum(Fraction(c) for c in d.a)
    q = (n + 1 - K * K) * exact * exact / math.factorial(n - 1) ** 2
    r = cf.residue_volume(d)
    for e in (1e-13 * r.value, r.err):
        lo, hi = Fraction(r.value) - Fraction(e), Fraction(r.value) + Fraction(e)
        assert lo * lo <= q <= hi * hi, e


def _vector_lists():
    return st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        min_size=4,
        max_size=9,
    ).filter(lambda v: np.linalg.norm(v) > 0.3 and max(v) > 0.05 and min(v) < -0.05)


@settings(max_examples=60, deadline=None)
@given(_vector_lists(), st.randoms(use_true_random=False))
def test_residue_permutation_invariance(vals, pyrandom):
    d = cf.Direction.make(vals, canonicalize=False)
    perm = list(range(len(vals)))
    pyrandom.shuffle(perm)
    dp = cf.Direction.make(np.asarray(vals)[perm], canonicalize=False)
    assert cf.residue_volume(dp).value == pytest.approx(
        cf.residue_volume(d).value, rel=1e-12, abs=0
    )


@settings(max_examples=60, deadline=None)
@given(_vector_lists())
def test_residue_sign_flip_invariance(vals):
    d = cf.Direction.make(vals, canonicalize=False)
    flipped = cf.Direction.make(-np.asarray(vals), canonicalize=False)
    assert cf.residue_volume(flipped).value == pytest.approx(
        cf.residue_volume(d).value, rel=1e-12, abs=0
    )


def test_canonicalization():
    d = cf.Direction.make([-0.5, 0.5, -0.5, 0.5])
    assert list(d.a) == sorted(d.a, reverse=True)
    assert d.ksum >= 0
    # canonical form of a and -a coincide
    d2 = cf.Direction.make([0.5, -0.5, 0.5, -0.5])
    assert np.allclose(d.a, d2.a)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_direction_rejects_nonfinite(bad):
    with pytest.raises(ValueError, match="coordinates must be finite"):
        cf.Direction.make([0.5, bad, -0.3])


def test_direction_rejects_zero_and_unnormalized():
    with pytest.raises(ValueError, match="zero vector"):
        cf.Direction.make([0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="deviates from 1"):
        cf.Direction.make([0.6, 0.8 + 2e-9, 0.0], normalize=False)
    d = cf.Direction.make([0.6, 0.8 + 5e-10, 0.0], normalize=False)
    assert np.linalg.norm(d.a) == pytest.approx(1.0, rel=1e-15, abs=0)


@pytest.mark.parametrize("scale", [1e200, 1e-200], ids=["overflow", "underflow"])
def test_direction_rescales_far_from_unit(scale):
    # sqrt(v @ v) overflows or underflows here; the unit normal must not
    want = cf.Direction.make([1.0, -1.0, 0.3])
    d = cf.Direction.make([scale, -scale, 0.3 * scale])
    with pytest.raises(ValueError, match="deviates from 1"):
        cf.Direction.make([scale, -scale, 0.3 * scale], normalize=False)
    assert np.allclose(d.a, want.a, rtol=1e-15, atol=0)
    assert d.ksum == pytest.approx(want.ksum, rel=1e-15, abs=0)


def _two_sort_canonical(v):
    # reference: the canonical form from two sorts, which _canonical_coords
    # now reads off one sort
    up = np.sort(v)[::-1]
    down = np.sort(-v)[::-1]
    s = v.sum()
    if s > cf.CANON_TOL:
        return up.copy()
    if s < -cf.CANON_TOL:
        return down.copy()
    for x, y in zip(up, down):
        if x > y:
            return up.copy()
        if x < y:
            return down.copy()
    return up.copy()


def test_canonical_coords_matches_two_sorts():
    rng = np.random.default_rng(9)
    vecs = [rng.standard_normal(int(rng.integers(2, 13))) for _ in range(300)]
    for v in list(vecs[:100]):
        vecs.append(v - v.mean())  # sum ~ 0, decided by the tie-break
    vecs += [np.array(v, dtype=float) for v in (
        [0.5, -0.5, 0.5, -0.5], [1.0, -1.0], [0.3, 0.2, -0.2, -0.3], [0.0, 0.0, 0.0],
        [0.4, 0.1, -0.1, -0.4, 0.0], [2.0, -1.0, -1.0], [1.0, 1.0, -2.0], [0.0, 0.7, -0.7],
    )]
    for v in vecs:
        assert np.array_equal(cf._canonical_coords(v), _two_sort_canonical(v))


# --- representation conversions ---------------------------------------------

def test_central_to_embedded_zero_offset():
    a0 = np.array([1 / math.sqrt(2), -1 / math.sqrt(2), 0.0, 0.0])
    form = cf.CentralForm.make(a0, 0.0)
    b = cf.central_to_embedded(form)
    assert np.allclose(np.sort(b.a)[::-1], np.sort(a0)[::-1], atol=1e-15)


def test_embedded_to_central_facet_normal():
    b = cf.Direction.make([1.0, 0.0, 0.0, 0.0], canonicalize=False)
    form = cf.embedded_to_central(b)
    assert abs(form.t) == pytest.approx(1 / (2 * math.sqrt(3)), rel=1e-14, abs=0)
    assert abs(float(np.sum(form.a0.a))) < 1e-12
    assert cf.centroid_distance(b) == pytest.approx(abs(form.t), abs=1e-15)


def test_embedded_to_central_sum_zero_is_identity():
    a0 = np.array([0.6, 0.2, -0.3, -0.5])
    a0 -= a0.mean()
    a0 /= np.linalg.norm(a0)
    form = cf.embedded_to_central(cf.Direction.make(a0))
    assert form.t == pytest.approx(0.0, abs=1e-14)


def test_embedded_to_central_degenerate():
    n = 3
    ones = np.ones(n + 1) / math.sqrt(n + 1)
    with pytest.raises(DegenerateInput):
        cf.embedded_to_central(cf.Direction.make(ones))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=9).filter(
        lambda v: np.linalg.norm(np.asarray(v) - np.mean(v)) > 0.2
    ),
    st.floats(-0.4, 0.4),
)
def test_conversion_round_trip(vals, t):
    form = cf.CentralForm.make(np.asarray(vals) - np.mean(vals), t)
    b = cf.central_to_embedded(form)
    back = cf.embedded_to_central(b)
    assert back.t == pytest.approx(form.t, abs=1e-10)
    assert np.max(np.abs(back.a0.a - form.a0.a)) < 1e-10
    assert cf.centroid_distance(b) == pytest.approx(abs(form.t), abs=1e-12)


# --- origin distance ---------------------------------------------------------

def test_origin_distance_central_hyperplane():
    n = 5
    a = cf.random_direction_fixed_sum(n, 0.0, np.random.default_rng(0))
    basis = subspaces.hyperplane_basis(a.a)
    assert cf.subspace_origin_distance(basis) == pytest.approx(
        1 / math.sqrt(n + 1), rel=1e-13, abs=0
    )


def test_origin_distance_codim1_with_sum():
    n, K = 6, 0.7
    a = cf.random_direction_fixed_sum(n, K, np.random.default_rng(1))
    basis = subspaces.hyperplane_basis(a.a)
    assert cf.subspace_origin_distance(basis) == pytest.approx(
        1 / math.sqrt(n + 1 - K * K), rel=1e-13, abs=0
    )


def _projected_gradient_min_norm(rows, n, iters=6000):
    """Minimize ||x|| subject to sum x = 1 and the row constraints."""
    rows = np.asarray(rows)
    cons = np.vstack([np.ones(n + 1), rows])
    rhs = np.zeros(cons.shape[0])
    rhs[0] = 1.0
    pinv = np.linalg.pinv(cons)

    def project(x):
        return x - pinv @ (cons @ x - rhs)

    x = project(np.full(n + 1, 1.0 / (n + 1)))
    lr = 0.2
    for _ in range(iters):
        x = project(x * (1.0 - lr))
    return float(np.linalg.norm(x))


def test_origin_distance_codim2_against_projected_gradient():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = 6
        basis = subspaces.basis_from_rows(rng.standard_normal((2, n + 1)))
        try:
            got = cf.subspace_origin_distance(basis)
        except DegenerateInput:
            continue
        want = _projected_gradient_min_norm(basis.vectors, n)
        assert got == pytest.approx(want, abs=1e-8)


# --- bounds -------------------------------------------------------------------

def test_max_bound_k0_matches_central_maximum():
    for n in range(3, 9):
        bound, maximizer = cf.max_noncentral_bound(n, 0.0)
        assert bound == pytest.approx(cf.special_max_volume(n), rel=1e-15, abs=0)
        nz = np.asarray(maximizer.a)[np.abs(maximizer.a) > 1e-12]
        assert sorted(np.round(nz, 12)) == pytest.approx(
            [-1 / math.sqrt(2), 1 / math.sqrt(2)], abs=1e-12
        )


def test_max_bound_k1_is_facet_volume():
    for n in range(3, 9):
        bound, maximizer = cf.max_noncentral_bound(n, 1.0)
        assert bound == pytest.approx(math.sqrt(n) / math.factorial(n - 1), rel=1e-14, abs=0)
        assert np.asarray(maximizer.a)[0] == pytest.approx(1.0, abs=1e-14)


def test_max_bound_saturation_grid():
    for K in np.linspace(0.0, 0.999, 25):
        bound, maximizer = cf.max_noncentral_bound(5, float(K))
        assert cf.residue_volume(maximizer).value == pytest.approx(bound, rel=1e-12, abs=0)


def test_max_bound_out_of_range():
    with pytest.raises(OutOfRange):
        cf.max_noncentral_bound(5, 1.5)
    with pytest.raises(OutOfRange):
        cf.max_noncentral_bound(5, -0.1)


def test_brascamp_lieb_examples():
    general, conditional = cf.brascamp_lieb_bounds(3, 3)
    assert general == pytest.approx(3 ** (3 / 8) / 2, rel=1e-14, abs=0)
    assert conditional == pytest.approx(2 / (2 * math.sqrt(2)), rel=1e-14, abs=0)


def test_brascamp_lieb_hyperplane_case():
    for n in range(3, 9):
        _, conditional = cf.brascamp_lieb_bounds(n, n)
        assert conditional == pytest.approx(cf.special_max_volume(n), rel=1e-14, abs=0)


def test_brascamp_lieb_ratio_tends_to_one():
    k = 3
    ratios = []
    for n in range(k, 51):
        general, conditional = cf.brascamp_lieb_bounds(n, k)
        assert general >= conditional - 1e-12
        ratios.append(general / conditional)
    # monotone approach to 1 from above for n well past k
    tail = ratios[5:]
    assert all(a >= b - 1e-12 for a, b in zip(tail, tail[1:]))
    assert tail[-1] == pytest.approx(1.0, abs=0.02)


# --- samplers ------------------------------------------------------------------

def test_fixed_sum_sampler():
    rng = np.random.default_rng(5)
    for K in (0.0, 0.5, 1.0):
        for _ in range(50):
            a = cf.random_direction_fixed_sum(6, K, rng)
            assert a.ksum == pytest.approx(K, abs=1e-12)
            assert np.linalg.norm(a.a) == pytest.approx(1.0, abs=1e-12)


def test_samplers_match_their_reference_streams():
    # references: the mean/linalg.norm fixed-sum sampler and the two-draw
    # sign-pattern sampler; the samplers must return bit-identical directions
    def fixed_sum_ref(n, K, rng):
        while True:
            g = rng.standard_normal(n + 1)
            u = g - g.mean()
            nrm = np.linalg.norm(u)
            if nrm > 1e-12:
                break
        u /= nrm
        return cf.Direction.make((K / (n + 1.0)) + math.sqrt(1.0 - K * K / (n + 1.0)) * u)

    def sign_pattern_ref(n, P, rng):
        p = np.abs(rng.standard_normal(P)) + 1e-9
        q = np.abs(rng.standard_normal(n + 1 - P)) + 1e-9
        cp = 1.0 / math.sqrt(float(p @ p) + (p.sum() ** 2) * float(q @ q) / (q.sum() ** 2))
        v = np.sort(np.concatenate([cp * p, -(cp * p.sum() / q.sum()) * q]))[::-1]
        return v / np.linalg.norm(v)

    for n in range(2, 12):
        for seed in range(20):
            K = 0.9 * math.sqrt(n + 1) * seed / 20
            got = cf.random_direction_fixed_sum(n, K, np.random.default_rng([seed, n]))
            want = fixed_sum_ref(n, K, np.random.default_rng([seed, n]))
            assert got.a.tobytes() == want.a.tobytes() and got.ksum == want.ksum
            P = 1 + seed % n
            got = cf.random_direction_sign_pattern(n, P, np.random.default_rng([seed, n]))
            want = sign_pattern_ref(n, P, np.random.default_rng([seed, n]))
            assert got.a.tobytes() == want.tobytes()


def test_sign_pattern_sampler():
    rng = np.random.default_rng(6)
    for P in (1, 2, 4):
        for _ in range(50):
            a = cf.random_direction_sign_pattern(6, P, rng)
            assert len(a.positive_indices()) == P
            assert len(a.negative_indices()) == 7 - P
            assert a.ksum == pytest.approx(0.0, abs=1e-12)
