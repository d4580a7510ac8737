"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with pytest -s or in the
failure report).  Criterion 9 is implemented exactly as stated and is
expected to fail: the monotonicity it asserts for the two rescaling
transforms is falsified numerically by this package's own independent
oracle (see tests/test_extremal.py::test_concentrate_monotonicity_fails_in_general
and the decisions ledger).  The bound theorems themselves (criteria 3, 5, 6)
all pass.
"""
import math
import time

import numpy as np
import pytest

from simplex_sections import closed_form as cf
from simplex_sections import extremal, irregular, oracle, quadrature
from simplex_sections.errors import EmptySection, NoSolution

SEED = 20240810


def _report(number: int, name: str, passed: bool, t0: float, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    extra = f" — {detail}" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): {status} in {time.time() - t0:.1f}s{extra}")


def test_criterion_1_closed_form_constants():
    t0 = time.time()
    worst = 0.0
    for n in range(2, 11):
        vmin = math.sqrt(n + 1) / math.factorial(n - 1) * (n / (n + 1)) ** (n - 0.5)
        vmax = math.sqrt(n + 1) / math.factorial(n - 1) / math.sqrt(2)
        assert cf.special_min_volume(n) == pytest.approx(vmin, rel=1e-15, abs=0)
        assert cf.special_max_volume(n) == pytest.approx(vmax, rel=1e-15, abs=0)
        worst = max(
            worst,
            abs(cf.residue_volume(cf.a_min_direction(n)).value / vmin - 1.0),
            abs(cf.residue_volume(cf.a_max_direction(n)).value / vmax - 1.0),
        )
    elapsed = time.time() - t0
    passed = worst < 1e-12 and elapsed < 1.0
    _report(1, "closed-form constants", passed, t0, f"worst rel dev {worst:.2e}")
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_2_three_method_agreement():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst_quad = worst_oracle = 0.0
    spot_checks = []
    for n in range(3, 8):
        spec = oracle.regular_simplex(n)
        directions = []
        while len(directions) < 100:
            a = cf.random_direction_fixed_sum(n, float(rng.uniform(0.0, 0.9)), rng)
            if a.positive_indices() and a.negative_indices():
                directions.append(a)
        for a in directions:
            rv = cf.residue_volume(a).value
            qv = quadrature.hyperplane_volume_quadrature(a, 1e-8).value
            ov = oracle.polytope_volume(oracle.hyperplane_section_vertices(spec, a)).value
            worst_quad = max(worst_quad, abs(qv / rv - 1.0))
            worst_oracle = max(worst_oracle, abs(ov / rv - 1.0))
        # one Monte Carlo spot check per dimension (five total)
        a = directions[0]
        mc = oracle.monte_carlo_slab_volume(spec, a, eps=0.005, samples=10**6, seed=SEED + n)
        rv = cf.residue_volume(a).value
        spot_checks.append(abs(mc.value - rv) / mc.err)
    elapsed = time.time() - t0
    passed = (
        worst_quad < 1e-7
        and worst_oracle < 1e-9
        and all(z <= 3.0 for z in spot_checks)
        and elapsed < 300.0
    )
    _report(
        2,
        "three-method agreement",
        passed,
        t0,
        f"quad {worst_quad:.2e}, oracle {worst_oracle:.2e}, mc max {max(spot_checks):.2f} SE",
    )
    assert worst_quad < 1e-7
    assert worst_oracle < 1e-9
    assert all(z <= 3.0 for z in spot_checks)
    assert elapsed < 300.0


def test_criterion_3_noncentral_bound():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 1)
    worst_margin = -math.inf
    worst_sat = 0.0
    for n in range(3, 9):
        for K in (0.0, 0.25, 0.5, 0.75, 1.0):
            bound, maximizer = cf.max_noncentral_bound(n, K)
            for _ in range(10_000):
                a = cf.random_direction_fixed_sum(n, K, rng)
                try:
                    v = cf.residue_volume(a).value
                except EmptySection:
                    v = 0.0
                worst_margin = max(worst_margin, v - bound)
            if K == 1.0:
                # the maximizer is a vertex normal; its section is a facet,
                # measured by the geometric oracle
                spec = oracle.regular_simplex(n)
                poly = oracle.hyperplane_section_vertices(spec, maximizer)
                got = oracle.polytope_volume(poly).value
            else:
                got = cf.residue_volume(maximizer).value
            worst_sat = max(worst_sat, abs(got / bound - 1.0))
    elapsed = time.time() - t0
    passed = worst_margin <= 1e-10 and worst_sat < 1e-12 and elapsed < 120.0
    _report(
        3,
        "noncentral bound validity and saturation",
        passed,
        t0,
        f"max excess {worst_margin:.2e}, saturation dev {worst_sat:.2e}",
    )
    assert worst_margin <= 1e-10
    assert worst_sat < 1e-12
    assert elapsed < 120.0


def test_criterion_4_frustum_values():
    t0 = time.time()
    v0 = oracle.frustum_volume(5, 0.0)
    vhalf = oracle.frustum_volume(5, 0.5)
    assert v0 == pytest.approx(125 / 186624 * math.sqrt(210), rel=1e-12, abs=0)
    assert vhalf == pytest.approx(625 / 201684 * math.sqrt(10), rel=1e-12, abs=0)
    assert v0 < vhalf
    for N in (2, 3, 4):
        x, _ = extremal.minimize_frustum(N, 2000)
        assert x == pytest.approx(0.5, abs=1e-8)
    elapsed = time.time() - t0
    passed = elapsed < 10.0
    _report(4, "frustum profile values and minima", passed, t0)
    assert elapsed < 10.0


def test_criterion_5_minimal_sections():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 2)
    # (i) local: one positive coordinate
    worst = math.inf
    for n in range(3, 9):
        floor = cf.special_min_volume(n)
        for _ in range(10_000):
            a = cf.random_direction_sign_pattern(n, 1, rng)
            worst = min(worst, cf.residue_volume(a).value - floor)
    # (ii) global for n in {2, 3, 4}
    margins = {}
    for n in (2, 3, 4):
        rep = extremal.verify_global_minimum(n, trials=10_000, seed=SEED + 10 + n)
        margins[n] = rep.margin
    # the two-positive family bottoms at the frustum midpoint values
    assert oracle.frustum_volume(2, 0.5) == pytest.approx(0.5, rel=1e-12, abs=0)
    assert oracle.frustum_volume(3, 0.5) == pytest.approx(
        9 * math.sqrt(6) / 125, rel=1e-12, abs=0
    )
    elapsed = time.time() - t0
    passed = worst >= -1e-10 and all(m >= -1e-10 for m in margins.values()) and elapsed < 180.0
    _report(
        5,
        "minimal sections (local and small-n global)",
        passed,
        t0,
        f"local margin {worst:.2e}, global margins "
        + ", ".join(f"n={n}: {m:.2e}" for n, m in margins.items()),
    )
    assert worst >= -1e-10
    for m in margins.values():
        assert m >= -1e-10
    assert elapsed < 180.0


def test_criterion_6_kdim_bounds():
    t0 = time.time()
    results = {}
    for n, k in ((4, 3), (5, 3), (5, 4), (6, 4)):
        rep = extremal.verify_kdim_bounds(n, k, trials=1000, seed=SEED + 20 + 10 * n + k)
        want = math.sqrt(n + 1) / (math.factorial(k - 1) * math.sqrt(n + 2 - k))
        assert abs(rep.witness_value - want) <= 1e-9
        assert rep.witness_saturates
        results[(n, k)] = rep.max_ratio_general
    elapsed = time.time() - t0
    passed = all(r <= 1.0 + 1e-9 for r in results.values()) and elapsed < 300.0
    _report(
        6,
        "k-dimensional bounds",
        passed,
        t0,
        "max vol/bound " + ", ".join(f"{nk}: {r:.3f}" for nk, r in results.items()),
    )
    assert all(r <= 1.0 + 1e-9 for r in results.values())
    assert elapsed < 300.0


def test_criterion_7_compressed_simplex():
    t0 = time.time()
    assert irregular.central_vs_face_ratio_limit(5) == pytest.approx(1.125, abs=1e-15)
    assert irregular.central_vs_face_ratio_limit(7) == pytest.approx(1.25, abs=1e-15)
    found = {}
    for n in (5, 7):
        delta, ratio = irregular.find_central_dominating_delta(n)
        found[n] = (delta, ratio)
        emp = irregular.extrapolated_degeneracy_ratio(n)
        assert emp == pytest.approx(irregular.central_vs_face_ratio_limit(n), abs=1e-5)
    with pytest.raises(Exception) as exc_info:
        irregular.find_central_dominating_delta(3)
    assert exc_info.type.__name__ == "NotFound"
    elapsed = time.time() - t0
    passed = elapsed < 120.0
    _report(
        7,
        "compressed simplex beats its faces",
        passed,
        t0,
        ", ".join(f"n={n}: delta={d:.4f} ratio={r:.4f}" for n, (d, r) in found.items()),
    )
    assert elapsed < 120.0


def test_criterion_8_representation_roundtrips():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 3)
    worst_rt = 0.0
    worst_dist = 0.0
    for n in range(2, 9):
        for _ in range(10_000):
            raw = rng.standard_normal(n + 1)
            raw -= raw.mean()
            nrm = float(np.linalg.norm(raw))
            if nrm < 1e-9:
                continue
            raw /= nrm
            t = float(rng.uniform(-0.4, 0.4))
            form = cf.CentralForm.make(raw, t)
            b = cf.central_to_embedded(form)
            back = cf.embedded_to_central(b)
            worst_rt = max(
                worst_rt,
                abs(back.t - form.t),
                float(np.max(np.abs(back.a0.a - form.a0.a))),
            )
            worst_dist = max(worst_dist, abs(cf.centroid_distance(b) - abs(form.t)))
    elapsed = time.time() - t0
    passed = worst_rt < 1e-10 and worst_dist < 1e-12 and elapsed < 30.0
    _report(
        8,
        "representation round trips",
        passed,
        t0,
        f"roundtrip {worst_rt:.2e}, distance {worst_dist:.2e}",
    )
    assert worst_rt < 1e-10
    assert worst_dist < 1e-12
    assert elapsed < 30.0


def test_criterion_9_rescaling_monotonicity():
    """Implemented exactly as specified; known to fail.

    The claim that concentrating a sign block never decreases the residue
    functional (and balancing never increases it) is the paper's proof
    device for the extremal bounds.  The termwise inequality behind it is
    correct, but the functional's terms alternate in sign whenever at least
    two coordinates are positive, so the termwise estimate does not
    survive the sum.  Randomized search finds violations immediately, and
    the geometric vertex-enumeration oracle confirms every violating pair
    of volumes independently, so this is a defect of the claim, not of the
    implementation.  The downstream bound theorems are unaffected (criteria
    3, 5 and 6 pass).
    """
    t0 = time.time()
    rng = np.random.default_rng(SEED + 4)
    conc_viol = bal_viol = 0
    bracket_failures = 0
    trials = 10_000
    for _ in range(trials):
        n = int(rng.integers(3, 9))
        K = float(rng.uniform(0.0, 1.0))
        while True:
            a = cf.random_direction_fixed_sum(n, K, rng)
            if a.positive_indices() and a.negative_indices():
                break
        f0 = cf.residue_functional(a)
        try:
            s = extremal.concentrate_transform(a)
            if cf.residue_functional(s.transformed) < f0 - 1e-10:
                conc_viol += 1
        except NoSolution:
            bracket_failures += 1
        try:
            s = extremal.balance_transform(a)
            if cf.residue_functional(s.transformed) > f0 + 1e-10:
                bal_viol += 1
        except NoSolution:
            bracket_failures += 1
    elapsed = time.time() - t0
    passed = conc_viol == 0 and bal_viol == 0 and bracket_failures == 0 and elapsed < 60.0
    _report(
        9,
        "rescaling monotonicity",
        passed,
        t0,
        f"concentrate violations {conc_viol}/{trials}, balance violations "
        f"{bal_viol}/{trials}, bracket failures {bracket_failures}",
    )
    assert bracket_failures == 0
    assert elapsed < 60.0
    assert conc_viol == 0, (
        "concentrate_transform decreased the functional; known defect of the "
        "monotonicity claim, see the test docstring"
    )
    assert bal_viol == 0, (
        "balance_transform increased the functional; known defect of the "
        "monotonicity claim, see the test docstring"
    )
