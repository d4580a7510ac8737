"""The checks of `simplex-sections verify`: suite -> named check(n_max, trials, seed).

A check returns its detail (or None), or fails by raising CounterexampleFound
or AssertionError.  Checks look up closed-form names through the module when
they run, so that a test can plant a wrong bound or floor there.
"""
from __future__ import annotations

import math
import time
from collections import namedtuple
from functools import partial

import numpy as np

from . import closed_form as cf, extremal, irregular, oracle, quadrature
from .errors import CounterexampleFound, NotFound

# n_min: the smallest n_max at which the check checks anything (below 3
# several checks sample no n at all)
Check = namedtuple("Check", "name check n_min", defaults=(3,))


def _closed_form_constants(n_max: int, trials: int, seed: int) -> dict:
    for n in range(2, n_max + 1):
        for make, closed in (
            (cf.a_min_direction, cf.special_min_volume),
            (cf.a_max_direction, cf.special_max_volume),
        ):
            got = cf.residue_volume(make(n)).value
            want = closed(n)
            assert abs(got / want - 1.0) < 1e-12, (n, got, want)
    return {"n_max": n_max}


def _representation_roundtrip(n_max: int, trials: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    count = max(trials // 10, 100)
    for _ in range(count):
        n = int(rng.integers(2, max(3, n_max) + 1))
        raw = rng.standard_normal(n + 1)
        raw -= raw.mean()
        raw /= np.linalg.norm(raw)
        t = float(rng.uniform(-0.3, 0.3))
        form = cf.CentralForm.make(raw, t)
        b = cf.central_to_embedded(form)
        back = cf.embedded_to_central(b)
        assert abs(back.t - form.t) < 1e-10
        assert float(np.max(np.abs(back.a0.a - form.a0.a))) < 1e-10
        assert abs(cf.centroid_distance(b) - abs(form.t)) < 1e-12
    return {"count": count}


def _three_method_agreement(n_max: int, trials: int, seed: int) -> dict:
    rng = np.random.default_rng(seed + 1)
    dirs = max(trials // 50, 5)
    worst_q = worst_o = 0.0
    for n in range(3, min(n_max, 7) + 1):
        spec = oracle.regular_simplex(n)
        for _ in range(dirs):
            # a sum-zero unit vector has coordinates of both signs
            a = cf.random_direction_fixed_sum(n, 0.0, rng)
            rv = cf.residue_volume(a).value
            qv = quadrature.hyperplane_volume_quadrature(a, 1e-8).value
            ov = oracle.polytope_volume(oracle.hyperplane_section_vertices(spec, a)).value
            worst_q = max(worst_q, abs(qv / rv - 1.0))
            worst_o = max(worst_o, abs(ov / rv - 1.0))
    assert worst_q < 1e-7, worst_q
    assert worst_o < 1e-9, worst_o
    return {"worst_quadrature_rel": worst_q, "worst_oracle_rel": worst_o}


def _prefactor_consistency(n_max: int, trials: int, seed: int) -> None:
    rng = np.random.default_rng(seed + 2)
    for _ in range(200):
        n = int(rng.integers(3, max(4, n_max) + 1))
        a = cf.random_direction_fixed_sum(n, float(rng.uniform(0, 1)), rng)
        basis = quadrature.hyperplane_basis_of(a)
        d = quadrature._direct_prefactor(basis)
        p = quadrature._pyramid_prefactor(basis)
        assert abs(d - p) < 1e-12 * max(1.0, abs(d))


def _max_bound_saturation(n_max: int, trials: int, seed: int) -> None:
    for n in range(3, n_max + 1):
        for K in np.linspace(0.0, 0.99, 12):
            bound, maximizer = cf.max_noncentral_bound(n, float(K))
            got = cf.residue_volume(maximizer).value
            assert abs(got / bound - 1.0) < 1e-12


def _kdim_bound_pair(n_max: int, trials: int, seed: int) -> dict:
    for n in range(3, max(n_max, 10) + 1):
        for k in range(2, n + 1):
            g, c = cf.brascamp_lieb_bounds(n, k)
            assert g >= c - 1e-12
    ratios = [g / c for g, c in (cf.brascamp_lieb_bounds(n, 3) for n in range(3, 51))]
    assert all(r >= 1.0 - 1e-12 for r in ratios)
    assert abs(ratios[-1] - 1.0) < 0.02
    return {"ratio_at_n50": ratios[-1]}


def _noncentral_bound_validity(n_max: int, trials: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    per = max(trials // 5, 200)
    for n in range(3, min(n_max, 8) + 1):
        for K in (0.0, 0.25, 0.5, 0.75, 1.0):
            extremal.max_fixed_sum_volume(n, K, per, rng, cf.max_noncentral_bound(n, K)[0])
    return {"per_cell": per}


def _local_minimum_pattern(n_max: int, trials: int, seed: int) -> dict:
    rng = np.random.default_rng(seed + 3)
    per = max(trials // 5, 200)
    for n in range(3, min(n_max, 8) + 1):
        extremal.min_sign_pattern_volume(n, 1, per, rng, cf.special_min_volume(n))
    return {"per_n": per}


def _global_minimum_small_n(n_max: int, trials: int, seed: int) -> dict:
    out = {}
    for n in (2, 3, 4):
        rep = extremal.verify_global_minimum(n, trials, seed + n)
        out[str(n)] = {"min": rep.min_value, "margin": rep.margin}
    assert abs(oracle.frustum_volume(2, 0.5) - 0.5) < 1e-12
    assert abs(oracle.frustum_volume(3, 0.5) - 9 * math.sqrt(6) / 125) < 1e-12
    return out


def _frustum_minima(n_max: int, trials: int, seed: int) -> dict:
    for N, want in ((2, 0.5), (3, 0.5), (4, 0.5)):
        x, _ = extremal.minimize_frustum(N, 2000)
        assert abs(x - want) < 1e-8
    x5, v5 = extremal.minimize_frustum(5, 2000)
    assert oracle.frustum_volume(5, 0.0) < oracle.frustum_volume(5, 0.5)
    assert abs(x5) < 1e-8
    return {"argmin_N5": x5, "min_N5": v5}


def _concentration_chain_endpoint(n_max: int, trials: int, seed: int) -> None:
    rng = np.random.default_rng(seed + 4)
    for _ in range(max(trials // 20, 50)):
        K = float(rng.uniform(0.0, 0.95))
        n = int(rng.integers(3, min(n_max, 8) + 1))
        # sum K in [0, 1) and norm 1 force coordinates of both signs
        a = cf.random_direction_fixed_sum(n, K, rng)
        s1 = extremal.concentrate_transform(a, "negative")
        s2 = extremal.concentrate_transform(s1.transformed, "positive")
        f = cf.residue_functional(s2.transformed)
        assert abs(f - 1.0 / math.sqrt(2.0 - K * K)) < 1e-10


def _kdim_bounds(n: int, k: int, n_max: int, trials: int, seed: int) -> dict:
    rep = extremal.verify_kdim_bounds(n, k, trials, seed + 10 * n + k)
    assert rep.witness_saturates, (n, k, rep.witness_value)
    return {
        "n": n,
        "k": k,
        "max_ratio_general": rep.max_ratio_general,
        "qualified": rep.qualified_count,
        "witness_value": rep.witness_value,
    }


def _ratio_limits(n_max: int, trials: int, seed: int) -> None:
    assert abs(irregular.central_vs_face_ratio_limit(5) - 1.125) < 1e-15
    assert abs(irregular.central_vs_face_ratio_limit(7) - 1.25) < 1e-15
    assert abs(irregular.central_vs_face_ratio_limit(3) - 1.0) < 1e-15
    for n in (5, 7):
        emp = irregular.extrapolated_degeneracy_ratio(n)
        assert abs(emp - irregular.central_vs_face_ratio_limit(n)) < 1e-5


def _central_dominates_faces(n_max: int, trials: int, seed: int) -> dict:
    out = {}
    for n in (5, 7):
        if n > n_max:
            continue
        delta, ratio = irregular.find_central_dominating_delta(n)
        out[str(n)] = {"delta": delta, "ratio": ratio}
    try:
        irregular.find_central_dominating_delta(3)
        raise AssertionError("n=3 search unexpectedly succeeded")
    except NotFound:
        pass
    return out


SUITES: dict[str, tuple[Check, ...]] = {
    "formulas": (
        Check("closed_form_constants", _closed_form_constants),
        Check("representation_roundtrip", _representation_roundtrip),
        Check("three_method_agreement", _three_method_agreement),
        Check("prefactor_consistency", _prefactor_consistency),
        Check("max_bound_saturation", _max_bound_saturation),
        Check("kdim_bound_pair", _kdim_bound_pair),
    ),
    "extremal": (
        Check("noncentral_bound_validity", _noncentral_bound_validity),
        Check("local_minimum_pattern", _local_minimum_pattern),
        Check("global_minimum_small_n", _global_minimum_small_n),
        Check("frustum_minima", _frustum_minima),
        Check("concentration_chain_endpoint", _concentration_chain_endpoint),
    ),
    "kdim": tuple(
        Check(f"kdim_bounds_{n}_{k}", partial(_kdim_bounds, n, k), n_min=n)
        for n, k in ((4, 3), (5, 3), (5, 4), (6, 4))
    ),
    "irregular": (
        Check("ratio_limits", _ratio_limits),
        Check("central_dominates_faces", _central_dominates_faces),
    ),
}


def run(suite: str, n_max: int, trials: int, seed: int) -> list[dict]:
    """Run the checks of `suite` that apply at n_max, in table order.

    Each gives a record with its name, suite, verdict and seconds, and its
    detail: the check's own, or the error and witness of its failure.
    """
    results = []
    for name, check, n_min in SUITES[suite]:
        if n_max < n_min:
            continue
        t0 = time.perf_counter()
        try:
            passed, extra = True, check(n_max, trials, seed) or {}
        except (CounterexampleFound, AssertionError) as exc:
            passed, extra = False, {"error": str(exc)}
            if isinstance(exc, CounterexampleFound) and exc.witness is not None:
                extra["witness"] = exc.witness
        results.append({"name": name, "suite": suite, "passed": passed,
                        "seconds": time.perf_counter() - t0, **({"detail": extra} if extra else {})})
    return results
