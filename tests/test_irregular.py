import math

import numpy as np
import pytest

from simplex_sections import closed_form as cf
from simplex_sections import irregular, oracle
from simplex_sections.errors import NotFound, OutOfRange


def test_zero_compression_is_regular():
    sim = irregular.compressed_simplex(5, 0.0)
    assert np.allclose(sim.matrix, np.eye(6))
    assert sim.spec().is_regular


def test_compression_determinant_and_columns():
    rng = np.random.default_rng(0)
    for n in (3, 5, 7):
        for _ in range(20):
            delta = float(rng.uniform(-1.0 / (n + 1) + 1e-6, 0.0))
            sim = irregular.compressed_simplex(n, delta)
            assert np.max(np.abs(sim.matrix.sum(axis=0) - 1.0)) < 1e-12
            got = np.linalg.det(sim.matrix)
            assert got == pytest.approx(1.0 + (n + 1) * delta, abs=1e-10)


def test_compression_block_pattern():
    sim = irregular.compressed_simplex(5, -0.1)
    m = sim.matrix
    assert m[0, 0] == pytest.approx(0.9)   # 1 + delta
    assert m[0, 1] == pytest.approx(-0.1)  # delta within a half
    assert m[0, 3] == pytest.approx(0.1)   # -delta across halves


def test_compression_domain():
    with pytest.raises(OutOfRange):
        irregular.compressed_simplex(4, -0.05)  # n+1 odd
    with pytest.raises(OutOfRange):
        irregular.compressed_simplex(5, 0.05)
    with pytest.raises(OutOfRange):
        irregular.compressed_simplex(5, -1.0 / 6.0)


def test_general_volume_reduces_to_residue_at_zero():
    rng = np.random.default_rng(1)
    sim = irregular.compressed_simplex(5, 0.0)
    for _ in range(20):
        a = cf.random_direction_fixed_sum(5, float(rng.uniform(0, 0.5)), rng)
        got = irregular.general_section_volume(sim, a)
        want = cf.residue_volume(a)
        assert got.value == pytest.approx(want.value, rel=1e-12, abs=0)


def test_general_volume_face_normal_vs_oracle():
    sim = irregular.compressed_simplex(5, -0.1)
    b = irregular._face_normal(5, -0.1)
    got = irregular.general_section_volume(sim, b).value
    faces = oracle.face_volumes(sim.spec())
    assert got == pytest.approx(float(faces[0]), abs=1e-9)


def test_general_volume_central_vs_oracle():
    sim = irregular.compressed_simplex(5, -0.1)
    a = np.array([1, 1, 1, -1, -1, -1.0]) / math.sqrt(6)
    got = irregular.general_section_volume(sim, a)
    poly = oracle.hyperplane_section_vertices(sim.spec(), a)
    want = oracle.polytope_volume(poly).value
    assert abs(got.value - want) <= max(1e-9, 5 * got.err)


def test_transform_consistency_random():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 100:
        delta = float(rng.uniform(-1.0 / 6.0 + 1e-3, 0.0))
        sim = irregular.compressed_simplex(5, delta)
        v = rng.standard_normal(6)
        v /= np.linalg.norm(v)
        try:
            got = irregular.general_section_volume(sim, v)
            poly = oracle.hyperplane_section_vertices(sim.spec(), v)
        except Exception:
            continue
        want = oracle.polytope_volume(poly).value
        assert got.value == pytest.approx(want, rel=1e-8, abs=0)
        checked += 1


def test_transformed_normal_preserves_vertex_count():
    rng = np.random.default_rng(3)
    for _ in range(20):
        delta = float(rng.uniform(-1.0 / 6.0 + 1e-3, -1e-3))
        sim = irregular.compressed_simplex(5, delta)
        v = rng.standard_normal(6)
        v /= np.linalg.norm(v)
        w = sim.matrix.T @ v
        w /= np.linalg.norm(w)
        try:
            p_gen = oracle.hyperplane_section_vertices(sim.spec(), v)
            p_reg = oracle.hyperplane_section_vertices(oracle.regular_simplex(5), w)
        except Exception:
            continue
        assert p_gen.vertex_count == p_reg.vertex_count


def test_face_volumes_all_equal():
    for delta in (-0.05, -0.1, -0.15):
        faces = oracle.face_volumes(irregular.compressed_simplex(5, delta).spec())
        assert np.ptp(faces) < 1e-10


def test_ratio_limits_closed_form():
    assert irregular.central_vs_face_ratio_limit(3) == pytest.approx(1.0, abs=1e-15)
    assert irregular.central_vs_face_ratio_limit(5) == pytest.approx(1.125, abs=1e-15)
    assert irregular.central_vs_face_ratio_limit(7) == pytest.approx(1.25, abs=1e-15)
    with pytest.raises(OutOfRange):
        irregular.central_vs_face_ratio_limit(4)


def test_ratio_below_one_at_regular():
    assert irregular.central_vs_face_ratio(5, 0.0) < 1.0
    assert irregular.central_vs_face_ratio(7, 0.0) < 1.0
    assert irregular.central_vs_face_ratio(3, 0.0) < 1.0


def test_ratio_continuity_on_grid():
    lo = -1.0 / 6.0 + 1e-6
    deltas = np.linspace(lo, 0.0, 1000)
    vals = [irregular.central_vs_face_ratio(5, float(d)) for d in deltas]
    steps = np.abs(np.diff(vals))
    assert np.max(steps) < 0.005  # no jumps on a fine grid
    # empirically monotone decreasing toward delta = 0
    assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


def test_extrapolated_ratio_limits():
    assert irregular.extrapolated_degeneracy_ratio(5) == pytest.approx(1.125, abs=1e-5)
    assert irregular.extrapolated_degeneracy_ratio(7) == pytest.approx(1.25, abs=1e-5)


def test_find_central_dominating_delta_n5():
    delta, ratio = irregular.find_central_dominating_delta(5)
    assert -1.0 / 6.0 < delta < 0.0
    assert ratio > 1.0 + 1e-6


def test_find_central_dominating_delta_n7():
    delta, ratio = irregular.find_central_dominating_delta(7)
    assert -1.0 / 8.0 < delta < 0.0
    assert ratio > 1.0 + 1e-6


def test_find_central_dominating_delta_n3_not_found():
    with pytest.raises(NotFound):
        irregular.find_central_dominating_delta(3)
