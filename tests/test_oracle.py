import dataclasses
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from test_closed_form import _exact_residue_sum

from simplex_sections import closed_form as cf
from simplex_sections import extremal, irregular, linalg, oracle, subspaces
from simplex_sections.errors import (
    DegeneratePolytope,
    EmptySection,
    NotSupported,
    OutOfRange,
    PointSection,
    ZeroHits,
)


# --- hyperplane section vertices --------------------------------------------

def test_square_section_n3():
    spec = oracle.regular_simplex(3)
    poly = oracle.hyperplane_section_vertices(spec, cf.Direction.make([0.5, 0.5, -0.5, -0.5]))
    assert poly.vertex_count == 4
    assert poly.dim == 2
    # all four vertices are edge midpoints
    for v in poly.vertices:
        nz = np.sort(v[np.abs(v) > 1e-12])
        assert np.allclose(nz, [0.5, 0.5])
    # the four edges have equal length: a square
    for zs in poly.zero_sets:
        assert len(zs) == 2


def test_face_parallel_section_structure():
    n = 5
    spec = oracle.regular_simplex(n)
    poly = oracle.hyperplane_section_vertices(spec, cf.a_min_direction(n))
    assert poly.vertex_count == n
    assert poly.dim == n - 1
    # a regular (n-2)-simplex: all pairwise distances equal
    dists = [
        np.linalg.norm(poly.vertices[i] - poly.vertices[j])
        for i in range(n)
        for j in range(i + 1, n)
    ]
    assert max(dists) - min(dists) < 1e-12
    # parallel to the face x_1 = 0: every vertex has the same first coordinate
    assert np.ptp(poly.vertices[:, 0]) < 1e-12


def test_segment_section_n2():
    spec = oracle.regular_simplex(2)
    poly = oracle.hyperplane_section_vertices(
        spec, cf.Direction.make([2.0, -1.0, -1.0]))
    assert poly.vertex_count == 2
    assert poly.dim == 1


def test_section_errors():
    spec = oracle.regular_simplex(3)
    with pytest.raises(EmptySection):
        oracle.hyperplane_section_vertices(spec, [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(PointSection):
        oracle.hyperplane_section_vertices(spec, [0.0, 1.0, 1.0, 1.0])


def test_vertices_on_hyperplane_included():
    spec = oracle.regular_simplex(4)
    poly = oracle.hyperplane_section_vertices(spec, [1.0, 0.0, 0.0, 0.0, -1.0])
    # e_2, e_3, e_4 lie on the hyperplane; one edge crossing between e_1, e_5
    assert poly.vertex_count == 4


# --- k-dimensional section vertices ------------------------------------------

def test_kdim_matches_hyperplane_vertices():
    n = 5
    rng = np.random.default_rng(0)
    spec = oracle.regular_simplex(n)
    a = cf.random_direction_fixed_sum(n, 0.3, rng)
    p1 = oracle.hyperplane_section_vertices(spec, a)
    p2 = oracle.kdim_section_vertices(spec, subspaces.hyperplane_basis(a.a))
    assert p1.vertex_count == p2.vertex_count
    got = sorted(tuple(np.round(v, 10)) for v in p2.vertices)
    want = sorted(tuple(np.round(v, 10)) for v in p1.vertices)
    assert got == want


def test_kdim_face_case():
    n, k = 5, 3
    spec = oracle.regular_simplex(n)
    basis = subspaces.complement_of_span([np.eye(n + 1)[i] for i in range(k)])
    poly = oracle.kdim_section_vertices(spec, basis)
    assert poly.vertex_count == k
    got = sorted(tuple(np.round(v, 12)) for v in poly.vertices)
    want = sorted(tuple(np.eye(n + 1)[i]) for i in range(k))
    assert got == want


def test_kdim_witness_vertices():
    # k-1 vertices plus the centroid of the remaining face
    n, k = 5, 3
    spec = oracle.regular_simplex(n)
    span = [np.eye(n + 1)[i] for i in range(k - 1)]
    rest = np.zeros(n + 1)
    rest[k - 1:] = 1.0
    span.append(rest)
    poly = oracle.kdim_section_vertices(spec, subspaces.complement_of_span(span))
    assert poly.vertex_count == k
    key = sorted(tuple(np.round(v, 10)) for v in poly.vertices)
    expect = sorted(
        [
            tuple(np.eye(6)[0]),
            tuple(np.eye(6)[1]),
            tuple(np.round(np.array([0, 0, 0.25, 0.25, 0.25, 0.25]), 10)),
        ]
    )
    assert key == expect


def test_kdim_enumeration_limits():
    spec = oracle.regular_simplex(5)
    rows = linalg.gram_schmidt(np.random.default_rng(1).standard_normal((5, 6)))
    with pytest.raises(NotSupported):
        oracle.kdim_section_vertices(spec, subspaces.SubspaceBasis(n=5, vectors=np.array(rows)))


def _pivoted_solve(a, b):
    """Gaussian elimination with partial pivoting; None below the pivot threshold."""
    u = np.array(a, dtype=float)
    y = np.array(b, dtype=float)
    m = len(y)
    scale = float(np.max(np.abs(u)))
    for col in range(m):
        piv = col + int(np.argmax(np.abs(u[col:, col])))
        u[[col, piv]], y[[col, piv]] = u[[piv, col]], y[[piv, col]]
        if u[col, col] != 0.0:
            f = u[col + 1:, col] / u[col, col]
            u[col + 1:, col:] -= np.outer(f, u[col, col:])
            y[col + 1:] -= f * y[col]
    x = np.zeros(m)
    for col in range(m - 1, -1, -1):
        if abs(u[col, col]) < linalg.PIVOT_RTOL * scale:
            return None
        x[col] = (y[col] - u[col, col + 1:] @ x[col + 1:]) / u[col, col]
    return x


def _reference_enumeration(spec, basis):
    """One support at a time, as a scalar loop, then the first-come dedupe."""
    codim = basis.codim
    cons = basis.vectors @ spec.vertices
    rhs = np.zeros(codim + 1)
    rhs[0] = 1.0
    points, zsets, skipped = [], [], 0
    for support in combinations(range(spec.n + 1), codim + 1):
        sol = _pivoted_solve(np.vstack([np.ones(codim + 1), cons[:, support]]), rhs)
        if sol is None:
            skipped += 1
            continue
        if np.min(sol) < -1e-12:
            continue
        lam = np.zeros(spec.n + 1)
        lam[list(support)] = np.clip(sol, 0.0, None)
        p = spec.vertices @ lam
        z = frozenset(j for j in range(spec.n + 1) if lam[j] <= oracle.ZERO_COORD_TOL)
        for i, q in enumerate(points):
            if np.max(np.abs(p - q)) < oracle.VERTEX_DEDUP_TOL:
                zsets[i] = zsets[i] | z
                break
        else:
            points.append(p)
            zsets.append(z)
    return np.array(points), zsets, skipped


def _near_singular_basis():
    # coordinates 0 and 1 agree to 1e-14 in both rows, so every support holding
    # both has a near-singular system
    rng = np.random.default_rng(9)
    rows = rng.standard_normal((2, 7))
    rows[:, 1] = rows[:, 0] + 1e-14
    rows -= rows.mean(axis=1, keepdims=True)  # keep the centroid in H
    return subspaces.basis_from_rows(rows)


def _enumeration_cases():
    rng = np.random.default_rng(17)
    for n in range(3, 11):
        for codim in range(1, min(4, n) + 1):
            for _ in range(2):
                yield subspaces.random_subspace_through_centroid(n, n + 1 - codim, rng)
    for n, k in [(4, 3), (5, 3), (5, 4), (6, 4), (8, 5)]:
        yield extremal.conjectured_kdim_maximizer(n, k)
    for n, k in [(4, 2), (5, 3), (6, 4), (7, 5)]:
        yield subspaces.complement_of_span([np.eye(n + 1)[i] for i in range(k)])


def test_batched_enumeration_matches_per_support_loop():
    near = _near_singular_basis()
    assert _reference_enumeration(oracle.regular_simplex(near.n), near)[2] > 0
    for basis in [*_enumeration_cases(), near]:
        spec = oracle.regular_simplex(basis.n)
        want_pts, want_zs, _ = _reference_enumeration(spec, basis)
        poly = oracle.kdim_section_vertices(spec, basis)
        assert list(poly.zero_sets) == want_zs
        assert np.max(np.abs(poly.vertices - want_pts)) <= 1e-12


# --- polytope volume -----------------------------------------------------------

def test_segment_volume():
    spec = oracle.regular_simplex(4)
    poly = oracle.kdim_section_vertices(
        spec, subspaces.complement_of_span([np.eye(5)[0], np.eye(5)[1]])
    )
    assert oracle.polytope_volume(poly).value == pytest.approx(math.sqrt(2), rel=1e-14)


def test_segment_with_three_collinear_vertices_is_degenerate():
    # a 1-dim face must have two vertices; a third on the same line is refused
    poly = oracle.SectionPolytope(
        dim=1,
        vertices=np.array([[1.0, 0, 0], [0.5, 0.5, 0], [0, 1.0, 0]]),
        zero_sets=(frozenset({1, 2}), frozenset({2}), frozenset({0, 2})),
    )
    with pytest.raises(DegeneratePolytope, match="1-dim face with 3 vertices"):
        oracle.polytope_volume(poly)


def test_half_half_square_volume():
    spec = oracle.regular_simplex(3)
    poly = oracle.hyperplane_section_vertices(spec, cf.Direction.make([0.5, 0.5, -0.5, -0.5]))
    assert oracle.polytope_volume(poly).value == pytest.approx(0.5, rel=1e-13)


def test_face_volume_formula():
    # the (k-1)-face spanned by k vertices has volume sqrt(k)/(k-1)!
    for k in range(2, 8):
        n = max(k, 3)
        spec = oracle.regular_simplex(n)
        basis = subspaces.complement_of_span([np.eye(n + 1)[i] for i in range(k)])
        if basis.codim > 4:
            continue
        poly = oracle.kdim_section_vertices(spec, basis)
        want = math.sqrt(k) / math.factorial(k - 1)
        assert oracle.polytope_volume(poly).value == pytest.approx(want, rel=1e-12)


def test_oracle_agrees_with_residue():
    rng = np.random.default_rng(2)
    for n in range(3, 8):
        spec = oracle.regular_simplex(n)
        for _ in range(120):
            a = cf.random_direction_fixed_sum(n, float(rng.uniform(0, 0.9)), rng)
            try:
                rv = cf.residue_volume(a)
            except EmptySection:
                continue
            poly = oracle.hyperplane_section_vertices(spec, a)
            ov = oracle.polytope_volume(poly)
            assert ov.value == pytest.approx(rv.value, rel=1e-9)


def _relabelled(poly, perm):
    return dataclasses.replace(
        poly, vertices=poly.vertices[perm], zero_sets=tuple(poly.zero_sets[i] for i in perm)
    )


def test_kdim_volume_stable_under_vertex_order_and_rounding():
    # the first draw at n = 12, codim 4 (149 vertices); a centroid-apex pyramid
    # recursion was 3.4e-8 relative off here, and moved by 5e-8 under this
    # 1e-15 relative jitter
    spec = oracle.regular_simplex(12)
    basis = subspaces.random_subspace_through_centroid(12, 9, np.random.default_rng([7, 12, 4]))
    poly = oracle.kdim_section_vertices(spec, basis)
    ref = oracle.polytope_volume(poly).value
    rng = np.random.default_rng(3)
    for _ in range(3):
        moved = _relabelled(poly, rng.permutation(poly.vertex_count))
        assert oracle.polytope_volume(moved).value == pytest.approx(ref, rel=1e-12, abs=0)
    jitter = 1.0 + 1e-15 * rng.standard_normal(poly.vertices.shape)
    shaken = dataclasses.replace(poly, vertices=poly.vertices * jitter)
    assert oracle.polytope_volume(shaken).value == pytest.approx(ref, rel=1e-12, abs=0)


def test_pulling_refuses_label_classes_that_are_not_facets():
    # the section of [1, 1, -1, 0] is the triangle e_3 v_02 v_12; label 2 marks
    # only e_3, a vertex rather than an edge, so once e_3 is not pulled first
    # the rank test must refuse that class
    spec = oracle.regular_simplex(3)
    poly = oracle.hyperplane_section_vertices(spec, np.array([1.0, 1.0, -1.0, 0.0]))
    want = oracle.polytope_volume(poly).value
    moved = dataclasses.replace(_relabelled(poly, [1, 2, 0]), simplices=None)
    assert oracle.polytope_volume(moved).value == pytest.approx(want, rel=1e-12, abs=0)


def _triangulated_and_pyramid(spec, b):
    # staircase triangulation against the pulling triangulation of the same
    # polytope, which polytope_volume uses once `simplices` is dropped
    poly = oracle.hyperplane_section_vertices(spec, b)
    assert poly.simplices.shape[1] == poly.dim + 1  # the triangulation is used
    tri = oracle.polytope_volume(poly).value
    pyr = oracle.polytope_volume(dataclasses.replace(poly, simplices=None)).value
    return tri, pyr


@pytest.mark.parametrize("n", range(3, 8))
def test_triangulation_matches_pyramid_random(n):
    rng = np.random.default_rng(40 + n)
    spec = oracle.regular_simplex(n)
    for _ in range(6):
        a = cf.random_direction_fixed_sum(n, float(rng.uniform(0, 0.9)), rng)
        tri, pyr = _triangulated_and_pyramid(spec, a)
        assert tri == pytest.approx(pyr, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "coords",
    [
        [0.6, 0.0, -0.2, -0.5, 0.1, -0.3],
        [0.7, 0.0, 0.0, -0.4, 0.2, -0.5],
        [1.0, 0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 1.0],  # no crossings: the section is the edge e_1 e_2
    ],
)
def test_triangulation_matches_pyramid_exact_zero(coords):
    spec = oracle.regular_simplex(len(coords) - 1)
    tri, pyr = _triangulated_and_pyramid(spec, np.array(coords))
    assert tri == pytest.approx(pyr, rel=1e-12, abs=0)


def test_triangulation_matches_pyramid_irregular():
    sim = irregular.compressed_simplex(5, -0.1)
    b = sim.half_split_vector() + np.array([0.3, -0.2, 0.1, 0.25, -0.15, 0.05])
    tri, pyr = _triangulated_and_pyramid(sim.spec(), b)
    assert tri == pytest.approx(pyr, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "coords",
    [
        [0.5, 1e-12, 0.3, -0.4, -0.6],
        [0.6, 1e-12, -0.2, -0.5, 0.1, -0.3],
        [0.502, 0.337, 0.226, -0.764, -2.86e-11],
        [0.848, 0.34, -0.272, -0.257, -0.161, 2.49e-11],
    ],
    ids=["tiny-positive-5", "tiny-positive-6", "tiny-negative", "tiny-positive-thin"],
)
def test_oracle_matches_exact_rationals_near_zero(coords):
    d = cf.Direction.make(coords, canonicalize=False)
    n = d.n
    res = oracle.polytope_volume(oracle.hyperplane_section_vertices(oracle.regular_simplex(n), d))
    # the volume is sqrt(q), q rational for any (not only unit) normal a:
    # q = ((n+1)|a|^2 - K^2) F(a)^2 / (n-1)!^2, F the residue sum
    a = [Fraction(c) for c in d.a]
    K = sum(a)
    q = ((n + 1) * sum(c * c for c in a) - K * K) * _exact_residue_sum(d.a) ** 2
    q /= math.factorial(n - 1) ** 2
    lo, hi = Fraction(res.value) - Fraction(res.err), Fraction(res.value) + Fraction(res.err)
    assert lo * lo <= q <= hi * hi


# --- parallel-slice structure (two positive, equal negative coordinates) -------

def _two_block_direction(a1, a2, N):
    coords = np.array([a1, a2] + [-(a1 + a2) / N] * N)
    return cf.Direction.make(coords / np.linalg.norm(coords), canonicalize=False)


def test_parallel_slice_structure():
    a1, a2, N = 0.8, 0.45, 4
    d = _two_block_direction(a1, a2, N)
    beta = float(d.a[2])
    spec = oracle.regular_simplex(N + 1)
    poly = oracle.hyperplane_section_vertices(spec, d)
    assert poly.vertex_count == 2 * N

    groups = {0: [], 1: []}
    for v, zs in zip(poly.vertices, poly.zero_sets):
        owner = 0 if 0 not in zs else 1
        groups[owner].append(v)
    scaled = [float(d.a[0]), float(d.a[1])]
    hulls = []
    for i in (0, 1):
        pts = np.array(groups[i])
        assert pts.shape[0] == N
        # a regular (N-1)-simplex of side sqrt(2) a_i / (a_i - beta)
        want = math.sqrt(2) * scaled[i] / (scaled[i] - beta)
        for p in range(N):
            for q in range(p + 1, N):
                assert np.linalg.norm(pts[p] - pts[q]) == pytest.approx(want, abs=1e-10)
        centered = pts - pts.mean(axis=0)
        u, s, vt = np.linalg.svd(centered)
        hulls.append(vt[: N - 1])

    # affine hulls are parallel: each basis vector of one lies in the other
    b0, b1 = hulls
    for row in b0:
        resid = row - b1.T @ (b1 @ row)
        assert np.linalg.norm(resid) < 1e-9

    # centroid distance matches the closed form
    c0 = np.array(groups[0]).mean(axis=0)
    c1 = np.array(groups[1]).mean(axis=0)
    r0 = scaled[0] / (scaled[0] - beta)
    r1 = scaled[1] / (scaled[1] - beta)
    want_h = math.sqrt(
        beta**2 / (scaled[0] - beta) ** 2
        + beta**2 / (scaled[1] - beta) ** 2
        + (r0 - r1) ** 2 / N
    )
    assert np.linalg.norm(c0 - c1) == pytest.approx(want_h, abs=1e-10)


# --- frustum closed form ---------------------------------------------------------

def test_frustum_paper_values():
    assert oracle.frustum_volume(5, 0.0) == pytest.approx(
        125 / 186624 * math.sqrt(210), rel=1e-12
    )
    assert oracle.frustum_volume(5, 0.5) == pytest.approx(
        625 / 201684 * math.sqrt(10), rel=1e-12
    )
    assert oracle.frustum_volume(5, 0.0) < oracle.frustum_volume(5, 0.5)


def test_frustum_matches_residue_on_grid():
    N = 3
    for x in np.linspace(0.05, 0.95, 19):
        coords = np.array([x, 1 - x] + [-1.0 / N] * N)
        d = cf.Direction.make(coords / np.linalg.norm(coords))
        rv = cf.residue_volume(d)
        tol = max(1e-11 * rv.value, 5 * rv.err)
        assert abs(oracle.frustum_volume(N, float(x)) - rv.value) <= tol


def test_frustum_endpoint_is_padded_face_parallel_direction():
    # at x = 0 the two-positive normal degenerates to (0, face-parallel normal)
    for N in range(2, 7):
        padded = np.concatenate([[0.0], np.asarray(cf.a_min_direction(N).a)])
        want = cf.residue_volume(cf.Direction.make(padded, canonicalize=False)).value
        assert oracle.frustum_volume(N, 0.0) == pytest.approx(want, rel=1e-12)


def test_frustum_consistency_with_slice_decomposition():
    # V(x) equals height times the geometric cross-term sum of the two slices
    N, x = 4, 0.3
    d = _two_block_direction(x, 1 - x, N)
    spec = oracle.regular_simplex(N + 1)
    got = oracle.polytope_volume(oracle.hyperplane_section_vertices(spec, d)).value
    assert oracle.frustum_volume(N, x) == pytest.approx(got, rel=1e-11)


def test_frustum_domain():
    with pytest.raises(OutOfRange):
        oracle.frustum_volume(1, 0.5)
    with pytest.raises(OutOfRange):
        oracle.frustum_volume(3, 1.5)


# --- Monte Carlo slab -------------------------------------------------------------

def test_slab_matches_special_max():
    # the volume profile has a kink at the max section, so the slab bias is
    # first order in eps there; keep eps small relative to the noise
    res = oracle.monte_carlo_slab_volume(
        oracle.regular_simplex(4), cf.a_max_direction(4), eps=0.001, samples=10**6, seed=3
    )
    assert abs(res.value - cf.special_max_volume(4)) <= 3 * res.err


def test_slab_matches_half():
    res = oracle.monte_carlo_slab_volume(
        oracle.regular_simplex(3),
        cf.Direction.make([0.5, 0.5, -0.5, -0.5]),
        eps=0.01,
        samples=400_000,
        seed=4,
    )
    assert abs(res.value - 0.5) <= 3 * res.err


def test_slab_matches_residue_random():
    rng = np.random.default_rng(5)
    a = cf.random_direction_fixed_sum(5, 0.2, rng)
    res = oracle.monte_carlo_slab_volume(
        oracle.regular_simplex(5), a, eps=0.01, samples=400_000, seed=6
    )
    assert abs(res.value - cf.residue_volume(a).value) <= 3 * res.err


def _slab_reference(spec, b, eps, samples, seed):
    """The slab estimate with the spacings formed: sort, diff, map, dot."""
    u = np.sort(np.random.default_rng(seed).random((samples, spec.n)), axis=1)
    lam = np.diff(u, axis=1, prepend=0.0, append=1.0)
    p = np.count_nonzero(np.abs(lam @ spec.vertices.T @ b) <= eps) / samples
    b_par = math.sqrt(b @ b - b.sum() ** 2 / (spec.n + 1.0))
    return p * (oracle.simplex_volume(spec) * b_par / (2.0 * eps))


@pytest.mark.parametrize(
    "spec, b",
    [
        (oracle.regular_simplex(6), np.array([0.5, 0.3, -0.1, 0.2, -0.6, -0.4, 0.1])),
        (irregular.compressed_simplex(5, -0.1).spec(), np.array([0.6, -0.2, 0.3, -0.5, 0.1, -0.2])),
    ],
    ids=["regular", "general"],
)
def test_slab_matches_spacing_reference(spec, b):
    got = oracle.monte_carlo_slab_volume(spec, b, eps=0.01, samples=100_000, seed=11)
    assert got.value == _slab_reference(spec, b, 0.01, 100_000, 11)


def test_slab_zero_hits():
    # slab far outside the simplex: shifted normal never fires
    with pytest.raises(ZeroHits):
        oracle.monte_carlo_slab_volume(
            oracle.regular_simplex(3),
            np.array([1.0, -1.0, 0.0, 0.0]) * 1e6,
            eps=1e-9,
            samples=2_000,
            seed=7,
        )


# --- simplex helpers ----------------------------------------------------------------

def test_simplex_volume_regular():
    for n in (2, 3, 6):
        spec = oracle.regular_simplex(n)
        assert oracle.simplex_volume(spec) == pytest.approx(
            math.sqrt(n + 1) / math.factorial(n), rel=1e-13
        )


def test_general_simplex_requires_unit_column_sums():
    with pytest.raises(ValueError):
        oracle.general_simplex(np.eye(4) * 1.01)


def test_face_volumes_regular():
    n = 4
    fv = oracle.face_volumes(oracle.regular_simplex(n))
    want = math.sqrt(n) / math.factorial(n - 1)
    assert np.allclose(fv, want, rtol=1e-13)
