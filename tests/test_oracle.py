import dataclasses
import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from test_closed_form import _exact_residue_sum

from simplex_sections import closed_form as cf
from simplex_sections import extremal, irregular, linalg, oracle, subspaces
from simplex_sections.errors import (
    DegeneratePolytope,
    EmptySection,
    NotSupported,
    OutOfRange,
    PointSection,
    RankDeficient,
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
    rows = linalg.orthonormalize(np.random.default_rng(1).standard_normal((5, 6)))
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


VERTEX_DEDUP_TOL = 1e-10
ZERO_COORD_TOL = 1e-12


def _reference_enumeration(spec, basis):
    """One support at a time, as a scalar loop, then a first-come distance dedupe."""
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
        z = frozenset(j for j in range(spec.n + 1) if lam[j] <= ZERO_COORD_TOL)
        for i, q in enumerate(points):
            if np.max(np.abs(p - q)) < VERTEX_DEDUP_TOL:
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


def _codim1_directions():
    # normals from the hard regions: near ties of two and three positive
    # coordinates, a tiny or an exactly zero coordinate, and K close to 1
    rng = np.random.default_rng(23)
    for n in range(3, 11):
        p = rng.uniform(0.2, 1.0, max(3, (n + 1) // 2))
        v = np.concatenate([p, -rng.uniform(0.2, 1.0, n + 1 - len(p))])
        gap = 10.0 ** rng.uniform(-9.0, -4.0)
        pair = v.copy()
        pair[1] = pair[0] * (1.0 + gap)
        triple = pair.copy()
        triple[2] = pair[0] * (1.0 + 2.0 * gap)
        near, zero = v.copy(), v.copy()  # two positive coordinates stay
        near[len(p) - 1] = 10.0 ** rng.uniform(-13.0, -9.0) * rng.choice([-1.0, 1.0])
        zero[len(p) - 1] = 0.0
        k_near_1 = cf.random_direction_fixed_sum(n, 1.0 - 10.0 ** rng.uniform(-6.0, -2.0), rng)
        yield from (pair, triple, near, zero, k_near_1.a)


def test_kdim_codim1_matches_hyperplane_path():
    for a in _codim1_directions():
        spec = oracle.regular_simplex(len(a) - 1)
        want = oracle.hyperplane_section_vertices(spec, a)
        got = oracle.kdim_section_vertices(spec, subspaces.hyperplane_basis(a))
        assert got.dim == want.dim
        assert sorted(map(sorted, got.zero_sets)) == sorted(map(sorted, want.zero_sets))
        want_value = oracle.polytope_volume(want).value
        assert oracle.polytope_volume(got).value == pytest.approx(want_value, rel=1e-14, abs=0)


@pytest.mark.parametrize("thickness", [1e-11, 1e-9])
def test_kdim_thin_square_keeps_its_dimension(thickness):
    # the section of [1, 1, -t, -t] is a square of side ~t: thin, yet 2-dim;
    # its volume is only as good as the differences of its close vertices
    a = np.array([1.0, 1.0, -thickness, -thickness])
    spec = oracle.regular_simplex(3)
    poly = oracle.kdim_section_vertices(spec, subspaces.hyperplane_basis(a))
    assert (poly.vertex_count, poly.dim) == (4, 2)
    want = oracle.polytope_volume(oracle.hyperplane_section_vertices(spec, a)).value
    assert oracle.polytope_volume(poly).value == pytest.approx(want, rel=1e-4, abs=0)


def _rational_solve(a, b):
    """Gauss-Jordan elimination in rationals; None when `a` is singular."""
    rows = [list(r) + [y] for r, y in zip(a, b)]
    k = len(rows)
    for col in range(k):
        piv = next((r for r in range(col, k) if rows[r][col] != 0), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        for r in range(k):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][k] / rows[i][i] for i in range(k)]


def _rational_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _exact_enumeration(spec, basis):
    """One support at a time, solved in rationals: the vertices (rounded once),
    their exact zero sets and the exact dimension."""
    n1 = spec.n + 1
    cons = [[Fraction(x) for x in row] for row in (basis.vectors @ spec.vertices).tolist()]
    rhs = [Fraction(1)] + [Fraction(0)] * basis.codim
    found: dict[tuple, frozenset[int]] = {}  # exact lambda -> zero set, first come
    for support in combinations(range(n1), basis.codim + 1):
        system = [[Fraction(1)] * len(support)] + [[row[t] for t in support] for row in cons]
        sol = _rational_solve(system, rhs)
        if sol is None or min(sol) < 0:
            continue
        lam = [Fraction(0)] * n1
        for t, x in zip(support, sol):
            lam[t] = x
        found.setdefault(tuple(lam), frozenset(j for j in range(n1) if lam[j] == 0))
    lams = list(found)
    verts = [[Fraction(x) for x in row] for row in spec.vertices.tolist()]
    points = np.array([[float(sum(v * x for v, x in zip(row, lam))) for row in verts]
                       for lam in lams])
    dim = _rational_rank([[x - y for x, y in zip(lam, lams[0])] for lam in lams[1:]])
    return points, list(found.values()), dim


def _degenerate_basis(n, rows, i, j, kind, factor):
    """The H-perp basis of integer `rows` (codim, n+1) with column j set to
    column i times `factor` ("zero": 0, "parallel": the factor, "ulp": 1,
    then one ulp up after orthonormalization), or None when the rows are
    rank deficient.

    A column of the basis is the constraint row r_j of vertex j; Gram-Schmidt
    keeps zero and power-of-two-parallel columns exact.  Every minor on such
    a pair is zero or within rounding of it, so each input reaches the
    oracle's rational fallback.
    """
    rows = np.array(rows, dtype=float)
    rows[:, j] = rows[:, i] * factor
    rows[:, n] -= rows.sum(axis=1)  # integer rows, so they sum to 0 exactly
    try:
        q = np.array(linalg.orthonormalize(rows))
    except RankDeficient:
        return None
    if kind == "ulp":
        q[:, j] = np.where(q[:, i] != 0.0, np.nextafter(q[:, i], np.inf), 0.0)
    return subspaces.SubspaceBasis(n=n, vectors=q)


@st.composite
def _degenerate_subspaces(draw):
    """Codim-2 and -3 subspaces through the centroid whose basis has a zero
    column, two parallel columns, or two columns one ulp apart
    (`_degenerate_basis`)."""
    n = draw(st.integers(3, 7))
    codim = draw(st.integers(2, 3))
    row = st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1)
    rows = draw(st.lists(row, min_size=codim, max_size=codim))
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    kind = draw(st.sampled_from(["zero", "parallel", "ulp"]))
    factor = {"zero": st.just(0.0), "ulp": st.just(1.0)}.get(
        kind, st.sampled_from([1.0, -1.0, 2.0, -0.5]))
    basis = _degenerate_basis(n, rows, i, j, kind, draw(factor))
    assume(basis is not None)
    return basis


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_degenerate_subspaces())
def test_kdim_enumeration_matches_exact_rationals(basis):
    spec = oracle.regular_simplex(basis.n)
    points, zero_sets, dim = _exact_enumeration(spec, basis)
    if not zero_sets:
        with pytest.raises(EmptySection):
            oracle.kdim_section_vertices(spec, basis)
        return
    poly = oracle.kdim_section_vertices(spec, basis)
    assert poly.dim == dim
    assert list(poly.zero_sets) == zero_sets
    assert np.max(np.abs(poly.vertices - points)) <= 1e-12


def _block_cases():
    """The enumeration inputs above, the thin squares, the witness at
    n = 3-8 and three single-vertex (dim-0) sections."""
    yield from _enumeration_cases()
    yield _near_singular_basis()
    for t in (1e-5, 1e-7, 1e-9, 1e-11):
        yield subspaces.hyperplane_basis([1.0, 1.0, -t, -t])
    for n in range(3, 9):
        for k in range(max(2, n - 3), n + 1):
            yield extremal.conjectured_kdim_maximizer(n, k)
    for n in (2, 3, 4):
        yield subspaces.complement_of_span([np.eye(n + 1)[0]])


def _assert_blocks_match_one_subspace_calls(bases, chunk):
    # one block per shape, cut into blocks of `chunk` subspaces; then every
    # polytope, hyperplane sections with staircase edges among them, is
    # measured in one polytope_volumes call
    shapes: dict[tuple, list] = {}
    for basis in bases:
        shapes.setdefault(basis.vectors.shape, []).append(basis)
    polys, want = [], []
    for group in shapes.values():
        spec = oracle.regular_simplex(group[0].n)
        for lo in range(0, len(group), chunk):
            block = group[lo:lo + chunk]
            for basis, got in zip(block, oracle.kdim_sections(spec, [b.vectors for b in block])):
                one = oracle.kdim_section_vertices(spec, basis)
                assert (got.dim, got.zero_sets) == (one.dim, one.zero_sets)
                assert np.array_equal(got.vertices, one.vertices)
                polys.append(got)
                want.append(oracle.polytope_volume(one))
    for a in list(_codim1_directions())[::5]:
        poly = oracle.hyperplane_section_vertices(oracle.regular_simplex(len(a) - 1), a)
        polys.append(poly)
        want.append(oracle.polytope_volume(poly))
    got = oracle.polytope_volumes(polys)
    assert [(r.value, r.err) for r in got] == [(r.value, r.err) for r in want]


@pytest.mark.parametrize("chunk", [1, 7, 200])
def test_kdim_sections_match_one_subspace_calls(chunk):
    cases = list(_block_cases())
    assert any(oracle.kdim_section_vertices(oracle.regular_simplex(b.n), b).dim == 0
               for b in cases)
    _assert_blocks_match_one_subspace_calls(cases, chunk)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(_degenerate_subspaces(), min_size=1, max_size=8))
def test_kdim_sections_match_one_subspace_calls_on_degenerate_blocks(bases):
    def meets(basis):
        try:
            oracle.kdim_section_vertices(oracle.regular_simplex(basis.n), basis)
        except EmptySection:
            return False
        return True

    _assert_blocks_match_one_subspace_calls([b for b in bases if meets(b)], 3)


def test_kdim_sections_refuse_a_block_with_a_missing_subspace():
    # the hyperplane sum(x) = 0 misses the simplex, whose points sum to 1
    rows = [subspaces.hyperplane_basis([1.0, -1.0, 0.5, 0.0]).vectors,
            subspaces.hyperplane_basis([1.0, 1.0, 1.0, 1.0]).vectors]
    with pytest.raises(EmptySection):
        oracle.kdim_sections(oracle.regular_simplex(3), rows)


# --- polytope volume -----------------------------------------------------------

def test_segment_volume():
    spec = oracle.regular_simplex(4)
    poly = oracle.kdim_section_vertices(
        spec, subspaces.complement_of_span([np.eye(5)[0], np.eye(5)[1]])
    )
    assert oracle.polytope_volume(poly).value == pytest.approx(math.sqrt(2), rel=1e-14, abs=0)


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
    assert oracle.polytope_volume(poly).value == pytest.approx(0.5, rel=1e-13, abs=0)


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
        assert oracle.polytope_volume(poly).value == pytest.approx(want, rel=1e-12, abs=0)


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
            assert ov.value == pytest.approx(rv.value, rel=1e-9, abs=0)


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
    # maximality must refuse that class
    spec = oracle.regular_simplex(3)
    poly = oracle.hyperplane_section_vertices(spec, np.array([1.0, 1.0, -1.0, 0.0]))
    want = oracle.polytope_volume(poly).value
    moved = dataclasses.replace(_relabelled(poly, [1, 2, 0]), edges=None)
    assert oracle.polytope_volume(moved).value == pytest.approx(want, rel=1e-12, abs=0)


def _triangulated_and_pyramid(spec, b):
    # staircase triangulation against the pulling triangulation of the same
    # polytope, which polytope_volume uses once `edges` is dropped
    poly = oracle.hyperplane_section_vertices(spec, b)
    assert poly.edges.shape[2] == poly.dim  # the triangulation is used
    tri = oracle.polytope_volume(poly).value
    pyr = oracle.polytope_volume(dataclasses.replace(poly, edges=None)).value
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
        [1, 1, -1e-11, -1e-11],  # a square of side ~1e-11, not a segment
        [0.6, 5e-13, -0.2, -0.5, 0.1, -0.3],  # inside a 1e-12 relative zero snap
        [1, 1, 1, -1e-9, -2e-9, -3e-9],  # a 4-dim section, 1e-9 thin
    ],
    ids=[
        "tiny-positive-5",
        "tiny-positive-6",
        "tiny-negative",
        "tiny-positive-thin",
        "thin-square",
        "tiny-positive-snap",
        "tiny-negatives-thin",
    ],
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
        125 / 186624 * math.sqrt(210), rel=1e-12, abs=0
    )
    assert oracle.frustum_volume(5, 0.5) == pytest.approx(
        625 / 201684 * math.sqrt(10), rel=1e-12, abs=0
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
        assert oracle.frustum_volume(N, 0.0) == pytest.approx(want, rel=1e-12, abs=0)


def test_frustum_consistency_with_slice_decomposition():
    # V(x) equals height times the geometric cross-term sum of the two slices
    N, x = 4, 0.3
    d = _two_block_direction(x, 1 - x, N)
    spec = oracle.regular_simplex(N + 1)
    got = oracle.polytope_volume(oracle.hyperplane_section_vertices(spec, d)).value
    assert oracle.frustum_volume(N, x) == pytest.approx(got, rel=1e-11, abs=0)


def _frustum_reference(N, x):
    """The float-only profile: Python's float ** for every power."""
    top = N * x / (N * x + 1.0)
    bot = N * (1.0 - x) / (N * (1.0 - x) + 1.0)
    height = math.sqrt(
        1.0 / (N * x + 1.0) ** 2
        + 1.0 / (N * (1.0 - x) + 1.0) ** 2
        + N * (x / (N * x + 1.0) - (1.0 - x) / (N * (1.0 - x) + 1.0)) ** 2
    )
    cross = sum(top ** (N - 1 - m) * bot**m for m in range(N))
    return math.sqrt(N) / math.factorial(N) * height * cross


@pytest.mark.parametrize("N", range(2, 9))
def test_frustum_arrays_and_floats_match_float_reference(N):
    xs = np.concatenate([np.linspace(0.0, 1.0, 2001), np.random.default_rng(N).random(500)])
    want = [_frustum_reference(N, float(x)) for x in xs]
    got = [oracle.frustum_volume(N, float(x)) for x in xs]
    assert all(type(v) is float for v in got)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert oracle.frustum_volume(N, xs).tobytes() == np.array(want).tobytes()


def test_frustum_domain():
    with pytest.raises(OutOfRange):
        oracle.frustum_volume(1, 0.5)
    with pytest.raises(OutOfRange):
        oracle.frustum_volume(3, 1.5)
    with pytest.raises(OutOfRange):
        oracle.frustum_volume(3, np.array([0.2, 1.5]))


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
    """The slab estimate with every point formed: the cyclic shifts roll(e, -k)
    of each draw, then the shifts roll(e[::-1], k) of its reversal, draw-major,
    the first samples of them, then E / sum(E), map, dot.  Returns the value
    and the cluster standard error over the draws' hit counts, in floats.

    None when no sample hits, where the estimator raises ZeroHits.
    """
    n1 = spec.n + 1
    e = np.random.default_rng(seed).standard_exponential((-(-samples // (2 * n1)), n1))
    images = [np.roll(e, -k, axis=1) for k in range(n1)]
    images += [np.roll(e[:, ::-1], k, axis=1) for k in range(n1)]
    pts = np.stack(images, axis=1).reshape(-1, n1)[:samples]
    lam = pts / pts.sum(1, keepdims=True)
    hit = np.abs(lam @ spec.vertices.T @ b) <= eps
    if not hit.any():
        return None
    b_par = math.sqrt(b @ b - b.sum() ** 2 / n1)
    factor = oracle.simplex_volume(spec) * b_par / (2.0 * eps)
    draw = np.arange(samples) // (2 * n1)
    c, size = np.bincount(draw, weights=hit), np.bincount(draw)
    m, p = c.size, np.count_nonzero(hit) / samples
    err = math.sqrt(m / (m - 1) * np.sum((c - p * size) ** 2)) / samples if m > 1 else math.inf
    return p * factor, err * factor


# samples = chunks * SLAB_CHUNK * 2(n+1) + extra: one point, one full chunk of
# draws, one point into a second chunk, a count that is no multiple of 2(n+1),
# and a last draw that stops one point short of, at and one point past the
# reversal's shifts
@pytest.mark.parametrize("chunks, extra", [
    (0, 1), (1, 0), (1, 1), (0, 100_000), (1, "n"), (1, "n+1"), (1, "n+2"),
])
@pytest.mark.parametrize(
    "spec, b",
    [
        (oracle.regular_simplex(6), np.array([0.5, 0.3, -0.1, 0.2, -0.6, -0.4, 0.1])),
        (irregular.compressed_simplex(5, -0.1).spec(), np.array([0.6, -0.2, 0.3, -0.5, 0.1, -0.2])),
    ],
    ids=["regular", "general"],
)
@pytest.mark.parametrize("eps", [0.01, 0.2])
def test_slab_matches_dirichlet_reference(spec, b, chunks, extra, eps):
    # chunked fills of draws consume the stream like one (draws, n+1) draw,
    # and the last draw gives only its first points, up to samples points;
    # at eps = 0.2 most points hit, so a wrong choice of points shows
    n = spec.n
    extra = {"n": n, "n+1": n + 1, "n+2": n + 2}.get(extra, extra)
    samples = chunks * oracle.SLAB_CHUNK * 2 * (n + 1) + extra
    want = _slab_reference(spec, b, eps, samples, 11)
    if want is None:
        with pytest.raises(ZeroHits):
            oracle.monte_carlo_slab_volume(spec, b, eps=eps, samples=samples, seed=11)
        return
    got = oracle.monte_carlo_slab_volume(spec, b, eps=eps, samples=samples, seed=11)
    assert got.value == want[0]
    assert got.err == pytest.approx(want[1], rel=1e-9, abs=0)


def test_slab_partial_draws_match_reference():
    # every count up to three draws: the last draw's points are its first ones
    spec = oracle.regular_simplex(6)
    b = np.array([0.5, 0.3, -0.1, 0.2, -0.6, -0.4, 0.1])
    for samples in range(1, 3 * 2 * (spec.n + 1) + 1):
        want = _slab_reference(spec, b, 0.2, samples, 11)
        if want is None:
            with pytest.raises(ZeroHits):
                oracle.monte_carlo_slab_volume(spec, b, eps=0.2, samples=samples, seed=11)
        else:
            got = oracle.monte_carlo_slab_volume(spec, b, eps=0.2, samples=samples, seed=11)
            assert got.value == want[0]
            assert got.err == pytest.approx(want[1], rel=1e-9, abs=0)


def test_slab_matches_oracle_general_simplex():
    spec = irregular.compressed_simplex(5, -0.1).spec()
    b = np.array([0.6, -0.2, 0.3, -0.5, 0.1, -0.2])
    want = oracle.polytope_volume(oracle.hyperplane_section_vertices(spec, b)).value
    res = oracle.monte_carlo_slab_volume(spec, b, eps=0.005, samples=10**6, seed=29)
    assert abs(res.value - want) <= 3 * res.err


@pytest.mark.parametrize("n, mib", [(3, 1.25), (10, 3)])
def test_slab_memory_is_one_chunk(n, mib):
    # the draws, the products and the hit mask live in buffers allocated once,
    # with no (samples, n+1) temporaries and no per-draw array kept across
    # chunks: peaks of 1.07 and 2.49 MiB, where a fresh product and mask per
    # chunk of n+1 points per draw took 1.35 and 3.59
    a = cf.random_direction_fixed_sum(n, 0.3, np.random.default_rng(8))
    tracemalloc.start()
    try:
        oracle.monte_carlo_slab_volume(oracle.regular_simplex(n), a, 0.005, 10**6, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < mib * 2**20


# a palindromic normal at n = 4: the reversal's shifts repeat the shifts,
# and no shift of five coordinates maps the normal onto plus or minus itself
_SLAB_PALINDROME = np.array([0.5, -0.4, 0.3, -0.4, 0.5]) / math.sqrt(0.91)


@pytest.mark.parametrize("b, lo, hi", [
    # on [1, 1, -1, -1] / 2 the shift by 2 and the reversal both negate the
    # normal, so every hit comes four times from the same draw
    (np.array([0.5, 0.5, -0.5, -0.5]), 1.85, 2.15),
    # only the reversal repeats a hit of the palindrome: pairs
    (_SLAB_PALINDROME, 1.3, 1.53),
], ids=["block", "palindrome"])
def test_slab_err_counts_repeated_shifts(b, lo, hi):
    # err is sqrt(r) times the binomial standard error of independent points
    # when every hit comes r times: 2 for the block direction, sqrt(2) for
    # the palindrome
    spec = oracle.regular_simplex(len(b) - 1)
    eps, samples = 0.01, 100_000
    b_par = math.sqrt(b @ b - b.sum() ** 2 / len(b))
    factor = oracle.simplex_volume(spec) * b_par / (2.0 * eps)
    ratios = []
    for seed in range(20):
        res = oracle.monte_carlo_slab_volume(spec, b, eps, samples, seed)
        p = res.value / factor
        ratios.append(res.err / (math.sqrt(p * (1.0 - p) / samples) * factor))
    assert lo <= float(np.median(ratios)) <= hi


def test_slab_err_is_calibrated():
    # z = (estimate - oracle) / err over 216 seeded estimates: three generic
    # directions per n = 3..10, the block direction, a general simplex and
    # the palindrome
    rng = np.random.default_rng(2024)
    cases = [
        (oracle.regular_simplex(n), cf.random_direction_fixed_sum(n, float(rng.uniform(0, 0.9)), rng).a)
        for n in range(3, 11)
        for _ in range(3)
    ]
    cases.append((oracle.regular_simplex(3), np.array([0.5, 0.5, -0.5, -0.5])))
    cases.append(
        (irregular.compressed_simplex(5, -0.1).spec(), np.array([0.6, -0.2, 0.3, -0.5, 0.1, -0.2]))
    )
    cases.append((oracle.regular_simplex(4), _SLAB_PALINDROME))
    z = []
    for i, (spec, b) in enumerate(cases):
        want = oracle.polytope_volume(oracle.hyperplane_section_vertices(spec, b)).value
        for seed in range(8):
            res = oracle.monte_carlo_slab_volume(spec, b, 0.005, 100_000, 8 * i + seed + 1)
            z.append((res.value - want) / res.err)
    z = np.array(z)
    assert 0.8 <= z.std() <= 1.2
    assert np.count_nonzero(np.abs(z) > 3.0) <= 2


@pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0, -0.01])
def test_slab_rejects_bad_eps(eps):
    with pytest.raises(OutOfRange):
        oracle.monte_carlo_slab_volume(
            oracle.regular_simplex(3), cf.Direction.make([0.5, 0.5, -0.5, -0.5]),
            eps=eps, samples=1000, seed=1,
        )


@pytest.mark.parametrize("samples", [1e6, 1000.5, True])
def test_slab_rejects_non_integer_samples(samples):
    with pytest.raises(OutOfRange):
        oracle.monte_carlo_slab_volume(
            oracle.regular_simplex(3), cf.Direction.make([0.5, 0.5, -0.5, -0.5]),
            eps=0.01, samples=samples, seed=1,
        )


@pytest.mark.parametrize("samples", [1, 3, 4, 6, 8, 9, 4 * oracle.SLAB_CHUNK + 3,
                                     8 * oracle.SLAB_CHUNK + 3])
def test_slab_counts_exactly_samples_points(samples):
    # eps = 1/2 puts the whole simplex in the slab of [1, 1, -1, -1] / 2, so
    # every point hits: the value is the simplex volume, and each draw's hit
    # count equals its number of points, which leaves no spread between draws
    # (a single draw, up to 8 points, has none to measure)
    spec = oracle.regular_simplex(3)
    res = oracle.monte_carlo_slab_volume(
        spec, cf.Direction.make([0.5, 0.5, -0.5, -0.5]), eps=0.5, samples=samples, seed=1
    )
    assert res.value == oracle.simplex_volume(spec)
    assert res.err == (math.inf if samples <= 8 else 0.0)


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
            math.sqrt(n + 1) / math.factorial(n), rel=1e-13, abs=0
        )


def test_general_simplex_requires_unit_column_sums():
    with pytest.raises(ValueError):
        oracle.general_simplex(np.eye(4) * 1.01)


def test_face_volumes_regular():
    n = 4
    fv = oracle.face_volumes(oracle.regular_simplex(n))
    want = math.sqrt(n) / math.factorial(n - 1)
    assert np.allclose(fv, want, rtol=1e-13)
