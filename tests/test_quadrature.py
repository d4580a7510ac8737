import heapq
import itertools
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from simplex_sections import closed_form as cf
from simplex_sections import extremal, oracle, quadrature, subspaces
from simplex_sections.errors import (
    EmptySection,
    NotSupported,
    OutOfRange,
    TolUnreachable,
    ZeroHits,
)


def test_hyperplane_matches_special_max():
    res = quadrature.hyperplane_volume_quadrature(cf.a_max_direction(4), 1e-8)
    assert res.value == pytest.approx(cf.special_max_volume(4), abs=1e-8)


def test_hyperplane_matches_special_min():
    res = quadrature.hyperplane_volume_quadrature(cf.a_min_direction(4), 1e-8)
    assert res.value == pytest.approx(cf.special_min_volume(4), abs=1e-8)


def test_hyperplane_matches_residue_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = cf.random_direction_fixed_sum(6, float(rng.uniform(0, 0.9)), rng)
        rv = cf.residue_volume(a).value
        qv = quadrature.hyperplane_volume_quadrature(a, 1e-8)
        assert qv.value == pytest.approx(rv, rel=1e-8, abs=0)
        assert abs(qv.value - rv) <= max(qv.err * 5, 1e-10 * rv)


def test_hyperplane_rejects_small_n():
    with pytest.raises(OutOfRange):
        quadrature.hyperplane_volume_quadrature(cf.a_max_direction(2), 1e-8)


def test_hyperplane_rejects_one_signed():
    d = cf.Direction.make([0.9, 0.1, 0.3, 0.2, 0.1], canonicalize=False)
    with pytest.raises(EmptySection):
        quadrature.hyperplane_volume_quadrature(d, 1e-8)


def test_hyperplane_sign_check_is_exact():
    # the lone negative coordinate is 1e-12 of the largest, yet the section
    # is not empty: quadrature must integrate it, not reject it
    d = cf.Direction.make([0.6, 0.5, 0.4, 0.3, -5e-13], canonicalize=False)
    q = quadrature.hyperplane_volume_quadrature(d, 1e-9)
    r = cf.residue_volume(d)
    assert abs(q.value - r.value) <= q.err + r.err


def test_imag_part_integrates_to_zero():
    # the integrand's imaginary part is odd, so the full-line integral vanishes
    rng = np.random.default_rng(1)
    a = cf.random_direction_fixed_sum(5, 0.4, rng)
    coeffs = np.asarray(a.a)

    def g(s):
        return (1.0 / np.prod(1.0 + 1j * np.multiply.outer(s, coeffs), axis=-1)).imag

    # fold the line onto [-1, 1]: |s| > 1 contributes g(1/x)/x^2 over |x| < 1
    cells = partial(quadrature._gauss_cells, lambda x: g(x) + g(1.0 / x) / (x * x))
    grid = np.array([[-1.0, -0.25], [-0.25, 0.0], [0.0, 1.0]])  # not symmetric about 0
    # relative tol 1e-4 of the 1e-6 floor: absolute 1e-10 on a vanishing total
    val, _ = quadrature._adaptive(cells, grid, 1e-4, max_cells=4000)
    assert abs(val) < 1e-10


def test_refinement_stalls_at_max_depth():
    # the Gauss-pair error of the cell holding a jump only halves with each
    # split, so an unreachable tolerance splits it until MAX_DEPTH stops it
    cells = partial(quadrature._gauss_cells, lambda x: (x > 1.0 / 3.0).astype(float))
    with pytest.raises(TolUnreachable, match=f"stalled at depth {quadrature.MAX_DEPTH}"):
        quadrature._adaptive(cells, np.array([[0.0, 1.0]]), 0.0, max_cells=4000)


def test_prefactor_paths_agree():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        a = cf.random_direction_fixed_sum(n, float(rng.uniform(0, 1)), rng)
        basis = quadrature.hyperplane_basis_of(a)
        direct = quadrature._direct_prefactor(basis)
        pyramid = quadrature._pyramid_prefactor(basis)
        assert direct == pytest.approx(pyramid, rel=1e-12, abs=0)


def test_kdim_delegates_codim1():
    rng = np.random.default_rng(3)
    a = cf.random_direction_fixed_sum(5, 0.1, rng)
    b1 = quadrature.kdim_volume_quadrature(quadrature.hyperplane_basis_of(a), 1e-8)
    b2 = quadrature.hyperplane_volume_quadrature(a, 1e-8)
    assert b1.value == b2.value


def test_kdim_codim2_separable_case():
    # H = orthogonal complement of span{e1-e2, e3-e4}: a 3-dim section of S^5
    basis = _separable_basis()
    res = quadrature.kdim_volume_quadrature(basis, 1e-6)
    poly = oracle.kdim_section_vertices(oracle.regular_simplex(5), basis)
    want = oracle.polytope_volume(poly).value
    assert res.value == pytest.approx(want, rel=1e-5, abs=0)
    assert want == pytest.approx(math.sqrt(1.5) / 6, rel=1e-13, abs=0)


def test_kdim_codim2_witness_value():
    # H spanned by e1..e3 and the centroid of the remaining face of S^5:
    # its section volume has the closed form sqrt(n+1)/((k-1)! sqrt(n+2-k))
    n, k = 5, 4
    span = [np.eye(n + 1)[i] for i in range(k - 1)] + [np.array([0, 0, 0, 1, 1, 1.0])]
    basis = subspaces.complement_of_span(span)
    want = math.sqrt(n + 1) / (math.factorial(k - 1) * math.sqrt(n + 2 - k))
    res = quadrature.kdim_volume_quadrature(basis, 3e-3)
    # slow tails along three directions: modest precision, honest error bar
    assert abs(res.value - want) <= max(res.err, 1e-4)
    assert abs(res.value - want) / want < 1e-3


def test_kdim_codim2_random_vs_oracle():
    rng = np.random.default_rng(4)
    spec = oracle.regular_simplex(5)
    for _ in range(5):
        basis = subspaces.random_subspace_through_centroid(5, 4, rng)
        res = quadrature.kdim_volume_quadrature(basis, 1e-6)
        want = oracle.polytope_volume(oracle.kdim_section_vertices(spec, basis)).value
        assert res.value == pytest.approx(want, rel=1e-5, abs=0)


def _prod_square_integrand(rows):
    """The square integrand as np.prod over a (points, n+1) complex array."""
    r0, r1 = rows

    def ft(u1, u2):
        t1, t2 = np.tan(u1), np.tan(u2)
        phase = np.multiply.outer(t1, r0) + np.multiply.outer(t2, r1)
        return 1.0 / np.prod(1.0 + 1j * phase, axis=-1) * (1.0 + t1 * t1) * (1.0 + t2 * t2)

    return ft


def _prod_line_integrand(coeffs):
    """The folded line integrand as np.prod over (points, n+1) complex arrays."""
    power = coeffs.size - 2

    def h(x):
        near = 1.0 / np.prod(1.0 + 1j * np.multiply.outer(x, coeffs), axis=-1)
        far = 1.0 / np.prod(x[:, None] + 1j * coeffs, axis=-1)
        return near.real + x**power * far.real

    return h


def _edge_nodes(lo, hi):
    """The 15-point Gauss nodes of [lo, hi], as `_gauss_cells` places them."""
    nodes, _ = quadrature._gauss_grid(15, 1)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes[0]


def _square_points(rng):
    # uniform points, and the nodes of depth-40 cells next to u = +-pi/2,
    # where |tan| is 7e11 to 1e14, paired with each other and with uniform ones
    w = 0.5 * math.pi * 2.0**-40
    edge = np.concatenate([_edge_nodes(0.5 * math.pi - w, 0.5 * math.pi),
                           _edge_nodes(-0.5 * math.pi, -0.5 * math.pi + w)])
    u1, u2 = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, (2, 4000))
    e1, e2 = (a.ravel() for a in np.meshgrid(edge, edge))
    mix = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, edge.size)
    return (np.concatenate([u1, e1, edge, mix]), np.concatenate([u2, e2, mix, edge]))


def _square_rows():
    rng = np.random.default_rng([18, 2])
    for n in range(2, 13):
        yield f"random-{n}", rng.standard_normal((2, n + 1))
        if n >= 3:
            yield f"witness-{n}", extremal.conjectured_kdim_maximizer(n, n - 1).vectors
    yield "separable", _separable_basis().vectors
    r = rng.standard_normal(6)
    yield "zero-row", np.array([r, np.zeros(6)])
    yield "parallel", np.array([r, -0.5 * r])


def test_square_integrand_matches_complex_prod_bit_for_bit():
    pts = _square_points(np.random.default_rng([18, 1]))
    for name, rows in _square_rows():
        rows = np.asarray(rows, dtype=float)
        got = quadrature._compactified_integrand(rows)(*pts)
        assert np.array_equal(got, _prod_square_integrand(rows)(*pts)), name


def _line_coeffs():
    rng = np.random.default_rng([18, 3])
    for n in range(3, 13):
        yield f"random-{n}", cf.Direction.make(rng.standard_normal(n + 1)).a
        for K in (0.0, 0.9, 1.0 - 1e-6):
            yield f"K={K}-{n}", cf.random_direction_fixed_sum(n, K, rng).a
    yield "tie", np.array([0.5, 0.5 * (1.0 + 1e-9), 0.3, -0.4, -0.6])
    yield "1e-12", np.array([0.5, 1e-12, 0.3, -0.4, -0.6])
    yield "zero", np.array([0.6, 0.0, 0.2, -0.3, -0.5, 0.0])


def test_line_integrand_matches_complex_prod_bit_for_bit():
    rng = np.random.default_rng([18, 4])
    x = np.concatenate([rng.uniform(0.0, 1.0, 2000),
                        *(_edge_nodes(a, b) for a, b in quadrature._LINE_GRID),
                        _edge_nodes(0.0, 2.0**-70), [1.0]])  # depth 40 next to x = 0
    for name, coeffs in _line_coeffs():
        got = quadrature._folded_line_integrand(coeffs)(x)
        assert np.array_equal(got, _prod_line_integrand(coeffs)(x)), name


def test_quadratures_match_complex_prod_integrands(monkeypatch):
    # the whole refinement, heap order included, is unmoved by the kernel
    rng = np.random.default_rng([18, 5])
    bases = [_separable_basis()] + [
        subspaces.random_subspace_through_centroid(n, n - 1, rng) for n in (4, 6, 8)]
    dirs = [cf.Direction.make(rng.standard_normal(n + 1)) for n in (3, 6, 10)]
    got = ([quadrature.kdim_volume_quadrature(b, 1e-6) for b in bases]
           + [quadrature.hyperplane_volume_quadrature(a, 1e-9) for a in dirs])
    monkeypatch.setattr(quadrature, "_compactified_integrand", _prod_square_integrand)
    monkeypatch.setattr(quadrature, "_folded_line_integrand", _prod_line_integrand)
    want = ([quadrature.kdim_volume_quadrature(b, 1e-6) for b in bases]
            + [quadrature.hyperplane_volume_quadrature(a, 1e-9) for a in dirs])
    assert [(r.value, r.err) for r in got] == [(r.value, r.err) for r in want]


def _reference_square_volume(basis, tol):
    """The per-cell square quadrature with its 1e-3 -> target restart.

    Each cell costs two separate tensor-rule calls and the second pass
    lays the grid again and replays the first; kept as the reference for
    the batched, resumed refinement.
    """

    def tensor_rule(f, x0, x1, y0, y1, order):
        xn, xw = np.polynomial.legendre.leggauss(order)
        midx, halfx = 0.5 * (x0 + x1), 0.5 * (x1 - x0)
        midy, halfy = 0.5 * (y0 + y1), 0.5 * (y1 - y0)
        gx, gy = np.meshgrid(midx + halfx * xn, midy + halfy * xn, indexing="ij")
        vals = f(gx.ravel(), gy.ravel()).reshape(order, order)
        return halfx * halfy * (xw @ vals @ xw)

    def cell(f, a, b, c, d):
        i7 = tensor_rule(f, a, b, c, d, 7)
        i15 = tensor_rule(f, a, b, c, d, 15)
        return i15, abs(i15 - i7)

    def marks(limit):
        pts, raw = [0.0], 1.0
        while (m := float(np.arctan(raw))) < limit - 1e-9:
            pts.append(m)
            raw *= 4.0
        return pts + [limit]

    def run(f, tol_abs, max_cells=24000):
        xs = marks(0.5 * math.pi)
        ys = marks(0.5 * math.pi)
        ybounds = sorted(set([-v for v in ys] + ys))
        heap, counter, total, err_sum = [], 0, 0.0 + 0.0j, 0.0
        for a, b in zip(xs, xs[1:]):
            for c, d in zip(ybounds, ybounds[1:]):
                val, err = cell(f, a, b, c, d)
                total += val
                err_sum += err
                heapq.heappush(heap, (-err, counter, a, b, c, d, 0, val, err))
                counter += 1
        while err_sum > tol_abs and counter < max_cells:
            _, _, a, b, c, d, depth, val, err = heapq.heappop(heap)
            assert depth < quadrature.MAX_DEPTH
            total -= val
            err_sum -= err
            mx, my = 0.5 * (a + b), 0.5 * (c + d)
            for aa, bb in ((a, mx), (mx, b)):
                for cc, dd in ((c, my), (my, d)):
                    v2, e2 = cell(f, aa, bb, cc, dd)
                    total += v2
                    err_sum += e2
                    heapq.heappush(heap, (-e2, counter, aa, bb, cc, dd, depth + 1, v2, e2))
                    counter += 1
        assert err_sum <= tol_abs
        return total, err_sum

    f = _prod_square_integrand(np.asarray(basis.vectors, dtype=float))
    val, err = run(f, 1e-3)
    target = max(tol, 1e-10) * max(abs(val.real), 1e-6)
    if target < 1e-3:
        val, err = run(f, target)
    pref, scale = quadrature._direct_prefactor(basis), 2.0 / (2.0 * math.pi) ** 2
    return pref * val.real * scale, pref * err * scale


def _separable_basis():
    return subspaces.basis_from_rows([
        np.array([1, -1, 0, 0, 0, 0]) / math.sqrt(2),
        np.array([0, 0, 1, -1, 0, 0]) / math.sqrt(2),
    ])


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, "separable"])
def test_kdim_codim2_matches_per_cell_reference(n):
    if n == "separable":
        basis = _separable_basis()
    else:
        basis = subspaces.random_subspace_through_centroid(n, n - 1, np.random.default_rng([7, 3]))
    res = quadrature.kdim_volume_quadrature(basis, 1e-6)
    want, want_err = _reference_square_volume(basis, 1e-6)
    assert res.value == pytest.approx(want, rel=1e-13, abs=0)
    assert res.err == pytest.approx(want_err, rel=1e-8, abs=0)


def _general_codim2_basis(n, rng):
    # H-perp orthogonal to a random interior point p, so H meets the simplex
    p = rng.dirichlet(np.ones(n + 1))
    rows = rng.standard_normal((2, n + 1))
    rows -= np.outer(rows @ p, p) / (p @ p)
    return subspaces.basis_from_rows(rows)


def _codim2_cases():
    rng = np.random.default_rng([10, 2])
    for n in range(4, 9):
        yield f"centroid-{n}", subspaces.random_subspace_through_centroid(n, n - 1, rng)
    for n in (4, 6, 8):
        yield f"general-{n}", _general_codim2_basis(n, rng)


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
def test_kdim_codim2_within_err_of_oracle(tol):
    # the coarse starting grid leaves the accuracy to refinement: every
    # result must still lie within its err of the oracle
    for name, basis in _codim2_cases():
        q = quadrature.kdim_volume_quadrature(basis, tol)
        o = oracle.polytope_volume(oracle.kdim_section_vertices(oracle.regular_simplex(basis.n), basis))
        assert abs(q.value - o.value) <= q.err + o.err, name


def test_square_grid_tiles_the_half_square():
    g = quadrature._square_grid()
    assert g.shape == (512, 4)
    a, b, c, d = g.T
    assert (a < b).all() and (c < d).all()
    assert a.min() == 0.0 and b.max() == 0.5 * math.pi
    assert c.min() == -0.5 * math.pi and d.max() == 0.5 * math.pi
    overlap = (np.minimum.outer(b, b) > np.maximum.outer(a, a)) & (
        np.minimum.outer(d, d) > np.maximum.outer(c, c)
    )
    assert np.count_nonzero(overlap) == len(g)  # each cell overlaps only itself
    assert ((b - a) * (d - c)).sum() == pytest.approx(0.5 * math.pi**2, rel=1e-14, abs=0)


def test_gauss_cells_exact_on_high_degree_monomials():
    # the 15-point rule is exact to degree 29 per axis, the 7-point one only
    # to 13, so the value is exact and the error estimate is not zero
    vals, errs = quadrature._gauss_cells(lambda x: x**28, np.array([[0.0, 1.0]]))
    assert vals[0] == pytest.approx(1.0 / 29.0, rel=1e-14, abs=0)
    assert errs[0] > 0.0
    vals, errs = quadrature._gauss_cells(lambda x, y: x**20 * y**9,
                                         np.array([[0.0, 1.0, -1.0, 2.0]]))
    assert vals[0] == pytest.approx((2.0**10 - 1.0) / (21.0 * 10.0), rel=1e-14, abs=0)
    assert errs[0] > 0.0


def test_gauss_cells_batch_matches_lone_boxes():
    # a box rounds as it would alone, so batching cannot move any value
    f = quadrature._compactified_integrand(np.asarray(_separable_basis().vectors))
    h = quadrature._folded_line_integrand(np.array([0.6, 0.2, -0.3, -0.5, 0.1]))
    for rule, grid in ((f, quadrature._square_grid()[:64]), (h, quadrature._LINE_GRID)):
        batch = quadrature._gauss_cells(rule, grid)
        alone = [quadrature._gauss_cells(rule, grid[i:i + 1]) for i in range(len(grid))]
        assert batch == ([v for (v,), _ in alone], [e for _, (e,) in alone])


def test_square_cell_budget_below_initial_grid():
    f = quadrature._compactified_integrand(np.asarray(_separable_basis().vectors))
    cells = partial(quadrature._gauss_cells, f)
    # the 512-cell grid alone reaches 3.4e-12 absolute on a total of pi^2; ask for less
    with pytest.raises(TolUnreachable, match="cell budget exhausted"):
        quadrature._adaptive(cells, quadrature._square_grid(), 1e-14, max_cells=100)


def test_kdim_rejects_codim3():
    basis = subspaces.complement_of_span([np.eye(6)[i] for i in range(3)])
    assert basis.codim == 3
    with pytest.raises(NotSupported):
        quadrature.kdim_volume_quadrature(basis, 1e-6)


def test_mc_cone_matches_special_max():
    basis = quadrature.hyperplane_basis_of(cf.a_max_direction(4))
    res = quadrature.monte_carlo_cone_volume(basis, 10**6, seed=5)
    assert abs(res.value - cf.special_max_volume(4)) <= 3 * res.err


def test_mc_cone_edge_case():
    # H = span{e1, e2} meets the simplex in an edge of length sqrt(2)
    basis = subspaces.complement_of_span([np.eye(4)[0], np.eye(4)[1]])
    res = quadrature.monte_carlo_cone_volume(basis, 200_000, seed=6)
    assert abs(res.value - math.sqrt(2)) <= 3 * res.err
    # every weight is exactly 1, so no variance: err is the rounding term alone
    assert res.err > 0
    assert abs(res.value - math.sqrt(2)) <= res.err


def test_mc_cone_exact_sign_hits_match_oracle():
    # the complement carries +-7.2e-18 entries, which tilt H off the edge
    # e1-e2: the exact section is half the edge, and a hit slack of even
    # 1e-12 would count the whole edge (1.42, over 100 SE off)
    e = np.eye(4)
    basis = subspaces.complement_of_span(
        [(e[1] + e[2]) / math.sqrt(2), (e[1] - e[2]) / math.sqrt(2)]
    )
    want = oracle.polytope_volume(oracle.kdim_section_vertices(oracle.regular_simplex(3), basis))
    assert want.value == pytest.approx(math.sqrt(0.5), rel=1e-12, abs=0)
    res = quadrature.monte_carlo_cone_volume(basis, 200_000, seed=6)
    assert abs(res.value - want.value) <= 3 * res.err


def _cone_reference(basis, samples, seed):
    """The cone estimate from one (samples, k) exponential draw.

    J maximizes |det B_J| by brute force over all column sets; the weight
    sums are accumulated per CONE_CHUNK rows, as the estimator does.
    """
    b = basis.vectors
    c, k = basis.codim, basis.k
    cols = max(itertools.combinations(range(basis.n + 1), c),
               key=lambda j: abs(np.linalg.det(b[:, list(j)])))
    rest = [j for j in range(basis.n + 1) if j not in cols]
    g = -np.linalg.solve(b[:, list(cols)], b[:, rest])
    wt = np.vstack([g, np.ones(k), 1.0 + g.sum(axis=0)])
    s = wt @ np.random.default_rng(seed).standard_exponential((samples, k)).T
    hit = np.all(s[:c] >= 0.0, axis=0)
    mu = np.zeros(samples)
    mu[hit] = s[c][hit] / s[c + 1][hit]
    w = mu.copy()
    for _ in range(k - 1):
        w *= mu
    total, step = 0.0, quadrature.CONE_CHUNK
    for lo in range(0, samples, step):
        total += float(w[lo:lo + step][hit[lo:lo + step]].sum())
    det = abs(float(np.linalg.det(b[:, list(cols)])))
    return quadrature._direct_prefactor(basis) / det * (total / samples)


@pytest.mark.parametrize("samples", [1000, 2**16, 2**16 + 1, 100_000])
@pytest.mark.parametrize("n, codim", [(6, 2), (7, 3)])
def test_mc_cone_matches_dirichlet_reference(n, codim, samples):
    # chunked exponential fills consume the stream like one (samples, k) draw
    basis = subspaces.random_subspace_through_centroid(n, n + 1 - codim,
                                                       np.random.default_rng([3, n]))
    got = quadrature.monte_carlo_cone_volume(basis, samples, seed=11)
    assert got.value == _cone_reference(basis, samples, 11)


def test_mc_cone_memory_is_one_chunk():
    # the draws live in one fixed buffer, not in (samples, k) temporaries
    basis = subspaces.random_subspace_through_centroid(10, 9, np.random.default_rng(8))
    tracemalloc.start()
    try:
        quadrature.monte_carlo_cone_volume(basis, 10**6, seed=9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("n", [4, 8, 12])
@pytest.mark.parametrize("codim", [2, 3, 4])
def test_mc_cone_accuracy_at_200k(n, codim):
    basis = subspaces.random_subspace_through_centroid(n, n + 1 - codim,
                                                       np.random.default_rng([21, n, codim]))
    want = oracle.polytope_volume(oracle.kdim_section_vertices(oracle.regular_simplex(n), basis))
    res = quadrature.monte_carlo_cone_volume(basis, 200_000, seed=n + codim)
    assert res.err <= 1e-2 * res.value
    assert abs(res.value - want.value) <= 4 * res.err


def test_mc_cone_zero_hits():
    # H = span{e0 - e1} misses the simplex: no face point lies in the cone
    basis = subspaces.complement_of_span([np.eye(4)[0] - np.eye(4)[1]])
    with pytest.raises(ZeroHits):
        quadrature.monte_carlo_cone_volume(basis, 2_000, seed=1)


def test_mc_cone_matches_kdim_quadrature():
    rng = np.random.default_rng(7)
    basis = subspaces.random_subspace_through_centroid(5, 4, rng)
    q = quadrature.kdim_volume_quadrature(basis, 1e-6)
    m = quadrature.monte_carlo_cone_volume(basis, 10**6, seed=8)
    assert abs(m.value - q.value) <= 3 * m.err


def test_mc_cone_requires_samples():
    basis = quadrature.hyperplane_basis_of(cf.a_max_direction(4))
    with pytest.raises(OutOfRange):
        quadrature.monte_carlo_cone_volume(basis, 10, seed=0)


def test_three_way_agreement():
    rng = np.random.default_rng(9)
    for n in (3, 5, 7):
        spec = oracle.regular_simplex(n)
        for _ in range(15):
            a = cf.random_direction_fixed_sum(n, float(rng.uniform(0, 0.8)), rng)
            try:
                rv = cf.residue_volume(a).value
            except EmptySection:
                continue
            qv = quadrature.hyperplane_volume_quadrature(a, 1e-8).value
            ov = oracle.polytope_volume(oracle.hyperplane_section_vertices(spec, a)).value
            assert qv == pytest.approx(rv, rel=1e-7, abs=0)
            assert ov == pytest.approx(rv, rel=1e-7, abs=0)
            assert qv == pytest.approx(ov, rel=1e-7, abs=0)
