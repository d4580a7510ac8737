import heapq
import math
from functools import partial

import numpy as np
import pytest

from simplex_sections import closed_form as cf
from simplex_sections import oracle, quadrature, subspaces
from simplex_sections.errors import EmptySection, NotSupported, OutOfRange, TolUnreachable


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


def test_imag_part_integrates_to_zero():
    # the integrand's imaginary part is odd, so the full-line integral vanishes
    rng = np.random.default_rng(1)
    a = cf.random_direction_fixed_sum(5, 0.4, rng)
    coeffs = np.asarray(a.a)

    def g(s):
        return (1.0 / np.prod(1.0 + 1j * np.multiply.outer(s, coeffs), axis=-1)).imag

    # fold the line onto [-1, 1]: |s| > 1 contributes g(1/x)/x^2 over |x| < 1
    cells = partial(quadrature._line_cells, lambda x: g(x) + g(1.0 / x) / (x * x))
    grid = np.array([[-1.0, -0.25], [-0.25, 0.0], [0.0, 1.0]])  # not symmetric about 0
    # relative tol 1e-4 of the 1e-6 floor: absolute 1e-10 on a vanishing total
    val, _ = quadrature._adaptive(cells, grid, 1e-4, max_cells=4000)
    assert abs(val) < 1e-10


def test_refinement_stalls_at_max_depth():
    # the Gauss-pair error of the cell holding a jump only halves with each
    # split, so an unreachable tolerance splits it until MAX_DEPTH stops it
    cells = partial(quadrature._line_cells, lambda x: (x > 1.0 / 3.0).astype(float))
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


def _reference_square_volume(basis, tol):
    """The per-cell square quadrature with its 1e-3 -> target restart.

    Each cell costs two separate tensor-rule calls and the second pass
    lays the grid again and replays the first; kept as the reference for
    the batched, resumed refinement.
    """

    def tensor_rule(f, x0, x1, y0, y1, order):
        xn, xw = quadrature._gl(order)
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
            raw *= 2.0
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

    f = quadrature._compactified_integrand(np.asarray(basis.vectors, dtype=float))
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


def test_square_cell_budget_below_initial_grid():
    f = quadrature._compactified_integrand(np.asarray(_separable_basis().vectors))
    cells = partial(quadrature._square_cells, f)
    # the grid alone reaches 2.8e-12 absolute on a total of pi^2; ask for less
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
