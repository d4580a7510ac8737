import bisect
import heapq
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from test_oracle import _degenerate_basis

from simplex_sections import closed_form as cf
from simplex_sections import extremal, montecarlo, oracle, quadrature, subspaces
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


def test_line_prefactor_matches_basis_prefactor(monkeypatch):
    # the line quadrature forms sqrt(n+1 - K^2) / (n-1)! from a itself; it is
    # bit for bit `_direct_prefactor` of the one-row basis
    monkeypatch.setattr(quadrature, "_adaptive", lambda *args, **kw: (math.pi, 0.0))
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        a = cf.random_direction_fixed_sum(n, float(rng.uniform(0, 1)), rng)
        pref = quadrature._direct_prefactor(quadrature.hyperplane_basis_of(a))
        assert quadrature.hyperplane_volume_quadrature(a).value == pref * math.pi / math.pi


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


def _witness_volume(n, k):
    # H spanned by e1..e(k-1) and the centroid of the remaining face of S^n:
    # its section volume has the closed form sqrt(n+1)/((k-1)! sqrt(n+2-k))
    return math.sqrt(n + 1) / (math.factorial(k - 1) * math.sqrt(n + 2 - k))


def test_kdim_codim2_witness_value():
    n, k = 5, 4
    span = [np.eye(n + 1)[i] for i in range(k - 1)] + [np.array([0, 0, 0, 1, 1, 1.0])]
    basis = subspaces.complement_of_span(span)
    want = _witness_volume(n, k)
    res = quadrature.kdim_volume_quadrature(basis, 1e-6)
    # slow tails along three ridges, each a sector edge: an honest error bar
    assert abs(res.value - want) <= res.err
    assert abs(res.value - want) / want < 1e-6


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
@pytest.mark.parametrize("n", [3, 5, 8])
def test_kdim_codim2_witness_within_err(n, tol):
    # the paper's k-dim witness: three nonzero columns summing to 0, so the
    # integrand decays only like |s|^-2 along three ridges
    want = _witness_volume(n, n - 1)
    res = quadrature.kdim_volume_quadrature(extremal.conjectured_kdim_maximizer(n, n - 1), tol)
    assert abs(res.value - want) <= res.err
    assert res.err <= tol * want


def test_kdim_codim2_random_vs_oracle():
    rng = np.random.default_rng(4)
    spec = oracle.regular_simplex(5)
    for _ in range(5):
        basis = subspaces.random_subspace_through_centroid(5, 4, rng)
        res = quadrature.kdim_volume_quadrature(basis, 1e-6)
        want = oracle.polytope_volume(oracle.kdim_section_vertices(spec, basis)).value
        assert res.value == pytest.approx(want, rel=1e-5, abs=0)


def _prod_sector_integrand(p, q, jac):
    """The sector integrand as np.prod over a (points, n+1) complex array,
    each point's sector looked up on its own."""
    edges = [k * (0.5 * math.pi) for k in range(len(jac))]

    def ft(u1, u2):
        k = np.array([bisect.bisect_right(edges, x) - 1 for x in u1.tolist()], dtype=int)
        t1, t2 = np.tan(u1 - np.array(edges)[k]), np.tan(u2)
        phase = t1[:, None] * p[k] + t2[:, None] * q[k]
        jacobian = (1.0 + t1 * t1) * (1.0 + t2 * t2) * jac[k]
        return 1.0 / np.prod(1.0 + 1j * phase, axis=-1) * jacobian

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


def _sector_points(m, rng):
    # uniform points, and the nodes of depth-40 cells on both sides of every
    # sector edge (|tan| up to 1e14) and next to v2 = 0 and pi/2, paired with
    # uniform ones, and the sector edges; sorted by u1, as `_adaptive` passes
    # cells sector by sector
    h = 0.5 * math.pi
    w = h * 2.0**-40
    edges = np.arange(m + 1) * h
    e1 = np.concatenate([_edge_nodes(e - w, e) for e in edges[1:]]
                        + [_edge_nodes(e, e + w) for e in edges[:-1]])
    e2 = np.concatenate([_edge_nodes(0.0, w), _edge_nodes(h - w, h)])
    u1 = np.concatenate([rng.uniform(0.0, m * h, 4000), e1, rng.uniform(0.0, m * h, e2.size),
                         edges])  # a point on an edge belongs to the sector above it
    u2 = np.concatenate([rng.uniform(0.0, h, 4000), rng.uniform(0.0, h, e1.size), e2,
                         rng.uniform(0.0, h, m + 1)])
    order = np.argsort(u1, kind="stable")
    return u1[order], u2[order]


def _rows_basis(rows):
    """SubspaceBasis of two rows by one elementwise Gram-Schmidt step, so a
    column that is another times -1 or a power of 2 stays exactly so."""
    r0, r1 = np.asarray(rows, dtype=float)
    r0 = r0 / math.sqrt(r0 @ r0)
    r1 = r1 - (r1 @ r0) * r0
    return subspaces.SubspaceBasis(n=r0.size - 1, vectors=np.array([r0, r1 / math.sqrt(r1 @ r1)]))


def _centred(rows, free):
    """`rows` with zero sums, each sum taken off the coordinates `free`."""
    rows = np.array(rows, dtype=float)
    rows[:, free] -= rows.sum(axis=1, keepdims=True) / len(free)
    return rows


def _near_parallel_family(t):
    # at t = 0 columns 0 and 1, 2 and 3, 4 and 5 are antiparallel; at small t
    # the ridges of 0, 1 and of 2, 3 lie about t apart and columns 4, 5 are
    # about t long
    rows = np.array([[1, -1, 0.5, -0.5, 0, 0], [0.3, -0.3, 1, -1 + t, t, -t]])
    return subspaces.basis_from_rows(rows - rows.mean(axis=1, keepdims=True))


def _separable_basis():
    return subspaces.basis_from_rows([
        np.array([1, -1, 0, 0, 0, 0]) / math.sqrt(2),
        np.array([0, 0, 1, -1, 0, 0]) / math.sqrt(2),
    ])


def _cluster_basis(t, k, seed):
    # k columns within angles t of one direction, one more column and the
    # column that makes the rows sum to 0: k ridges in a fan of width ~2t,
    # whose thin sectors hold corners where only two factors decay
    rng = np.random.default_rng([5, seed])
    angle = 1.0 + t * np.sort(rng.uniform(-1.0, 1.0, k))
    radius = rng.uniform(0.2, 1.0, k) * rng.choice([-1.0, 1.0], k)
    cols = np.zeros((k + 2, 2))
    cols[:k] = radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    cols[k] = [0.7, -0.4]
    cols[k + 1] = -cols[:k + 1].sum(axis=0)
    return subspaces.basis_from_rows(cols.T)


def _ridge_degenerate_cases():
    rng = np.random.default_rng([19, 1])
    rows = np.zeros((2, 7))
    rows[:, [0, 2, 3, 5]] = rng.standard_normal((2, 4))
    yield "zero-columns", _rows_basis(_centred(rows, [0, 2, 3, 5]))
    rows = rng.standard_normal((2, 7))
    rows[:, 2] *= 1e-17
    rows[:, 4] = [3e-17, 0.0]
    yield "rounding-columns", _rows_basis(_centred(rows, [0, 1, 3, 5, 6]))
    rows = rng.standard_normal((2, 8))
    rows[:, 3], rows[:, 5], rows[:, 6] = 2.0 * rows[:, 1], -rows[:, 1], -0.5 * rows[:, 0]
    yield "parallel", _rows_basis(_centred(rows, [2, 4, 7]))
    # ridges on the 0/pi wrap: columns (0, y) have their ridge at angle 0, and
    # (t, y), (-t, y) at pi - t/y and t/y, on both sides of it
    rows = rng.standard_normal((2, 7))
    rows[0, [1, 4]] = 0.0
    rows[1, 4] = -2.0 * rows[1, 1]
    yield "wrap-exact", _rows_basis(_centred(rows, [0, 2, 3, 5, 6]))
    for t in (1e-9, 1e-17):
        rows = rng.standard_normal((2, 7))
        rows[:, 1], rows[:, 4] = [t, 0.9], [-t, 1.3]
        yield f"wrap-{t:g}", _rows_basis(_centred(rows, [0, 2, 3, 5, 6]))
    for t in (1e-3, 1e-6, 1e-8, 1e-10, 1e-12):
        yield f"near-parallel-{t:g}", _near_parallel_family(t)
    yield "cluster-1e-06", _cluster_basis(1e-6, 7, 2)
    yield "cluster-1e-07", _cluster_basis(1e-7, 5, 0)
    yield "separable", _separable_basis()


_RIDGE_CASES = dict(_ridge_degenerate_cases())


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("name", list(_RIDGE_CASES))
def test_kdim_codim2_ridge_degenerate_within_err_of_oracle(name, tol):
    # zero, short, parallel and nearly parallel columns: the result lies
    # within its err of the oracle or the quadrature says it cannot
    basis = _RIDGE_CASES[name]
    o = oracle.polytope_volume(oracle.kdim_section_vertices(oracle.regular_simplex(basis.n), basis))
    try:
        q = quadrature.kdim_volume_quadrature(basis, tol)
    except TolUnreachable:
        return
    assert abs(q.value - o.value) <= q.err + o.err


def test_ridge_degenerate_cases_are_degenerate():
    # the cases hold what their names say, after orthonormalization
    def ridges(name):
        return np.arctan2(*quadrature._sectors(_RIDGE_CASES[name].vectors)[0][:-1].T[::-1])

    cols = _RIDGE_CASES["zero-columns"].vectors.T
    assert (cols[[1, 4, 6]] == 0.0).all()
    assert np.abs(_RIDGE_CASES["rounding-columns"].vectors[:, [2, 4]]).max() < 1e-16
    cols = _RIDGE_CASES["parallel"].vectors.T
    assert (cols[3] == 2.0 * cols[1]).all() and (cols[5] == -cols[1]).all()
    assert (cols[6] == -0.5 * cols[0]).all()
    assert ridges("wrap-exact")[0] == 0.0
    for t in (1e-9, 1e-17):
        a = ridges(f"wrap-{t:g}")
        assert 0.0 < a[0] < 1e-8 and a[-1] > math.pi - 1e-8
    for t, k in ((1e-6, 7), (1e-7, 5)):
        gaps = np.sort(np.diff(ridges(f"cluster-{t:g}")))
        assert gaps[k - 2] < 100 * t  # k ridges in a fan of width ~t


def _sector_rows():
    rng = np.random.default_rng([19, 2])
    for n in range(2, 13):
        yield f"random-{n}", rng.standard_normal((2, n + 1))
        if n >= 3:
            yield f"witness-{n}", extremal.conjectured_kdim_maximizer(n, n - 1).vectors
    for name, basis in _RIDGE_CASES.items():
        yield name, basis.vectors


def test_sector_integrand_matches_complex_prod_bit_for_bit():
    rng = np.random.default_rng([19, 3])
    for name, rows in _sector_rows():
        _, p, q, jac = quadrature._sectors(np.asarray(rows, dtype=float))
        pts = _sector_points(len(jac), rng)
        ft, ref = quadrature._sector_integrand(p, q, jac), _prod_sector_integrand(p, q, jac)
        assert np.array_equal(ft(*pts), ref(*pts)), name
        shuffled = [x[rng.permutation(x.size)[:60]] for x in pts]  # points in any order
        assert np.array_equal(ft(*shuffled), ref(*shuffled)), name


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
    bases = [_separable_basis(), extremal.conjectured_kdim_maximizer(5, 4),
             _RIDGE_CASES["near-parallel-1e-06"]] + [
        subspaces.random_subspace_through_centroid(n, n - 1, rng) for n in (4, 6, 8)]
    dirs = [cf.Direction.make(rng.standard_normal(n + 1)) for n in (3, 6, 10)]
    got = ([quadrature.kdim_volume_quadrature(b, 1e-6) for b in bases]
           + [quadrature.hyperplane_volume_quadrature(a, 1e-9) for a in dirs])
    monkeypatch.setattr(quadrature, "_sector_integrand", _prod_sector_integrand)
    monkeypatch.setattr(quadrature, "_folded_line_integrand", _prod_line_integrand)
    want = ([quadrature.kdim_volume_quadrature(b, 1e-6) for b in bases]
            + [quadrature.hyperplane_volume_quadrature(a, 1e-9) for a in dirs])
    assert [(r.value, r.err) for r in got] == [(r.value, r.err) for r in want]


def _reference_sector_volume(basis, tol):
    """The per-cell sector quadrature with its 1e-3 -> target restart.

    Each cell costs two separate tensor-rule calls on the np.prod integrand
    and the second pass lays the grid again and replays the first; kept as
    the reference for the batched, resumed refinement.
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

    def run(f, grid, tol_abs, max_cells=24000):
        heap, counter, total, err_sum = [], 0, 0.0 + 0.0j, 0.0
        for a, b, c, d in grid:
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

    _, p, q, jac = quadrature._sectors(np.asarray(basis.vectors, dtype=float))
    f = _prod_sector_integrand(p, q, jac)
    grid = quadrature._sector_grid(p, q, jac).tolist()
    val, err = run(f, grid, 1e-3)
    target = max(tol, 1e-10) * max(abs(val.real), 1e-6)
    if target < 1e-3:
        val, err = run(f, grid, target)
    pref, scale = quadrature._direct_prefactor(basis), 2.0 / (2.0 * math.pi) ** 2
    return pref * val.real * scale, pref * err * scale


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, "separable", "witness", "near-parallel"])
def test_kdim_codim2_matches_per_cell_reference(n):
    if n == "separable":
        basis = _separable_basis()
    elif n == "witness":
        basis = extremal.conjectured_kdim_maximizer(6, 5)
    elif n == "near-parallel":
        basis = _near_parallel_family(1e-6)
    else:
        basis = subspaces.random_subspace_through_centroid(n, n - 1, np.random.default_rng([7, 3]))
    res = quadrature.kdim_volume_quadrature(basis, 1e-6)
    want, want_err = _reference_sector_volume(basis, 1e-6)
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
    for n in range(9, 13):
        yield f"centroid-{n}", subspaces.random_subspace_through_centroid(n, n - 1, rng)
    for n in (10, 12):
        yield f"general-{n}", _general_codim2_basis(n, rng)


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_kdim_codim2_within_err_of_oracle(tol):
    # the coarse starting grid leaves the accuracy to refinement: every
    # result must still lie within its err of the oracle
    for name, basis in _codim2_cases():
        q = quadrature.kdim_volume_quadrature(basis, tol)
        o = oracle.polytope_volume(oracle.kdim_section_vertices(oracle.regular_simplex(basis.n), basis))
        assert abs(q.value - o.value) <= q.err + o.err, name


def test_sector_grid_tiles_the_folded_quadrants():
    h = 0.5 * math.pi
    for name, rows in _sector_rows():
        d, p, q, jac = quadrature._sectors(np.asarray(rows, dtype=float))
        m = len(jac)
        # the sector angles are positive and sum to pi
        cross = d[:-1, 0] * d[1:, 1] - d[:-1, 1] * d[1:, 0]
        angles = np.arctan2(cross, (d[:-1] * d[1:]).sum(axis=1))
        assert (angles > 0.0).all(), name
        assert angles.sum() == pytest.approx(math.pi, rel=1e-14, abs=0), name
        # every column with a ridge has it on one edge: p = 0 in the sector
        # it starts, q = 0 in the sector it ends
        assert np.array_equal(p == 0.0, np.roll(q == 0.0, 1, axis=0)), name
        live = np.asarray(rows).any(axis=0)
        assert ((p == 0.0).sum(axis=0)[live] == 1).all(), name
        g = quadrature._sector_grid(p, q, jac)
        a, b, c, e = g.T
        assert (a < b).all() and (c < e).all(), name
        assert a.min() == 0.0 and b.max() == m * h, name
        assert c.min() == 0.0 and e.max() == h, name
        sector = np.searchsorted(np.arange(m) * h, a, side="right") - 1
        assert (b <= (sector + 1) * h).all(), name  # no cell straddles a sector edge
        overlap = (np.minimum.outer(b, b) > np.maximum.outer(a, a)) & (
            np.minimum.outer(e, e) > np.maximum.outer(c, c)
        )
        assert np.count_nonzero(overlap) == len(g), name  # each cell overlaps only itself
        assert ((b - a) * (e - c)).sum() == pytest.approx(m * h * h, rel=1e-14, abs=0), name


def test_sector_grid_reaches_the_near_ridges():
    # 16 cells a sector when no ridge is near and no column short; ridges
    # about t outside an axis put marks out to about 1/(16 t) on it
    h = 0.5 * math.pi
    _, p, q, jac = quadrature._sectors(extremal.conjectured_kdim_maximizer(5, 4).vectors)
    assert len(quadrature._sector_grid(p, q, jac)) == 16 * 3
    for t in (1e-3, 1e-6, 1e-12):
        _, p, q, jac = quadrature._sectors(_near_parallel_family(t).vectors)
        a, _, c, _ = quadrature._sector_grid(p, q, jac).T
        marks = np.concatenate([a - np.floor(a / h) * h, c])
        top = np.tan(marks[marks < h]).max()
        assert 0.1 / t < top < 1.0 / t


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
    # a box rounds as it would alone, so batching cannot move any value;
    # the first 64 sector cells span four sectors
    basis = subspaces.random_subspace_through_centroid(6, 5, np.random.default_rng([7, 3]))
    _, p, q, jac = quadrature._sectors(np.asarray(basis.vectors))
    f = quadrature._sector_integrand(p, q, jac)
    h = quadrature._folded_line_integrand(np.array([0.6, 0.2, -0.3, -0.5, 0.1]))
    for rule, grid in ((f, quadrature._sector_grid(p, q, jac)[:64]), (h, quadrature._LINE_GRID)):
        batch = quadrature._gauss_cells(rule, grid)
        alone = [quadrature._gauss_cells(rule, grid[i:i + 1]) for i in range(len(grid))]
        assert batch == ([v for (v,), _ in alone], [e for _, (e,) in alone])


def test_sector_cell_budget_below_initial_grid():
    _, p, q, jac = quadrature._sectors(np.asarray(_separable_basis().vectors))
    cells = partial(quadrature._gauss_cells, quadrature._sector_integrand(p, q, jac))
    # the 32-cell grid alone reaches 3.4e-12 absolute on a total of pi^2; ask for less
    with pytest.raises(TolUnreachable, match="cell budget exhausted"):
        quadrature._adaptive(cells, quadrature._sector_grid(p, q, jac), 1e-14, max_cells=16)


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
    """Per-point weights of the cone estimate with every point formed: one
    (draws, k) exponential draw, the cyclic shifts roll(e, -t) of each draw,
    draw-major, the first samples of them; a hit by the sign of GE, weight
    (S / (S + sum GE))^k.

    Returns the weights, the draw of each point and the factor taking a mean
    weight to a volume; J maximizes |det B_J| by brute force over all column
    sets.
    """
    b = basis.vectors
    c, k = basis.codim, basis.k
    cols = list(max(itertools.combinations(range(basis.n + 1), c),
                    key=lambda j: abs(np.linalg.det(b[:, list(j)]))))
    rest = [j for j in range(basis.n + 1) if j not in cols]
    g = -np.linalg.solve(b[:, cols], b[:, rest])
    e = np.random.default_rng(seed).standard_exponential((-(-samples // k), k))
    pts = np.stack([np.roll(e, -t, axis=1) for t in range(k)], axis=1).reshape(-1, k)[:samples]
    ge = pts @ g.T
    s = pts.sum(axis=1)
    w = np.where(np.all(ge >= 0.0, axis=1), s / (s + ge.sum(axis=1)), 0.0) ** k
    conv = quadrature._direct_prefactor(basis) / abs(np.linalg.det(b[:, cols]))
    return w, np.arange(samples) // k, conv


def _cluster_se(w, draw):
    """sqrt(m/(m-1) sum_i (y_i - p s_i)^2) / samples, for draw i's weight
    sum y_i over its s_i points, p the mean weight and m draws."""
    y, size = np.bincount(draw, weights=w), np.bincount(draw)
    m = y.size
    return math.sqrt(m / (m - 1) * np.sum((y - w.mean() * size) ** 2)) / w.size


def _assert_matches_cone_reference(basis, samples, seed):
    w, draw, conv = _cone_reference(basis, samples, seed)
    got = quadrature.monte_carlo_cone_volume(basis, samples, seed=seed)
    # the two sum one draw's shifts in different orders, so they agree to
    # rounding; one point more, less or shifted moves the mean by about 1/samples
    assert got.value == pytest.approx(w.mean() * conv, rel=1e-12, abs=0)
    assert got.err == pytest.approx(_cluster_se(w, draw) * conv, rel=1e-9, abs=0)


def _cone_reference_bases():
    return [subspaces.random_subspace_through_centroid(n, n + 1 - codim,
                                                       np.random.default_rng([3, n]))
            for n, codim in [(6, 2), (8, 3)]]


# samples = draws * k + extra: one chunk of draws and one draw either side of
# it, one point into a second chunk, and counts that are no multiple of k
@pytest.mark.parametrize("draws, extra", [
    (0, 1000), (montecarlo.CHUNK - 1, 0), (montecarlo.CHUNK, 0),
    (montecarlo.CHUNK, 1), (montecarlo.CHUNK + 1, 0), (0, 100_000),
])
@pytest.mark.parametrize("case", [0, 1], ids=["n6-codim2", "n8-codim3"])
def test_mc_cone_matches_dirichlet_reference(case, draws, extra):
    # chunked fills of draws consume the stream like one (draws, k) draw, and
    # the last draw gives only its first shifts, up to samples points
    basis = _cone_reference_bases()[case]
    _assert_matches_cone_reference(basis, draws * basis.k + extra, 11)


def test_mc_cone_partial_draws_match_reference():
    # every count over three draws past the 1000-point floor: the last
    # draw's shifts are its first ones
    basis = _cone_reference_bases()[1]
    for samples in range(1000, 1000 + 3 * basis.k + 1):
        _assert_matches_cone_reference(basis, samples, 11)


@pytest.mark.parametrize("samples", [1000, 1001, 1003, 4 * montecarlo.CHUNK - 1,
                                     4 * montecarlo.CHUNK + 1])
def test_mc_cone_counts_exactly_samples_points(samples):
    # H = span{e0, ..., e3} meets the 6-simplex in the face of its first four
    # vertices (area sqrt(4)/3! = 1/3): G = 0, so every point hits with
    # weight 1 and each draw's weight sum equals its number of points, which
    # leaves no spread between draws; one point more or less than samples
    # would move the value by 1/samples
    basis = subspaces.complement_of_span(np.eye(7)[:4])
    assert basis.k == 4
    res = quadrature.monte_carlo_cone_volume(basis, samples, seed=1)
    assert res.value == pytest.approx(1.0 / 3.0, rel=1e-14, abs=0)
    assert 0.0 < res.err <= 1e-13 * res.value


def _self_similar_cone_basis():
    """Codim 2 at n = 5: J = {0, 1}, and the vertex permutation swapping 0
    and 1 and rolling 2, 3, 4, 5 by two maps H onto itself, so the shift by
    two maps the cone onto itself and repeats every weight of the draw.

    The rows (5, 1, 1, b, -3, d) and (1, 5, -3, d, 1, b), b, d = -2 +- sqrt 6,
    sum to 0 and are orthogonal and of equal norm."""
    b, d = -2.0 + math.sqrt(6.0), -2.0 - math.sqrt(6.0)
    rows = np.array([[5, 1, 1, b, -3, d], [1, 5, -3, d, 1, b]])
    return subspaces.SubspaceBasis(n=5, vectors=rows / np.linalg.norm(rows, axis=1, keepdims=True))


def test_mc_cone_err_counts_repeated_shifts():
    # shifts 0 and 2 of a draw (and 1 and 3) weigh the same, so the i.i.d.
    # standard error over points is about 1/sqrt(2) of the spread of the
    # estimates between seeds; the cluster standard error matches it
    basis = _self_similar_cone_basis()
    assert quadrature._pivot_columns(basis.vectors) == [0, 1]
    w = _cone_reference(basis, 4000, 0)[0].reshape(-1, 4)
    assert np.allclose(w[:, 0], w[:, 2], rtol=1e-12, atol=0)
    assert np.any(w[:, 0] != w[:, 1])
    samples, values, errs, iid = 10_000, [], [], []
    for seed in range(200):
        res = quadrature.monte_carlo_cone_volume(basis, samples, seed)
        w, _, conv = _cone_reference(basis, samples, seed)
        values.append(res.value)
        errs.append(res.err)
        iid.append(w.std() / math.sqrt(samples) * conv)
    spread = float(np.std(values))
    assert 0.85 <= float(np.median(errs)) / spread <= 1.2
    assert float(np.median(iid)) / spread <= 0.85


def _degenerate_cone_bases(count, rng):
    """`count` bases of `test_oracle._degenerate_basis` drawn as its
    strategy does, each meeting the simplex."""
    bases = []
    while len(bases) < count:
        n, codim = int(rng.integers(3, 8)), int(rng.integers(2, 4))
        i, j = (int(x) for x in rng.choice(n, 2, replace=False))
        kind = ["zero", "parallel", "ulp"][int(rng.integers(3))]
        factor = {"zero": 0.0, "ulp": 1.0}.get(kind, float(rng.choice([1.0, -1.0, 2.0, -0.5])))
        basis = _degenerate_basis(n, rng.integers(-3, 4, size=(codim, n + 1)), i, j, kind, factor)
        if basis is None:
            continue
        try:
            oracle.kdim_section_vertices(oracle.regular_simplex(n), basis)
        except EmptySection:
            continue
        bases.append(basis)
    return bases


def test_mc_cone_err_is_calibrated():
    # z = (estimate - oracle) / err over 300 seeded estimates: a random
    # subspace through the centroid for each n = 3..12 and codim 1..4 (up to
    # n - 1), and 23 bases with a zero, parallel or one-ulp-apart column pair
    rng = np.random.default_rng(2026)
    cases = [subspaces.random_subspace_through_centroid(n, n + 1 - codim, rng)
             for n in range(3, 13) for codim in range(1, min(4, n - 1) + 1)]
    cases += _degenerate_cone_bases(23, rng)
    z = []
    for i, basis in enumerate(cases):
        spec = oracle.regular_simplex(basis.n)
        want = oracle.polytope_volume(oracle.kdim_section_vertices(spec, basis)).value
        for seed in range(5):
            res = quadrature.monte_carlo_cone_volume(basis, 100_000, 5 * i + seed + 1)
            z.append((res.value - want) / res.err)
    z = np.array(z)
    assert z.size >= 300
    assert 0.8 <= z.std() <= 1.2
    assert np.count_nonzero(np.abs(z) > 3.0) <= 3


@pytest.mark.parametrize("n, codim, mib", [(10, 2, 3.75), (12, 4, 5)])
def test_mc_cone_memory_is_one_chunk(n, codim, mib):
    # the draws, products, masks and weights live in buffers of CHUNK
    # draws allocated once, mu in the product's rows, not in (samples, k)
    # temporaries: peaks of 3.2 and 4.3 MiB (about 15% under the bounds),
    # where fresh arrays per chunk took 5.4 and 7.7 and one point per draw
    # in chunks of 2^16 9.3 and 11.0
    basis = subspaces.random_subspace_through_centroid(n, n + 1 - codim, np.random.default_rng(8))
    tracemalloc.start()
    try:
        quadrature.monte_carlo_cone_volume(basis, 10**6, seed=9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < mib * 2**20


def test_mc_cone_imports_no_scipy():
    # scipy is no dependency; a first call with a lazy scipy import would
    # also cost the set-up of every caller hundreds of milliseconds
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import simplex_sections\n"
        "from simplex_sections import quadrature, subspaces\n"
        "basis = subspaces.random_subspace_through_centroid(4, 3, np.random.default_rng(0))\n"
        "quadrature.monte_carlo_cone_volume(basis, 1000, 0)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    path = [str(Path(quadrature.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


@pytest.mark.parametrize("samples", [1e6, 1000.5, True])
def test_mc_cone_rejects_non_integer_samples(samples):
    basis = quadrature.hyperplane_basis_of(cf.a_max_direction(4))
    with pytest.raises(OutOfRange):
        quadrature.monte_carlo_cone_volume(basis, samples, seed=0)


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
