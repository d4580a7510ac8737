"""Fourier-integral section volumes, evaluated by adaptive quadrature.

The k-dimensional section volume equals a prefactor times the integral over
R^(n+1-k) of prod_j 1/(1 + i <row_j, s>), where the rows collect the
coordinates of an orthonormal basis of H-perp.  Codimension 1 reduces to a
line integral of an even real part, folded from [0, inf) onto [0, 1];
codimension 2 is a tensor integral over the tangent-compactified square.
Both run on one adaptive Gauss-pair driver, `_adaptive`.  Higher
codimension is served by the vertex-enumeration oracle instead.
"""
from __future__ import annotations

import heapq
import math
from functools import partial

import numpy as np

from .closed_form import Direction, VolumeResult, subspace_origin_distance
from .errors import EmptySection, NotSupported, OutOfRange, TolUnreachable, ZeroHits
from .subspaces import SubspaceBasis

MAX_DEPTH = 40
CHUNK = 64  # cells per integrand call; keeps each square temporary near 2 MB at n = 8

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


def _adaptive(cells_fn, grid: np.ndarray, tol: float, max_cells: int):
    """Globally adaptive Gauss-pair integration over the cells of `grid`.

    `grid` holds 1-D intervals (a, b) or 2-D cells (a, b, c, d), one per
    row; `cells_fn(cells)` returns the values and error estimates of such
    an array of cells, one integrand call per rule.  The worst-error cell
    is always split into its 2^d halves, ties broken by insertion order.
    Refinement first meets 1e-3, which sets the absolute target
    tol * max(|Re I|, 1e-6) from the total, then resumes on the same heap:
    the state a fresh run to that target would pass through.
    """
    heap, total, err_sum = [], 0.0, 0.0
    for lo in range(0, len(grid), CHUNK):
        chunk = grid[lo:lo + CHUNK]
        for i, (cell, val, err) in enumerate(zip(chunk.tolist(), *cells_fn(chunk))):
            total += val
            err_sum += err
            heap.append((-err, lo + i, 0, val, err, *cell))
    heapq.heapify(heap)
    counter = len(grid)

    target = 1e-3
    for _ in range(2):  # the 1e-3 pass, then the resumed pass to the relative target
        while err_sum > target and counter < max_cells:
            top = heapq.heappop(heap)
            _, _, depth, val, err = top[:5]
            if depth >= MAX_DEPTH:
                raise TolUnreachable(
                    f"refinement stalled at depth {depth} with error {err_sum:.3e}"
                )
            total -= val
            err_sum -= err
            kids = [()]  # halve each axis in turn: the first axis varies slowest
            for a, b in zip(top[5::2], top[6::2]):
                mid = 0.5 * (a + b)
                kids = [k + half for k in kids for half in ((a, mid), (mid, b))]
            for cell, v2, e2 in zip(kids, *cells_fn(np.array(kids))):
                total += v2
                err_sum += e2
                heapq.heappush(heap, (-e2, counter, depth + 1, v2, e2, *cell))
                counter += 1
        if err_sum > target:
            raise TolUnreachable(f"cell budget exhausted with error {err_sum:.3e}")
        target = tol * max(abs(total.real), 1e-6)
    return total, err_sum


def _folded_line_integrand(coeffs: np.ndarray):
    """Re prod_j 1/(1 + i a_j s) on [0, inf), folded onto x in (0, 1].

    h(x) = f(x) + f(1/x)/x^2, and f(1/x)/x^2 = x^(n-1) / prod_j (x + i a_j)
    stays finite as x -> 0, so the whole half-line needs no cutoff.
    """
    power = coeffs.size - 2

    def h(x: np.ndarray) -> np.ndarray:
        near = 1.0 / np.prod(1.0 + 1j * np.multiply.outer(x, coeffs), axis=-1)
        far = 1.0 / np.prod(x[:, None] + 1j * coeffs, axis=-1)
        return near.real + x**power * far.real

    return h


def _line_cells(h, cells: np.ndarray):
    """15-point Gauss values and |15-point - 7-point| errors of intervals (a, b).

    One integrand call per rule evaluates every interval of `cells`,
    shape (m, 2).
    """
    a, b = cells.T[:, :, None]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    out = []
    for order in (7, 15):
        xn, xw = _gl(order)
        vals = h((mid + half * xn).ravel()).reshape(-1, order)
        out.append(half[:, 0] * (vals @ xw))
    i7, i15 = out
    return i15.tolist(), np.abs(i15 - i7).tolist()


# dyadic marks 0, 2^-30, ..., 1/2, 1: the fold maps the slow tail toward x = 0
_LINE_MARKS = [0.0] + [2.0**-e for e in range(30, -1, -1)]
_LINE_GRID = np.column_stack([_LINE_MARKS[:-1], _LINE_MARKS[1:]])


def _direct_prefactor(basis: SubspaceBasis) -> float:
    k = basis.k
    return math.sqrt(basis.n + 1.0 - basis.sum_squares()) / math.factorial(k - 1)


def _pyramid_prefactor(basis: SubspaceBasis) -> float:
    """Same prefactor, reconstructed from the origin distance and the
    pyramid formula; kept as an independent code path for consistency
    checks."""
    k = basis.k
    return k / math.factorial(k) / subspace_origin_distance(basis)


def hyperplane_volume_quadrature(a: Direction, tol: float = 1e-9) -> VolumeResult:
    """Section volume from the line-integral form of the Fourier formula.

    Uses evenness of the real part to integrate over [0, inf), folded onto
    [0, 1] by s -> 1/s (see `_folded_line_integrand`): no truncation point
    and no tail bound, and the 1e-3 pass resumes to the target.
    """
    if a.n < 3:
        raise OutOfRange("n >= 3 required for comfortable integrand decay")
    if not a.positive_indices() or not a.negative_indices():
        raise EmptySection("direction with one-signed coordinates")
    h = _folded_line_integrand(np.asarray(a.a, dtype=float))
    val, err = _adaptive(partial(_line_cells, h), _LINE_GRID, max(tol, 1e-12), max_cells=4000)
    pref = _direct_prefactor(hyperplane_basis_of(a))
    return VolumeResult(value=pref * val / math.pi, method="quadrature", err=pref * err / math.pi)


def hyperplane_basis_of(a: Direction) -> SubspaceBasis:
    return SubspaceBasis(n=a.n, vectors=np.array([a.a]))


def _square_integrand(rows: np.ndarray):
    r0, r1 = rows

    def f(sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
        phase = np.multiply.outer(sx, r0) + np.multiply.outer(sy, r1)
        return 1.0 / np.prod(1.0 + 1j * phase, axis=-1)

    return f


def _compactified_integrand(rows: np.ndarray):
    """The plane integrand pulled back through s_i = tan(u_i).

    The Jacobian sec^2(u1) sec^2(u2) exactly cancels the quadratic radial
    decay, so any absolutely integrable product stays bounded on the open
    u-square and no truncation radius or tail bound is needed.
    """
    f = _square_integrand(rows)

    def ft(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
        t1, t2 = np.tan(u1), np.tan(u2)
        return f(t1, t2) * (1.0 + t1 * t1) * (1.0 + t2 * t2)

    return ft


def _square_cells(f, cells: np.ndarray):
    """15x15 Gauss values and |15x15 - 7x7| errors of cells (a, b, c, d).

    One integrand call per rule evaluates every cell of `cells`, shape
    (m, 4), on its tensor grid.
    """
    a, b, c, d = cells.T[:, :, None]
    midx, halfx = 0.5 * (a + b), 0.5 * (b - a)
    midy, halfy = 0.5 * (c + d), 0.5 * (d - c)
    out = []
    for order in (7, 15):
        xn, xw = _gl(order)
        gx = np.repeat(midx + halfx * xn, order, axis=1)
        gy = np.tile(midy + halfy * xn, order)
        vals = f(gx.ravel(), gy.ravel()).reshape(-1, order, order)
        # (m, 1, o) @ (o,) is one dot per cell, rounded as for a lone cell
        out.append(halfx * halfy * ((xw @ vals)[:, None, :] @ xw))
    i7, i15 = out
    diff = (i15 - i7)[:, 0]  # np.abs rounds complex arrays unlike scalar abs
    return i15[:, 0].tolist(), np.hypot(diff.real, diff.imag).tolist()


def _square_grid() -> np.ndarray:
    """Cells of [0, pi/2] x [-pi/2, pi/2] between the arctan images of
    doubling marks, denser toward the origin."""
    xs, raw = [0.0], 1.0
    while (m := float(np.arctan(raw))) < 0.5 * math.pi - 1e-9:
        xs.append(m)
        raw *= 2.0
    xs.append(0.5 * math.pi)
    ys = sorted(set([-v for v in xs] + xs))
    return np.array([(a, b, c, d) for a, b in zip(xs, xs[1:]) for c, d in zip(ys, ys[1:])])


def kdim_volume_quadrature(basis: SubspaceBasis, tol: float = 1e-6) -> VolumeResult:
    """Section volume for codimension 1 or 2 via the Fourier formula.

    Codimension 1 delegates to the line integral.  Codimension 2 integrates
    the tangent-compactified integrand over a finite square: the
    substitution's Jacobian cancels the quadratic radial decay, so every
    absolutely integrable case is covered without a truncation radius.
    Both run on `_adaptive`, the square with cells batched CHUNK at a time.
    Codimension >= 3 is not supported here (the oracle covers it).
    """
    if basis.codim == 1:
        return hyperplane_volume_quadrature(
            Direction.make(basis.vectors[0], canonicalize=False), tol=tol
        )
    if basis.codim != 2:
        raise NotSupported("quadrature implemented for codimension 1 and 2 only")
    ft = _compactified_integrand(np.asarray(basis.vectors, dtype=float))
    cells = partial(_square_cells, ft)
    val, err = _adaptive(cells, _square_grid(), max(tol, 1e-10), max_cells=24000)
    pref = _direct_prefactor(basis)
    scale = 2.0 / (2.0 * math.pi) ** 2  # doubled half-plane integral
    return VolumeResult(
        value=pref * val.real * scale, method="quadrature", err=pref * err * scale
    )


def monte_carlo_cone_volume(basis: SubspaceBasis, samples: int, seed: int) -> VolumeResult:
    """Monte Carlo check of the exponential-integral volume representation.

    vol_k of the cone slice H intersect {x >= 0, weighted by exp(-sum x)}
    is estimated by importance sampling with an isotropic multivariate
    Cauchy proposal in H-coordinates (heavy tails keep the weight variance
    finite on the unbounded cone), then converted to the section volume via
    the origin distance and the pyramid formula.  err is one standard error.
    """
    if samples < 1000:
        raise OutOfRange("samples >= 1000 required")
    k = basis.k
    h_rows = basis.h_basis()  # (k, n+1)
    log_cnorm = math.lgamma((k + 1) / 2.0) - (k + 1) / 2.0 * math.log(math.pi)
    rng = np.random.default_rng(seed)

    total_w = 0.0
    total_w2 = 0.0
    hits = 0
    done = 0
    batch = 200_000
    while done < samples:
        m = min(batch, samples - done)
        z = rng.standard_normal((m, k))
        g = rng.standard_normal(m)
        g = np.where(np.abs(g) < 1e-300, 1e-300, g)
        u = z / np.abs(g)[:, None]
        x = u @ h_rows
        inside = np.all(x >= -1e-12, axis=1)
        hits += int(np.count_nonzero(inside))
        if np.any(inside):
            ui = u[inside]
            xi = x[inside]
            log_q = log_cnorm - (k + 1) / 2.0 * np.log1p(np.sum(ui * ui, axis=1))
            w = np.exp(-np.sum(xi, axis=1) - log_q)
            total_w += float(np.sum(w))
            total_w2 += float(np.sum(w * w))
        done += m
    if hits == 0:
        raise ZeroHits("no Monte Carlo sample landed in the nonnegative cone")
    mean_w = total_w / samples
    var_w = max(total_w2 / samples - mean_w * mean_w, 0.0)
    se = math.sqrt(var_w / samples)
    # cone estimate -> k-volume (divide k!) -> section volume (pyramid formula)
    conv = _direct_prefactor(basis)
    return VolumeResult(value=mean_w * conv, method="monte-carlo", err=se * conv)
