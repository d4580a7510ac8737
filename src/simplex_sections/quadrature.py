"""Fourier-integral section volumes, evaluated by adaptive quadrature.

The k-dimensional section volume equals a prefactor times the integral over
R^(n+1-k) of prod_j 1/(1 + i <row_j, s>), where the rows collect the
coordinates of an orthonormal basis of H-perp.  Codimension 1 reduces to a
line integral of an even real part; codimension 2 is a tensor integral over
a truncated square.  Higher codimension is served by the vertex-enumeration
oracle instead.
"""
from __future__ import annotations

import heapq
import math

import numpy as np

from .closed_form import Direction, VolumeResult, subspace_origin_distance
from .errors import EmptySection, NotSupported, OutOfRange, TolUnreachable, ZeroHits
from .subspaces import SubspaceBasis

MAX_DEPTH = 40
SQUARE_CHUNK = 64  # cells per integrand call; keeps each temporary near 2 MB at n = 8

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


def _line_integrand(coeffs: np.ndarray):
    def f(s: np.ndarray) -> np.ndarray:
        denom = 1.0 + 1j * np.multiply.outer(s, coeffs)
        return 1.0 / np.prod(denom, axis=-1)

    return f


def _adaptive_line(f, lo: float, hi: float, tol_abs: float, max_intervals: int = 4000):
    """Globally adaptive bisection with a Gauss 15/31 pair per interval.

    The initial partition doubles geometrically away from `lo` so that
    integrands with slow power tails never need excessive bisection depth.
    Deterministic: the worst-error interval is always refined first, ties
    broken by insertion order.
    """
    x15, w15 = _gl(15)
    x31, w31 = _gl(31)

    def segment(a: float, b: float):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        i15 = half * (w15 @ f(mid + half * x15))
        i31 = half * (w31 @ f(mid + half * x31))
        return i31, abs(i31 - i15)

    bounds = [lo]
    step = min(1.0, hi - lo)
    while bounds[-1] + step < hi:
        bounds.append(bounds[-1] + step)
        step *= 2.0
    bounds.append(hi)

    heap = []
    counter = 0
    total = 0.0 + 0.0j
    err_sum = 0.0
    for a, b in zip(bounds, bounds[1:]):
        val, err = segment(a, b)
        total += val
        err_sum += err
        heapq.heappush(heap, (-err, counter, a, b, 0, val, err))
        counter += 1

    while err_sum > tol_abs and counter < max_intervals:
        neg_err, _, a, b, depth, val, err = heapq.heappop(heap)
        if depth >= MAX_DEPTH or (b - a) <= 1e-15 * max(1.0, abs(b)):
            raise TolUnreachable(
                f"refinement stalled at depth {depth} with error {err_sum:.3e}"
            )
        total -= val
        err_sum -= err
        mid = 0.5 * (a + b)
        for aa, bb in ((a, mid), (mid, b)):
            val2, err2 = segment(aa, bb)
            total += val2
            err_sum += err2
            heapq.heappush(heap, (-err2, counter, aa, bb, depth + 1, val2, err2))
            counter += 1
    if err_sum > tol_abs:
        raise TolUnreachable(f"interval budget exhausted with error {err_sum:.3e}")
    return total, err_sum


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

    Uses evenness of the real part to integrate over [0, inf); the tail
    beyond the truncation point is bounded analytically through
    prod (1 + a_j^2 s^2)^(-1/2) <= prod (|a_j| s)^(-1) over the nonzero
    coordinates and folded into the error estimate.
    """
    n = a.n
    if n < 3:
        raise OutOfRange("n >= 3 required for comfortable integrand decay")
    if not a.positive_indices() or not a.negative_indices():
        raise EmptySection("direction with one-signed coordinates")
    coeffs = np.asarray(a.a, dtype=float)
    nz = np.abs(coeffs[np.abs(coeffs) > a.zero_tol()])
    m = nz.size
    if m < 2:
        raise EmptySection("fewer than two nonzero coordinates")
    tail_c = float(np.prod(1.0 / nz))

    def tail_bound(s: float) -> float:
        return tail_c * s ** (1 - m) / (m - 1)

    def cutoff(tol_tail: float) -> float:
        return max(4.0, (tail_c / ((m - 1) * tol_tail)) ** (1.0 / (m - 1)))

    f = _line_integrand(coeffs)
    pref = _direct_prefactor(hyperplane_basis_of(a))

    def run(tol_abs: float):
        s_max = cutoff(0.5 * tol_abs)
        val, err = _adaptive_line(f, 0.0, s_max, 0.5 * tol_abs)
        return val, err + tail_bound(s_max)

    val, err = run(1e-3)
    target = max(tol, 1e-12) * max(abs(val.real), 1e-6)
    if target < 1e-3:
        val, err = run(target)
    value = pref * val.real / math.pi
    return VolumeResult(value=value, method="quadrature", err=pref * err / math.pi)


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


def _adaptive_square(f, x1: float, y1: float, max_cells: int = 24000):
    """Adaptive tensor quadrature over [0, x1] x [-y1, y1], 7/15 point pair.

    Lays the initial grid and returns `refine(tol_abs) -> (total, err)`.
    The worst-error cell is always split into four, ties broken by
    insertion order; a second, smaller `tol_abs` resumes from where the
    first stopped, which is the state a fresh run would pass through.
    Cells are evaluated in batches: the grid SQUARE_CHUNK at a time, the
    four children of a split cell in one call.
    """

    # initial grid: arctan images of doubling marks, denser toward the origin
    def marks(limit):
        pts = [0.0]
        raw = 1.0
        while (m := float(np.arctan(raw))) < limit - 1e-9:
            pts.append(m)
            raw *= 2.0
        pts.append(limit)
        return pts

    xs = marks(x1)
    ys = marks(y1)
    ybounds = sorted(set([-v for v in ys] + ys))
    grid = np.array([(a, b, c, d) for a, b in zip(xs, xs[1:])
                     for c, d in zip(ybounds, ybounds[1:])])

    heap, total, err_sum = [], 0.0 + 0.0j, 0.0
    for lo in range(0, len(grid), SQUARE_CHUNK):
        chunk = grid[lo:lo + SQUARE_CHUNK]
        for i, (cell, val, err) in enumerate(zip(chunk.tolist(), *_square_cells(f, chunk))):
            total += val
            err_sum += err
            heap.append((-err, lo + i, *cell, 0, val, err))
    heapq.heapify(heap)
    counter = len(grid)

    def refine(tol_abs: float):
        nonlocal total, err_sum, counter
        while err_sum > tol_abs and counter < max_cells:
            _, _, a, b, c, d, depth, val, err = heapq.heappop(heap)
            if depth >= MAX_DEPTH:
                raise TolUnreachable(f"cell refinement stalled, error {err_sum:.3e}")
            total -= val
            err_sum -= err
            mx, my = 0.5 * (a + b), 0.5 * (c + d)
            kids = [(a, mx, c, my), (a, mx, my, d), (mx, b, c, my), (mx, b, my, d)]
            for cell, v2, e2 in zip(kids, *_square_cells(f, np.array(kids))):
                total += v2
                err_sum += e2
                heapq.heappush(heap, (-e2, counter, *cell, depth + 1, v2, e2))
                counter += 1
        if err_sum > tol_abs:
            raise TolUnreachable(f"cell budget exhausted with error {err_sum:.3e}")
        return total, err_sum

    return refine


def kdim_volume_quadrature(basis: SubspaceBasis, tol: float = 1e-6) -> VolumeResult:
    """Section volume for codimension 1 or 2 via the Fourier formula.

    Codimension 1 delegates to the line integral.  Codimension 2 integrates
    the tangent-compactified integrand over a finite square: the
    substitution's Jacobian cancels the quadratic radial decay, so every
    absolutely integrable case is covered without a truncation radius.
    The square is refined to 1e-3 first, which sets the absolute target
    from the total; refinement then resumes on the same cells (batched,
    see `_adaptive_square`) rather than restarting.
    Codimension >= 3 is not supported here (the oracle covers it).
    """
    if basis.codim == 1:
        return hyperplane_volume_quadrature(
            Direction.make(basis.vectors[0], canonicalize=False), tol=tol
        )
    if basis.codim != 2:
        raise NotSupported("quadrature implemented for codimension 1 and 2 only")
    rows = np.asarray(basis.vectors, dtype=float)
    ft = _compactified_integrand(rows)
    pref = _direct_prefactor(basis)
    half_pi = 0.5 * math.pi

    refine = _adaptive_square(ft, half_pi, half_pi)
    val, err = refine(1e-3)
    target = max(tol, 1e-10) * max(abs(val.real), 1e-6)
    if target < 1e-3:
        val, err = refine(target)
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
    conv = math.sqrt(basis.n + 1.0 - basis.sum_squares()) / math.factorial(k - 1)
    return VolumeResult(value=mean_w * conv, method="monte-carlo", err=se * conv)
