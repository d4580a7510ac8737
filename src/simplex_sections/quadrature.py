"""Fourier-integral section volumes, evaluated by adaptive quadrature.

The k-dimensional section volume equals a prefactor times the integral over
R^(n+1-k) of prod_j 1/(1 + i <row_j, s>), where the rows collect the
coordinates of an orthonormal basis of H-perp.  Codimension 1 reduces to a
line integral of an even real part, folded from [0, inf) onto [0, 1];
codimension 2 is a tensor integral over the tangent-compactified square.
Both run on one Gauss-pair rule for boxes of any dimension, `_gauss_cells`,
and one adaptive driver, `_adaptive`.  Higher
codimension is served by the vertex-enumeration oracle instead; the
Monte Carlo check `monte_carlo_cone_volume` takes any codimension.

Both integrands form the product in real arithmetic: contiguous re and im
arrays over the points take one factor a + i b at a time as
(re a - im b, re b + im a), the naive complex product in the left-to-right
order of np.prod's complex reduction.  Every value is thus bit for bit
what np.prod over a (points, n+1) complex array gives, and no such array
is built.  A loop of complex `*=` would not be: numpy's vectorised complex
multiply rounds differently from its reduction.
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
CHUNK = 64  # cells per call, 14400 square points at 15^2; 128 as fast, 256 and 512 ~1.5x slower
CONE_CHUNK = 2**16  # Monte Carlo rows per exponential fill; 4.5 MiB of draws at k = 9
CONE_ROUND_U = 64  # unit roundoffs allowed for the prefactor, det B_J and the weight sums

_GL_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _gauss_grid(order: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of the order^d Gauss-Legendre tensor grid on [-1, 1]^d, shape
    (d, order^d) with the first axis varying slowest, and the 1-D weights."""
    if (order, d) not in _GL_CACHE:
        xn, xw = np.polynomial.legendre.leggauss(order)
        _GL_CACHE[order, d] = xn[np.indices((order,) * d).reshape(d, -1)], xw
    return _GL_CACHE[order, d]


def _gauss_cells(f, cells: np.ndarray):
    """Tensor 15-point Gauss values and |15-point - 7-point| errors of boxes.

    A row of `cells`, shape (m, 2d), is a box (a1, b1, ..., ad, bd).  One
    call f(x1, ..., xd) per rule evaluates every box on its tensor grid.
    The axes are contracted first to last, the last by one dot per box, so
    a box rounds as it would alone.
    """
    m, d = cells.shape[0], cells.shape[1] // 2
    lo, hi = cells[:, 0::2, None], cells[:, 1::2, None]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    vol = half.prod(axis=1)  # (m, 1)
    out = []
    for order in (7, 15):
        nodes, xw = _gauss_grid(order, d)
        vals = f(*(mid + half * nodes).transpose(1, 0, 2).reshape(d, -1))
        for _ in range(d - 1):
            vals = xw @ vals.reshape(m, order, -1)
        out.append(vol * (vals.reshape(m, 1, order) @ xw))
    i7, i15 = out
    diff = (i15 - i7)[:, 0]  # np.abs rounds complex arrays unlike scalar abs
    return i15[:, 0].tolist(), np.hypot(diff.real, diff.imag).tolist()


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


def _reciprocal(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """1 / (re + i im), by numpy's complex division."""
    p = np.empty(re.shape, complex)
    p.real, p.imag = re, im
    return 1.0 / p


def _folded_line_integrand(coeffs: np.ndarray):
    """Re prod_j 1/(1 + i a_j s) on [0, inf), folded onto x in (0, 1].

    h(x) = f(x) + f(1/x)/x^2, and f(1/x)/x^2 = x^(n-1) / prod_j (x + i a_j)
    stays finite as x -> 0, so the whole half-line needs no cutoff.  Both
    products run as one real-arithmetic product (see the module docstring)
    over the points stacked twice: factors 1 + i x a_j on the near half,
    x + i a_j on the far half.
    """
    power = coeffs.size - 2
    cs = coeffs.tolist()

    def h(x: np.ndarray) -> np.ndarray:
        one = np.ones_like(x)
        a = np.concatenate((one, x))
        bs = np.multiply.outer(cs, np.concatenate((x, one)))
        re, im = 1.0, 0.0
        for b in bs:
            re, im = re * a - im * b, re * b + im * a  # times (a + i b)
        near, far = _reciprocal(re, im).real.reshape(2, -1)
        return near + x**power * far

    return h


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
    if not (a.a > 0).any() or not (a.a < 0).any():
        raise EmptySection("direction with one-signed coordinates")
    h = _folded_line_integrand(np.asarray(a.a, dtype=float))
    val, err = _adaptive(partial(_gauss_cells, h), _LINE_GRID, max(tol, 1e-12), max_cells=4000)
    pref = _direct_prefactor(hyperplane_basis_of(a))
    return VolumeResult(value=pref * val / math.pi, method="quadrature", err=pref * err / math.pi)


def hyperplane_basis_of(a: Direction) -> SubspaceBasis:
    return SubspaceBasis(n=a.n, vectors=np.array([a.a]))


def _compactified_integrand(rows: np.ndarray):
    """The plane integrand pulled back through s_i = tan(u_i).

    The Jacobian sec^2(u1) sec^2(u2) exactly cancels the quadratic radial
    decay, so any absolutely integrable product stays bounded on the open
    u-square and no truncation radius or tail bound is needed.  The product
    over the n+1 rows runs in real arithmetic (see the module docstring),
    with factors 1 + i x, x = t1 r0_j + t2 r1_j.
    """
    pairs = list(zip(*rows.tolist()))

    def ft(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
        t1, t2 = np.tan(u1), np.tan(u2)
        re, im = 1.0, 0.0
        for a, b in pairs:
            x = t1 * a + t2 * b
            re, im = re - im * x, re * x + im  # times (1 + i x)
        return _reciprocal(re, im) * (1.0 + t1 * t1) * (1.0 + t2 * t2)

    return ft


def _square_grid() -> np.ndarray:
    """The 16 x 32 = 512 starting cells of [0, pi/2] x [-pi/2, pi/2].

    Marks sit at u = 0, arctan(4^e) for e = 0..14, and pi/2: the inner
    marks are in ratio 4 in s = tan u, so in u the cells crowd toward
    +-pi/2.  The grid is coarse on purpose: `_adaptive` refines where the
    error is.
    """
    xs, raw = [0.0], 1.0
    while (m := float(np.arctan(raw))) < 0.5 * math.pi - 1e-9:
        xs.append(m)
        raw *= 4.0
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
    cells = partial(_gauss_cells, ft)
    val, err = _adaptive(cells, _square_grid(), max(tol, 1e-10), max_cells=24000)
    pref = _direct_prefactor(basis)
    scale = 2.0 / (2.0 * math.pi) ** 2  # doubled half-plane integral
    return VolumeResult(
        value=pref * val.real * scale, method="quadrature", err=pref * err * scale
    )


def _pivot_columns(b: np.ndarray) -> list[int]:
    """c column indices of the (c, n+1) matrix `b` chosen by greedy pivoting.

    Each of c Gram-Schmidt steps takes the column with the largest residual
    norm (the first on ties) and projects it out of the others, so the
    chosen square block is far from singular.
    """
    res = np.array(b, dtype=float)
    picked = []
    for _ in range(b.shape[0]):
        j = int(np.argmax(np.einsum("ij,ij->j", res, res)))
        picked.append(j)
        q = res[:, j] / math.sqrt(res[:, j] @ res[:, j])
        res -= np.outer(q, q @ res)
    return sorted(picked)


def monte_carlo_cone_volume(basis: SubspaceBasis, samples: int, seed: int) -> VolumeResult:
    """Monte Carlo section volume by conditioning on a face of the simplex.

    A uniform point X of the simplex is Dirichlet(1, ..., 1).  Split the
    coordinates into c = codim pivot indices J (`_pivot_columns` on B =
    basis.vectors) and the other k = n+1-c indices R.  Then lambda_R / (1 -
    sum lambda_J) = E / S is uniform on the face of R and independent of
    lambda_J, for E in R^k i.i.d. standard exponential and S = sum E
    (Devroye, Non-Uniform Random Variate Generation, ch. 5).  Given E, BX = 0
    has one solution: lambda_J = mu G E / S with G = -B_J^-1 B_R and
    mu = S / (S + 1'GE), which lies in the simplex exactly when GE >= 0 (the
    face point is in the cone {E >= 0 : GE >= 0}).  lambda_J has density
    n!/(k-1)! (1 - sum lambda_J)^(k-1) and |det[b_j - B_R E/S]_J| =
    |det B_J| / mu, so BX has density n!/(k-1)! mu^k / |det B_J| at 0 given
    E.  As vol_n(simplex) sqrt(det(B P B')) n!/(k-1)! = `_direct_prefactor`
    (P = I - 11'/(n+1)),

        vol = _direct_prefactor(basis) / |det B_J| * E[mu^k 1{GE >= 0}],

    with weights mu^k in (0, 1].  Hits are decided by the exact sign of GE.
    The draws fill one buffer of at most CONE_CHUNK rows in turn and
    consume the stream as a single (samples, k) draw would; one product
    with W = [G' | 1 | 1 + G'1], taken transposed, gives GE, S and S + 1'GE
    as contiguous rows.

    err is one standard error plus a rounding term: on a hit mu carries a
    relative rounding of at most (2k + c + 1)(1 + g) u to first order, g the
    largest column sum of |G| (as computed); mu^k multiplies it by k and its
    k - 1 products add k u at most; the prefactor, det B_J and the sums add
    CONE_ROUND_U u.
    """
    if samples < 1000:
        raise OutOfRange("samples >= 1000 required")
    b = np.asarray(basis.vectors, dtype=float)
    c, k = basis.codim, basis.k
    cols = _pivot_columns(b)
    rest = [j for j in range(basis.n + 1) if j not in cols]  # np.setdiff1d: ~18 ms first call
    bj = b[:, cols]
    g = -np.linalg.solve(bj, b[:, rest])  # (c, k)
    wt = np.vstack([g, np.ones(k), 1.0 + g.sum(axis=0)])  # W' = [G' | 1 | 1 + G'1]', shape (c+2, k)
    rng = np.random.default_rng(seed)
    buf = np.empty((min(samples, CONE_CHUNK), k))
    hits, total_w, total_w2 = 0, 0.0, 0.0
    for lo in range(0, samples, CONE_CHUNK):
        e = buf[: min(CONE_CHUNK, samples - lo)]
        rng.standard_exponential(out=e)
        s = wt @ e.T  # (e W)' as rows GE, S and S + 1'GE: contiguous, no short-row reductions
        hit = s[0] >= 0.0
        for row in s[1:c]:
            hit &= row >= 0.0
        mu = np.compress(hit, s[c]) / np.compress(hit, s[c + 1])
        w = mu.copy()
        for _ in range(k - 1):  # mu^k by k-1 products: np.power costs 10x more
            w *= mu
        hits += mu.size
        total_w += float(w.sum())
        total_w2 += float((w * w).sum())  # pairwise, as w.sum(); a BLAS dot would vary with threads
    if hits == 0:
        raise ZeroHits("no Monte Carlo sample landed in the cone")
    mean_w = total_w / samples
    se = math.sqrt(max(total_w2 / samples - mean_w * mean_w, 0.0) / samples)
    conv = _direct_prefactor(basis) / abs(float(np.linalg.det(bj)))
    value = mean_w * conv
    gmax = float(np.abs(g).sum(axis=0).max())
    rel = (k * (2 * k + c + 1) * (1.0 + gmax) + k + CONE_ROUND_U) * 2.0**-53
    return VolumeResult(value=value, method="monte-carlo", err=se * conv + rel * value)
