"""Fourier-integral section volumes, evaluated by adaptive quadrature.

The k-dimensional section volume equals a prefactor times the integral over
R^(n+1-k) of prod_j 1/(1 + i <row_j, s>), where the rows collect the
coordinates of an orthonormal basis of H-perp.  Codimension 1 reduces to a
line integral of an even real part, folded from [0, inf) onto [0, 1].
Codimension 2 integrates over the half plane, cut at the ridges of the
integrand into sectors (sector decomposition: Hepp 1966, Binoth & Heinrich
2000); each sector is mapped onto the tangent-compactified quadrant, with
its two bounding ridges on the axes, and the sectors lie side by side in
one grid.  Both run on one Gauss-pair rule for boxes of any dimension,
`_gauss_cells`, and one adaptive driver, `_adaptive`.  Higher
codimension is served by the vertex-enumeration oracle instead; the
Monte Carlo check `monte_carlo_cone_volume` takes any codimension.  It
counts the k cyclic shifts of each exponential draw as points, so its err
is a cluster standard error over the draws.

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
import numbers
from functools import partial

import numpy as np

from .closed_form import Direction, VolumeResult, subspace_origin_distance
from .errors import EmptySection, NotSupported, OutOfRange, TolUnreachable, ZeroHits
from .subspaces import SubspaceBasis

MAX_DEPTH = 40
CHUNK = 64  # cells per call, 14400 points at 15^2; 32 to 256 within 15% on sector grids
CONE_CHUNK = 2**13  # draws per exponential fill: 0.6 MB of draws, 1.8 MB of products at n = 10, codim 2
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

    `grid` holds boxes (a1, b1, ..., ad, bd), one per row: the line's
    intervals or the sector cells (a, b, c, d); `cells_fn(cells)` returns
    the values and error estimates of such an array of boxes, one
    integrand call per rule.  The worst-error cell
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
    and no tail bound, and the 1e-3 pass resumes to the target.  The
    prefactor sqrt(n+1 - K^2) / (n-1)!, K the coordinate sum of a, is
    `_direct_prefactor` of the one-row basis, formed from a without one.
    """
    if a.n < 3:
        raise OutOfRange("n >= 3 required for comfortable integrand decay")
    if not (a.a > 0).any() or not (a.a < 0).any():
        raise EmptySection("direction with one-signed coordinates")
    coeffs = np.asarray(a.a, dtype=float)
    h = _folded_line_integrand(coeffs)
    val, err = _adaptive(partial(_gauss_cells, h), _LINE_GRID, max(tol, 1e-12), max_cells=4000)
    ksum = float(coeffs.sum())
    pref = math.sqrt(a.n + 1.0 - ksum * ksum) / math.factorial(a.n - 1)
    return VolumeResult(value=pref * val / math.pi, method="quadrature", err=pref * err / math.pi)


def hyperplane_basis_of(a: Direction) -> SubspaceBasis:
    return SubspaceBasis(n=a.n, vectors=np.array([a.a]))


def _sectors(rows: np.ndarray):
    """The ridge sectors of the plane integrand prod_j 1/(1 + i <r_j, s>).

    Column r_j of the (2, n+1) `rows` slows the decay of the integrand
    along its ridge, the line through d_j perpendicular to r_j.  The
    distinct ridge angles theta_1 < ... < theta_m in [0, pi) cut the half
    plane into m sectors, the last one wrapping to theta_1 + pi.  Sector k
    runs from d_k to d_(k+1) and is the quadrant s = alpha d_k + beta d_(k+1),
    alpha, beta >= 0, with Jacobian |det[d_k d_(k+1)]|; its factors are
    1 + i (alpha p_j + beta q_j), p_j = <r_j, d_k> and q_j = <r_j, d_(k+1)>.
    A column whose ridge is d_k gets p_j = 0 in sector k and q_j = 0 in
    sector k-1 exactly, not a rounding residue, so every ridge runs along
    an axis of the two sectors it bounds.  A zero column has no ridge; r_j
    and -r_j share one.  Rows of rank 2, as a basis has, give m >= 2.

    Returns d, shape (m+1, 2), the unit ridge directions d_1..d_m and -d_1;
    p and q, shape (m, n+1); and the Jacobians, shape (m,).
    """
    cols = rows.T
    live = np.flatnonzero(cols.any(axis=1))
    d = np.column_stack([-cols[live, 1], cols[live, 0]])
    d /= np.hypot(d[:, 0], d[:, 1])[:, None]
    d[(d[:, 1] < 0.0) | ((d[:, 1] == 0.0) & (d[:, 0] < 0.0))] *= -1.0  # angle in [0, pi)
    _, first, ridge = np.unique(np.arctan2(d[:, 1], d[:, 0]), return_index=True,
                                return_inverse=True)
    d = np.vstack([d[first], -d[first[0]]])
    m = len(first)
    p, q = d[:-1] @ cols.T, d[1:] @ cols.T
    p[ridge, live] = 0.0
    q[(ridge - 1) % m, live] = 0.0
    jac = np.abs(d[:-1, 0] * d[1:, 1] - d[:-1, 1] * d[1:, 0])
    return d, p, q, jac


STRIP_EPS = 1e-13  # a feature past which less of the integral than this lies needs no mark
MARK_SLACK = 16.0  # the last finite mark may sit 16x short of the feature it must show
MAX_MARK_EXP = 24  # 4^24 = 2.8e14: further marks would sit within a few ulps of pi/2


def _reach(c: np.ndarray, jac: float, d: int) -> float:
    """1/|c_j| for the smallest |c_j| whose feature holds a share of the
    integral above STRIP_EPS, along a sector axis (d = 1) or its diagonal
    alpha = beta (d = 2).

    At w = 1/alpha the factor of column j has decayed to about w/|c_j| once
    w < |c_j| and is still about 1 above it; c_j is p_j on the alpha axis,
    q_j on the beta axis and p_j + q_j on the diagonal.  With the nonzero
    |c_j| sorted down, a_0 >= a_1 >= ..., the pulled-back integrand just
    above w = a_k is about jac w^(k-2d) / (a_0 ... a_(k-1)), so the region
    past it, a strip of width a_k along the axis or a corner of area a_k^2
    at the diagonal, holds about M_k = jac a_k^(k-d) / (a_0 ... a_(k-1)).
    M_k = M_(k-1) (a_k/a_(k-1))^(k-d), so M falls with k once k >= d.

    On an axis a small a_k comes from a ridge at a small angle delta just
    outside it (a_k = |r_j| sin delta) or from a short column.  At the
    diagonal it comes from a thin sector between nearly parallel ridges:
    with only two other columns decaying there, its corner holds about
    jac / (a_0 a_1) for every factor 4 in w down to the cluster's own scale.
    """
    a = sorted((abs(x) for x in c.tolist() if x), reverse=True)
    reach, share = 0.0, jac / a[0] ** d
    for k, ak in enumerate(a):
        if k:
            share *= (ak / a[k - 1]) ** (k - d)
        if share > STRIP_EPS:
            reach = 1.0 / ak
        elif k >= d:
            break
    return reach


def _axis_marks(reach: float) -> list[float]:
    """Marks v = 0, arctan 4^e for e = 0, 1, 2, ..., E, and pi/2 on one axis.

    E is the least from 2 up with 4^E >= reach / MARK_SLACK: the last cell
    then holds every feature `_reach` found within MARK_SLACK of its width,
    where its 15-point nodes see it and the Gauss-pair error estimate
    calls for refinement.  Without that reach a feature at w << the last
    cell's width is invisible to both rules.
    """
    top = 2
    while 4.0**top * MARK_SLACK < reach and top < MAX_MARK_EXP:
        top += 1
    return [0.0] + [math.atan(4.0**e) for e in range(top + 1)] + [0.5 * math.pi]


def _sector_grid(p: np.ndarray, q: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """The starting cells of the sectors, folded into [0, m pi/2] x [0, pi/2].

    Sector k takes u1 in [k pi/2, (k+1) pi/2], v1 = u1 - k pi/2, and
    u2 = v2, cut at the marks of its two axes (`_axis_marks`), each reaching
    as far as its own features and those of the diagonal (`_reach`): 16
    cells when no ridge is near and no column short.  One grid for all
    sectors puts them on one `_adaptive` heap; cells never straddle a
    sector edge.
    """
    cells = []
    for k, (pk, qk, jk) in enumerate(zip(p, q, jac.tolist())):
        lo, hi = k * (0.5 * math.pi), (k + 1) * (0.5 * math.pi)
        corner = _reach(pk + qk, jk, 2)
        inner = {lo + v for v in _axis_marks(max(_reach(pk, jk, 1), corner))[1:-1]}
        xs = [lo] + sorted(x for x in inner if x < hi) + [hi]  # far marks may round onto hi
        ys = _axis_marks(max(_reach(qk, jk, 1), corner))
        cells += [(a, b, c, e) for a, b in zip(xs, xs[1:]) for c, e in zip(ys, ys[1:])]
    return np.array(cells)


def _sector_integrand(p: np.ndarray, q: np.ndarray, jac: np.ndarray):
    """The plane integrand on the folded sector cells of `_sector_grid`.

    A point (u1, u2) lies in the last sector k with k pi/2 <= u1 (a point
    on an edge belongs to the sector above it), at alpha = tan(u1 - k pi/2)
    and beta = tan(u2).  The Jacobian jac_k sec^2 sec^2 cancels the
    quadratic radial decay, so the pulled-back integrand stays bounded and
    needs no truncation radius or tail bound.  The points of one cell are
    contiguous and `_adaptive` passes cells sector by sector, so they come
    in runs of one sector; each run forms the product over its sector's
    nonzero (p_j, q_j) in real arithmetic (see the module docstring), with
    factors 1 + i x, x = t1 p_j + t2 q_j.
    """
    edges = np.arange(len(jac)) * (0.5 * math.pi)
    pairs = [[(a, b) for a, b in zip(pk, qk) if a or b] for pk, qk in zip(p.tolist(), q.tolist())]
    jacs = jac.tolist()

    def ft(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
        sector = np.searchsorted(edges, u1, side="right") - 1
        cuts = (np.flatnonzero(sector[1:] != sector[:-1]) + 1).tolist()
        out = np.empty(u1.shape, complex)
        for lo, hi in zip([0] + cuts, cuts + [u1.size]):
            k = int(sector[lo])
            t1, t2 = np.tan(u1[lo:hi] - edges[k]), np.tan(u2[lo:hi])
            re, im = 1.0, 0.0
            for a, b in pairs[k]:
                x = t1 * a + t2 * b
                re, im = re - im * x, re * x + im  # times (1 + i x)
            out[lo:hi] = _reciprocal(re, im) * ((1.0 + t1 * t1) * (1.0 + t2 * t2) * jacs[k])
        return out

    return ft


def kdim_volume_quadrature(basis: SubspaceBasis, tol: float = 1e-6) -> VolumeResult:
    """Section volume for codimension 1 or 2 via the Fourier formula.

    Codimension 1 delegates to the line integral.  Codimension 2 integrates
    over the half plane cut into ridge sectors (`_sectors`; Hepp 1966,
    Binoth & Heinrich 2000), each mapped onto the quadrant so that its two
    bounding ridges are axes, then tangent-compactified: the Jacobian
    cancels the quadratic radial decay, so every absolutely integrable case
    is covered without a truncation radius, and no slowly decaying ridge
    crosses a cell.  Both run on `_adaptive`, the sectors as one grid with
    cells batched CHUNK at a time.  Codimension >= 3 is not supported here
    (the oracle covers it).
    """
    if basis.codim == 1:
        return hyperplane_volume_quadrature(
            Direction.make(basis.vectors[0], canonicalize=False), tol=tol
        )
    if basis.codim != 2:
        raise NotSupported("quadrature implemented for codimension 1 and 2 only")
    _, p, q, jac = _sectors(np.asarray(basis.vectors, dtype=float))
    cells = partial(_gauss_cells, _sector_integrand(p, q, jac))
    val, err = _adaptive(cells, _sector_grid(p, q, jac), max(tol, 1e-10), max_cells=24000)
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
    Each draw of k exponentials gives k points, its cyclic shifts
    E_t = roll(E, -t): E is exchangeable, so every shift is a face point of
    the same law and the estimate stays unbiased.  ceil(samples / k) draws
    are made, the last one giving only the shifts that make up exactly
    samples points; they fill one buffer of at most CONE_CHUNK draws in turn
    and consume the stream as a single (draws, k) draw would.  G E_t is
    roll(G, t) E, so one product with W' = [roll(G, t) for each row of G and
    each t | 1 | roll(1 + G'1, t) for each t], taken transposed, gives every
    shift's GE, S and S + 1'GE as contiguous rows.  The product, the hit
    masks and the weights are written into buffers allocated once per call,
    mu over the product's rows of S + 1'GE.

    The shifts of one draw are not independent (a shift that maps the cone
    onto itself repeats the draw's weight), so err is the cluster standard
    error of the ratio estimator over the draws (Cochran, Sampling
    Techniques, ch. 9): sqrt(m/(m-1) sum_i (y_i - p s_i)^2) / samples, for
    draw i's weight sum y_i over its s_i points and p the mean weight, from
    running sums of y and y^2; plus a rounding term: on a hit mu carries a
    relative rounding of at most (2k + c + 1)(1 + g) u to first order, g the
    largest column sum of |G| (as computed, the same for every shift); mu^k
    multiplies it by k and its k - 1 products add k u at most; the
    prefactor, det B_J and the sums add CONE_ROUND_U u.
    """
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral):
        raise OutOfRange(f"samples must be an integer, not {samples!r}")
    if samples < 1000:
        raise OutOfRange("samples >= 1000 required")
    b = np.asarray(basis.vectors, dtype=float)
    c, k = basis.codim, basis.k
    cols = _pivot_columns(b)
    rest = [j for j in range(basis.n + 1) if j not in cols]  # np.setdiff1d: ~18 ms first call
    bj = b[:, cols]
    g = -np.linalg.solve(bj, b[:, rest])  # (c, k)
    # row i k + t is row i of G rolled by t; then S; then 1 + G'1 rolled by t
    shifts = [np.roll(g, t, axis=1) for t in range(k)]
    den = [np.roll(1.0 + g.sum(axis=0), t) for t in range(k)]
    wt = np.vstack([np.stack(shifts, axis=1).reshape(c * k, k), np.ones(k), den])
    rng = np.random.default_rng(seed)
    draws = -(-samples // k)
    last = samples - (draws - 1) * k  # shifts the last draw gives
    size = min(draws, CONE_CHUNK)
    buf = np.empty((size, k))
    # flat buffers, so that a short last chunk's views are contiguous too
    prod = np.empty((c * k + 1 + k) * size)
    mask = np.empty(2 * k * size, dtype=bool)
    w_buf, y_buf = np.empty(k * size), np.empty(2 * size)
    total_w, total_w2 = 0.0, 0.0
    for lo in range(0, draws, CONE_CHUNK):
        size = min(CONE_CHUNK, draws - lo)
        e = buf[:size]
        rng.standard_exponential(out=e)
        # (e W)': one contiguous row per shift, no short-row reductions
        s = np.matmul(wt, e.T, out=prod[: (c * k + 1 + k) * size].reshape(-1, size))
        hit, other = mask[: 2 * k * size].reshape(2, k, size)
        np.greater_equal(s[:k], 0.0, out=hit)
        for i in range(1, c):
            hit &= np.greater_equal(s[i * k : (i + 1) * k], 0.0, out=other)
        if lo + CONE_CHUNK >= draws:
            hit[last:, -1] = False
        s_den = s[c * k + 1 :]
        np.copyto(s_den, np.inf, where=np.logical_not(hit, out=other))  # a miss weighs S / inf = 0
        mu = np.divide(s[c * k], s_den, out=s_den)
        w = w_buf[: k * size].reshape(k, size)
        np.copyto(w, mu)
        for _ in range(k - 1):  # mu^k by k-1 products: np.power costs 10x more
            w *= mu
        y, y2 = y_buf[: 2 * size].reshape(2, size)
        np.sum(w, axis=0, out=y)  # weight per draw
        total_w += float(y.sum())
        # pairwise, as y.sum(); a BLAS dot would vary with threads
        total_w2 += float(np.multiply(y, y, out=y2).sum())
    if total_w == 0.0:
        raise ZeroHits("no Monte Carlo sample landed in the cone")
    mean_w = total_w / samples
    # sum y_i s_i and sum s_i^2: every draw gives k points but the last,
    # whose weight sum is y[-1]
    cross = k * total_w - (k - last) * float(y[-1])
    sizes2 = (draws - 1) * k * k + last * last
    dev2 = max(total_w2 - 2.0 * mean_w * cross + mean_w * mean_w * sizes2, 0.0)
    se = math.sqrt(draws * dev2 / (draws - 1)) / samples
    conv = _direct_prefactor(basis) / abs(float(np.linalg.det(bj)))
    value = mean_w * conv
    gmax = float(np.abs(g).sum(axis=0).max())
    rel = (k * (2 * k + c + 1) * (1.0 + gmax) + k + CONE_ROUND_U) * 2.0**-53
    return VolumeResult(value=value, method="monte-carlo", err=se * conv + rel * value)
