"""Ground-truth section volumes by explicit vertex enumeration.

Independent of the analytic formulas: sections are realized as polytopes
(edge intersections for hyperplanes, basic feasible solutions for general
subspaces) and measured geometrically.

A hyperplane section is the join of the face spanned by the vertices on the
hyperplane with the crossing points v_ij of the edges from a positive vertex
i to a negative vertex j, the signs taken exactly, with no tolerance.  The
crossing points are a central projection, with positive denominator, of the
Minkowski sum {v_i/phi_i} + {v_j/(-phi_j)}, so the staircase triangulation
of the product of simplices (Gelfand, Kapranov & Zelevinsky, Discriminants,
7.3) carries over to them; the section is measured as the sum of its
simplices, whose edges are formed in closed form.  Sections of higher
codimension come from every support system of a block of subspaces at
once, decided by the exact signs of its codim x codim minors, and are
measured over their pulling triangulation (De Loera, Rambau & Santos,
Triangulations, 4.3), whose facets are the inclusion-maximal classes of the
exact zero-coordinate labels carried from construction, kept as bitmasks
over the vertices.  Both triangulations are measured by the same batched
QR, one per block of polytopes.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from .closed_form import Direction, VolumeResult
from .errors import (
    DegeneratePolytope,
    EmptySection,
    NotSupported,
    OutOfRange,
    PointSection,
    ZeroHits,
)
from .subspaces import SubspaceBasis

MAX_ENUM_N = 12
MAX_ENUM_CODIM = 4
SLAB_CHUNK = 2**13  # draws per exponential fill: 0.7 MB of draws, 1.5 MB of products at n = 10


@dataclass(frozen=True)
class SimplexSpec:
    """The regular embedded simplex, or a general one given by its vertices.

    `vertices` holds one vertex per column; every column sums to 1, so all
    vertices lie in the affine plane of the regular simplex.
    """

    n: int
    vertices: np.ndarray  # (n+1, n+1), column j = vertex j
    is_regular: bool

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.shape != (self.n + 1, self.n + 1):
            raise ValueError("vertex matrix must be (n+1) x (n+1)")
        if np.max(np.abs(v.sum(axis=0) - 1.0)) > 1e-12:
            raise ValueError("every vertex must have coordinate sum 1")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)


def regular_simplex(n: int) -> SimplexSpec:
    if n < 1:
        raise OutOfRange("n >= 1 required")
    return SimplexSpec(n=n, vertices=np.eye(n + 1), is_regular=True)


def general_simplex(vertex_matrix) -> SimplexSpec:
    m = np.array(vertex_matrix, dtype=float)
    n = m.shape[0] - 1
    if abs(np.linalg.det(m)) < 1e-12:
        raise ValueError("vertex matrix is singular")
    return SimplexSpec(n=n, vertices=m, is_regular=bool(np.allclose(m, np.eye(n + 1))))


@dataclass(frozen=True)
class SectionPolytope:
    """Vertex list of a section, with per-vertex zero-coordinate labels.

    For a general simplex the labels are barycentric: index j is in a
    vertex's zero set when the j-th simplex vertex does not support it.
    Facets of the section are exactly the label classes, which is what the
    pulling triangulation walks.

    A hyperplane section also carries `edges`, the edge columns of every
    simplex of its staircase triangulation, built in closed form from the
    exact signs of the normal on the simplex vertices.
    """

    dim: int
    vertices: np.ndarray  # (m, n+1) rows
    zero_sets: tuple[frozenset[int], ...]
    edges: np.ndarray | None = None  # (S, n+1, dim): edge columns of S simplices

    @property
    def vertex_count(self) -> int:
        return self.vertices.shape[0]


def _staircase(p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Cells (i, j) of every monotone lattice path from (0, 0) to (p-1, q-1).

    Row s of both (C(p+q-2, p-1), p+q-1) arrays lists the cells of path s;
    each path is one maximal simplex of the staircase triangulation of
    Delta_{p-1} x Delta_{q-1}.
    """
    steps = p + q - 2
    down = np.zeros((math.comb(steps, p - 1), steps + 1), dtype=np.intp)
    for s, rows in enumerate(combinations(range(1, steps + 1), p - 1)):
        down[s, list(rows)] = 1
    i = np.cumsum(down, axis=1)
    return i, np.arange(steps + 1) - i


def hyperplane_section_vertices(spec: SimplexSpec, b) -> SectionPolytope:
    """Vertices of H_b intersected with the simplex, and its staircase edges.

    Vertices are split by the exact sign of phi = b . v, sorted.  The section
    has the Z simplex vertices on H_b and the P*N crossings v_ij = lam_ij v_i
    + mu_ij v_j of the edges from a positive v_i to a negative v_j, with
    lam_ij = phi_j/(phi_j - phi_i) and mu_ij = phi_i/(phi_i - phi_j); none
    coincide, so its dimension is P+N-2+Z (Z-1 without crossings).  Each
    staircase path's consecutive edges come in closed form: v_i'j - v_ij has
    v_j coefficient mu_i'j - mu_ij = lam_i'j (phi_i' - phi_i)/(phi_i - phi_j),
    and v_ij' - v_ij has v_i coefficient
    lam_ij' - lam_ij = mu_ij' (phi_j - phi_j')/(phi_i - phi_j).  Every
    divisor is a difference of opposite signs, so nothing cancels however
    close phi comes to 0.  The on-vertices are joined to the last cell.
    """
    bvec = b.a if isinstance(b, Direction) else np.asarray(b, dtype=float)
    phi = bvec @ spec.vertices  # per-vertex values
    if not phi.any():
        raise ValueError("normal vector vanishes on all vertices")
    order = np.argsort(phi, kind="stable")
    sign = np.sign(phi[order])
    neg, on, pos = order[sign < 0], order[sign == 0], order[sign > 0]

    everything = frozenset(range(spec.n + 1))
    vt = spec.vertices.T
    fp, fn = phi[pos][:, None], phi[neg]
    gap = fp - fn  # (P, N), positive
    lam = -fn / gap  # weight of the positive vertex i
    mu = fp / gap  # weight of the negative vertex j
    crossing = lam[..., None] * vt[pos][:, None] + mu[..., None] * vt[neg]
    points = np.concatenate([vt[on], crossing.reshape(-1, spec.n + 1)])
    zsets = [everything - {j} for j in on] + [everything - {i, j} for i in pos for j in neg]

    if len(points) == 0:
        raise EmptySection("normal is one-signed on all vertices and touches none")
    if len(points) == 1:
        raise PointSection(points[0])
    if len(pos) and len(neg):
        steps = np.zeros(gap.shape + (2, spec.n + 1))  # [i, j, 1]: step i -> i+1
        steps[:-1, :, 1] = (
            lam[1:, :, None] * vt[pos[1:], None]
            - lam[:-1, :, None] * vt[pos[:-1], None]
            + (lam[1:] * ((fp[1:] - fp[:-1]) / gap[:-1]))[..., None] * vt[neg]
        )
        steps[:, :-1, 0] = (  # [i, j, 0]: step j -> j+1
            (mu[:, 1:] * ((fn[:-1] - fn[1:]) / gap[:, :-1]))[..., None] * vt[pos, None]
            + mu[:, 1:, None] * vt[neg[1:]]
            - mu[:, :-1, None] * vt[neg[:-1]]
        )
        i, j = _staircase(len(pos), len(neg))
        path = steps[i[:, :-1], j[:, :-1], np.diff(i, axis=1)]
        apexes = vt[on] - crossing[-1, -1]
    else:  # no crossings: the section is the face spanned by the on-vertices
        path = np.empty((1, 0, spec.n + 1))
        apexes = vt[on[1:]] - vt[on[0]]
    apexes = np.broadcast_to(apexes, (len(path),) + apexes.shape)
    edges = np.concatenate([path, apexes], axis=1).transpose(0, 2, 1)
    return SectionPolytope(
        dim=edges.shape[2], vertices=points, zero_sets=tuple(zsets), edges=edges
    )


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:  # cached tables are shared by every caller
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=None)
def _leibniz(c: int) -> tuple[np.ndarray, np.ndarray]:
    """The c! permutations of range(c), one per row, and their signs."""
    perms = np.array(list(permutations(range(c))))
    return _frozen(perms, np.rint(np.linalg.det(np.eye(c)[perms])).astype(int))


def _minors(m: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(T, K): the c x c minors m[t][:, cols[s]] of a (T, c, n+1) stack,
    exact in sign.

    Each minor is its Leibniz sum of c! products of c entries, so its float
    value is off the exact one by less than (c + c!) u sum|terms|, u the
    unit roundoff, as long as no product underflows.  A value within twice
    that of 0 is recomputed in rationals, where its sign and its zero are
    exact: a floating-point filter in front of an exact predicate (Fortune
    & Van Wyk 1993; Shewchuk 1997).  The products multiply their factors
    left to right and the sums add their terms in order, row by row, so a
    matrix of the stack rounds as it would alone.
    """
    c = m.shape[1]
    perms, signs = _leibniz(c)
    col = cols[:, perms].transpose(2, 1, 0)  # col[i, p, s] = cols[s, perms[p, i]]
    terms = m[:, 0][:, col[0]]  # (T, c!, K): the factors of row 0
    live = terms != 0.0  # a minor whose every term has an exact zero factor is exactly 0
    for i in range(1, c):
        factor = m[:, i][:, col[i]]
        terms *= factor
        live &= factor != 0.0
    terms *= signs[:, None]
    det = terms.sum(axis=1)
    bound = (c + len(perms)) * np.finfo(float).eps * np.abs(terms).sum(axis=1)
    for t, s in np.argwhere((np.abs(det) <= bound) & live.any(axis=1)):
        f = [[Fraction(x) for x in row] for row in m[t][:, cols[s]].tolist()]
        det[t, s] = float(sum(sg * math.prod(f[i][j] for i, j in enumerate(p))
                              for p, sg in zip(perms.tolist(), signs.tolist())))
    return det


@functools.lru_cache(maxsize=None)
def _support_tables(n1: int, codim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The codim-subsets of range(n1) (minor columns), the (codim+1)-subsets
    (supports), and for support s and t = 0..codim the row of its minor
    without its t-th index."""
    colsets = np.array(list(combinations(range(n1), codim)))
    row_of = np.zeros((n1,) * codim, dtype=np.intp)  # row_of[colset]: its row in `colsets`
    row_of[tuple(colsets.T)] = np.arange(len(colsets))
    supports = np.array(list(combinations(range(n1), codim + 1)))
    drop = np.array([np.delete(np.arange(codim + 1), t) for t in range(codim + 1)])
    return _frozen(colsets, supports, row_of[tuple(np.moveaxis(supports[:, drop], 2, 0))])


@functools.lru_cache(maxsize=None)
def _label_set(bits: int) -> frozenset[int]:
    """The set bits of a zero-label bitmask."""
    return frozenset(j for j in range(bits.bit_length()) if bits >> j & 1)


def kdim_sections(spec: SimplexSpec, bases) -> list[SectionPolytope]:
    """Vertices of H intersected with the simplex, for each H-perp basis of
    a (T, codim, n+1) stack, H of any codimension.

    Basic feasible solutions of {lambda >= 0, sum lambda = 1, A V lambda = 0}.
    On a support of size codim+1, Cramer's rule along the row of ones
    gives lambda on it proportional to w_t = (-1)^t det((A V) on the support
    without its t-th index), t = 0..codim, a minor whose sign is exact
    (`_minors`, over the whole stack).  A support gives a vertex when its w
    are not all zero and no two have opposite signs; then
    lambda = |w| / sum|w| and its zero labels are the exact zeros of w.
    Supports of one subspace that give one vertex share its zero set; the
    first is kept.  The dimension is the length of a chain of facets down
    to one vertex.  Raises EmptySection when any subspace misses the
    simplex.
    """
    bases = np.asarray(bases, dtype=float)
    count, codim = bases.shape[:2]
    if codim > MAX_ENUM_CODIM or spec.n > MAX_ENUM_N:
        raise NotSupported(
            f"enumeration accepted up to n={MAX_ENUM_N}, codim={MAX_ENUM_CODIM}"
        )
    if codim > spec.n - 1 + 1:
        raise OutOfRange("codimension exceeds the section dimension range")
    n1 = spec.n + 1
    colsets, supports, minor_of = _support_tables(n1, codim)
    w = _minors(bases @ spec.vertices, colsets)[:, minor_of]  # (T, S, codim+1)
    w[..., 1::2] *= -1.0
    vertex = (w > 0).any(axis=2) != (w < 0).any(axis=2)
    if not vertex.any(axis=1).all():
        raise EmptySection("subspace misses the simplex")
    t, s = np.nonzero(vertex)
    w, support = np.abs(w[t, s]), supports[s]
    lam = np.zeros((len(w), n1))
    np.put_along_axis(lam, support, w / w.sum(axis=1, keepdims=True), axis=1)
    zero = np.ones(lam.shape, dtype=bool)
    np.put_along_axis(zero, support, w == 0.0, axis=1)
    bits = zero @ (1 << np.arange(n1))  # the zero set of each vertex, as a bitmask
    keep = np.sort(np.unique(t << n1 | bits, return_index=True)[1])  # first of each
    ends = np.searchsorted(t[keep], np.arange(count + 1))
    out = []
    for lo, hi in zip(ends[:-1], ends[1:]):
        rows = keep[lo:hi]
        zero_sets = tuple(map(_label_set, bits[rows].tolist()))
        classes = _label_classes(zero_sets, n1)
        dim, face = 0, (1 << len(rows)) - 1
        while face & (face - 1):  # more than one vertex
            face, dim = _facets(classes, face)[0], dim + 1
        out.append(SectionPolytope(dim=dim, vertices=lam[rows] @ spec.vertices.T,
                                   zero_sets=zero_sets))
    return out


def kdim_section_vertices(spec: SimplexSpec, basis: SubspaceBasis) -> SectionPolytope:
    """Vertices of H intersected with the simplex: one row of `kdim_sections`."""
    return kdim_sections(spec, basis.vectors[None])[0]


def _label_classes(zero_sets, labels: int) -> list[int]:
    """Label class j = 0..labels-1 of a vertex list as a bitmask over its
    vertices: bit i is set when vertex i has label j."""
    classes = [0] * labels
    for i, zs in enumerate(zero_sets):
        for j in zs:
            classes[j] |= 1 << i
    return classes


def _facets(classes: list[int], face: int) -> list[int]:
    """The facets of a face: its inclusion-maximal proper label classes.

    Faces and classes are bitmasks over the vertices.  Class j of a face is
    its vertices with label j.  Every face of a section is cut out by some
    of its constraints lambda_j = 0, so every facet is a class, and a proper
    class inside no other proper class is a facet.  Facets come in the
    order of their first label.
    """
    proper = []
    for c in classes:
        c &= face
        if c and c != face and c not in proper:
            proper.append(c)
    return [c for c in proper if [t for t in proper if c & t == c] == [c]]


def _pulling_triangulation(poly: SectionPolytope) -> np.ndarray:
    """(S, dim+1) vertex indices of the pulling triangulation of `poly`.

    A face pulls its first vertex and is coned from it over its facets that
    miss it, each triangulated the same way (De Loera, Rambau & Santos,
    Triangulations, 4.3).  The facets are the inclusion-maximal proper
    label classes (`_facets`), which is exact because the labels are.
    """
    classes = _label_classes(poly.zero_sets, poly.vertices.shape[1])
    cache: dict[int, np.ndarray] = {}

    def triangulate(face: int, d: int) -> np.ndarray:
        apex = face & -face  # the first vertex
        if d == 1:
            if face.bit_count() != 2:
                raise DegeneratePolytope(f"1-dim face with {face.bit_count()} vertices")
            return np.array([[apex.bit_length() - 1, (face ^ apex).bit_length() - 1]])
        if face not in cache:
            cones = [triangulate(sub, d - 1) for sub in _facets(classes, face) if not sub & apex]
            if not cones:
                raise DegeneratePolytope("no proper facets found")
            base = np.concatenate(cones)
            cone = np.empty((len(base), d + 1), dtype=base.dtype)
            cone[:, 0], cone[:, 1:] = apex.bit_length() - 1, base
            cache[face] = cone
        return cache[face]

    return triangulate((1 << poly.vertex_count) - 1, poly.dim)


def polytope_volumes(polys) -> list[VolumeResult]:
    """Intrinsic volumes of a sequence of polytopes, summed over their
    triangulations in one batched QR per edge-matrix shape.

    A hyperplane section's staircase edges are measured as they are; a k-dim
    section over the pulling triangulation read off its zero-set labels.
    Either way the volume is sum_s |prod diag R_s| / d!, R_s from the QR
    factorization of simplex s's (n+1, d) edge matrix, the simplices of a
    polytope a contiguous slice of the stack.  A dim-0 polytope counts as 1
    by the point-measure convention.
    """
    polys = list(polys)
    values, groups = [], {}
    for i, poly in enumerate(polys):
        if poly.vertex_count == 0:
            raise EmptySection("empty polytope")
        values.append(1.0)
        if poly.dim == 0:
            continue
        edges = poly.edges
        if edges is None:
            simp = poly.vertices[_pulling_triangulation(poly)]
            edges = (simp[:, 1:] - simp[:, :1]).transpose(0, 2, 1)
        groups.setdefault(edges.shape[1:], []).append((i, edges))
    for (_, d), items in groups.items():
        stack = items[0][1] if len(items) == 1 else np.concatenate([e for _, e in items])
        r = np.linalg.qr(stack, mode="r")
        simplex = np.prod(np.abs(np.diagonal(r, axis1=1, axis2=2)), axis=1)
        lo = 0
        for i, e in items:
            values[i] = float(simplex[lo:lo + len(e)].sum()) / math.factorial(d)
            lo += len(e)
    return [VolumeResult(value=v, method="oracle", err=1e-13 * v * p.dim)
            for v, p in zip(values, polys)]


def polytope_volume(poly: SectionPolytope) -> VolumeResult:
    """Intrinsic volume of one polytope: one element of `polytope_volumes`."""
    return polytope_volumes([poly])[0]


def frustum_volume(N: int, x: float | np.ndarray) -> float | np.ndarray:
    """Section volume profile for two positive and N equal negative weights.

    The section is the convex hull of two parallel regular (N-1)-simplices;
    the closed form is the frustum height times a geometric cross-term sum,
    extended continuously to the endpoints x = 0 and x = 1 where one of the
    two simplices degenerates.

    x may be a float or an array of points; an array entry equals the float
    result bit for bit, because every power is libm pow, as Python's float
    ** is (numpy's ** on arrays rounds some of them differently).
    """
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise OutOfRange("N must be an integer >= 2")
    if not np.all((0.0 <= x) & (x <= 1.0)):
        raise OutOfRange(f"x={x} outside [0, 1]")
    pw = np.float_power
    top = N * x / (N * x + 1.0)
    bot = N * (1.0 - x) / (N * (1.0 - x) + 1.0)
    height = np.sqrt(
        1.0 / pw(N * x + 1.0, 2)
        + 1.0 / pw(N * (1.0 - x) + 1.0, 2)
        + N * pw(x / (N * x + 1.0) - (1.0 - x) / (N * (1.0 - x) + 1.0), 2)
    )
    cross = sum(pw(top, N - 1 - m) * pw(bot, m) for m in range(N))
    vol = math.sqrt(N) / math.factorial(N) * height * cross
    return vol if np.ndim(x) else float(vol)


def simplex_volume(spec: SimplexSpec) -> float:
    """n-volume of the simplex inside its affine hull."""
    if spec.is_regular:
        return math.sqrt(spec.n + 1.0) / math.factorial(spec.n)
    w = spec.vertices[:, 1:] - spec.vertices[:, :1]
    gram = w.T @ w
    return math.sqrt(max(np.linalg.det(gram), 0.0)) / math.factorial(spec.n)


def face_volumes(spec: SimplexSpec) -> np.ndarray:
    """(n-1)-volumes of all n+1 faces."""
    out = np.empty(spec.n + 1)
    for j in range(spec.n + 1):
        others = [i for i in range(spec.n + 1) if i != j]
        w = spec.vertices[:, others[1:]] - spec.vertices[:, others[:1]]
        gram = w.T @ w
        out[j] = math.sqrt(max(np.linalg.det(gram), 0.0)) / math.factorial(spec.n - 1)
    return out


def monte_carlo_slab_volume(
    spec: SimplexSpec, b, eps: float, samples: int, seed: int
) -> VolumeResult:
    """Third independent check: uniform sampling of a thin slab around H_b.

    Points are drawn flat on the simplex as lambda = E / sum(E) with i.i.d.
    standard exponential E (Devroye, Non-Uniform Random Variate Generation,
    ch. 5), mapped through the vertex matrix for general simplices; the hit
    fraction of |<b, x>| <= eps estimates the slab volume, divided by the
    slab width measured inside the simplex's affine hull.  Each draw of n+1
    exponentials gives 2(n+1) points, its images under the dihedral group
    of the cycle: the cyclic shifts roll(E, -k), then the shifts
    roll(E[::-1], k) of its reversal.  The Dirichlet(1, ..., 1) law is
    exchangeable under every permutation, so every image is a uniform point
    and the estimate stays unbiased.  ceil(samples / (2(n+1))) draws are
    made, the last one giving only its first points, so that exactly
    samples points are used; they fill one buffer of at most SLAB_CHUNK
    draws in turn and consume the stream as a single (draws, n+1) draw
    would.

    <b, x> = lambda . phi with phi = b V, and roll(E, -k) . phi =
    E . roll(phi, k), roll(E[::-1], k) . phi = E . roll(phi[::-1], k).  So
    one product per chunk, W' = [roll(phi, k) for each k | roll(phi[::-1],
    k) for each k | eps 1], taken transposed, gives every point's
    E_sigma . phi and eps sum(E) as contiguous rows, and a point hits when
    |E_sigma . phi| <= eps sum(E): no division by sum(E).  The product, its
    abs and the hit mask are written into buffers allocated once per call.

    The points of one draw are not independent (on [1, 1, -1, -1] / 2 the
    shift by 2 and the reversal repeat every event), so err is the cluster
    standard error of the ratio estimator over the draws (Cochran, Sampling
    Techniques, ch. 9): sqrt(m/(m-1) sum_i (c_i - p s_i)^2) / samples, for
    draw i's hit count c_i over its s_i points, from exact integer running
    sums of c, c^2 and c s.  A single draw has no spread to measure and
    gets err = inf.
    """
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral):
        raise OutOfRange(f"samples must be an integer, not {samples!r}")
    if not (math.isfinite(eps) and eps > 0.0) or samples < 1:
        raise OutOfRange("finite eps > 0 and samples >= 1 required")
    samples = int(samples)
    bvec = b.a if isinstance(b, Direction) else np.asarray(b, dtype=float)
    n = spec.n
    ksum = float(bvec.sum())
    b_par = math.sqrt(max(0.0, float(bvec @ bvec) - ksum * ksum / (n + 1.0)))
    if b_par <= 1e-12:
        raise OutOfRange("normal is parallel to the affine hull's normal")
    rng = np.random.default_rng(seed)
    phi = bvec @ spec.vertices
    per = 2 * (n + 1)  # points per draw
    wt = np.vstack([np.roll(phi, k) for k in range(n + 1)]
                   + [np.roll(phi[::-1], k) for k in range(n + 1)]
                   + [np.full(n + 1, eps)])
    draws = -(-samples // per)
    last = samples - (draws - 1) * per  # points the last draw gives
    size = min(draws, SLAB_CHUNK)
    buf = np.empty((size, n + 1))
    prod = np.empty((per + 1) * size)
    mask = np.empty(per * size, dtype=bool)
    hits = hits2 = 0
    for lo in range(0, draws, SLAB_CHUNK):
        size = min(SLAB_CHUNK, draws - lo)
        e = buf[:size]
        rng.standard_exponential(out=e)
        # (e W')': one contiguous row per point, then eps sum(E)
        s = np.matmul(wt, e.T, out=prod[: (per + 1) * size].reshape(per + 1, size))
        dots = np.abs(s[:per], out=s[:per])
        hit = np.less_equal(dots, s[per], out=mask[: per * size].reshape(per, size))
        if lo + SLAB_CHUNK >= draws:
            hit[last:, -1] = False
        c = np.count_nonzero(hit, axis=0)  # hits per draw
        hits += int(c.sum())
        hits2 += int(c @ c)
    if hits == 0:
        raise ZeroHits("no sample landed in the slab")
    # sum c_i s_i and sum s_i^2: every draw gives per points but the last,
    # whose hit count is c[-1]
    cross = per * hits - (per - last) * int(c[-1])
    sizes2 = (draws - 1) * per * per + last * last
    # samples^2 sum_i (c_i - p s_i)^2 with p = hits / samples, exactly
    dev2 = samples * samples * hits2 - 2 * samples * hits * cross + hits * hits * sizes2
    factor = simplex_volume(spec) * b_par / (2.0 * eps)
    value = hits / samples * factor
    err = math.sqrt(draws * dev2 / (draws - 1)) / samples**2 * factor if draws > 1 else math.inf
    return VolumeResult(value=value, method="monte-carlo", err=err)
