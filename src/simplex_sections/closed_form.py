"""Closed-form hyperplane-section volumes of the regular n-simplex.

The simplex is S = conv{e_1, ..., e_(n+1)} in R^(n+1), side length sqrt(2),
living in the affine plane sum(x_j) = 1.  A hyperplane through the origin
with unit normal a meets S in an (n-1)-dimensional slice whenever a has
coordinates of both signs, and the slice volume has a closed form: a
prefactor sqrt(n+1 - K^2)/(n-1)! with K = sum(a_j), times a residue sum
over the positive coordinates.

Sections can equivalently be written as a central hyperplane (coordinate
sum zero) translated by an offset t; both representations and the
conversions between them live here, together with the extremal bounds for
fixed K and for k-dimensional subspaces.
"""
from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, EmptySection, OutOfRange
from .subspaces import SubspaceBasis

ZERO_REL = 1e-12   # |a_j| below this times max|a| counts as a zero coordinate
CANON_TOL = 1e-12

_METHODS = ("residue", "quadrature", "oracle", "monte-carlo", "closed-form")


@dataclass(frozen=True)
class VolumeResult:
    """A volume value with the method that produced it and an error estimate."""

    value: float
    method: str
    err: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "err", float(self.err))
        if not math.isfinite(self.value):
            raise ValueError("volume must be finite")
        if self.err < 0.0:
            raise ValueError("error estimate must be nonnegative")
        if self.method not in _METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")


@dataclass(frozen=True)
class Direction:
    """A unit normal vector with cached coordinate sum.

    The canonical form (default on construction) has coordinate sum >= 0
    and coordinates sorted descending; permutations and a global sign flip
    leave the section volume invariant, so canonicalizing dedupes the
    symmetry group.  Pass canonicalize=False where coordinate order is
    geometrically meaningful (labeled vertices, deformed simplices).
    """

    a: np.ndarray
    ksum: float

    @staticmethod
    def make(values, normalize: bool = True, canonicalize: bool = True) -> "Direction":
        v = np.array(values, dtype=float).ravel()
        if v.size < 2:
            raise ValueError("need at least two coordinates")
        # rounds as v @ v and np.linalg.norm do, without their overflow warning
        nrm, top = math.sqrt(np.vdot(v, v)), 1.0
        if not math.isfinite(nrm) or nrm == 0.0:  # over- or underflow: rescale first
            top = float(np.max(np.abs(v)))
            if not math.isfinite(top) or top == 0.0:
                raise ValueError("zero vector" if top == 0.0 else "coordinates must be finite")
            v = v / top
            nrm = math.sqrt(np.vdot(v, v))
        if not normalize and abs(nrm * top - 1.0) > 1e-9:
            raise ValueError(f"norm {nrm * top} deviates from 1 beyond 1e-9")
        v = v / nrm
        if canonicalize:
            v = _canonical_coords(v)
        v.setflags(write=False)
        return Direction(a=v, ksum=float(v.sum()))

    @property
    def n(self) -> int:
        return self.a.size - 1

    def zero_tol(self) -> float:
        return ZERO_REL * float(np.max(np.abs(self.a)))

    def positive_indices(self) -> list[int]:
        t = self.zero_tol()
        return [j for j, c in enumerate(self.a) if c > t]

    def negative_indices(self) -> list[int]:
        t = self.zero_tol()
        return [j for j, c in enumerate(self.a) if c < -t]

    def canonical(self) -> "Direction":
        return Direction.make(self.a, canonicalize=True)


def _canonical_coords(v: np.ndarray) -> np.ndarray:
    asc = np.sort(v)
    up = asc[::-1].copy()
    s = v.sum()
    if s > CANON_TOL:
        return up
    down = -asc  # -v sorted descending
    if s < -CANON_TOL:
        return down
    # sum ~ 0: both signs are admissible, break the tie lexicographically
    for x, y in zip(up, down):
        if x > y:
            return up
        if x < y:
            return down
    return up


@dataclass(frozen=True)
class CentralForm:
    """A section written as a central hyperplane plus a signed offset t.

    The normal a0 has coordinate sum zero; canonical form has t >= 0 (the
    pair (a0, t) and (-a0, -t) describe the same hyperplane).
    """

    a0: Direction
    t: float

    @staticmethod
    def make(values, t: float) -> "CentralForm":
        v = np.array(values, dtype=float).ravel()
        s = float(v.sum())
        if abs(s) > 1e-6 * max(1.0, float(np.max(np.abs(v)))):
            raise ValueError("central form requires coordinate sum zero")
        v = v - v.mean()  # enforce the constraint exactly
        if t < -CANON_TOL:
            v, t = -v, -t
        elif abs(t) <= CANON_TOL:
            v = _canonical_coords(v / np.linalg.norm(v))
            t = 0.0
        v = np.sort(v)[::-1]
        d = Direction.make(v, canonicalize=False)
        return CentralForm(a0=d, t=float(t))


# ---------------------------------------------------------------------------
# special directions and their elementary volumes

def a_min_direction(n: int) -> Direction:
    """Unit normal of the central section parallel to a face."""
    if n < 2:
        raise OutOfRange("n >= 2 required")
    v = [math.sqrt(n / (n + 1.0))] + [-1.0 / math.sqrt(n * (n + 1.0))] * n
    return Direction.make(v)


def a_max_direction(n: int) -> Direction:
    """Unit normal of the central section through n-1 vertices."""
    if n < 2:
        raise OutOfRange("n >= 2 required")
    v = [0.0] * (n + 1)
    v[0], v[-1] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
    return Direction.make(v)


def special_min_volume(n: int) -> float:
    """Volume of the central section parallel to a face."""
    if n < 2:
        raise OutOfRange("n >= 2 required")
    return math.sqrt(n + 1.0) / math.factorial(n - 1) * (n / (n + 1.0)) ** (n - 0.5)


def special_max_volume(n: int) -> float:
    """Volume of the central section through n-1 vertices (the maximum)."""
    if n < 2:
        raise OutOfRange("n >= 2 required")
    return math.sqrt(n + 1.0) / math.factorial(n - 1) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# residue sum

def _residue_sum(coords: list[float]) -> float:
    """Residue sum over the positive coordinates, by the B-spline recurrence.

    The sum is the divided difference [t_0..t_n] x_+^(n-1) over the sorted
    coordinates t, i.e. N(0)/(t_n - t_0) for the normalized Curry-Schoenberg
    B-spline N of order n with these knots.  Order by order, N[i] holds the
    order-k B-spline on t_i..t_(i+k) at 0, by the de Boor-Cox recurrence
    N_ik = -t_i/(t_(i+k-1) - t_i) N_i(k-1) + t_(i+k)/(t_(i+k) - t_(i+1)) N_(i+1)(k-1).
    A term is formed only where its B-spline's support contains 0; then its
    divisor spans 0 and its coefficient lies in [0, 1], so the values stay
    in [0, 1], coincident knots need no special case, and a knot however
    close to 0 keeps its sign.

    Rounding: each order costs at most 4 roundings along any path
    (difference, quotient, product, sum) and the final division 2 more.
    All terms are nonnegative, so relative errors add along the n-1 orders
    rather than over the O(n^2) steps: the relative error is at most
    (4n-2)u, unless the value underflows below the normal range.
    """
    t = sorted(coords)
    if not t[0] < 0.0 < t[-1]:
        raise EmptySection(
            "all nonzero coordinates share one sign; the hyperplane meets the "
            "simplex in at most a face"
        )
    n = len(t) - 1
    m = bisect.bisect_right(t, 0.0) - 1  # t[m] <= 0 < t[m+1]
    N = [0.0] * n
    N[m] = 1.0
    for k in range(2, n + 1):
        for i in range(max(0, m - k + 1), min(m, n - k) + 1):
            v = -t[i] / (t[i + k - 1] - t[i]) * N[i] if i > m - k + 1 else 0.0
            if i < m:
                v += t[i + k] / (t[i + k] - t[i + 1]) * N[i + 1]
            N[i] = v
    return N[0] / (t[n] - t[0])


def residue_functional(a: Direction) -> float:
    """The residue sum over positive coordinates, without the prefactor.

    The section volume equals sqrt(n+1-K^2)/(n-1)! times this value.
    """
    return _residue_sum(a.a.tolist())


def residue_volume(a: Direction) -> VolumeResult:
    """Hyperplane section volume by the residue closed form.

    Requires a sign change among the nonzero coordinates (EmptySection
    otherwise).  For coordinate sums with K^2 > 1 the value is the formula's
    analytic continuation; it is only validated against independent methods
    for K^2 < n+1.

    err is an a-priori rounding bound for the given coordinates and K: the
    residue sum contributes (4n-2)u (see _residue_sum) and, for
    K^2 <= (n+1)/2, the prefactor and the final product at most 4u more
    (K*K and n+1-K^2 give 2u, halved by the square root plus its own u, one
    u for the division and one for the product), so err = 4(n+1)u * value.
    """
    n = a.n
    K = a.ksum
    value = _residue_sum(a.a.tolist())
    denom = n + 1.0 - K * K
    if denom <= 1e-12:
        raise DegenerateInput("coordinate sum too large: hyperplane parallel to the simplex")
    volume = math.sqrt(denom) / math.factorial(n - 1) * value
    u = sys.float_info.epsilon / 2.0
    return VolumeResult(value=volume, method="residue", err=4.0 * (n + 1) * u * volume)


# ---------------------------------------------------------------------------
# representation conversions

def central_to_embedded(cf: CentralForm) -> Direction:
    """Convert (central normal, offset) to a normal through the origin."""
    a0 = cf.a0.a
    n = cf.a0.n
    denom = math.sqrt(1.0 + (n + 1.0) * cf.t * cf.t)
    b = (a0 - cf.t) / denom
    return Direction.make(b)


def embedded_to_central(b: Direction) -> CentralForm:
    """Convert an origin-normal to a (central normal, offset) pair."""
    n = b.n
    sb = b.ksum
    denom = n + 1.0 - sb * sb
    if denom <= 1e-12:
        raise DegenerateInput("hyperplane parallel to the simplex's affine hull")
    root = math.sqrt((n + 1.0) * denom)
    a0 = math.sqrt((n + 1.0) / denom) * b.a - sb / root
    t = -sb / root
    return CentralForm.make(a0, t)


def centroid_distance(b: Direction) -> float:
    """Distance from the simplex centroid to the section H_b intersect S."""
    n = b.n
    sb = b.ksum
    denom = n + 1.0 - sb * sb
    if denom <= 1e-12:
        raise DegenerateInput("hyperplane parallel to the simplex's affine hull")
    return abs(sb) / math.sqrt((n + 1.0) * denom)


def subspace_origin_distance(basis: SubspaceBasis) -> float:
    """Distance from the origin to H intersected with the sum(x)=1 plane."""
    denom = basis.n + 1.0 - basis.sum_squares()
    if denom <= 1e-12:
        raise DegenerateInput("subspace parallel to the simplex's affine hull")
    return 1.0 / math.sqrt(denom)


# ---------------------------------------------------------------------------
# extremal bounds

def max_noncentral_bound(n: int, K: float) -> tuple[float, Direction]:
    """Sharp upper bound for sections with coordinate sum K in [0, 1].

    Returns the bound and the two-coordinate direction attaining it.  At
    K = 1 the maximizer is a vertex normal and the section is a facet.
    """
    if not (0.0 <= K <= 1.0):
        raise OutOfRange(f"K={K} outside [0, 1]")
    if n < 2:
        raise OutOfRange("n >= 2 required")
    bound = math.sqrt(n + 1.0 - K * K) / math.factorial(n - 1) / math.sqrt(2.0 - K * K)
    r = math.sqrt(0.5 - K * K / 4.0)
    v = [0.0] * (n + 1)
    v[0], v[-1] = K / 2.0 + r, K / 2.0 - r
    return bound, Direction.make(v)


def brascamp_lieb_bounds(n: int, k: int) -> tuple[float, float]:
    """(general, centroid-sharp) upper bounds for k-dim sections through c.

    The first bound holds for every k-subspace through the centroid; the
    second additionally needs every vertex within distance
    sqrt((n+1-k)/(n+2-k)) of the subspace, and is then attained.
    """
    if not (2 <= k <= n):
        raise OutOfRange(f"k={k} outside 2..{n}")
    general = k ** (k / (2.0 * (n + 1.0))) / math.factorial(k - 1)
    conditional = math.sqrt(n + 1.0) / (math.factorial(k - 1) * math.sqrt(n + 2.0 - k))
    if general < conditional - 1e-12:
        raise AssertionError("general bound fell below the conditional one")
    return general, conditional


# ---------------------------------------------------------------------------
# samplers used by the verification suites

def random_direction_fixed_sum(n: int, K: float, rng: np.random.Generator) -> Direction:
    """Uniform-ish unit normal with coordinate sum exactly K.

    Decomposes a = (K/(n+1)) * ones + sqrt(1 - K^2/(n+1)) * u with u a
    random unit vector orthogonal to ones, so the constraints hold by
    construction.  Requires K^2 < n+1.
    """
    if K * K >= n + 1.0:
        raise OutOfRange("K^2 must be below n+1")
    while True:
        g = rng.standard_normal(n + 1)
        u = g - g.sum() / (n + 1)
        nrm = math.sqrt(u @ u)
        if nrm > 1e-12:
            break
    u /= nrm
    a = (K / (n + 1.0)) + math.sqrt(1.0 - K * K / (n + 1.0)) * u
    return Direction.make(a)


def random_direction_sign_pattern(n: int, P: int, rng: np.random.Generator) -> Direction:
    """Random sum-zero unit normal with exactly P positive coordinates.

    Not canonicalized (the sum-zero tie-break could flip the pattern);
    coordinates come sorted descending, positives first.
    """
    if not (1 <= P <= n):
        raise OutOfRange(f"P={P} outside 1..{n}")
    while True:
        g = np.abs(rng.standard_normal(n + 1)) + 1e-9
        p, q = g[:P], g[P:]
        cp = 1.0 / math.sqrt(float(p @ p) + (p.sum() ** 2) * float(q @ q) / (q.sum() ** 2))
        cq = cp * p.sum() / q.sum()
        v = np.sort(np.concatenate([cp * p, -cq * q]))[::-1]
        if np.all(np.isfinite(v)):
            return Direction.make(v, canonicalize=False)
