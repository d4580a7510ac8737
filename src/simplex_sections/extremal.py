"""Extremal rescalings and randomized verification of the section bounds.

Two rescalings drive the extremal arguments: concentrating a sign block
into a single coordinate (which never decreases the residue functional)
and balancing the negative block to equal coordinates (which never
increases it).  Both solve a line-ellipse system that preserves the
coordinate sum and the norm.  The verification searches are falsification
harnesses, not certificates: they raise CounterexampleFound on a violation,
which would indicate an implementation bug.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .closed_form import (
    Direction,
    brascamp_lieb_bounds,
    direction_blocks,
    random_directions_fixed_sum,
    random_directions_sign_pattern,
    residue_functional,
    residue_volumes,
    special_min_volume,
)
from .errors import CounterexampleFound, NoSolution, OutOfRange
from .subspaces import (
    SubspaceBasis,
    complement_of_span,
    random_subspaces_through_centroid,
)

BRACKET_SLACK = 1e-9


@dataclass(frozen=True)
class SignPattern:
    """Counts of positive and negative coordinates of a direction."""

    P: int
    N: int
    n: int

    def __post_init__(self):
        if self.P < 1 or self.N < 1 or self.P + self.N > self.n + 1:
            raise OutOfRange("need P >= 1, N >= 1, P + N <= n + 1")

    @staticmethod
    def of(a: Direction) -> "SignPattern":
        return SignPattern(
            P=len(a.positive_indices()), N=len(a.negative_indices()), n=a.n
        )


@dataclass(frozen=True)
class RescaleSolution:
    gamma: float
    beta: float
    transformed: Direction


def _blocks(a: Direction):
    pos = a.positive_indices()
    neg = a.negative_indices()
    if not pos or not neg:
        raise OutOfRange("direction must have coordinates of both signs")
    coords = np.asarray(a.a, dtype=float)
    return coords, pos, neg


def _pick_root(roots, lo: float, hi: float) -> float:
    inside = [r for r in roots if lo - BRACKET_SLACK <= r <= hi + BRACKET_SLACK]
    if not inside:
        raise NoSolution(
            f"no root of the line-ellipse system inside [{lo}, {hi}]: {roots}"
        )
    # ties broken toward the bracket interior
    mid = 0.5 * (lo + hi)
    return min(inside, key=lambda r: abs(r - mid))


def concentrate_transform(a: Direction, block: str = "negative") -> RescaleSolution:
    """Concentrate one sign block into a single coordinate.

    block="negative" merges the negatives into one coordinate while gamma
    rescales the positives; block="positive" does the mirror image.  Both
    solve gamma, beta in [0, 1] with the coordinate sum and the norm
    preserved (the line-ellipse system), so alternating the two blocks
    reaches a two-coordinate direction in two steps.  Requires the
    coordinate sum K in [0, 1].

    The residue functional is NOT monotone along this transform in general
    (see the package tests): the termwise estimate behind it fails once the
    functional's terms alternate in sign, which happens for two or more
    positive coordinates.
    """
    K = a.ksum
    if not (-1e-12 <= K <= 1.0 + 1e-12):
        raise OutOfRange(f"K={K} outside [0, 1]")
    if block not in ("negative", "positive"):
        raise OutOfRange("block must be 'negative' or 'positive'")
    coords, pos, neg = _blocks(a)
    sp = float(coords[pos].sum())
    sn = float(coords[neg].sum())
    if block == "negative":
        scaled, merged, s_scaled, s_merged = pos, neg, sp, sn
    else:
        scaled, merged, s_scaled, s_merged = neg, pos, sn, sp
    q_scaled = float(coords[scaled] @ coords[scaled])
    # substitute the line into the ellipse: quadratic in gamma
    c2 = q_scaled + s_scaled * s_scaled
    c1 = -2.0 * K * s_scaled
    c0 = K * K - 1.0
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        raise NoSolution("negative discriminant in the concentrate system")
    roots = [(-c1 + math.sqrt(disc)) / (2.0 * c2), (-c1 - math.sqrt(disc)) / (2.0 * c2)]
    gamma = _pick_root(roots, 0.0, 1.0)
    beta = (K - gamma * s_scaled) / s_merged
    if not (-BRACKET_SLACK <= beta <= 1.0 + BRACKET_SLACK):
        raise NoSolution(f"beta={beta} escaped [0, 1]")
    out = np.zeros_like(coords)
    out[scaled] = gamma * coords[scaled]
    out[merged[0]] = beta * s_merged
    out /= np.linalg.norm(out)
    return RescaleSolution(
        gamma=gamma, beta=beta, transformed=Direction.make(out, canonicalize=False)
    )


def balance_transform(a: Direction) -> RescaleSolution:
    """Spread the negative block to equal coordinates.

    Solves gamma >= 1 and beta >= gamma with the coordinate sum and norm
    preserved; the residue functional never increases.  Requires K >= 0.
    """
    K = a.ksum
    if K < -1e-12:
        raise OutOfRange(f"K={K} must be nonnegative")
    coords, pos, neg = _blocks(a)
    N = len(neg)
    sp = float(coords[pos].sum())
    sn = float(coords[neg].sum())
    qp = float(coords[pos] @ coords[pos])
    c2 = qp + sp * sp / N
    c1 = -2.0 * K * sp / N
    c0 = K * K / N - 1.0
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        raise NoSolution("negative discriminant in the balance system")
    roots = [(-c1 + math.sqrt(disc)) / (2.0 * c2), (-c1 - math.sqrt(disc)) / (2.0 * c2)]
    gamma = _pick_root(roots, 1.0, 1.0 / math.sqrt(qp))
    beta = (K - gamma * sp) / sn
    if beta < gamma - BRACKET_SLACK:
        raise NoSolution(f"beta={beta} fell below gamma={gamma}")
    out = np.zeros_like(coords)
    out[pos] = gamma * coords[pos]
    out[neg] = beta * sn / N
    out /= np.linalg.norm(out)
    return RescaleSolution(
        gamma=gamma, beta=beta, transformed=Direction.make(out, canonicalize=False)
    )


def product_sum_sandwich(xs) -> tuple[float, float, float]:
    """(1 + sum, prod(1 + x), (1 + sum/N)^N) for positive inputs.

    The outer two are the Bernoulli and arithmetic-geometric-mean bounds on
    the product; both rescaling proofs lean on this sandwich.
    """
    xs = [float(x) for x in xs]
    if not xs or any(x <= 0.0 for x in xs):
        raise OutOfRange("positive inputs required")
    s = sum(xs)
    prod = 1.0
    for x in xs:
        prod *= 1.0 + x
    return 1.0 + s, prod, (1.0 + s / len(xs)) ** len(xs)


def minimize_frustum(N: int, grid: int = 1000) -> tuple[float, float]:
    """Grid-scan the frustum profile on [0, 1/2], golden-section refined.

    The profile is symmetric about 1/2, so the half interval suffices.
    Returns (argmin_x, min_value) to 1e-10 in x.
    """
    if not (2 <= N <= 8):
        raise OutOfRange("N in 2..8 supported")
    if grid < 10:
        raise OutOfRange("grid too coarse")
    xs = np.linspace(0.0, 0.5, grid)
    i = int(np.argmin(oracle.frustum_volume(N, xs)))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, grid - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = oracle.frustum_volume(N, c), oracle.frustum_volume(N, d)
    while b - a > 1e-10:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = oracle.frustum_volume(N, c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = oracle.frustum_volume(N, d)
    x_star = 0.5 * (a + b)
    candidates = [(oracle.frustum_volume(N, x), x) for x in (x_star, 0.0, 0.5)]
    vmin = min(v for v, _ in candidates)
    # the profile is flat at an interior minimum, so prefer the exact grid
    # endpoints whenever they match the best value to rounding noise
    for v, x in candidates[1:]:
        if v <= vmin + 1e-12 * abs(vmin):
            return x, v
    return candidates[0][1], candidates[0][0]


@dataclass
class MinSearchReport:
    n: int
    trials: int
    floor: float
    min_value: float
    min_direction: tuple
    margin: float
    per_pattern: dict = field(default_factory=dict)
    passed: bool = True


def verify_global_minimum(n: int, trials: int, seed: int) -> MinSearchReport:
    """Randomized global-minimum search over all sign patterns, n in {2,3,4}.

    Every sampled central direction must have at least the face-parallel
    section volume (minus 1e-10 slack); a violation raises
    CounterexampleFound and would falsify the implementation, not the
    theorem.
    """
    if n not in (2, 3, 4):
        raise OutOfRange("the global result covers n in {2, 3, 4} only")
    return _min_search(n, trials, seed, check_floor=True)


def explore_minimum_search(n: int, trials: int, seed: int) -> MinSearchReport:
    """Exploratory variant for n >= 5, where minimality is an open question.

    Reports the empirical minimum without asserting any floor.
    """
    if n < 2:
        raise OutOfRange("n >= 2 required")
    return _min_search(n, trials, seed, check_floor=False)


def _min_search(n: int, trials: int, seed: int, check_floor: bool) -> MinSearchReport:
    rng = np.random.default_rng(seed)
    floor = special_min_volume(n)
    per = max(trials // n, 1)
    scans = [min_sign_pattern_volume(n, P, per, rng, floor if check_floor else -math.inf)
             for P in range(1, n + 1)]
    best, best_dir = min(scans, key=lambda scan: scan[0])  # the first minimum
    return MinSearchReport(
        n=n,
        trials=per * n,
        floor=floor,
        min_value=best,
        min_direction=tuple(best_dir.tolist()),
        margin=best - floor,
        per_pattern={P: low for P, (low, _) in enumerate(scans, 1)},
        passed=True,
    )


def min_sign_pattern_volume(n: int, P: int, count: int, rng: np.random.Generator,
                            floor: float) -> tuple[float, np.ndarray]:
    """The smallest residue volume over `count` directions with P positive
    coordinates from rng, and its first direction.  Raises CounterexampleFound
    with the first direction below floor - 1e-10."""
    best, best_dir = math.inf, None
    for a in direction_blocks(random_directions_sign_pattern, n, P, count, rng):
        vol = residue_volumes(a)[0]
        low = np.flatnonzero(vol < floor - 1e-10)
        if low.size:
            raise CounterexampleFound(
                f"section volume {float(vol[low[0]])} below the face-parallel "
                f"minimum {floor}",
                witness=tuple(a[low[0]].tolist()),
            )
        i = int(np.argmin(vol))  # the first minimum, as a strict < scan keeps
        if vol[i] < best:
            best, best_dir = float(vol[i]), a[i]
    return best, best_dir


def _section_volumes(a: np.ndarray) -> np.ndarray:
    """Residue volumes of the rows of `a`; 0.0 for a row whose nonzero
    coordinates share one sign, whose hyperplane meets the simplex in at
    most a face."""
    v = np.zeros(len(a))
    cut = (a.min(axis=1) < 0.0) & (a.max(axis=1) > 0.0)
    v[cut] = residue_volumes(a[cut])[0]
    return v


def max_fixed_sum_volume(n: int, K: float, count: int, rng: np.random.Generator,
                         bound: float = math.inf) -> float:
    """The largest section volume over `count` directions with coordinate sum
    K from rng, or 0.0.  Raises CounterexampleFound with the first direction
    above bound + 1e-10."""
    best = 0.0
    for a in direction_blocks(random_directions_fixed_sum, n, K, count, rng):
        v = _section_volumes(a)
        over = np.flatnonzero(v > bound + 1e-10)
        if over.size:
            raise CounterexampleFound(
                f"bound violated at n={n} K={K}: {float(v[over[0]])} > {bound}",
                witness=a[over[0]].tolist(),
            )
        best = max(best, float(np.max(v, initial=0.0)))
    return best


@dataclass
class SubspaceBoundReport:
    n: int
    k: int
    trials: int
    general_bound: float
    conditional_bound: float
    max_ratio_general: float
    max_ratio_conditional: float
    qualified_count: int
    witness_value: float
    witness_saturates: bool
    passed: bool = True


def conjectured_kdim_maximizer(n: int, k: int) -> SubspaceBasis:
    """H spanned by k-1 vertices and the centroid of the remaining face."""
    if not (2 <= k <= n):
        raise OutOfRange(f"k={k} outside 2..{n}")
    span = [np.eye(n + 1)[i] for i in range(k - 1)]
    rest = np.zeros(n + 1)
    rest[k - 1:] = 1.0
    span.append(rest)
    return complement_of_span(span)


def verify_kdim_bounds(n: int, k: int, trials: int, seed: int) -> SubspaceBoundReport:
    """Randomized check of the k-dimensional section bounds.

    Samples subspaces through the centroid, measures the section volume
    with the vertex-enumeration oracle, and asserts the general bound; the
    subsample passing the vertex-distance test must also satisfy the sharp
    bound.  Also confirms the conjectured maximizer attains the sharp bound.
    """
    if not (2 <= k <= n <= 8):
        raise OutOfRange("2 <= k <= n <= 8 required")
    if n + 1 - k > 4:
        raise OutOfRange("codimension above the oracle enumeration limit")
    if trials < 1:
        raise OutOfRange("trials >= 1 required")
    general, conditional = brascamp_lieb_bounds(n, k)
    dist_threshold = (n + 1.0 - k) / (n + 2.0 - k)
    rng = np.random.default_rng(seed)
    spec = oracle.regular_simplex(n)

    max_general = 0.0
    max_conditional = 0.0
    qualified = 0
    for bases in direction_blocks(random_subspaces_through_centroid, n, k, trials, rng):
        results = oracle.polytope_volumes(oracle.kdim_sections(spec, bases))
        vol = np.array([r.value for r in results])
        # vertex_distances_sq of every basis of the block
        near = np.all(np.sum(bases**2, axis=1) <= dist_threshold + 1e-12, axis=1)
        above = (vol > general + 1e-9) | (near & (vol > conditional + 1e-9))
        if above.any():
            i = int(np.argmax(above))  # the first, as the per-subspace loop raised
            kind, bound = ("general", general) if vol[i] > general + 1e-9 else ("sharp", conditional)
            raise CounterexampleFound(
                f"volume {float(vol[i])} above the {kind} bound {bound}",
                witness=bases[i].tolist(),
            )
        max_general = max(max_general, float(np.max(vol / general)))
        qualified += int(np.count_nonzero(near))
        max_conditional = max(max_conditional, float(np.max(vol[near] / conditional, initial=0.0)))

    witness_basis = conjectured_kdim_maximizer(n, k)
    witness_poly = oracle.kdim_section_vertices(spec, witness_basis)
    witness_value = oracle.polytope_volume(witness_poly).value
    return SubspaceBoundReport(
        n=n,
        k=k,
        trials=trials,
        general_bound=general,
        conditional_bound=conditional,
        max_ratio_general=max_general,
        max_ratio_conditional=max_conditional,
        qualified_count=qualified,
        witness_value=witness_value,
        witness_saturates=abs(witness_value - conditional) <= 1e-9,
    )
