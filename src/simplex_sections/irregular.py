"""Deformed simplices and the face-versus-central-section comparison.

A linear change of variables turns any simplex section into a section of
the regular simplex, with an explicit volume factor.  Compressing the
regular simplex along the normal of a half-vs-half central hyperplane
shrinks the faces while keeping that central section fixed; for odd
dimension >= 5 some compression makes the central section beat every face.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .closed_form import Direction, VolumeResult, residue_volume
from .errors import CounterexampleFound, EmptySection, NotFound, OutOfRange

DELTA_EDGE_MARGIN = 1e-6


@dataclass(frozen=True)
class CompressedSimplex:
    """The compression family: vertices I + delta * w w^T, w = (1..1,-1..-1).

    Valid for n+1 even and -1/(n+1) < delta <= 0; delta = 0 is the regular
    simplex and delta -> -1/(n+1) degenerates to an n-1 dimensional set.
    The vertex matrix is built from the real block pattern directly; its
    determinant is 1 + (n+1) delta.
    """

    n: int
    delta: float
    matrix: np.ndarray

    def spec(self) -> oracle.SimplexSpec:
        return oracle.general_simplex(self.matrix)

    def half_split_vector(self) -> np.ndarray:
        w = np.ones(self.n + 1)
        w[(self.n + 1) // 2:] = -1.0
        return w


def compressed_simplex(n: int, delta: float) -> CompressedSimplex:
    if (n + 1) % 2 != 0:
        raise OutOfRange("n + 1 must be even")
    if not (-1.0 / (n + 1) < delta <= 0.0):
        raise OutOfRange(f"delta={delta} outside (-1/(n+1), 0]")
    w = np.ones(n + 1)
    w[(n + 1) // 2:] = -1.0
    m = np.eye(n + 1) + delta * np.outer(w, w)
    d = np.linalg.det(m)
    if abs(d - (1.0 + (n + 1) * delta)) > 1e-10:
        raise AssertionError("determinant identity violated")
    return CompressedSimplex(n=n, delta=delta, matrix=m)


def general_section_volume(simplex, a) -> VolumeResult:
    """Hyperplane section volume of an arbitrary simplex.

    Transforms the normal through the inverse vertex map, evaluates the
    regular-simplex residue formula, and rescales by the determinant and
    the two prefactor ratios.  Coordinate order of `a` is tied to the
    simplex's vertex labels, so no canonicalization happens here.
    """
    spec = simplex.spec() if isinstance(simplex, CompressedSimplex) else simplex
    avec = a.a if isinstance(a, Direction) else np.asarray(a, dtype=float)
    avec = avec / np.linalg.norm(avec)
    v = spec.vertices
    w = v.T @ avec
    # components that cancel analytically survive as rounding noise when the
    # simplex is near-degenerate; snap them so sign tests stay meaningful
    w[np.abs(w) < 1e-9 * np.max(np.abs(w))] = 0.0
    w_norm = float(np.linalg.norm(w))
    tilde = Direction.make(w / w_norm, canonicalize=False)
    try:
        base = residue_volume(tilde)
    except EmptySection:
        nonzero = np.flatnonzero(tilde.a)
        if nonzero.size != 1:
            raise
        # the transformed normal is a vertex normal: the section is a face
        n = spec.n
        base = VolumeResult(
            value=math.sqrt(n) / math.factorial(n - 1), method="residue", err=0.0
        )
    ka = float(avec.sum())
    ratio = math.sqrt((spec.n + 1.0 - ka * ka) / (spec.n + 1.0 - tilde.ksum**2))
    factor = abs(np.linalg.det(v)) / w_norm * ratio
    return VolumeResult(value=factor * base.value, method=base.method, err=factor * base.err)


def _face_normal(n: int, delta: float) -> np.ndarray:
    half = (n + 1) // 2
    b = np.empty(n + 1)
    b[0] = 1.0 + n * delta
    b[1:half] = -delta
    b[half:] = delta
    return b / np.linalg.norm(b)


def central_vs_face_ratio(n: int, delta: float) -> float:
    """Volume ratio of the half-vs-half central section to a face section."""
    simplex = compressed_simplex(n, delta)
    a = simplex.half_split_vector() / math.sqrt(n + 1.0)
    b = _face_normal(n, delta)
    central = general_section_volume(simplex, a).value
    face = general_section_volume(simplex, b).value
    return central / face


def central_vs_face_ratio_limit(n: int) -> float:
    """Closed-form limit of the ratio at full compression.

    Equals (n+1) (n-1)! / (2 ((n-1)!!)^2); above 1 exactly for odd n >= 5.
    """
    if (n + 1) % 2 != 0:
        raise OutOfRange("n + 1 must be even")
    double_fact = 1
    for m in range(n - 1, 0, -2):
        double_fact *= m
    return (n + 1) * math.factorial(n - 1) / (2.0 * double_fact * double_fact)


def extrapolated_degeneracy_ratio(n: int, h0: float = 1e-3, levels: int = 5) -> float:
    """Empirical ratio limit by Richardson extrapolation in the distance
    from the degenerate endpoint."""
    lo = -1.0 / (n + 1)
    vals = [central_vs_face_ratio(n, lo + h0 * 0.5**k) for k in range(levels)]
    for _ in range(2):  # strip two orders
        vals = [2.0 * b - a for a, b in zip(vals, vals[1:])]
    return vals[-1]


def find_central_dominating_delta(n: int, tol: float = 1e-6) -> tuple[float, float]:
    """Find a compression where the central section beats every face.

    Bisects the ratio crossing over the admissible delta interval and
    confirms the winner geometrically: the oracle volume of the central
    section must exceed all n+1 face volumes, which must agree with each
    other to 1e-10.  Raises NotFound when the ratio never clears 1 + tol
    (the n = 3 situation).
    """
    if (n + 1) % 2 != 0:
        raise OutOfRange("n + 1 must be even")
    lo = -1.0 / (n + 1) + DELTA_EDGE_MARGIN
    hi = 0.0
    target = 1.0 + tol
    if central_vs_face_ratio(n, lo) <= target:
        raise NotFound(f"ratio stays at or below {target} on the whole interval")
    # ratio(lo) > target >= ratio(hi): bisect the crossing, then step inside
    a, b = lo, hi
    while b - a > 1e-10:
        mid = 0.5 * (a + b)
        if central_vs_face_ratio(n, mid) > target:
            a = mid
        else:
            b = mid
    delta = 0.5 * (lo + a)
    ratio = central_vs_face_ratio(n, delta)
    if ratio <= target:
        delta, ratio = lo, central_vs_face_ratio(n, lo)

    simplex = compressed_simplex(n, delta)
    spec = simplex.spec()
    central_dir = simplex.half_split_vector() / math.sqrt(n + 1.0)
    poly = oracle.hyperplane_section_vertices(spec, central_dir)
    central = oracle.polytope_volume(poly).value
    faces = oracle.face_volumes(spec)
    if np.max(faces) - np.min(faces) > 1e-10:
        raise CounterexampleFound(
            "compressed-simplex faces are not equal in volume", witness=faces.tolist()
        )
    if central <= float(np.max(faces)):
        raise CounterexampleFound(
            "oracle disagrees: central section does not beat the faces",
            witness={"delta": delta, "central": central, "face": float(np.max(faces))},
        )
    return delta, ratio
