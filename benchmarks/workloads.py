"""The four seeded workloads, each a fixed list of checked ops.

`build(name, seed, rec, out_dir)` generates a workload's inputs from the seed and
returns a `Workload`: its ops in run order plus the op classes the latency
percentiles use.  One round runs every op once; the benchmark repeats
rounds, so every figure is about the same fixed work.  An op records each
check that misses its fixed tolerance with `Recorder.miss`; an op fails
when it records a miss or raises.  Every call into the package goes
through the `Recorder`, so the traced run can time it and the counters see
it.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import jsonschema
import numpy as np

from simplex_sections import (
    cli,
    closed_form as cf,
    extremal,
    irregular,
    oracle,
    quadrature,
    subspaces,
)

from tracing import Recorder

# fixed tolerances of the per-op checks
RESIDUE_REL = 1e-9
LINE_QUAD_TOL, LINE_QUAD_REL = 1e-8, 1e-7
SQUARE_QUAD_TOL, SQUARE_QUAD_REL = 1e-6, 1e-6
MC_SIGMAS = 5.0
BOUND_SLACK = 1e-9

SLAB_EPS, SLAB_SAMPLES = 0.005, 10**6
CONE_SAMPLES = 200_000

GENERIC = "generic"
# hyperplane directions from the hard regions of the residue and oracle code
HARD_REGIONS = ("tie-pair", "tie-triple", "near-zero", "exact-zero", "k-near-1")

# Failures the program had when this benchmark was written, by op region.
# They count in `failed`, but do not make a run incorrect; any other failure
# does.  Seen on hyperplane-agreement over 100 seeds (every op up to n = 8)
# and 500 more (the hard regions):
#
# - The residue loses precision where positive coordinates lie close (ROADMAP
#   open item 2): tied on purpose in tie-pair and tie-triple, by chance in
#   any region.  Its miss of RESIDUE_REL is known up to a relative size of
#   RESIDUE_MISS_CEILING[region]; a larger one is labelled apart and is not
#   known.  Largest seen: 0.72 on tie-triple (errors above 1e-2 in about one
#   triple of 400), 7.9e-7 on tie-pair, 3.8e-7 on near-zero, 5.2e-9 on
#   generic and 3.4e-9 on k-near-1.
# - A near-zero coordinate can leave the oracle's face lattice inconsistent,
#   and polytope_volume raises DegeneratePolytope (2.4% of near-zero ops).
RESIDUE_MISS_CEILING = {region: 1e-5 for region in (GENERIC, *HARD_REGIONS)}
RESIDUE_MISS_CEILING["tie-triple"] = 1.0
KNOWN_DEFECTS = {region: frozenset({"closed_form.residue_volume"})
                 for region in RESIDUE_MISS_CEILING}
KNOWN_DEFECTS["near-zero"] |= {"oracle.polytope_volume:DegeneratePolytope"}


@dataclass
class Op:
    klass: str
    region: str
    sections: int
    inputs: object  # plain data the op is computed from, for fingerprints
    run: Callable[[Recorder], None]  # records misses on the Recorder


@dataclass
class Workload:
    name: str
    ops: list[Op]
    p50_class: str  # op_p50_ms is the median latency of this op class
    regions: dict = field(default_factory=dict)  # "class/region" -> ops per round

    def __post_init__(self):
        for op in self.ops:
            key = f"{op.klass}/{op.region}"
            self.regions[key] = self.regions.get(key, 0) + 1

    def fingerprint(self) -> str:
        """Hash of every op's inputs: equal seeds give equal fingerprints."""
        h = hashlib.sha256()
        for op in self.ops:
            h.update(repr((op.klass, op.region, op.inputs)).encode())
        return h.hexdigest()


def _floats(v) -> list[float]:
    return [float(x) for x in np.asarray(v, dtype=float).ravel()]


def _within(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * abs(ref)


# ---------------------------------------------------------------------------
# hyperplane-agreement
#
# Why: the oracle does more than 90% of the work and its cost grows about 3x
# per n, while residue does under 1%: an oracle change shows here and a
# residue change should not.  A quarter of the directions come from the hard
# regions, which run the residue tie path and the oracle dedupe path.

# n = 3 holds most ops, so op_p50_ms sits inside it; n = 6 holds the 80th to
# 93rd percentiles of the whole mix, so op_p90_ms sits inside it
HYPERPLANE_OPS_PER_N = {3: 96, 4: 24, 5: 12, 6: 24, 7: 4, 8: 2, 9: 1, 10: 1}


def _scale_negatives(p: np.ndarray, q: np.ndarray, K: float) -> float:
    """c > 0 with sum(p, -c q) / |(p, -c q)| = K, by bisection (monotone in c)."""
    sp, sq, pp, qq = p.sum(), q.sum(), p @ p, q @ q

    def ksum(c: float) -> float:
        return (sp - c * sq) / math.sqrt(pp + c * c * qq)

    hi = 1.0
    while ksum(hi) > K:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ksum(mid) > K:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def hyperplane_direction(n: int, P: int, zeros: int, region: str,
                         rng: np.random.Generator) -> np.ndarray:
    """Normal vector in R^(n+1) from `region`, with P positive coordinates and
    `zeros` coordinates that are exactly zero (or tiny, for near-zero)."""
    N = n + 1 - zeros - P
    p = rng.uniform(0.2, 1.0, P)
    q = rng.uniform(0.2, 1.0, N)
    gap = 10.0 ** rng.uniform(-9.0, -4.0)
    if region == "tie-pair":
        p[1] = p[0] * (1.0 + gap)
    elif region == "tie-triple":
        p[1] = p[0] * (1.0 + gap)
        p[2] = p[0] * (1.0 + gap * rng.uniform(1.5, 2.5))
    K = 1.0 - 10.0 ** rng.uniform(-6.0, -2.0) if region == "k-near-1" else rng.uniform(0.0, 0.9)
    v = np.concatenate([p, -_scale_negatives(p, q, K) * q])
    v /= np.linalg.norm(v)
    if region == "near-zero":
        tiny = 10.0 ** rng.uniform(-13.0, -9.0) * rng.choice([-1.0, 1.0])
        return np.concatenate([v, [tiny]])
    return np.concatenate([v, np.zeros(zeros)])


def _shape(n: int, region: str, i: int) -> tuple[int, int]:
    """Deterministic (positive count, zero count), so op cost does not depend
    on the seed."""
    zeros = {"near-zero": 1, "exact-zero": 1 + (n >= 4 and i % 2)}.get(region, 0)
    low = {"tie-pair": 2, "tie-triple": 3}.get(region, 1)
    return low + i % (n + 1 - zeros - low), zeros


def _hyperplane_op(spec, a: cf.Direction, region: str, mc_seed: int | None):
    n = a.n
    ceiling = RESIDUE_MISS_CEILING[region]

    def run(rec: Recorder) -> None:
        r = rec.call("closed_form.residue_volume", cf.residue_volume, a)
        q = rec.call(
            "quadrature.hyperplane_volume_quadrature",
            quadrature.hyperplane_volume_quadrature, a, tol=LINE_QUAD_TOL,
        )
        poly = rec.call("oracle.hyperplane_section_vertices",
                        oracle.hyperplane_section_vertices, spec, a)
        rec.count("oracle.hyperplane_section_vertices", "vertices", poly.vertex_count)
        o = rec.call("oracle.polytope_volume", oracle.polytope_volume, poly)
        for name, res, rel in (
            ("closed_form.residue_volume", r, RESIDUE_REL),
            ("quadrature.hyperplane_volume_quadrature", q, LINE_QUAD_REL),
        ):
            if not _within(res.value, o.value, rel):
                rec.miss(name)
                if res is r and not _within(r.value, o.value, ceiling):
                    rec.op_failures.append(f"{name}:beyond {ceiling:g}")
            if abs(res.value - o.value) > res.err + o.err:
                rec.count(name, "err_bound_miss")
        if 0.0 <= a.ksum <= 1.0:
            bound, _ = rec.call("closed_form.max_noncentral_bound",
                                cf.max_noncentral_bound, n, a.ksum)
            if o.value > bound * (1.0 + BOUND_SLACK):
                rec.miss("closed_form.max_noncentral_bound")
        if mc_seed is not None:
            m = rec.call("oracle.monte_carlo_slab_volume", oracle.monte_carlo_slab_volume,
                         spec, a, SLAB_EPS, SLAB_SAMPLES, mc_seed)
            rec.count("oracle.monte_carlo_slab_volume", "samples", SLAB_SAMPLES)
            if abs(m.value - o.value) > MC_SIGMAS * m.err:
                rec.miss("oracle.monte_carlo_slab_volume")

    return run


def _build_hyperplane(seed: int, rec: Recorder) -> Workload:
    rng = np.random.default_rng([seed, 1])
    ops = []
    hard = 0
    for n, count in HYPERPLANE_OPS_PER_N.items():
        spec = oracle.regular_simplex(n)
        with_mc = False
        for i in range(count):
            # every fourth direction of each n comes from a hard region, cycling
            # through them
            region = GENERIC
            if i % 4 == 3:
                region = HARD_REGIONS[hard % len(HARD_REGIONS)]
                hard += 1
            P, zeros = _shape(n, region, i)
            a = cf.Direction.make(hyperplane_direction(n, P, zeros, region, rng))
            # the first generic direction of each n also gets the slab Monte Carlo
            mc_seed = None
            if region == GENERIC and not with_mc:
                mc_seed, with_mc = int(rng.integers(2**31)), True
            klass = f"n{n}" if mc_seed is None else "mc"
            ops.append(Op(klass, region, 1, (n, _floats(a.a), mc_seed),
                          _hyperplane_op(spec, a, region, mc_seed)))
    return Workload("hyperplane-agreement", ops, p50_class="n3")


def _warm_hyperplane() -> None:
    spec = oracle.regular_simplex(3)
    a = cf.Direction.make([0.6, 0.2, -0.3, -0.5])
    cf.residue_volume(a)
    quadrature.hyperplane_volume_quadrature(a, tol=LINE_QUAD_TOL)
    oracle.polytope_volume(oracle.hyperplane_section_vertices(spec, a))
    oracle.monte_carlo_slab_volume(spec, a, SLAB_EPS, 10_000, 0)


# ---------------------------------------------------------------------------
# bound-scan
#
# Why: per-call residue work is nearly all of the time and the oracle is
# nearly absent, the mirror image of hyperplane-agreement.  Ops are whole
# harness calls or fixed blocks of direct calls, so batching inside
# `extremal` shows without editing the benchmark.

SEARCH_TRIALS = 300
RESIDUE_BLOCK = 40
TRANSFORM_BLOCK = 20
RATIO_GRID = 20


def _both_signs(a: cf.Direction) -> bool:
    return bool(a.positive_indices()) and bool(a.negative_indices())


def _fixed_sum_directions(n: int, K: float, count: int, rng, rec: Recorder) -> list:
    out = []
    while len(out) < count:
        a = rec.call("closed_form.random_direction_fixed_sum",
                     cf.random_direction_fixed_sum, n, K, rng)
        if _both_signs(a):  # one-signed normals have no section to bound
            out.append(a)
    return out


def _min_search_op(n: int, seed: int):
    def run(rec: Recorder) -> None:
        if n <= 4:
            name, fn = "extremal.verify_global_minimum", extremal.verify_global_minimum
        else:
            name, fn = "extremal.explore_minimum_search", extremal.explore_minimum_search
        rep = rec.call(name, fn, n, SEARCH_TRIALS, seed)
        rec.count(name, "sections", rep.trials)
        bound, _ = rec.call("closed_form.max_noncentral_bound", cf.max_noncentral_bound, n, 0.0)
        ok = rep.passed and 0.0 < rep.min_value <= bound + BOUND_SLACK
        if n <= 4:
            ok = ok and rep.min_value >= rep.floor - 1e-10
        if not ok:
            rec.miss(name)

    return run


def _residue_block_op(n: int, K: float, dirs: list):
    def run(rec: Recorder) -> None:
        bound, maximizer = rec.call("closed_form.max_noncentral_bound",
                                    cf.max_noncentral_bound, n, K)
        ok = True
        if K < 1.0:  # at K = 1 the maximizer is a vertex normal and cuts a facet
            top = rec.call("closed_form.residue_volume", cf.residue_volume, maximizer).value
            ok = _within(top, bound, 1e-12)
        for a in dirs:
            v = rec.call("closed_form.residue_volume", cf.residue_volume, a).value
            ok = ok and 0.0 < v <= bound + BOUND_SLACK
        if not ok:
            rec.miss("closed_form.max_noncentral_bound")

    return run


def _transform_block_op(dirs: list):
    def run(rec: Recorder) -> None:
        for a in dirs:
            K = a.ksum
            s1 = rec.call("extremal.concentrate_transform",
                          extremal.concentrate_transform, a, "negative")
            s2 = rec.call("extremal.concentrate_transform",
                          extremal.concentrate_transform, s1.transformed, "positive")
            f = rec.call("closed_form.residue_functional", cf.residue_functional, s2.transformed)
            # two concentration steps reach the two-coordinate maximizer
            if abs(f - 1.0 / math.sqrt(2.0 - K * K)) > 1e-10:
                rec.miss("extremal.concentrate_transform")
            b = rec.call("extremal.balance_transform", extremal.balance_transform, a).transformed
            rec.call("closed_form.residue_functional", cf.residue_functional, b)
            # balancing keeps the coordinate sum; its monotonicity is not checked
            # because it is false in general (acceptance criterion 9)
            if abs(b.ksum - K) > 1e-9:
                rec.miss("extremal.balance_transform")

    return run


def _frustum_op(N: int):
    want = 0.0 if N >= 5 else 0.5

    def run(rec: Recorder) -> None:
        x, _ = rec.call("extremal.minimize_frustum", extremal.minimize_frustum, N, 2000)
        if abs(x - want) > 1e-8:
            rec.miss("extremal.minimize_frustum")

    return run


def _ratio_grid_op(n: int, deltas: list[float]):
    limit = irregular.central_vs_face_ratio_limit(n)

    def run(rec: Recorder) -> None:
        ratios = []
        for d in deltas:
            ratios.append(rec.call("irregular.central_vs_face_ratio",
                                   irregular.central_vs_face_ratio, n, d))
            rec.count("irregular.central_vs_face_ratio", "sections", 2)
        # the ratio falls from its full-compression limit to the regular value
        ok = all(0.0 < r <= limit + 1e-6 for r in ratios) and all(
            b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
        if not ok:
            rec.miss("irregular.central_vs_face_ratio")

    return run


def _dominating_op(n: int):
    def run(rec: Recorder) -> None:
        delta, ratio = rec.call("irregular.find_central_dominating_delta",
                                irregular.find_central_dominating_delta, n)
        if not (-1.0 / (n + 1) < delta <= 0.0 and ratio > 1.0):
            rec.miss("irregular.find_central_dominating_delta")

    return run


def _build_bound_scan(seed: int, rec: Recorder) -> Workload:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for n in range(2, 11):
        s = int(rng.integers(2**31))
        ops.append(Op("search", GENERIC, SEARCH_TRIALS // n * n, (n, s), _min_search_op(n, s)))
    for n in range(3, 9):
        for K in (0.0, 0.25, 0.5, 0.75, 1.0):
            dirs = _fixed_sum_directions(n, K, RESIDUE_BLOCK, rng, rec)
            ops.append(Op("residue-block", GENERIC, RESIDUE_BLOCK + 1,
                          (n, K, [_floats(a.a) for a in dirs]), _residue_block_op(n, K, dirs)))
    for n in range(3, 9):
        dirs = []
        for _ in range(TRANSFORM_BLOCK):
            K = float(rng.uniform(0.0, 0.95))
            dirs.extend(_fixed_sum_directions(n, K, 1, rng, rec))
        ops.append(Op("transform-block", GENERIC, TRANSFORM_BLOCK,
                      (n, [_floats(a.a) for a in dirs]), _transform_block_op(dirs)))
    for N in range(2, 6):
        ops.append(Op("frustum", GENERIC, 1, (N,), _frustum_op(N)))
    for n in (5, 7):
        lo = -1.0 / (n + 1) + irregular.DELTA_EDGE_MARGIN
        deltas = sorted(float(d) for d in rng.uniform(lo, 0.0, RATIO_GRID))
        ops.append(Op("ratio-grid", GENERIC, 2 * RATIO_GRID, (n, deltas),
                      _ratio_grid_op(n, deltas)))
        ops.append(Op("dominating", GENERIC, 1, (n,), _dominating_op(n)))
    return Workload("bound-scan", ops, p50_class="residue-block")


def _warm_bound_scan() -> None:
    a = cf.Direction.make([0.6, 0.2, -0.3, -0.5])
    extremal.verify_global_minimum(2, 10, 0)
    extremal.explore_minimum_search(5, 10, 0)
    cf.residue_volume(a)
    s = extremal.concentrate_transform(a, "negative")
    cf.residue_functional(extremal.concentrate_transform(s.transformed, "positive").transformed)
    cf.residue_functional(extremal.balance_transform(a).transformed)
    extremal.minimize_frustum(2, 10)
    irregular.central_vs_face_ratio(5, -0.05)


# ---------------------------------------------------------------------------
# kdim-agreement
#
# Why: square quadrature does most of the work here and runs in no other
# workload; the oracle runs support enumeration on small polytopes, which
# uses polytope_volume differently from hyperplane sections.

# (n, codim) -> subspaces per round; codim 2 also runs quadrature and Monte
# Carlo.  Codim-2 ops are a fifth of the mix, so op_p90_ms sits inside them;
# the cheapest and the dearest oracle-only ops are seven each, so the
# oracle class median (op_p50_ms) sits inside the (6, 3) group.
KDIM_OPS = {
    (4, 2): 1, (5, 2): 1, (6, 2): 1, (7, 2): 1, (8, 2): 1,
    (4, 3): 1, (5, 3): 2, (5, 4): 2, (6, 4): 2,
    (6, 3): 6,
    (7, 3): 2, (8, 3): 1, (7, 4): 3, (8, 4): 1,
}


def _kdim_op(spec, basis, mc_seed: int | None):
    n, k = basis.n, basis.k

    def run(rec: Recorder) -> None:
        poly = rec.call("oracle.kdim_section_vertices", oracle.kdim_section_vertices, spec, basis)
        rec.count("oracle.kdim_section_vertices", "vertices", poly.vertex_count)
        o = rec.call("oracle.polytope_volume", oracle.polytope_volume, poly)
        general, sharp = rec.call("closed_form.brascamp_lieb_bounds", cf.brascamp_lieb_bounds, n, k)
        ok = o.value <= general + BOUND_SLACK
        threshold = (n + 1.0 - k) / (n + 2.0 - k)
        if np.all(basis.vertex_distances_sq() <= threshold + 1e-12):
            ok = ok and o.value <= sharp + BOUND_SLACK
        if not ok:
            rec.miss("closed_form.brascamp_lieb_bounds")
        if mc_seed is not None:
            name = "quadrature.kdim_volume_quadrature"
            q = rec.call(name, quadrature.kdim_volume_quadrature, basis, tol=SQUARE_QUAD_TOL)
            if not _within(q.value, o.value, SQUARE_QUAD_REL):
                rec.miss(name)
            if abs(q.value - o.value) > q.err + o.err:
                rec.count(name, "err_bound_miss")
            name = "quadrature.monte_carlo_cone_volume"
            m = rec.call(name, quadrature.monte_carlo_cone_volume, basis, CONE_SAMPLES, mc_seed)
            rec.count(name, "samples", CONE_SAMPLES)
            if abs(m.value - o.value) > MC_SIGMAS * m.err:
                rec.miss(name)

    return run


def _build_kdim(seed: int, rec: Recorder) -> Workload:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for (n, codim), count in KDIM_OPS.items():
        spec = oracle.regular_simplex(n)
        for _ in range(count):
            basis = rec.call("subspaces.random_subspace_through_centroid",
                             subspaces.random_subspace_through_centroid, n, n + 1 - codim, rng)
            mc_seed = int(rng.integers(2**31)) if codim == 2 else None
            klass = "quadrature" if codim == 2 else "oracle"
            ops.append(Op(klass, GENERIC, 1, (n, codim, _floats(basis.vectors), mc_seed),
                          _kdim_op(spec, basis, mc_seed)))
    return Workload("kdim-agreement", ops, p50_class="oracle")


def _warm_kdim() -> None:
    basis = subspaces.random_subspace_through_centroid(4, 3, np.random.default_rng(0))
    oracle.polytope_volume(oracle.kdim_section_vertices(oracle.regular_simplex(4), basis))
    quadrature.kdim_volume_quadrature(basis, tol=1e-2)
    quadrature.monte_carlo_cone_volume(basis, 1000, 0)


# ---------------------------------------------------------------------------
# cli-verify
#
# Why: the ROADMAP's end-to-end command and the only path through `cli`,
# including the suite code and record output.  Most of it is oracle support
# enumeration inside extremal.verify_kdim_bounds and none of it is square
# quadrature: the counterpart of kdim-agreement.

CLI_SUITES = ("formulas", "extremal", "kdim", "irregular")
# 100 rather than the ROADMAP's 300 trials: six or more rounds fit in a run,
# so one slow stretch of the machine moves the per-op medians less
CLI_TRIALS = 100
SCHEMA_PATH = Path(__file__).resolve().parents[1] / "docs" / "result_record.schema.json"


def verify_argv(suite: str, seed: int, out: Path) -> list[str]:
    return ["verify", "--suite", suite, "--n-max", "7", "--trials", str(CLI_TRIALS),
            "--seed", str(seed), "--no-timestamp", "--out", str(out)]


def _validate_record(rec_json: dict, schema: dict) -> bool:
    try:
        jsonschema.validate(rec_json, schema)
    except jsonschema.ValidationError:
        return False
    return True


def _cli_op(suite: str, seed: int, out: Path, schema: dict, first: dict):
    argv = verify_argv(suite, seed, out)

    def run(rec: Recorder) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = rec.call(f"cli.verify_{suite}", cli.main, argv)
        text = out.read_text()
        record = json.loads(text)
        # comparison mode: every round must write the same bytes
        ok = code == 0 and record.get("pass") is True and _validate_record(record, schema)
        if not (ok and first.setdefault(suite, text) == text):
            rec.miss(f"cli.verify_{suite}")

    return run


def _build_cli(seed: int, out_dir: Path) -> Workload:
    schema = json.loads(SCHEMA_PATH.read_text())
    first: dict[str, str] = {}
    # sections are not counted: the suites do not report how many they measure
    ops = [Op(suite, GENERIC, 0, tuple(verify_argv(suite, seed, Path("-"))),
              _cli_op(suite, seed, out_dir / f"verify-{suite}-{seed}.json", schema, first))
           for suite in CLI_SUITES]
    return Workload("cli-verify", ops, p50_class="kdim")


def _warm_cli(out_dir: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["verify", "--suite", "formulas", "--n-max", "3", "--trials", "10",
                  "--seed", "0", "--no-timestamp", "--out", str(out_dir / "warm.json")])


# ---------------------------------------------------------------------------

def build(name: str, seed: int, rec: Recorder, out_dir: Path) -> Workload:
    """Generate the inputs of workload `name` from `seed`, then warm up."""
    if name == "hyperplane-agreement":
        wl = _build_hyperplane(seed, rec)
        _warm_hyperplane()
    elif name == "bound-scan":
        wl = _build_bound_scan(seed, rec)
        _warm_bound_scan()
    elif name == "kdim-agreement":
        wl = _build_kdim(seed, rec)
        _warm_kdim()
    elif name == "cli-verify":
        wl = _build_cli(seed, out_dir)
        _warm_cli(out_dir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return wl
