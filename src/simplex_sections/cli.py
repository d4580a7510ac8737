"""Command-line front end: volumes, sweeps, verification suites, conversions.

Exit codes: 0 success, 1 counterexample or failed check, 2 usage error,
3 numeric failure (tolerance unreachable and friends).
"""
from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
import time

import numpy as np

from . import (
    closed_form as cf,
    extremal,
    irregular,
    oracle,
    quadrature,
    subspaces,
)
from .errors import (
    CounterexampleFound,
    EmptySection,
    NotFound,
    PointSection,
    SimplexSectionError,
)

SCHEMA_VERSION = 1
SEED_ENV_VAR = "SIMPLEX_SECTIONS_SEED"

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _record(command: str, inputs: dict, with_timestamp: bool) -> dict:
    rec = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": [],
        "pass": None,
        "timings": {},
    }
    if with_timestamp:
        rec["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return rec


def _emit(rec: dict, path: str | None):
    if "timestamp" not in rec:
        # comparison mode: drop every volatile field so reports with the
        # same configuration and seed are byte-identical
        rec.pop("timings", None)
        for item in rec.get("results", []):
            if isinstance(item, dict):
                item.pop("seconds", None)
    text = json.dumps(rec, sort_keys=True, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.split(",")], dtype=float)


def _load_direction(args) -> cf.Direction:
    if args.special:
        if args.n is None:
            raise SystemExit2("--special requires --n")
        make = cf.a_min_direction if args.special == "min" else cf.a_max_direction
        return make(args.n)
    if args.a is not None:
        vec = _parse_vector(args.a)
    elif args.a_file is not None:
        with open(args.a_file) as fh:
            data = json.load(fh)
        vec = np.asarray(data["a"], dtype=float)
    else:
        raise SystemExit2("need --a, --a-file or --special")
    if args.n is not None and vec.size != args.n + 1:
        raise SystemExit2(f"vector length {vec.size} does not match n={args.n}")
    return cf.Direction.make(vec, normalize=not args.exact_norm, canonicalize=False)


class SystemExit2(Exception):
    """Usage error carrying a message; mapped to exit code 2."""


# ---------------------------------------------------------------------------
# volume

def _oracle_volume(section):
    def run(x, spec, args):
        poly = section(spec, x)
        return oracle.polytope_volume(poly), {"vertex_count": poly.vertex_count}

    return run


# input kind -> method -> run(direction or basis, simplex, args) -> (result, extra fields)
VOLUME_METHODS = {
    "direction": {
        "residue": lambda a, spec, args: (cf.residue_volume(a), {}),
        "oracle": _oracle_volume(oracle.hyperplane_section_vertices),
        "quadrature": lambda a, spec, args: (
            quadrature.hyperplane_volume_quadrature(a, tol=args.tol), {}),
        "mc": lambda a, spec, args: (
            oracle.monte_carlo_slab_volume(spec, a, args.eps, args.samples, args.seed), {}),
    },
    "basis": {
        "oracle": _oracle_volume(oracle.kdim_section_vertices),
        "quadrature": lambda basis, spec, args: (
            quadrature.kdim_volume_quadrature(basis, tol=args.tol), {}),
        "mc": lambda basis, spec, args: (
            quadrature.monte_carlo_cone_volume(basis, args.samples, args.seed), {}),
    },
}


def cmd_volume(args) -> int:
    rec = _record("volume", {}, not args.no_timestamp)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if args.basis_file:
        with open(args.basis_file) as fh:
            data = json.load(fh)
        basis = subspaces.basis_from_rows(data["basis"], orthonormalize=not args.exact_norm)
        rec["inputs"] = {
            "n": basis.n,
            "basis": np.asarray(basis.vectors).tolist(),
            "codim": basis.codim,
        }
        x, kind, unknown = basis, "basis", "method {} not available for a subspace basis"
    else:
        a = _load_direction(args)
        rec["inputs"] = {"n": a.n, "a": np.asarray(a.a).tolist()}
        x, kind, unknown = a, "direction", "unknown method {}"
    spec, table = oracle.regular_simplex(x.n), VOLUME_METHODS[kind]
    for method in methods:
        if method not in table:
            raise SystemExit2(unknown.format(method))
        t0 = time.perf_counter()
        res, extra = table[method](x, spec, args)
        rec["timings"][method] = time.perf_counter() - t0
        rec["results"].append({"method": method, "value": res.value, "err": res.err, **extra})

    rec["agreement"] = []
    ok = True
    rs = rec["results"]
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            vi, vj = rs[i]["value"], rs[j]["value"]
            scale = max(abs(vi), abs(vj), 1e-300)
            rel = abs(vi - vj) / scale
            slack = max(1e-6, 3.0 * (rs[i]["err"] + rs[j]["err"]) / scale)
            agree = rel <= slack
            ok = ok and agree
            rec["agreement"].append(
                {"a": rs[i]["method"], "b": rs[j]["method"], "rel_diff": rel, "agree": agree}
            )
    rec["pass"] = ok
    _emit(rec, args.json)
    if args.json:
        for r in rs:
            print(f"{r['method']:>10}: {_fmt(r['value'])} (err {r['err']:.2e})")
    return EXIT_OK if ok else EXIT_COUNTEREXAMPLE


# ---------------------------------------------------------------------------
# sweep

def cmd_sweep(args) -> int:
    rows: list[dict] = []
    if args.frustum:
        xs = np.linspace(0.0, 1.0, args.grid)
        rows = [{"x": float(x), "volume": oracle.frustum_volume(args.N, float(x))} for x in xs]
        columns = ["x", "volume"]
    elif args.ratio:
        lo = -1.0 / (args.n + 1) + 1e-6
        deltas = np.linspace(lo, 0.0, args.grid)
        rows = [
            {"delta": float(d), "ratio": irregular.central_vs_face_ratio(args.n, float(d))}
            for d in deltas
        ]
        columns = ["delta", "ratio"]
    elif args.maxbound:
        lo, hi, step = (float(t) for t in args.K_grid.split(":"))
        ks = np.arange(lo, hi + 0.5 * step, step)
        rng = np.random.default_rng(args.seed)
        samples = []
        for K in ks:
            best = 0.0
            for _ in range(args.samples_per_k):
                a = cf.random_direction_fixed_sum(args.n, float(K), rng)
                try:
                    best = max(best, cf.residue_volume(a).value)
                except EmptySection:
                    pass
            samples.append(best)
        rows = [
            {
                "K": float(K),
                "bound": cf.max_noncentral_bound(args.n, float(K))[0],
                "best_sample": s,
            }
            for K, s in zip(ks, samples)
        ]
        columns = ["K", "bound", "best_sample"]
    else:
        raise SystemExit2("choose one of --frustum, --ratio, --maxbound")

    if args.format == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        rec = _record("sweep", vars_without(args, "func"), not args.no_timestamp)
        rec["results"] = rows
        rec["pass"] = True
        _emit(rec, args.out)
    return EXIT_OK


def vars_without(args, *skip) -> dict:
    return {
        k: v
        for k, v in vars(args).items()
        if k not in skip and not callable(v) and v is not None
    }


# ---------------------------------------------------------------------------
# verify

def _check(name, fn):
    t0 = time.perf_counter()
    try:
        detail = fn()
        passed, extra = True, detail or {}
    except (CounterexampleFound, AssertionError) as exc:
        passed, extra = False, {"error": str(exc)}
        if isinstance(exc, CounterexampleFound) and exc.witness is not None:
            extra["witness"] = exc.witness
    return {
        "name": name,
        "passed": passed,
        "seconds": time.perf_counter() - t0,
        **({"detail": extra} if extra else {}),
    }


def _suite_formulas(n_max: int, trials: int, seed: int) -> list[dict]:
    checks = []

    def specials():
        for n in range(2, n_max + 1):
            for make, closed in (
                (cf.a_min_direction, cf.special_min_volume),
                (cf.a_max_direction, cf.special_max_volume),
            ):
                got = cf.residue_volume(make(n)).value
                want = closed(n)
                assert abs(got / want - 1.0) < 1e-12, (n, got, want)
        return {"n_max": n_max}

    checks.append(_check("closed_form_constants", specials))

    def roundtrips():
        rng = np.random.default_rng(seed)
        count = max(trials // 10, 100)
        for _ in range(count):
            n = int(rng.integers(2, max(3, n_max) + 1))
            raw = rng.standard_normal(n + 1)
            raw -= raw.mean()
            raw /= np.linalg.norm(raw)
            t = float(rng.uniform(-0.3, 0.3))
            form = cf.CentralForm.make(raw, t)
            b = cf.central_to_embedded(form)
            back = cf.embedded_to_central(b)
            assert abs(back.t - form.t) < 1e-10
            assert float(np.max(np.abs(back.a0.a - form.a0.a))) < 1e-10
            assert abs(cf.centroid_distance(b) - abs(form.t)) < 1e-12
        return {"count": count}

    checks.append(_check("representation_roundtrip", roundtrips))

    def three_way():
        rng = np.random.default_rng(seed + 1)
        dirs = max(trials // 50, 5)
        worst_q = worst_o = 0.0
        for n in range(3, min(n_max, 7) + 1):
            spec = oracle.regular_simplex(n)

            def one(i):
                while True:
                    a = cf.random_direction_fixed_sum(n, 0.0, rng)
                    if a.positive_indices() and a.negative_indices():
                        return a

            for a in [one(i) for i in range(dirs)]:
                rv = cf.residue_volume(a).value
                qv = quadrature.hyperplane_volume_quadrature(a, 1e-8).value
                ov = oracle.polytope_volume(
                    oracle.hyperplane_section_vertices(spec, a)
                ).value
                worst_q = max(worst_q, abs(qv / rv - 1.0))
                worst_o = max(worst_o, abs(ov / rv - 1.0))
        assert worst_q < 1e-7, worst_q
        assert worst_o < 1e-9, worst_o
        return {"worst_quadrature_rel": worst_q, "worst_oracle_rel": worst_o}

    checks.append(_check("three_method_agreement", three_way))

    def prefactors():
        rng = np.random.default_rng(seed + 2)
        for _ in range(200):
            n = int(rng.integers(3, max(4, n_max) + 1))
            a = cf.random_direction_fixed_sum(n, float(rng.uniform(0, 1)), rng)
            basis = quadrature.hyperplane_basis_of(a)
            d = quadrature._direct_prefactor(basis)
            p = quadrature._pyramid_prefactor(basis)
            assert abs(d - p) < 1e-12 * max(1.0, abs(d))
        return {}

    checks.append(_check("prefactor_consistency", prefactors))

    def saturation():
        for n in range(3, n_max + 1):
            for K in np.linspace(0.0, 0.99, 12):
                bound, maximizer = cf.max_noncentral_bound(n, float(K))
                got = cf.residue_volume(maximizer).value
                assert abs(got / bound - 1.0) < 1e-12
        return {}

    checks.append(_check("max_bound_saturation", saturation))

    def bl_pair():
        for n in range(3, max(n_max, 10) + 1):
            for k in range(2, n + 1):
                g, c = cf.brascamp_lieb_bounds(n, k)
                assert g >= c - 1e-12
        ratios = [
            cf.brascamp_lieb_bounds(n, 3)[0] / cf.brascamp_lieb_bounds(n, 3)[1]
            for n in range(3, 51)
        ]
        assert all(r >= 1.0 - 1e-12 for r in ratios)
        assert abs(ratios[-1] - 1.0) < 0.02
        return {"ratio_at_n50": ratios[-1]}

    checks.append(_check("kdim_bound_pair", bl_pair))
    return checks


def _suite_extremal(n_max: int, trials: int, seed: int) -> list[dict]:
    checks = []

    def bound_validity():
        rng = np.random.default_rng(seed)
        per = max(trials // 5, 200)
        for n in range(3, min(n_max, 8) + 1):
            for K in (0.0, 0.25, 0.5, 0.75, 1.0):
                bound, _ = cf.max_noncentral_bound(n, K)
                for _ in range(per):
                    a = cf.random_direction_fixed_sum(n, K, rng)
                    try:
                        v = cf.residue_volume(a).value
                    except EmptySection:
                        v = 0.0
                    if v > bound + 1e-10:
                        raise CounterexampleFound(
                            f"bound violated at n={n} K={K}: {v} > {bound}",
                            witness=np.asarray(a.a).tolist(),
                        )
        return {"per_cell": per}

    checks.append(_check("noncentral_bound_validity", bound_validity))

    def local_min():
        rng = np.random.default_rng(seed + 3)
        per = max(trials // 5, 200)
        for n in range(3, min(n_max, 8) + 1):
            floor = cf.special_min_volume(n)
            for _ in range(per):
                a = cf.random_direction_sign_pattern(n, 1, rng)
                v = cf.residue_volume(a).value
                if v < floor - 1e-10:
                    raise CounterexampleFound(
                        f"one-positive direction below the face-parallel volume at n={n}",
                        witness=np.asarray(a.a).tolist(),
                    )
        return {"per_n": per}

    checks.append(_check("local_minimum_pattern", local_min))

    def global_min():
        out = {}
        for n in (2, 3, 4):
            rep = extremal.verify_global_minimum(n, trials, seed + n)
            out[str(n)] = {"min": rep.min_value, "margin": rep.margin}
        assert abs(oracle.frustum_volume(2, 0.5) - 0.5) < 1e-12
        assert abs(oracle.frustum_volume(3, 0.5) - 9 * math.sqrt(6) / 125) < 1e-12
        return out

    checks.append(_check("global_minimum_small_n", global_min))

    def frustum_profile():
        for N, want in ((2, 0.5), (3, 0.5), (4, 0.5)):
            x, _ = extremal.minimize_frustum(N, 2000)
            assert abs(x - want) < 1e-8
        x5, v5 = extremal.minimize_frustum(5, 2000)
        assert oracle.frustum_volume(5, 0.0) < oracle.frustum_volume(5, 0.5)
        assert abs(x5) < 1e-8
        return {"argmin_N5": x5, "min_N5": v5}

    checks.append(_check("frustum_minima", frustum_profile))

    def chain():
        rng = np.random.default_rng(seed + 4)
        for _ in range(max(trials // 20, 50)):
            K = float(rng.uniform(0.0, 0.95))
            n = int(rng.integers(3, min(n_max, 8) + 1))
            while True:
                a = cf.random_direction_fixed_sum(n, K, rng)
                if a.positive_indices() and a.negative_indices():
                    break
            s1 = extremal.concentrate_transform(a, "negative")
            s2 = extremal.concentrate_transform(s1.transformed, "positive")
            f = cf.residue_functional(s2.transformed)
            assert abs(f - 1.0 / math.sqrt(2.0 - K * K)) < 1e-10
        return {}

    checks.append(_check("concentration_chain_endpoint", chain))
    return checks


def _suite_kdim(n_max: int, trials: int, seed: int) -> list[dict]:
    checks = []
    pairs = [(4, 3), (5, 3), (5, 4), (6, 4)]
    pairs = [(n, k) for n, k in pairs if n <= n_max]

    def run_pair(nk):
        n, k = nk
        rep = extremal.verify_kdim_bounds(n, k, trials, seed + 10 * n + k)
        assert rep.witness_saturates, (n, k, rep.witness_value)
        return {
            "n": n,
            "k": k,
            "max_ratio_general": rep.max_ratio_general,
            "qualified": rep.qualified_count,
            "witness_value": rep.witness_value,
        }

    for nk in pairs:
        checks.append(_check(f"kdim_bounds_{nk[0]}_{nk[1]}", lambda nk=nk: run_pair(nk)))
    return checks


def _suite_irregular(n_max: int, trials: int, seed: int) -> list[dict]:
    checks = []

    def limits():
        assert abs(irregular.central_vs_face_ratio_limit(5) - 1.125) < 1e-15
        assert abs(irregular.central_vs_face_ratio_limit(7) - 1.25) < 1e-15
        assert abs(irregular.central_vs_face_ratio_limit(3) - 1.0) < 1e-15
        for n in (5, 7):
            emp = irregular.extrapolated_degeneracy_ratio(n)
            assert abs(emp - irregular.central_vs_face_ratio_limit(n)) < 1e-5
        return {}

    checks.append(_check("ratio_limits", limits))

    def finds():
        out = {}
        for n in (5, 7):
            if n > n_max:
                continue
            delta, ratio = irregular.find_central_dominating_delta(n)
            out[str(n)] = {"delta": delta, "ratio": ratio}
        try:
            irregular.find_central_dominating_delta(3)
            raise AssertionError("n=3 search unexpectedly succeeded")
        except NotFound:
            pass
        return out

    checks.append(_check("central_dominates_faces", finds))
    return checks


_SUITES = {
    "formulas": _suite_formulas,
    "extremal": _suite_extremal,
    "kdim": _suite_kdim,
    "irregular": _suite_irregular,
}


def cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    rec = _record("verify", {"suite": args.suite, "seed": args.seed, "trials": args.trials,
                             "n_max": args.n_max}, not args.no_timestamp)
    all_checks = []
    for name in names:
        checks = _SUITES[name](args.n_max, args.trials, args.seed)
        for c in checks:
            c["suite"] = name
            status = "PASS" if c["passed"] else "FAIL"
            print(f"[{name}] {c['name']}: {status} ({c['seconds']:.2f}s)")
        all_checks.extend(checks)
    rec["results"] = all_checks
    rec["pass"] = all(c["passed"] for c in all_checks)
    if args.out:
        _emit(rec, args.out)
    elif not rec["pass"]:
        _emit(rec, None)  # serialize the counterexample on failure
    print("verify:", "PASS" if rec["pass"] else "FAIL")
    return EXIT_OK if rec["pass"] else EXIT_COUNTEREXAMPLE


# ---------------------------------------------------------------------------
# convert / bounds

def cmd_convert(args) -> int:
    rec = _record("convert", {}, not args.no_timestamp)
    if args.central is not None:
        a0 = _parse_vector(args.central)
        form = cf.CentralForm.make(a0, args.t)
        b = cf.central_to_embedded(form)
        rec["inputs"] = {"central": a0.tolist(), "t": args.t}
        rec["results"] = [
            {"method": "closed-form", "value": 0.0, "err": 0.0,
             "embedded": np.asarray(b.a).tolist(), "ksum": b.ksum}
        ]
    elif args.b is not None:
        b = cf.Direction.make(_parse_vector(args.b), normalize=not args.exact_norm,
                              canonicalize=False)
        form = cf.embedded_to_central(b)
        rec["inputs"] = {"b": np.asarray(b.a).tolist()}
        rec["results"] = [
            {"method": "closed-form", "value": 0.0, "err": 0.0,
             "central": np.asarray(form.a0.a).tolist(), "t": form.t,
             "centroid_distance": cf.centroid_distance(b)}
        ]
    else:
        raise SystemExit2("need --central with --t, or --b")
    rec["pass"] = True
    _emit(rec, args.json)
    return EXIT_OK


def cmd_bounds(args) -> int:
    rec = _record("bounds", {"n": args.n}, not args.no_timestamp)
    if args.K is not None:
        bound, maximizer = cf.max_noncentral_bound(args.n, args.K)
        rec["inputs"]["K"] = args.K
        rec["results"] = [
            {"method": "closed-form", "value": bound, "err": 0.0,
             "maximizer": np.asarray(maximizer.a).tolist()}
        ]
    elif args.k is not None:
        general, conditional = cf.brascamp_lieb_bounds(args.n, args.k)
        rec["inputs"]["k"] = args.k
        rec["results"] = [
            {"method": "closed-form", "value": general, "err": 0.0, "kind": "general"},
            {"method": "closed-form", "value": conditional, "err": 0.0, "kind": "sharp"},
        ]
    else:
        raise SystemExit2("need --K (hyperplane bound) or --k (subspace bounds)")
    rec["pass"] = True
    _emit(rec, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="simplex-sections",
        description="Section volumes of the regular simplex, three independent ways.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    # argparse converts a string default with `type`, so a malformed
    # variable is a usage error (exit 2) unless --seed overrides it
    seed_default = os.environ.get(SEED_ENV_VAR, "0")

    vol = sub.add_parser("volume", help="compute one section volume")
    vol.add_argument("--n", type=int)
    vol.add_argument("--a", help="comma-separated normal vector")
    vol.add_argument("--a-file", help="JSON file with {n, a}")
    vol.add_argument("--basis-file", help="JSON file with {n, basis} rows spanning H-perp")
    vol.add_argument("--special", choices=["min", "max"])
    vol.add_argument("--methods", default="residue,oracle")
    vol.add_argument("--tol", type=float, default=1e-9)
    vol.add_argument("--eps", type=float, default=0.01, help="slab half-width for mc")
    vol.add_argument("--samples", type=int, default=10**6)
    vol.add_argument("--seed", type=int, default=seed_default)
    vol.add_argument("--exact-norm", action="store_true",
                     help="reject input whose norm deviates from 1 by more than 1e-9")
    vol.add_argument("--json", help="write the result record to this path")
    vol.add_argument("--no-timestamp", action="store_true")
    vol.set_defaults(func=cmd_volume)

    sw = sub.add_parser("sweep", help="tabulate a one-parameter family")
    kind = sw.add_mutually_exclusive_group(required=True)
    kind.add_argument("--frustum", action="store_true")
    kind.add_argument("--ratio", action="store_true")
    kind.add_argument("--maxbound", action="store_true")
    sw.add_argument("--N", type=int, default=5)
    sw.add_argument("--n", type=int, default=5)
    sw.add_argument("--grid", type=int, default=1000)
    sw.add_argument("--K-grid", default="0:1:0.05")
    sw.add_argument("--samples-per-k", type=int, default=200)
    sw.add_argument("--seed", type=int, default=seed_default)
    sw.add_argument("--format", choices=["csv", "json"], default="csv")
    sw.add_argument("--out")
    sw.add_argument("--no-timestamp", action="store_true")
    sw.set_defaults(func=cmd_sweep)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", choices=[*_SUITES, "all"], required=True)
    ver.add_argument("--n-max", type=int, default=7)
    ver.add_argument("--trials", type=int, default=1000)
    ver.add_argument("--seed", type=int, default=seed_default)
    ver.add_argument("--out", help="write the JSON report to this path")
    ver.add_argument("--no-timestamp", action="store_true")
    ver.set_defaults(func=cmd_verify)

    conv = sub.add_parser("convert", help="convert between section representations")
    conv.add_argument("--central", help="comma-separated sum-zero normal")
    conv.add_argument("--t", type=float, default=0.0)
    conv.add_argument("--b", help="comma-separated embedded normal")
    conv.add_argument("--exact-norm", action="store_true")
    conv.add_argument("--json")
    conv.add_argument("--no-timestamp", action="store_true")
    conv.set_defaults(func=cmd_convert)

    bnd = sub.add_parser("bounds", help="print the extremal bounds")
    bnd.add_argument("--n", type=int, required=True)
    bnd.add_argument("--K", type=float)
    bnd.add_argument("--k", type=int)
    bnd.add_argument("--json")
    bnd.add_argument("--no-timestamp", action="store_true")
    bnd.set_defaults(func=cmd_bounds)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        parser.exit(EXIT_USAGE, f"error: {exc}\n")
    except CounterexampleFound as exc:
        payload = {"error": str(exc), "witness": exc.witness}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    except (EmptySection, PointSection, NotFound, SimplexSectionError) as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
