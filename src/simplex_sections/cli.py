"""Command-line front end: volumes, sweeps, verification suites, conversions.

Exit codes: 0 success, 1 counterexample or failed check, 2 usage error,
3 numeric failure (tolerance unreachable and friends).
"""
from __future__ import annotations

import argparse
import datetime
import json
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
    verify,
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
MAX_GRID_POINTS = 10**6  # rows of a sweep table, for --grid and --K-grid alike


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
    try:
        return np.array([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError as exc:
        raise SystemExit2(f"malformed vector {text!r}") from exc


def _build(make, *args, **kwargs):
    """Construct an input object; its ValueError (zero, non-finite, ...) or
    TypeError (a number where rows belong, ...) is a usage error."""
    try:
        return make(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        raise SystemExit2(str(exc)) from exc


def _load_key(path: str, key: str):
    """The `key` entry of the JSON object in `path`; an unreadable file, bad
    JSON or a missing key is a usage error."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit2(f"{path}: {exc}") from exc
    if not isinstance(data, dict) or key not in data:
        raise SystemExit2(f"{path}: no {key!r} entry")
    return data[key]


def _load_direction(args) -> cf.Direction:
    if args.special:
        if args.n is None:
            raise SystemExit2("--special requires --n")
        make = cf.a_min_direction if args.special == "min" else cf.a_max_direction
        return make(args.n)
    if args.a is not None:
        vec = _parse_vector(args.a)
    elif args.a_file is not None:
        vec = _build(np.asarray, _load_key(args.a_file, "a"), dtype=float)
    else:
        raise SystemExit2("need --a, --a-file or --special")
    if args.n is not None and vec.size != args.n + 1:
        raise SystemExit2(f"vector length {vec.size} does not match n={args.n}")
    return _build(cf.Direction.make, vec, normalize=not args.exact_norm, canonicalize=False)


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
        "mc": lambda a, spec, args: (quadrature.monte_carlo_cone_volume(
            quadrature.hyperplane_basis_of(a), args.samples, args.seed), {}),
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
        basis = _build(subspaces.basis_from_rows, _load_key(args.basis_file, "basis"),
                       orthonormalize=not args.exact_norm)
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

def _check_grid(points, what: str) -> None:
    if not 0 < points <= MAX_GRID_POINTS:  # for --K-grid, the ratio np.arange rounds up
        raise SystemExit2(f"{what} must give 1 to MAX_GRID_POINTS = {MAX_GRID_POINTS} points")


def cmd_sweep(args) -> int:
    _check_grid(args.grid, f"--grid {args.grid}")
    if args.frustum:
        xs = np.linspace(0.0, 1.0, args.grid)
        vols = oracle.frustum_volume(args.N, xs)
        rows = [{"x": float(x), "volume": float(v)} for x, v in zip(xs, vols)]
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
        if args.samples_per_k < 0:
            raise SystemExit2("--samples-per-k must be >= 0")
        try:
            lo, hi, step = np.array(args.K_grid.split(":"), dtype=float)
        except ValueError as exc:
            raise SystemExit2(f"--K-grid {args.K_grid!r}: {exc}") from exc
        if not (np.isfinite([lo, hi, step]).all() and step > 0.0):
            raise SystemExit2(f"--K-grid {args.K_grid!r} needs finite lo, hi and a step > 0")
        _check_grid((hi + 0.5 * step - lo) / step, f"--K-grid {args.K_grid!r}")
        ks = np.arange(lo, hi + 0.5 * step, step)
        # every K is range-checked before any cell is sampled
        bounds = [cf.max_noncentral_bound(args.n, float(K))[0] for K in ks]
        rng = np.random.default_rng(args.seed)
        rows = []
        for K, bound in zip(ks, bounds):
            best = extremal.max_fixed_sum_volume(args.n, float(K), args.samples_per_k, rng)
            rows.append({"K": float(K), "bound": bound, "best_sample": best})
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

def cmd_verify(args) -> int:
    if args.trials < 1:
        raise SystemExit2("--trials must be >= 1")
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    n_min = max(min(c.n_min for c in verify.SUITES[s]) for s in names)  # each runs a check
    if args.n_max < n_min:
        raise SystemExit2(f"--suite {args.suite} needs --n-max >= {n_min}")
    rec = _record("verify", {"suite": args.suite, "seed": args.seed, "trials": args.trials,
                             "n_max": args.n_max}, not args.no_timestamp)
    for name in names:
        for c in verify.run(name, args.n_max, args.trials, args.seed):
            status = "PASS" if c["passed"] else "FAIL"
            seconds = "" if args.no_timestamp else f" ({c['seconds']:.2f}s)"  # comparison mode
            print(f"[{name}] {c['name']}: {status}{seconds}")
            rec["results"].append(c)
    rec["pass"] = all(c["passed"] for c in rec["results"])
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
        form = _build(cf.CentralForm.make, a0, args.t)
        b = cf.central_to_embedded(form)
        rec["inputs"] = {"central": a0.tolist(), "t": args.t}
        rec["results"] = [
            {"method": "closed-form", "value": 0.0, "err": 0.0,
             "embedded": np.asarray(b.a).tolist(), "ksum": b.ksum}
        ]
    elif args.b is not None:
        b = _build(cf.Direction.make, _parse_vector(args.b), normalize=not args.exact_norm,
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
    ver.add_argument("--suite", choices=[*verify.SUITES, "all"], required=True)
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
