"""Benchmark of simplex-sections: four seeded workloads, checked op by op.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from the `src` directory next to
this one, never from an installed copy.  One process, one caller, closed
loop, single-threaded (BLAS is pinned to one thread).  Set-up (imports,
input generation from the seed, warm-up) runs in this process and in four
more child processes, and `setup_s` is the median of the five.  Then whole
rounds of the workload's fixed ops run until the next round would pass
`--seconds`.

With `--trace 0` the last stdout line is a JSON object with the end-to-end
metrics.  With `--trace 1` each op runs untraced and then traced, and the
line holds the per-layer metrics.  Lines before it are a readable report, and the full
report (machine info, speed probe, sample counts, failures by region) is
written to `benchmarks/out/`.  See benchmarks/README.md.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# single-threaded BLAS, fixed before numpy is first imported
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
WORKLOADS = ("hyperplane-agreement", "bound-scan", "kdim-agreement", "cli-verify")

CONTRACT = HERE.parent / "BENCHMARK.json"  # names the per-layer metrics


class SetupError(Exception):
    """The checkout cannot run the benchmark (no package source, bad child)."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import simplex_sections from this checkout's src directory."""
    if not (SRC / "simplex_sections" / "__init__.py").is_file():
        raise SetupError(f"package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import simplex_sections

    if Path(simplex_sections.__file__).resolve().parent != SRC / "simplex_sections":
        raise SetupError(f"imported {simplex_sections.__file__}, not the checkout's copy")


def setup(name: str, seed: int, trace: bool):
    """Import, generate the inputs from the seed and warm up; seconds since start."""
    import_package()
    import workloads
    from tracing import Recorder

    OUT.mkdir(exist_ok=True)
    rec = Recorder(trace)
    wl = workloads.build(name, seed, rec, OUT)
    return wl, rec, time.perf_counter() - _T0


def child_setup_seconds(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def speed_probe() -> float:
    """Milliseconds for a fixed pure-Python loop, best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": min(BLAS_THREADS, nproc),
        "platform": platform.platform(),
    }


class Measurement:
    """Round-by-round results of one run."""

    def __init__(self, wl, known_defects):
        self.wl = wl
        self.known_defects = known_defects
        self.op_seconds = [[] for _ in wl.ops]  # untraced runs only
        self.walls: list[float] = []  # per round
        self.overheads: list[float] = []  # traced runs: per round
        # op index -> "class/region/failures", for ops that failed in any round
        self.failed_ops: dict[int, str] = {}
        self.unexpected: set[int] = set()  # failed ops with a failure outside known_defects

    @property
    def attempted(self) -> int:
        """Ops per round: every round runs the same ops, so `attempted`,
        `failed` and `fail_share` depend on the seed and the code, not on how
        many rounds fit in the run."""
        return len(self.wl.ops)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def failures(self) -> dict[str, int]:
        """Failed ops per "class/region/failures"."""
        return dict(collections.Counter(self.failed_ops.values()))

    def run_round(self, rec, plain=None) -> None:
        """Run every op once.  With `plain` (traced runs), each op runs first
        untraced on `plain` and then traced on `rec`, back to back, so the
        machine's speed is the same for both and their difference is the
        tracing overhead."""
        start = time.perf_counter()
        overhead = 0.0
        for j, op in enumerate(self.wl.ops):
            if plain is None:
                dt, failures = _run_op(op, rec, j, traced=False)
                self.op_seconds[j].append(dt)
            else:
                untraced, _ = _run_op(op, plain, j, traced=False)
                dt, failures = _run_op(op, rec, j, traced=True)
                overhead += dt - untraced
            rec.count("bench", "ops")
            rec.count("bench", "sections", op.sections)
            if failures:
                rec.count("bench", "failed")
                if not self.known_defects.get(op.region, frozenset()).issuperset(failures):
                    self.unexpected.add(j)
                self.failed_ops[j] = f"{op.klass}/{op.region}/{'+'.join(sorted(set(failures)))}"
        self.walls.append(time.perf_counter() - start)
        if plain is not None:
            self.overheads.append(overhead)


def _run_op(op, rec, j: int, traced: bool):
    """Seconds the op took, and its failures: missed checks and raised calls."""
    rec.begin_op(j)
    t0 = time.perf_counter()
    try:
        if traced:
            with rec.span(f"bench.op.{op.klass}"):
                op.run(rec)
        else:
            op.run(rec)
    except Exception as exc:  # an op that raises is a failed op; keep running
        if exc is not rec.last_raised:  # raised by the benchmark's own code
            rec.op_failures.append(f"bench:{type(exc).__name__}")
    return time.perf_counter() - t0, rec.op_failures


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(wl, rec, seconds: float, trace: bool):
    """Run whole rounds until the next one would end after `seconds`.

    Traced runs also return, for each round, its counter delta and the
    index range of its spans.
    """
    from tracing import Recorder
    from workloads import KNOWN_DEFECTS

    m = Measurement(wl, KNOWN_DEFECTS)
    plain = Recorder(trace=False) if trace else None
    traced_rounds = []
    start = time.perf_counter()
    while True:
        before, first_span = dict(rec.counts), len(rec.spans)
        m.run_round(rec, plain)
        if trace:
            delta = {k: v - before.get(k, 0) for k, v in rec.counts.items()}
            traced_rounds.append((delta, first_span, len(rec.spans)))
        if time.perf_counter() - start + statistics.median(m.walls) > seconds:
            return m, traced_rounds


def end_to_end(m: Measurement, setup_s: float) -> tuple[dict, dict]:
    """Contract metrics, and the report-only ones."""
    wl = m.wl
    wall = sum(statistics.median(t) for t in m.op_seconds)
    p50_times = [t for op, ts in zip(wl.ops, m.op_seconds) if op.klass == wl.p50_class for t in ts]
    all_times = [t for ts in m.op_seconds for t in ts]
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "op_p50_ms": (statistics.median(p50_times) * 1e3, "ms"),
        "fail_share": (m.failed / m.attempted, "1"),
        "op_p50_samples": (len(p50_times), "count"),
        "ops_timed": (len(all_times), "count"),
        "rounds": (len(m.walls), "count"),
    }
    sections = sum(op.sections for op in wl.ops)
    if sections:
        extra["sections_per_s"] = (sections / wall, "1/s")
    if len(all_times) >= 100:  # ten or more samples beyond the percentile
        extra["op_p90_ms"] = (_percentile(all_times, 90) * 1e3, "ms")
    return metrics, extra


def per_layer(m: Measurement, rec, setup_counts: dict, traced_rounds) -> dict:
    """The per-layer metrics BENCHMARK.json names, `<function>.<counter>`,
    for one round plus the set-up calls: counts of the first traced round
    (every round runs the same ops), self time as the median over traced
    rounds."""
    delta, setup_end, _ = traced_rounds[0]
    counts = collections.Counter(setup_counts)
    counts.update(delta)
    setup_self = rec.self_seconds(0, setup_end)
    round_self = [rec.self_seconds(lo, hi) for _, lo, hi in traced_rounds]
    out = {}
    for metric in json.loads(CONTRACT.read_text())["per_layer"]:
        name, counter = metric["name"].rsplit(".", 1)
        if metric["name"] == "bench.trace_overhead_s":
            value = statistics.median(m.overheads)
        elif counter == "self_s":
            value = setup_self.get(name, 0.0) + statistics.median(
                r.get(name, 0.0) for r in round_self)
        else:
            value = counts[name, counter]
        out[metric["name"]] = (value, metric["unit"])
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        wl, rec, setup_main = setup(args.workload, args.seed, bool(args.trace))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_main}))
            return 0
        setup_times = [setup_main]
        if not args.trace:
            setup_times += [child_setup_seconds(args.workload, args.seed)
                            for _ in range(SETUP_SAMPLES - 1)]
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    info = machine_info()
    probe_start = speed_probe()
    setup_counts = dict(rec.counts)
    m, traced_rounds = measure(wl, rec, args.seconds, bool(args.trace))
    probe_end = speed_probe()

    if args.trace:
        metrics = per_layer(m, rec, setup_counts, traced_rounds)
        extra = {}
        rec.write_spans(OUT / f"spans-{args.workload}-{args.seed}.json")
    else:
        metrics, extra = end_to_end(m, statistics.median(setup_times))
    correct = not m.unexpected
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": info,
        "speed_probe_ms": {"start": probe_start, "end": probe_end},
        "setup_samples_s": setup_times, "inputs_sha256": wl.fingerprint(),
        "ops_per_round": len(wl.ops), "regions_per_round": wl.regions,
        "p50_class": wl.p50_class, "correct": correct, "attempted": m.attempted,
        "failed": m.failed, "failures": m.failures(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
    }
    (OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"# {args.workload} seed={args.seed} nproc={info['nproc']} python={info['python']} "
          f"numpy={info['numpy']} blas={info['blas']} threads={info['blas_threads']}")
    print(f"# speed probe {probe_start:.2f} ms -> {probe_end:.2f} ms; "
          f"rounds={len(m.walls)} ({'traced' if args.trace else 'untraced'}); "
          f"ops/round={len(wl.ops)}")
    for k, (v, u) in {**metrics, **extra}.items():
        print(f"{k:48s} {v:.6g} {u}")
    if m.failed_ops:
        print("# failed ops by class/region/failures:", json.dumps(m.failures(), sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": m.attempted, "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
