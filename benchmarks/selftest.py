"""Self-tests of the benchmark.  Not part of the package's test suite:

    python3 -m pytest benchmarks/selftest.py

They check that inputs follow the seed, that the deterministic counters
repeat exactly, that cli-verify records are byte-identical in comparison
mode, and that the command prints the contract's JSON line, or fails
without one when the package source is missing.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import workloads  # noqa: E402
from simplex_sections.errors import DegeneratePolytope  # noqa: E402
from tracing import Recorder  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
DETERMINISTIC = ("calls", "vertices", "samples", "sections", "miss", "err_bound_miss", "errors")
LAYER_COUNTERS = DETERMINISTIC + ("self_s",)


def _build(name, seed, tmp_path, trace=False):
    rec = Recorder(trace)
    return workloads.build(name, seed, rec, tmp_path), rec


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_inputs_follow_the_seed(name, tmp_path):
    a, _ = _build(name, 7, tmp_path)
    b, _ = _build(name, 7, tmp_path)
    c, _ = _build(name, 8, tmp_path)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    assert a.regions == c.regions  # the seed moves values, not the op mix


def test_hard_regions_are_a_quarter_of_hyperplane_ops(tmp_path):
    wl, _ = _build("hyperplane-agreement", 1, tmp_path)
    hard = sum(op.region != workloads.GENERIC for op in wl.ops)
    assert 0.2 <= hard / len(wl.ops) <= 0.3
    assert {op.region for op in wl.ops} == {workloads.GENERIC, *workloads.HARD_REGIONS}


def _round_counts(name, seed, tmp_path, keep):
    wl, rec = _build(name, seed, tmp_path, trace=True)
    failures = [run._run_op(op, rec, j, traced=True)[1] for j, op in enumerate(wl.ops) if keep(op)]
    counts = {k: v for k, v in rec.counts.items() if k[1] in DETERMINISTIC}
    return counts, failures


@pytest.mark.parametrize("name,keep", [
    ("hyperplane-agreement", lambda op: op.klass in ("n3", "n4", "n5") or op.inputs[0] == 3),
    ("bound-scan", lambda op: True),
    ("kdim-agreement", lambda op: op.klass == "oracle" or op.inputs[:2] == (4, 2)),
])
def test_deterministic_counts_repeat(name, keep, tmp_path):
    first = _round_counts(name, 3, tmp_path, keep)
    second = _round_counts(name, 3, tmp_path, keep)
    assert first[0] and first == second


def test_cli_records_are_byte_identical(tmp_path):
    outs = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        wl, rec = _build("cli-verify", 5, tmp_path / sub)
        assert not any(run._run_op(op, rec, j, traced=False)[1] for j, op in enumerate(wl.ops))
        records = (tmp_path / sub).glob("verify-*.json")
        outs.append(sorted((p.name, p.read_bytes()) for p in records))
    assert len(outs[0]) == len(workloads.CLI_SUITES)
    assert outs[0] == outs[1]


def _bench(*args, cwd=ROOT):
    cmd = CONTRACT["command"] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_last_line_is_the_contract_json(trace, section):
    proc = _bench("--workload", "bound-scan", "--seed", "2", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    want = {m["name"]: m["unit"] for m in CONTRACT[section]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want


def test_per_layer_names_are_real_functions_and_counters():
    # run.per_layer reads these names; a misspelt one would report 0
    for metric in CONTRACT["per_layer"]:
        module, rest = metric["name"].split(".", 1)
        if module == "bench":
            assert rest in ("ops", "sections", "failed", "trace_overhead_s")
            continue
        function, counter = rest.split(".")
        assert counter in LAYER_COUNTERS, metric["name"]
        if module == "cli":
            assert function.removeprefix("verify_") in workloads.CLI_SUITES
        else:
            assert callable(getattr(getattr(workloads, "cf" if module == "closed_form"
                                            else module), function))


def test_per_layer_counts_repeat_between_runs():
    runs = []
    for _ in range(2):
        proc = _bench("--workload", "bound-scan", "--seed", "4", "--seconds", "1", "--trace", "1")
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        runs.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert runs[0] == runs[1]


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in CONTRACT["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "bound-scan", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_only_known_defects_keep_a_run_correct():
    def op(action):
        return workloads.Op("k", workloads.GENERIC, 1, (), action)

    def raise_outside_layers(rec):
        raise ValueError("check code broke")

    def degenerate(rec):
        rec.call("oracle.polytope_volume", oracle_raises)

    def oracle_raises():
        raise DegeneratePolytope("test")

    wl = workloads.Workload("fake", [
        op(lambda rec: rec.miss("closed_form.residue_volume")),
        op(lambda rec: None),
        op(lambda rec: rec.miss("quadrature.hyperplane_volume_quadrature")),
        op(raise_outside_layers),
        op(degenerate),
        workloads.Op("k", "near-zero", 1, (), degenerate),
        workloads.Op("k", "tie-pair", 1, (), degenerate),  # known on near-zero only
    ], p50_class="k")
    m = run.Measurement(wl, workloads.KNOWN_DEFECTS)
    for _ in range(3):  # counts are per round, not summed over rounds
        m.run_round(Recorder(False))
    assert (m.attempted, m.failed, sorted(m.unexpected)) == (7, 6, [2, 3, 4, 6])
    assert m.failures()["k/generic/bench:ValueError"] == 1


@pytest.mark.parametrize("region", [workloads.GENERIC, *workloads.HARD_REGIONS])
def test_a_broken_residue_is_not_a_known_defect(region, tmp_path):
    wl, _ = _build("hyperplane-agreement", 1, tmp_path)
    op = next(op for op in wl.ops if op.klass == "n3" and op.region == region)
    factor = 1.0 + 2.0 * workloads.RESIDUE_MISS_CEILING[region]
    real = workloads.cf.residue_volume
    try:
        workloads.cf.residue_volume = lambda a: type(real(a))(
            value=real(a).value * factor, method="residue")
        _, failures = run._run_op(op, Recorder(False), 0, traced=False)
    finally:
        workloads.cf.residue_volume = real
    assert "closed_form.residue_volume" in failures
    assert not workloads.KNOWN_DEFECTS[region].issuperset(failures)
