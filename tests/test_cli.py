import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from simplex_sections import cli

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "result_record.schema.json").read_text()
)


def run_cli(*argv):
    # the child imports the same source tree as this process, installed or not
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-m", "simplex_sections.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


def test_volume_known_value(tmp_path):
    out = tmp_path / "rec.json"
    proc = run_cli(
        "volume", "--n", "3", "--a", "0.5,0.5,-0.5,-0.5",
        "--methods", "residue,oracle", "--json", str(out), "--no-timestamp",
    )
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(out.read_text())
    jsonschema.validate(rec, SCHEMA)
    values = {r["method"]: r["value"] for r in rec["results"]}
    assert values["oracle"] == pytest.approx(0.5, abs=1e-12)
    assert values["residue"] == pytest.approx(0.5, abs=1e-9)
    assert rec["pass"] is True


def test_volume_special_max():
    proc = run_cli("volume", "--n", "4", "--special", "max",
                   "--methods", "residue", "--no-timestamp")
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    jsonschema.validate(rec, SCHEMA)
    want = math.sqrt(5) / (6 * math.sqrt(2))
    assert rec["results"][0]["value"] == pytest.approx(want, rel=1e-12, abs=0)


def _separable_basis_file(tmp_path):
    basis = {
        "n": 5,
        "basis": [
            (np.array([1, -1, 0, 0, 0, 0]) / math.sqrt(2)).tolist(),
            (np.array([0, 0, 1, -1, 0, 0]) / math.sqrt(2)).tolist(),
        ],
    }
    path = tmp_path / "h.json"
    path.write_text(json.dumps(basis))
    return path


def test_volume_basis_file(tmp_path):
    path = _separable_basis_file(tmp_path)
    proc = run_cli("volume", "--basis-file", str(path), "--methods", "oracle",
                   "--no-timestamp")
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout)
    jsonschema.validate(rec, SCHEMA)
    assert rec["results"][0]["vertex_count"] == 4
    assert rec["results"][0]["value"] == pytest.approx(math.sqrt(1.5) / 6, rel=1e-12, abs=0)


def test_volume_basis_file_codim2_all_methods(tmp_path):
    path = _separable_basis_file(tmp_path)
    proc = run_cli("volume", "--basis-file", str(path), "--methods", "oracle,quadrature,mc",
                   "--samples", "200000", "--seed", "3", "--no-timestamp")
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout)
    jsonschema.validate(rec, SCHEMA)
    assert rec["inputs"]["codim"] == 2
    assert [r["method"] for r in rec["results"]] == ["oracle", "quadrature", "mc"]
    assert [("vertex_count" in r) for r in rec["results"]] == [True, False, False]
    want = math.sqrt(1.5) / 6
    for r in rec["results"]:
        assert abs(r["value"] - want) <= max(3 * r["err"], 1e-5 * want)
    assert len(rec["agreement"]) == 3 and rec["pass"] is True


def test_volume_deterministic_bytes(tmp_path):
    args = ("volume", "--n", "4", "--a", "0.7,0.1,-0.3,-0.4,-0.1",
            "--methods", "residue,oracle,mc", "--samples", "50000",
            "--seed", "7", "--no-timestamp")
    out1 = run_cli(*args)
    out2 = run_cli(*args)
    assert out1.stdout == out2.stdout
    assert out1.returncode == 0


def test_volume_usage_error():
    proc = run_cli("volume", "--n", "3")
    assert proc.returncode == 2


def test_volume_numeric_error_exit_code():
    proc = run_cli("volume", "--n", "3", "--a", "1,1,1,1", "--methods", "residue",
                   "--no-timestamp")
    assert proc.returncode == 3


def test_sweep_frustum_csv():
    proc = run_cli("sweep", "--frustum", "--N", "5", "--grid", "21")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "x,volume"
    assert len(lines) == 22
    v0 = float(lines[1].split(",")[1])
    vhalf = float(lines[11].split(",")[1])
    assert v0 < vhalf  # the endpoint beats the midpoint for N = 5
    # 17 significant digits survive a round trip
    assert float(lines[1].split(",")[1]) == v0


def test_sweep_ratio_crosses_one():
    proc = run_cli("sweep", "--ratio", "--n", "5", "--grid", "40")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()[1:]
    ratios = [float(line.split(",")[1]) for line in lines]
    assert max(ratios) > 1.0
    assert min(ratios) < 1.0


def test_sweep_maxbound():
    proc = run_cli("sweep", "--maxbound", "--n", "6", "--K-grid", "0:1:0.25",
                   "--samples-per-k", "50", "--seed", "1")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "K,bound,best_sample"
    for line in lines[1:]:
        _, bound, best = (float(t) for t in line.split(","))
        assert best <= bound + 1e-10


def test_convert_roundtrip_values():
    proc = run_cli("convert", "--b", "1,0,0,0", "--no-timestamp")
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    jsonschema.validate(rec, SCHEMA)
    entry = rec["results"][0]
    assert abs(entry["t"]) == pytest.approx(1 / (2 * math.sqrt(3)), rel=1e-12, abs=0)
    assert entry["centroid_distance"] == pytest.approx(abs(entry["t"]), rel=1e-12, abs=0)


def test_bounds_outputs():
    proc = run_cli("bounds", "--n", "5", "--k", "3", "--no-timestamp")
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    jsonschema.validate(rec, SCHEMA)
    vals = {r["kind"]: r["value"] for r in rec["results"]}
    assert vals["sharp"] == pytest.approx(math.sqrt(6) / 4, rel=1e-12, abs=0)
    assert vals["general"] >= vals["sharp"]


def test_verify_formulas_suite(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("verify", "--suite", "formulas", "--n-max", "5",
                   "--trials", "200", "--seed", "3", "--out", str(out),
                   "--no-timestamp")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rec = json.loads(out.read_text())
    jsonschema.validate(rec, SCHEMA)
    assert rec["pass"] is True
    assert any(c["name"] == "closed_form_constants" for c in rec["results"])


def test_verify_irregular_suite():
    proc = run_cli("verify", "--suite", "irregular", "--n-max", "5",
                   "--no-timestamp")
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_verify_extremal_suite():
    proc = run_cli("verify", "--suite", "extremal", "--n-max", "4",
                   "--trials", "300", "--seed", "5", "--no-timestamp")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "verify: PASS" in proc.stdout


def test_verify_report_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        proc = run_cli("verify", "--suite", "kdim", "--n-max", "5",
                       "--trials", "20", "--seed", "9", "--out", str(path),
                       "--no-timestamp")
        assert proc.returncode == 0
    assert a.read_text() == b.read_text()


def test_env_var_seed(tmp_path, monkeypatch):
    # The child inherits the caller's environment, SIMPLEX_SECTIONS_SEED
    # included.
    argv = ("volume", "--n", "4", "--a", "0.7,0.1,-0.3,-0.4,-0.1",
            "--methods", "mc", "--samples", "20000", "--no-timestamp")
    monkeypatch.setenv("SIMPLEX_SECTIONS_SEED", "42")
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout)
    assert rec["results"][0]["value"] > 0
    # the variable must actually set the seed: same output as --seed 42
    monkeypatch.delenv("SIMPLEX_SECTIONS_SEED", raising=False)
    flag = run_cli(*argv, "--seed", "42")
    assert flag.returncode == 0, flag.stderr
    assert proc.stdout == flag.stdout


def test_env_var_seed_malformed(monkeypatch):
    argv = ("volume", "--n", "4", "--a", "0.7,0.1,-0.3,-0.4,-0.1",
            "--methods", "mc", "--samples", "2000", "--no-timestamp")
    monkeypatch.setenv("SIMPLEX_SECTIONS_SEED", "abc")
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "argument --seed: invalid int value" in proc.stderr
    # an explicit flag wins over the malformed variable
    assert run_cli(*argv, "--seed", "5").returncode == 0


def test_main_entry_direct():
    # in-process invocation for coverage of the main() wrapper
    rc = cli.main(["bounds", "--n", "4", "--K", "0.0", "--no-timestamp"])
    assert rc == 0
