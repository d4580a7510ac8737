import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from simplex_sections import cli, extremal, verify
from simplex_sections.errors import EmptySection

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


@pytest.mark.parametrize(
    "argv",
    [
        ["volume", "--n", "3", "--a", "0,0,0,0"],
        ["volume", "--n", "3", "--a", "1,inf,-1,0"],
        ["convert", "--b", "0.5,nan,-0.5,0.1"],
        ["convert", "--central", "0,0,0,0", "--t", "0.1"],
    ],
    ids=["volume-zero", "volume-inf", "convert-b-nan", "convert-central-zero"],
)
def test_degenerate_vector_is_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--no-timestamp"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flag, content, extra",
    [
        ("--a-file", {"n": 3}, []),
        ("--basis-file", {"n": 3}, []),
        ("--basis-file", {"basis": []}, []),
        ("--basis-file", {"basis": [[1, 1, 0, 0], [0, 1, 1, 0]]}, ["--exact-norm"]),
        ("--basis-file", {"basis": 3}, []),
        ("--a-file", "{not json", []),
        ("--basis-file", "{not json", []),
        ("--a-file", None, []),
        ("--basis-file", None, []),
    ],
    ids=["a-file-no-a", "basis-file-no-basis", "basis-file-empty", "basis-file-not-orthonormal",
         "basis-file-number", "a-file-not-json", "basis-file-not-json", "a-file-missing",
         "basis-file-missing"],
)
def test_bad_input_file_is_usage_error(tmp_path, flag, content, extra):
    path = tmp_path / "in.json"
    if content is not None:  # None leaves the path missing
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    with pytest.raises(SystemExit) as exc:
        cli.main(["volume", flag, str(path), "--methods", "oracle", *extra, "--no-timestamp"])
    assert exc.value.code == 2


def test_volume_mc_on_direction_agrees_with_residue(capsys):
    # mc on a direction is the cone estimator on its codim-1 basis: unbiased
    rc = cli.main(["volume", "--n", "3", "--a", "0.5,0.5,-0.5,-0.5", "--methods", "residue,mc",
                   "--samples", "200000", "--seed", "1", "--no-timestamp"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert [r["method"] for r in rec["results"]] == ["residue", "mc"]
    assert rec["agreement"][0]["agree"] is True
    assert abs(rec["results"][1]["value"] - 0.5) <= 3 * rec["results"][1]["err"]


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


def test_section_volumes_count_one_signed_rows_as_zero():
    # as the per-direction sweeps' EmptySection handler did
    a = np.array([[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, -0.5, -0.5], [0.5, 0.5, 0.5, 0.5]])
    assert extremal._section_volumes(a).tolist() == [0.0, 0.5, 0.0]


def test_sweep_maxbound_matches_per_direction_loop(capsys, monkeypatch):
    argv = ["sweep", "--maxbound", "--n", "5", "--K-grid", "0:1:0.25",
            "--samples-per-k", "30", "--seed", "2"]
    outputs = []
    for chunk in (4, cli.cf.DIRECTION_CHUNK):  # 4: each K spans several blocks
        monkeypatch.setattr(cli.cf, "DIRECTION_CHUNK", chunk)
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    rng = np.random.default_rng(2)
    for line, K in zip(outputs[0].strip().splitlines()[1:], (0.0, 0.25, 0.5, 0.75, 1.0)):
        best = 0.0
        for _ in range(30):
            a = cli.cf.random_direction_fixed_sum(5, K, rng)
            try:
                best = max(best, cli.cf.residue_volume(a).value)
            except EmptySection:
                pass
        assert float(line.split(",")[2]) == best


def _no_sampling(monkeypatch):
    def sampler(*args):
        raise AssertionError("sampled a direction")

    monkeypatch.setattr(extremal, "random_directions_fixed_sum", sampler)


def test_sweep_maxbound_rejects_negative_samples_before_sampling(capsys, monkeypatch):
    _no_sampling(monkeypatch)
    with pytest.raises(SystemExit) as got:
        cli.main(["sweep", "--maxbound", "--n", "4", "--samples-per-k", "-2"])
    assert got.value.code == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and "--samples-per-k" in err


@pytest.mark.parametrize("grid", ["0:1", "a:b:c", "0:1:0", "0:1:-0.1", "0:nan:0.1"])
def test_sweep_maxbound_rejects_malformed_K_grid_before_sampling(grid, capsys, monkeypatch):
    _no_sampling(monkeypatch)
    with pytest.raises(SystemExit) as got:
        cli.main(["sweep", "--maxbound", "--n", "4", "--K-grid", grid])
    assert got.value.code == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and f"--K-grid {grid!r}" in err


def test_sweep_maxbound_checks_every_K_before_sampling(capsys, monkeypatch):
    _no_sampling(monkeypatch)
    code = cli.main(["sweep", "--maxbound", "--n", "4", "--K-grid", "0:2:0.1"])
    assert code == cli.EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert out == "" and err == "numeric failure: OutOfRange: K=1.1 outside [0, 1]\n"


def _no_checks(monkeypatch):
    def check(*args):
        pytest.fail("ran a check")

    monkeypatch.setattr(verify, "SUITES", {name: tuple(c._replace(check=check) for c in checks)
                                           for name, checks in verify.SUITES.items()})


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_trials_below_one_is_usage_error(trials, capsys, monkeypatch):
    _no_checks(monkeypatch)
    with pytest.raises(SystemExit) as got:
        cli.main(["verify", "--suite", "kdim", "--n-max", "5", "--trials", trials])
    assert got.value.code == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and "--trials must be >= 1" in err


@pytest.mark.parametrize("suite, n_max", [
    ("kdim", "3"), ("all", "3"), ("all", "1"),
    ("formulas", "2"), ("formulas", "-3"), ("extremal", "2"), ("irregular", "2"),
])
def test_verify_kdim_below_smallest_n_is_usage_error(suite, n_max, capsys, monkeypatch):
    # below n = 4 the kdim suite has no (n, k) pair to check: a vacuous PASS;
    # below n = 3 several checks of the other suites sample no n at all
    _no_checks(monkeypatch)
    with pytest.raises(SystemExit) as got:
        cli.main(["verify", "--suite", suite, "--n-max", n_max, "--trials", "5"])
    assert got.value.code == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    n_min = 4 if suite in ("kdim", "all") else 3
    assert out == "" and f"--suite {suite} needs --n-max >= {n_min}" in err


def _planted_failure(tmp_path, name):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--suite", "extremal", "--n-max", "4", "--trials", "100",
                     "--seed", "5", "--out", str(out), "--no-timestamp"])
    rec = json.loads(out.read_text())
    jsonschema.validate(rec, SCHEMA)
    assert code == cli.EXIT_COUNTEREXAMPLE and rec["pass"] is False
    check = next(c for c in rec["results"] if c["name"] == name)
    assert check["passed"] is False
    return check["detail"]


@pytest.mark.parametrize("chunk", [1, cli.cf.DIRECTION_CHUNK])
def test_verify_extremal_reports_planted_bound_violation(tmp_path, monkeypatch, chunk):
    # a bound 10% low, which several directions of the first cell exceed: the
    # witness is the first of them, found by the per-direction loop
    monkeypatch.setattr(cli.cf, "DIRECTION_CHUNK", chunk)
    real = cli.cf.max_noncentral_bound
    monkeypatch.setattr(cli.cf, "max_noncentral_bound",
                        lambda n, K: (0.9 * real(n, K)[0], real(n, K)[1]))
    detail = _planted_failure(tmp_path, "noncentral_bound_validity")
    rng = np.random.default_rng(5)
    want = None
    for n in (3, 4):
        for K in (0.0, 0.25, 0.5, 0.75, 1.0):
            for _ in range(200):
                a = cli.cf.random_direction_fixed_sum(n, K, rng)
                if want is None and cli.cf.residue_volume(a).value > 0.9 * real(n, K)[0] + 1e-10:
                    want = a.a.tolist()
    assert detail["witness"] == want


@pytest.mark.parametrize("chunk", [1, cli.cf.DIRECTION_CHUNK])
def test_verify_extremal_reports_planted_floor_violation(tmp_path, monkeypatch, chunk):
    # a face-parallel floor 1% high for the one-positive pattern check
    monkeypatch.setattr(cli.cf, "DIRECTION_CHUNK", chunk)
    real = cli.cf.special_min_volume
    monkeypatch.setattr(cli.cf, "special_min_volume", lambda n: 1.01 * real(n))
    detail = _planted_failure(tmp_path, "local_minimum_pattern")
    rng = np.random.default_rng(5 + 3)
    want = None
    for n in (3, 4):
        for _ in range(200):
            a = cli.cf.random_direction_sign_pattern(n, 1, rng)
            if want is None and cli.cf.residue_volume(a).value < 1.01 * real(n) - 1e-10:
                want = a.a.tolist()
    assert detail["witness"] == want


def test_verify_report_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        proc = run_cli("verify", "--suite", "kdim", "--n-max", "5",
                       "--trials", "20", "--seed", "9", "--out", str(path),
                       "--no-timestamp")
        assert proc.returncode == 0
    assert a.read_text() == b.read_text()


def test_verify_stdout_deterministic_in_comparison_mode():
    # comparison mode drops the check timings from stdout as from the record
    argv = ("verify", "--suite", "formulas", "--n-max", "4", "--trials", "5")
    first, second = (run_cli(*argv, "--no-timestamp") for _ in range(2))
    assert first.returncode == second.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    assert first.stdout.splitlines()[0] == "[formulas] closed_form_constants: PASS"
    timed = run_cli(*argv)
    assert timed.returncode == 0, timed.stderr
    assert re.fullmatch(r"\[formulas\] closed_form_constants: PASS \(\d+\.\d\ds\)",
                        timed.stdout.splitlines()[0])


def test_volume_witness_basis_file_oracle_and_quadrature_agree(tmp_path):
    # the paper's k-dim witness: its three slow ridges are sector edges, so
    # the quadrature meets the default tol and agrees with the oracle
    basis = extremal.conjectured_kdim_maximizer(5, 4)
    path = tmp_path / "witness.json"
    path.write_text(json.dumps({"n": 5, "basis": basis.vectors.tolist()}))
    proc = run_cli("volume", "--basis-file", str(path), "--methods", "oracle,quadrature",
                   "--no-timestamp")
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout)
    jsonschema.validate(rec, SCHEMA)
    o, q = rec["results"]
    assert abs(q["value"] - o["value"]) <= q["err"] + o["err"]
    assert rec["agreement"][0]["agree"] is True and rec["pass"] is True


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
