"""Tests of the benchmark itself: the oracle, the tracer and the contract.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Job, KillingField  # noqa: E402

Z = KillingField(Fraction(3, 8), Fraction(-5, 16), Fraction(7, 32), Fraction(-9, 16))
Q0 = (0.203125, -0.328125, 0.140625)  # odd multiples of 1/64, as the workloads pick


def run_cli(argv: list[str]) -> tuple[int, dict]:
    import srkilling.cli as cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def small_grid(count: int = 3):
    return workloads._grid(random.Random(5), workloads.H1, count)


# ---------------------------------------------------------------------------
# Oracle.
# ---------------------------------------------------------------------------


def test_oracle_accepts_reconstruct_and_rejects_a_perturbed_field(in_tmp):
    (in_tmp / "gen.toml").write_text(Z.generator_text(Q0))
    spec, axes = small_grid()
    code, rep = run_cli(["reconstruct", "heisenberg:1", "--gen", "gen.toml", "--grid", spec, "--step", "0.05"])
    check = workloads.check_reconstruct(Z, axes)
    assert code == 0
    assert check(rep) is None
    rep["Z_coords"][13][2] += 1e-6
    assert "Z_coords differ" in check(rep)


def test_oracle_rejects_a_field_of_other_coefficients(in_tmp):
    (in_tmp / "gen.toml").write_text(Z.generator_text(Q0))
    spec, axes = small_grid()
    _, rep = run_cli(["reconstruct", "heisenberg:1", "--gen", "gen.toml", "--grid", spec, "--step", "0.05"])
    other = KillingField(Z.a, Z.b, Z.k, Z.r + Fraction(1, 64))
    assert workloads.check_reconstruct(other, axes)(rep) is not None


def test_oracle_accepts_prolong_endpoint_and_rejects_a_wrong_one(in_tmp):
    (in_tmp / "gen.toml").write_text(Z.generator_text(Q0))
    (in_tmp / "curve.toml").write_text(
        "[curve]\nt_range = 0 1\ngamma = (13/64) + (1/2)*t^2, (-21/64) - (3/4)*t, (9/64) + t\n"
    )
    end = (Q0[0] + 0.5, Q0[1] - 0.75, Q0[2] + 1.0)
    code, rep = run_cli(["prolong", "heisenberg:1", "--curve", "curve.toml", "--gen", "gen.toml", "--step", "0.01"])
    assert code == 0
    assert workloads.check_endpoint(Z, end)(rep) is None
    rep["c"] += 1e-7
    assert workloads.check_endpoint(Z, end)(rep) is not None


def test_oracle_accepts_verify_generator_at_first_point():
    spec, axes = small_grid()
    code, rep = run_cli(["verify", "heisenberg:1", "--field", Z.field_text(), "--grid", spec])
    assert code == 0
    first = (axes[0][0], axes[1][0], axes[2][0])
    assert workloads.check_verify(Z, first)(rep) is None
    rep["generator_at_first_point"]["A"][1][0] += 1e-6
    assert workloads.check_verify(Z, first)(rep) is not None


def test_oracle_rejects_a_wrong_dim_and_an_uncertified_one():
    check = workloads.check_dim(9)
    assert check({"dim_i": 9, "certified": True}) is None
    assert "dim_i is 8" in check({"dim_i": 8, "certified": True})
    assert check({"dim_i": 9, "certified": False}) is not None


def test_oracle_rejects_a_scan_dim_and_a_violation():
    check = workloads.check_scan(4, 3)
    assert check({"dims": [4, 4, 4], "semicontinuity_violations": 0}) is None
    assert check({"dims": [4, 5, 4], "semicontinuity_violations": 0}) is not None
    assert check({"dims": [4, 4, 4], "semicontinuity_violations": 1}) is not None
    assert check({"dims": [4, 4], "semicontinuity_violations": 0}) is not None


def test_judge_fails_on_exit_code_timeout_and_bad_output():
    job = Job("dim", ["dim"], workloads.check_dim(9))
    good = json.dumps({"dim_i": 9, "certified": True}).encode()
    assert workloads.judge(job, 0, good) is None
    assert workloads.judge(job, 3, good) == "exit code 3"
    assert workloads.judge(job, None, good) == "timed out"
    assert workloads.judge(job, 0, b"{not json") is not None


def test_path_check_oracle_uses_its_own_tolerance():
    assert workloads.check_path({"deviation": 2e-14, "pass": True}) is None
    assert workloads.check_path({"deviation": 2e-6, "pass": True}) is not None


def test_workloads_are_seeded_and_fixed_in_size():
    for name, make in workloads.WORKLOADS.items():
        a, b, c = make(11), make(11), make(12)
        assert [j.argv for j in a] == [j.argv for j in b]
        assert [j.files for j in a] == [j.files for j in b]
        assert [j.argv for j in a] != [j.argv for j in c], name
        assert [j.name for j in a] == [j.name for j in c]


# ---------------------------------------------------------------------------
# Tracer.
# ---------------------------------------------------------------------------


def small_jobs() -> list[Job]:
    """Cheap jobs touching every traced layer."""
    spec, axes = small_grid()
    return [
        Job("dim", ["dim", "heisenberg:1"], workloads.check_dim(4)),
        Job("scan", ["scan", "heisenberg:1", "--grid", spec], workloads.check_scan(4, 27)),
        Job("reconstruct", ["reconstruct", "heisenberg:1", "--gen", "gen.toml", "--grid", spec, "--step", "0.05"],
            workloads.check_reconstruct(Z, axes)),
        Job("verify-geometry", ["verify-geometry", "heisenberg:1", "--grid", spec], workloads._all_checks_pass),
    ]


def test_traced_run_reports_every_metric(in_tmp):
    (in_tmp / "gen.toml").write_text(Z.generator_text(Q0))
    import srkilling.cli as cli

    original = cli.eval_tensor
    passes = tracing.traced_passes(small_jobs(), in_tmp / "spans.jsonl")
    assert cli.eval_tensor is original  # wrappers removed

    names = [m for m, _, _ in tracing.METRICS]
    assert len(passes) == 2
    for p in passes:
        assert [r["error"] for r in p["results"]] == [None] * 4
        m = p["metrics"]
        assert list(m) == names
        for counted in ("killing.transport_calls", "killing.rk4_steps", "killing.svd_calls",
                        "killing.scan_points", "expr.compile_expression_calls", "connection.components",
                        "frame.decompose_calls", "report.bytes"):
            assert m[counted] > 0, counted
        assert m["killing.transport.stage_eval_s"] > 0
        assert m["killing.transport.rk4_s"] > 0
        assert m["killing.scan_points"] == 27
    assert passes[1]["metrics"]["expr.norm_cache_entries"] >= passes[0]["metrics"]["expr.norm_cache_entries"]
    lines = (in_tmp / "spans.jsonl").read_text().splitlines()
    assert len(lines) == sum(p["spans"] for p in passes)
    assert json.loads(lines[0])["name"] == tracing.ROOT_SPAN


def test_svd_outside_killing_is_booked_to_its_callers_layer(in_tmp):
    job = Job("check", ["check", "heisenberg:1"], workloads._all_checks_pass)
    passes = tracing.traced_passes([job], in_tmp / "spans.jsonl")
    assert [p["results"][0]["error"] for p in passes] == [None, None]
    assert [p["metrics"]["killing.svd_calls"] for p in passes] == [0, 0]
    assert [p["metrics"]["killing.svd_s"] for p in passes] == [0.0, 0.0]
    names = {json.loads(line)["name"] for line in (in_tmp / "spans.jsonl").read_text().splitlines()}
    assert "frame.svd" in names  # the frame rank check under load_structure
    assert tracing.SVD_SPAN not in names


def test_killing_checks_called_by_the_cli_are_not_cli_self_time():
    # On `verify --field` the CLI calls verify_killing, riemannian_extension_check
    # and a_z_matrix directly.  Unwrapped, their time would be cli self time:
    # about a third of the job; wrapped, cli keeps argument parsing and
    # point sampling, about an eighth.  The median over six passes rides out
    # single slow passes.
    spec, axes = small_grid()
    job = Job("verify", ["verify", "heisenberg:1", "--field", Z.field_text(), "--grid", spec],
              workloads.check_verify(Z, (axes[0][0], axes[1][0], axes[2][0])))
    shares = []
    for _ in range(3):
        for p in tracing.traced_passes([job]):
            assert p["results"][0]["error"] is None
            shares.append(p["metrics"]["cli.self_s"] / p["metrics"]["job_list_s"])
    assert statistics.median(shares) < 0.2, shares


def test_benchmark_json_names_every_traced_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    expected = [f"{p}.{m}" for p in ("cold", "warm") for m, _, _ in tracing.METRICS] + ["trace_overhead_s"]
    assert [m["name"] for m in bench["per_layer"]] == expected
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert set(e2e) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values()) <= 0.25


def test_run_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "symbolic", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
