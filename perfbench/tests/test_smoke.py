"""Tiny-size runs of every workload through the benchmark's command."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT, seconds="0.5"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace),
         "--size", "tiny"],
        cwd=str(cwd), capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = run(workload, 0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # The summary names every metric, and the latency percentiles.
    for name in list(expected) + ["latency_p50_ms", "latency_p90_ms",
                                  "latency_p99_ms", "error_rate"]:
        assert any(line.split()[:1] == [name]
                   for line in proc.stdout.splitlines()), name


@pytest.mark.parametrize("workload", ["warm_replay", "serve_warm"])
def test_traced_warm_runs_partition_and_execute_nothing(workload):
    proc = run(workload, 1, seconds="1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["graphs.partition.calls"] == 0
    assert metrics["graphs.datasets.calls"] == 0
    assert metrics["eval.engine.executed_jobs"] == 0
    if workload == "warm_replay":
        assert metrics["artifacts.hit_ratio"] == 1.0
        assert metrics["artifacts.get.self_s"] > 0
    else:
        assert metrics["eval.journal.appends"] > 0
        assert metrics["serve.server_p50_ms"] > 0


def test_without_the_program_the_benchmark_fails_cleanly(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("cold_sweep", 0, cwd=tmp_path)
    assert proc.returncode not in (0, 1)
    assert '"correct"' not in proc.stdout
