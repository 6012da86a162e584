"""Smoke tests of the benchmark itself: every workload at tiny sizes, with
tracing off and on.

    python3 -m pytest bench/test_smoke.py

They check the output contract (the metrics of BENCHMARK.json with their
units, the named metrics of each workload, every correctness check run and
passed), not performance.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

# Every workload run.py knows; BENCHMARK.json lists the ones the benchmark gates.
CHECKS = {
    "fit_csv": ["exit_code_zero", "estimate_near_truth", "matches_layer_calls"],
    "table_sim": ["no_failed_replicates", "table1_means_near_truth", "table2_means_near_truth",
                  "table3_means_near_truth"],
    "resample": ["exit_code_zero", "no_failed_bootstrap_replicates", "no_failed_sweep_replicates",
                 "bootstrap_se_near_if_se", "sweep_zero_is_sn_ipw"],
}
WORKLOADS = list(CHECKS)
NAMED = {
    "fit_csv": {"fit_p50_s": "s"},
    "table_sim": {"table1_ms_per_rep": "ms", "table2_ms_per_rep": "ms", "table3_ms_per_rep": "ms"},
    "resample": {"boot_reps_per_s": "1/s", "sweep_reps_per_s": "1/s"},
}


def bench(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def test_spec_lists_only_workloads_run_py_knows():
    assert {w["name"] for w in SPEC["workloads"]} <= set(CHECKS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for name in CHECKS[workload]:
        assert any(line.startswith(f"check {name}: PASS ") for line in lines)
    assert sum(line.startswith("check ") for line in lines) == len(CHECKS[workload])
    assert any(line.startswith("failed_frac = 0.0 ratio") for line in lines)
    if trace:
        spans = os.path.join(ROOT, ".bench_out", f"spans-{workload}-seed3.jsonl")
        with open(spans) as fh:
            first = json.loads(fh.readline())
        assert set(first) == {"id", "name", "start", "end", "parent", "self"}
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        for name, unit in NAMED[workload].items():
            line = next(line for line in lines if line.startswith(f"{name} = "))
            assert line.split()[3] == unit


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench(str(tmp_path), SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
