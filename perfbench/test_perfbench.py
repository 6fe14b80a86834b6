"""The benchmark's own tests, at the smoke size.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload, seed=3, trace=0, cwd=ROOT, smoke=True):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_verified(workload):
    result = _result(_run(workload))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = _result(_run(workload, trace=1))
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared


def test_accounting_metrics_repeat_exactly_for_a_seed():
    first = _result(_run(WORKLOADS[0], seed=5))["metrics"]
    second = _result(_run(WORKLOADS[0], seed=5))["metrics"]
    for name in ("repair_read_amplification", "sim_xrack_MB_per_block"):
        assert first[name]["value"] == second[name]["value"]


def test_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
