"""Smoke test of the benchmark itself, at tiny episode counts.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload once with tracing off and once with tracing on, and
checks that each run passes its output check and emits exactly the metrics
BENCHMARK.json names, with their units. Also checks that the benchmark
refuses to run where the wisv sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["problems"]
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert record["seed"] == 7 and record["digest"]


def test_refuses_without_sources():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert sorted(p.name for p in bare.iterdir()) == sorted(["BENCHMARK.json", *SPEC["paths"]])


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
