"""Smoke test of the benchmark: every workload end to end at tiny size.

It keeps the harness, its generators and its output checks from rotting.
It has no timing bound.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_digests_repeat_for_a_seed():
    def digests():
        proc = _run(ROOT, "analyze-deep", 0)
        assert proc.returncode == 0, proc.stderr
        return [ln for ln in proc.stdout.splitlines() if ln.startswith("  digest ")]

    first = digests()
    assert first and first == digests()


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "build-zoo", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
