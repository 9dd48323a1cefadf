"""Every workload runs at toy size, traced and untraced, with zero failed
operations and outputs that pass every check."""

import json
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH

ROOT = BENCH.parent
WORKLOADS = ["file-solve", "serve-mixed", "sharded-query", "delta-stream"]


def run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run(workload, trace):
    out = run(["--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--size", "toy"])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    command exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    out = run(["--workload", "file-solve", "--seed", "1", "--seconds", "1",
               "--trace", "0"], cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
