"""Same seed, same counts: the traced per-layer counts repeat exactly.

    python3 -m pytest perfbench/tests

Each workload runs twice in traced mode with one seed; every count the
trace reports, and the digest of every op's output, must be identical
across the two runs, and no op may fail.  One short untraced run per
workload must also report no failed op.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
COUNTS = ("constructions.fit_yield", "constructions.rejected_selections", "core.max_coord_bits")


def bench(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def counts(result: dict) -> dict:
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if name.endswith(".calls") or name in COUNTS
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, first_lines = bench(workload, 11, 1)
    second, second_lines = bench(workload, 11, 1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    assert counts(first) == counts(second)
    assert sum(counts(first).values()) > 0
    digest = [line for line in first_lines if line.startswith("outputs digest ")]
    assert digest and "n/a" not in digest[0]
    assert digest == [line for line in second_lines if line.startswith("outputs digest ")]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_has_no_failures(workload):
    result, _ = bench(workload, 12, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert all(m["value"] > 0 for m in result["metrics"].values())
