"""Record a baseline: every workload on several seeds, plus one traced run.

    python3 perfbench/baseline.py

Runs ``perfbench/run.py`` for ``run_seconds`` (from BENCHMARK.json) once per
workload and seed 1..10 with tracing off, then once per workload with
tracing on, one process at a time, and writes ``perfbench/BASELINE.json``.
For each end-to-end metric, scaled as reported and unscaled as printed on
the ``unscaled`` line, it records the median, the quartiles and the spread
(the distance between the quartiles over the median); it also records the
machine, the traced per-layer breakdown, and which end-to-end metric each
layer metric is expected to move.  Exits non-zero if any run gives a
wrong verdict; ops that fail without one are counted in the record.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
OUT = ROOT / "perfbench" / "BASELINE.json"

# which end-to-end metric each layer metric should move, on which workload
LAYER_MAP = [
    {
        "layer_metrics": ["core.*"],
        "moves": ["ops_per_s", "op_p50_ms"],
        "workloads": ["group_law", "group_law_tall", "scenes"],
        "note": "strongest on group_law, where most of group_add is Fraction arithmetic; "
        "on group_law_tall watch core.max_coord_bits; smaller on scenes",
    },
    {
        "layer_metrics": [
            "constructions.general_position_violation.calls",
            "core.bracket.calls",
            "constructions.fit_yield",
        ],
        "moves": ["ops_per_s", "op_p90_ms"],
        "workloads": ["group_law"],
        "note": "retries set the tail; scenes fits once per op, so a pool or selection "
        "cache should leave scenes unchanged; peak_rss_mb guards against a growing cache",
    },
    {
        "layer_metrics": ["expr.eval_symbolic.self_s", "poly.restrict_to_line.*"],
        "moves": ["op_p90_ms"],
        "workloads": ["scenes"],
        "note": "tangent_third and conic_sixth are the slowest commands; "
        "should barely touch group_law",
    },
    {
        "layer_metrics": ["poly.nullspace_fit.*", "oracle.*", "scene.*", "cli.main.self_s"],
        "moves": ["ops_per_s", "op_p50_ms", "op_p90_ms"],
        "workloads": ["scenes"],
        "note": "scenes only",
    },
    {
        "layer_metrics": ["generate"],
        "moves": ["setup_s"],
        "workloads": [],
        "note": "grassmann.generate is on no op path, and set-up builds the inputs with "
        "poly and oracle only, so no metric moves with it",
    },
]


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run's result and, untraced, its unscaled figures."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)} gave a wrong verdict:\n{proc.stdout}\n{proc.stderr}")
    if result["failed"]:
        print(f"{result['failed']} of {result['attempted']} ops failed:\n{proc.stderr}")
    unscaled = [line for line in proc.stdout.splitlines() if line.startswith("unscaled ")]
    return result, json.loads(unscaled[0][len("unscaled "):]) if unscaled else {}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
        "layer_map": LAYER_MAP,
    }
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in units}
        unscaled_values: dict[str, list[float]] = {}
        failed = {}
        for seed in SEEDS:
            result, unscaled = run(workload, seed, seconds, 0)
            failed[seed] = f"{result['failed']}/{result['attempted']}"
            for name in units:
                values[name].append(result["metrics"][name]["value"])
            for name, value in unscaled.items():
                unscaled_values.setdefault(name, []).append(value)
            print(workload, seed, {n: round(v[-1], 4) for n, v in values.items()}, flush=True)
        traced = run(workload, SEEDS[0], seconds, 1)[0]["metrics"]
        end_to_end = {}
        for name, vals in values.items():
            end_to_end[name] = {"unit": units[name], "bound": bounds[name], **summary(vals)}
            print(f"  {name}: median {end_to_end[name]['median']:.5g} "
                  f"spread {end_to_end[name]['spread']:.4f} (bound {bounds[name]})")
        unscaled_summary = {name: summary(vals) for name, vals in unscaled_values.items()}
        for name, stats in unscaled_summary.items():
            print(f"  unscaled {name}: median {stats['median']:.5g} spread {stats['spread']:.4f}")
        report["workloads"][workload] = {
            "failed_of_attempted": failed,
            "end_to_end": end_to_end,
            "unscaled": unscaled_summary,
            "per_layer": {
                "seed": SEEDS[0],
                "metrics": {n: m["value"] for n, m in traced.items()},
            },
        }
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
