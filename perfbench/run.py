"""Closed-loop benchmark of the grassmann package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller, one thread: each op starts when the previous one returns.  The
package is imported from ``src/`` next to this directory and driven only
through its public functions.  Workloads (see BENCHMARK.json for why each
was chosen):

* ``scenes``: one in-process ``grassmann.cli.main`` call per op, cycling
  through fit9, check10 (on- and off-curve tenth point), third_point,
  tangent, tangent_third, is_flex and conic_sixth on seeded grid scenes.
* ``group_law``: ``group_add`` with the flex identity [0:0:1] on a 40-point
  pool of y^2 = x^3 + 17, in the criterion-09 mix of commutativity pairs and
  associativity triples.
* ``group_law_tall``: the same mix on the 40 multiples 12P..21P of four seed
  points (about 140 to 1400-bit coordinates).

Every op's result is checked against an answer computed without the
construction layer (see ``inputs.py``), outside the timed call.  Set-up
(``setup_s``) builds a workload's inputs, the scene files or the point pool,
with the package's ``poly`` and ``oracle`` functions only.

``--trace 0`` runs ops for ``--seconds`` and reports the end-to-end metrics,
with no tracing installed.  ``--trace 1`` runs a fixed number of ops (the
workload's ``traced_ops_per_second`` times ``--seconds``, so counts repeat
exactly for one seed), first untraced and then traced, and reports the
per-layer metrics and the ratio of traced to untraced time; the spans go to
``perfbench/out/``.

Times are scaled by a reference unit of package-free Fraction arithmetic
run just before and after each op and each set-up, because the speed of a
shared machine drifts by tens of percent within a run; the unscaled
figures are printed on the ``unscaled`` line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
WARMUP_OPS = 4
# Times are reported scaled to a machine on which one reference_unit() takes
# REF_MS milliseconds (about its time on an idle 2-core x86-64 VM under
# CPython 3.11): each op, and each set-up, is timed between two
# reference units and divided by their mean time.
REF_TERMS = 400
REF_MS = 1.0


def _import_package():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import grassmann
    except ImportError as exc:
        sys.exit(f"error: cannot import grassmann from {ROOT / 'src'}: {exc}")
    if not Path(grassmann.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"error: grassmann was imported from {grassmann.__file__}, not from src/")


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def reference_unit() -> Fraction:
    """Fixed exact arithmetic that never touches the package: a harmonic sum
    in Fractions, the kind of work the package spends most of its time in."""
    total = Fraction(0)
    for i in range(1, REF_TERMS):
        total += Fraction(1, i)
    return total


def _reference_time() -> float:
    t0 = time.perf_counter()
    reference_unit()
    return time.perf_counter() - t0


def _scaled(raw, refs):
    """Scale raw[i] by REF_MS over the mean of the reference times refs[i]
    and refs[i + 1] taken just before and after it, which cancels the
    machine's momentary speed."""
    scale = REF_MS / 1000
    return [t * scale / ((before + after) / 2) for t, before, after in zip(raw, refs, refs[1:])]


def _setup(workload, seed: int):
    """Set the workload up SETUP_REPEATS times; returns the raw and the
    scaled set-up times and the last set-up's ops."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = _reference_time()
        t0 = time.perf_counter()
        ops = workload.setup(seed, OUT)
        raw.append(time.perf_counter() - t0)
        scaled += _scaled(raw[-1:], [before, _reference_time()])
    return raw, scaled, ops


def _run_ops(ops, tracer=None, seconds=math.inf):
    """Run ops in order until they or the time run out, with a reference unit
    before and after each; returns per-op times, reference times, verdicts
    and a digest of every op's output ("n/a" if an op raised).  Drawing an
    op from ops is not timed."""
    times, refs, verdicts = [], [_reference_time()], []
    outputs, raised = hashlib.sha256(), False
    start = time.perf_counter()
    for op_id, op in enumerate(ops):
        if tracer:
            tracer.begin_op(op_id)
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # noqa: BLE001 - any raise is a failed op
            result, verdict = None, f"error: {type(exc).__name__}: {exc}"
        else:
            verdict = None
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.end_op()
        if result is None:
            raised = True
        else:
            verdict = op.check(result)
            outputs.update(op.digest_bytes(result) + b"\0")
        if verdict:
            print(f"op {op_id} {verdict}", file=sys.stderr)
        times.append(elapsed)
        refs.append(_reference_time())
        verdicts.append(verdict)
        if time.perf_counter() - start >= seconds:
            break
    return times, refs, verdicts, "n/a" if raised else outputs.hexdigest()


def _end_to_end(times, verdicts, setup_times) -> dict[str, float]:
    """ops_per_s counts completed ops over the time of all attempted ones;
    the op time quantiles are over completed ops."""
    done = [t for t, v in zip(times, verdicts) if v is None]
    if not done:
        sys.exit("error: no op completed")
    return {
        "ops_per_s": len(done) / sum(times),
        "op_p50_ms": 1000 * statistics.median(done),
        "op_p90_ms": 1000 * _quantile(done, 0.9),
        "setup_s": statistics.median(setup_times),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_package()
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)

    raw_setup, setup_times, ops = _setup(workload, args.seed)
    warm_verdicts = _run_ops(itertools.islice(ops, WARMUP_OPS))[2]

    if args.trace:
        count = max(1, round(workload.traced_ops_per_second * args.seconds))
        ops = list(itertools.islice(ops, count))
        plain, plain_refs, plain_verdicts, plain_digest = _run_ops(ops)
        with Tracer() as tracer:
            raw, refs, verdicts, digest = _run_ops(ops, tracer)
        tracer.write_spans(OUT / f"spans-{args.workload}.jsonl")
        # the traced pass must reproduce the untraced pass exactly
        if digest != plain_digest:
            verdicts = [v or "wrong: traced output differs" for v in verdicts]
        verdicts += plain_verdicts
        metrics = tracer.layer_metrics((REF_MS / 1000) / statistics.median(refs))
        metrics["trace.overhead_ratio"] = sum(_scaled(raw, refs)) / sum(
            _scaled(plain, plain_refs)
        )
        units = {}
    else:
        raw, refs, verdicts, digest = _run_ops(ops, seconds=args.seconds)
        metrics = _end_to_end(_scaled(raw, refs), verdicts, setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        unscaled = _end_to_end(raw, verdicts, raw_setup)
        unscaled["reference_ms"] = 1000 * statistics.median(refs)
        print(f"unscaled {json.dumps(unscaled)}")
        units = {
            "ops_per_s": "1/s",
            "op_p50_ms": "ms",
            "op_p90_ms": "ms",
            "setup_s": "s",
            "peak_rss_mb": "MB",
        }

    verdicts += warm_verdicts
    failed = sum(v is not None for v in verdicts)
    wrong = sum(bool(v) and v.startswith("wrong") for v in verdicts)
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(raw)} ops timed, {len(verdicts)} checked"
    )
    print(f"failed_ratio {failed / len(verdicts):.6f} ({failed} failed, {wrong} wrong verdicts)")
    print(f"outputs digest {digest}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units.get(name, _layer_unit(name))}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, _layer_unit(name))}
            for name, value in metrics.items()
        },
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith(".calls") or name == "constructions.rejected_selections":
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bits"):
        return "bit"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
