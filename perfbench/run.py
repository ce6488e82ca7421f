"""Benchmark of the quadrics engine: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload reproduce|products|solve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
Every measurement runs in fresh worker interpreters (worker.py), one at a
time, with QUADRICS_STEP_BOUND removed from their environment so the
program's default step bound applies.

reproduce runs one 46-command pass per worker until the time is used.
products and solve set up five workers in turn (one for a run shorter
than ten seconds), each timing passes of a fixed number of ops for a
fifth of the time.
With --trace 1 every worker is doubled by a traced twin, and the last
line carries the per-layer metrics instead of the end-to-end ones.

The report lines name every metric with its unit; the last line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where `failed` counts the ops that raised or gave a wrong answer and
`correct` is true only when there are none.  Times are scaled to the
reference speed of calibration.py; the report also prints them raw.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("reproduce", "products", "solve")
WARM_WORKERS = 5
WORKER_TIMEOUT_S = 100
TAIL_PERCENTILES = (50, 90, 99, 99.9, 99.99, 99.999)
# Ops per tail block.  A faster program fits more ops into a run; with a
# fixed block the tail percentile stays the same.
TAIL_BLOCK_OPS = {"reproduce": 138, "products": 128, "solve": 2048}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_COUNTS = ("nonequiv.ring_build.cache_hits", "presentation.load.cache_hits",
                "engine.multiply.step_bound_trips", "engine.solve.ambiguous",
                "engine.solve.ambiguous_raised", "engine.solve.unknowns",
                "engine.solve.rows")
SETUP_LAYERS = ("nonequiv.ring_build", "presentation.load")


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest tail percentile.

    The percentile is the highest of TAIL_PERCENTILES that leaves at least
    ten samples strictly beyond its nearest-rank position.  With fewer than
    twenty samples no percentile qualifies and the median is reported,
    with the (smaller) count beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)

    def rank(p):  # nearest rank, in exact arithmetic
        return max(1, math.ceil(Fraction(str(p)) * n / 100))

    chosen = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if n - rank(p) >= 10:
            chosen = p
    return chosen, ordered[rank(chosen) - 1], n - rank(chosen)


def block_tail(latencies: list[float], block: int) -> tuple[float, float, int, int]:
    """(percentile, median block tail, samples beyond per block, blocks).

    The ops are cut, in run order, into blocks of `block` ops (an
    incomplete last block is dropped unless it is the only one); each
    block's tail is its tail_percentile, and the median over blocks is
    reported.
    """
    blocks = [latencies[i:i + block]
              for i in range(0, len(latencies) - block + 1, block)] or [latencies]
    tails = [tail_percentile(b) for b in blocks]
    p, _, beyond = tails[0]
    return p, statistics.median(t[1] for t in tails), beyond, len(blocks)


def _run_worker(workload: str, seed: int, job: int, budget_s: float,
                trace: bool) -> dict:
    config = {"workload": workload, "seed": seed, "job": job,
              "budget_s": budget_s, "trace": int(trace),
              "src": str(ROOT / "src"), "out_dir": str(ROOT / ".bench_out")}
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("QUADRICS_STEP_BOUND", None)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
        env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {workload}/{job} exited with "
                           f"{proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _collect(workload: str, seed: int, seconds: float,
             trace: bool) -> tuple[list[dict], list[dict]]:
    """Run the workers; returns (untraced reports, traced reports)."""
    plain, traced = [], []
    start = perf_counter()
    if workload == "reproduce":
        job = 0
        last = 0.0
        # A pass is one cold worker; start another while it still fits.
        while not plain or perf_counter() - start + last <= seconds:
            t0 = perf_counter()
            plain.append(_run_worker(workload, seed, job, 0, False))
            if trace:
                traced.append(_run_worker(workload, seed, job, 0, True))
            last = perf_counter() - t0
            job += 1
        return plain, traced
    workers = WARM_WORKERS if seconds >= 10 else 1
    budget = seconds / workers / (2 if trace else 1)
    for job in range(workers):
        plain.append(_run_worker(workload, seed, job, budget, False))
        if trace:
            traced.append(_run_worker(workload, seed, job, budget, True))
    return plain, traced


def _ops_summary(reports: list[dict]) -> tuple[int, int, dict]:
    attempted = failed = 0
    by_space: dict[str, Counter] = {}
    for report in reports:
        for label, kinds in report["outcomes"].items():
            by_space.setdefault(label, Counter()).update(kinds)
            for kind, n in kinds.items():
                attempted += n
                failed += 0 if kind == "ok" else n
    return attempted, failed, {label: dict(c) for label, c in by_space.items()}


def end_to_end(reports: list[dict], workload: str) -> tuple[dict, dict]:
    """The end-to-end metrics of untraced workers, and details to print."""
    passes = [wall for r in reports for wall in r["passes"]]
    latencies = [x for r in reports for x in r["latencies"]]
    attempted, failed, _ = _ops_summary(reports)
    block = TAIL_BLOCK_OPS[workload]
    p, tail, beyond, n_blocks = block_tail(latencies, block)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "wall_s": statistics.median(passes),
        "ops_per_s": (attempted - failed) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": max(r["peak_rss_kb"] for r in reports) / 1024,
    }
    details = {
        "wall_s": f"median of {len(passes)} passes of "
                  f"{len(latencies) // len(passes)} ops",
        "op_tail_ms": f"p{p:g} of blocks of {min(block, len(latencies))} "
                      f"ops, {beyond} beyond it; median of {n_blocks} blocks",
        "setup_s": f"median of {len(reports)} workers",
    }
    return metrics, details


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    """Per-layer metrics averaged over traced passes, plus tracing overhead."""
    n_passes = sum(len(r["passes"]) for r in traced)
    metrics: dict[str, tuple[float, str]] = {}
    scales = [statistics.median(r["scales"]) for r in traced]
    for layer in LAYERS:
        calls = sum(r["layers"][layer][0] for r in traced)
        self_ns = sum(r["layers"][layer][1] * k for r, k in zip(traced, scales))
        metrics[f"{layer}.calls"] = (calls / n_passes, "count")
        metrics[f"{layer}.self_ms"] = (self_ns / n_passes / 1e6, "ms")
    for name in LAYER_COUNTS:
        total = sum(r["counts"].get(name, 0) for r in traced)
        metrics[name] = (total / n_passes, "count")
    for layer in SETUP_LAYERS:
        self_ns = [r["setup_layers"][layer][1] * k for r, k in zip(traced, scales)]
        metrics[f"setup.{layer}.self_ms"] = (statistics.median(self_ns) / 1e6, "ms")
    traced_wall = statistics.median(w for r in traced for w in r["passes"])
    plain_wall = statistics.median(w for r in plain for w in r["passes"])
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so the running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (ROOT / "src" / "quadrics" / "__init__.py").is_file():
        print(f"no package sources at {ROOT / 'src' / 'quadrics'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    try:
        plain, traced = _collect(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    attempted, failed, by_space = _ops_summary(plain + traced)
    metrics, details = end_to_end(plain, args.workload)
    first = plain[0]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {len(plain)} workers"
          + (f" + {len(traced)} traced" if traced else ""))
    print(f"# step bound {first['step_bound']} (QUADRICS_STEP_BOUND in the "
          f"workers: {first['step_bound_env'] or 'unset'})")
    for name, value in metrics.items():
        note = f"  ({details[name]})" if name in details else ""
        print(f"{name} {value:.6g} {END_TO_END_UNITS[name]}{note}")
    scales = [k for r in plain for k in r["scales"]]
    print(f"# unscaled: setup_s "
          f"{statistics.median(r['setup_raw_s'] for r in plain):.6g} s, wall_s "
          f"{statistics.median(w for r in plain for w in r['raw_passes']):.6g} s;"
          f" speed scale median {statistics.median(scales):.4g} "
          f"(range {min(scales):.4g} to {max(scales):.4g})")
    print(f"failed_frac {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} ops)")
    print("outcomes " + json.dumps(by_space, sort_keys=True))
    examples = {k: v for r in plain + traced for k, v in r["examples"].items()}
    if examples:
        print("first failures " + json.dumps(examples, sort_keys=True))
    if args.trace:
        layer_metrics = per_layer(traced, plain)
        for name, (value, unit) in layer_metrics.items():
            print(f"{name} {value:.6g} {unit}")
        print(f"spans written to {', '.join(r['spans_file'] for r in traced)}")
        out = {name: {"value": value, "unit": unit}
               for name, (value, unit) in layer_metrics.items()}
    else:
        out = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
