"""One benchmark process: set up, run timed passes, print one JSON line.

Started by run.py as a fresh interpreter, so lru caches and per-space
caches start empty.  The argument is a JSON object with the keys
workload, seed, job, budget_s, trace, src and out_dir.  The process
runs passes of the workload until `budget_s` has elapsed (at least one
pass) and prints its measurements as the last line of standard output.

The set-up and every pass are bracketed by calibration kernels; the
reported times are scaled to the reference speed (see calibration.py)
and the raw times are reported beside them.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from calibration import REFERENCE_S, kernel_seconds


def _cache_hits(load, nonequiv) -> tuple[int, int]:
    ring = nonequiv.TruncatedRing
    constructors = [getattr(ring, name) for name in dir(ring)
                    if hasattr(getattr(ring, name), "cache_info")]
    return (load.cache_info().hits,
            sum(c.cache_info().hits for c in constructors))


def main(config: dict) -> dict:
    src = Path(config["src"]).resolve()
    sys.path.insert(0, str(src))
    recorder = None
    kernel_before = kernel_seconds()
    start = perf_counter()
    import quadrics
    from quadrics import engine, nonequiv, presentation
    if Path(quadrics.__file__).resolve().parent != src / "quadrics":
        raise SystemExit(f"imported quadrics from {quadrics.__file__}, "
                         f"not from {src}")
    load = presentation.load_presentation  # keeps cache_info once wrapped
    if config["trace"]:
        from tracing import Recorder
        recorder = Recorder()
        recorder.install()
    from workloads import WORKLOADS, failure_kind
    workload = WORKLOADS[config["workload"]]()
    state = workload.setup()
    setup_raw_s = perf_counter() - start
    kernel_after = kernel_seconds()
    setup_scale = 2 * REFERENCE_S / (kernel_before + kernel_after)

    if recorder is not None:
        recorder.phase = "harness"
    prepared = workload.prepare(state)
    rng = random.Random(f"{config['seed']}:{config['job']}")
    hits_before = _cache_hits(load, nonequiv)
    passes, raw_passes, scales, latencies = [], [], [], []
    outcomes: dict[str, Counter] = defaultdict(Counter)
    examples: dict[str, str] = {}
    deadline = perf_counter() + config["budget_s"]
    while not passes or perf_counter() < deadline:
        pass_latencies = []
        for item in workload.draw(rng, prepared):
            if recorder is not None:
                recorder.op += 1
                recorder.phase = "timed"
            error = None
            t0 = perf_counter()
            try:
                result = workload.run(item)
            except Exception as err:  # an op that raises is a counted failure
                error = err
            elapsed = perf_counter() - t0
            if recorder is not None:
                recorder.phase = "harness"
            pass_latencies.append(elapsed)
            kind = failure_kind(error) if error else workload.check(item, result)
            label = workload.label(item)
            outcomes[label][kind] += 1
            if kind != "ok" and kind not in examples:
                examples[kind] = f"{label}: {error}" if error else label
        kernel_before, kernel_after = kernel_after, kernel_seconds()
        scale = 2 * REFERENCE_S / (kernel_before + kernel_after)
        scales.append(scale)
        raw_passes.append(sum(pass_latencies))
        passes.append(raw_passes[-1] * scale)
        latencies += [x * scale for x in pass_latencies]
    hits_after = _cache_hits(load, nonequiv)

    report = {
        "setup_s": setup_raw_s * setup_scale,
        "setup_raw_s": setup_raw_s,
        "passes": passes,
        "raw_passes": raw_passes,
        "scales": scales,
        "latencies": latencies,
        "outcomes": {label: dict(c) for label, c in outcomes.items()},
        "examples": examples,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "step_bound": engine.DEFAULT_STEP_BOUND,
        "step_bound_env": os.environ.get("QUADRICS_STEP_BOUND"),
    }
    if recorder is not None:
        report["layers"] = recorder.layer_totals("timed")
        report["setup_layers"] = recorder.layer_totals("setup")
        report["counts"] = {
            **recorder.counts,
            "presentation.load.cache_hits": hits_after[0] - hits_before[0],
            "nonequiv.ring_build.cache_hits": hits_after[1] - hits_before[1],
        }
        out_dir = Path(config["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        spans = out_dir / (f"spans-{config['workload']}-{config['seed']}"
                           f"-{config['job']}.tsv")
        recorder.write_spans(spans)
        report["spans_file"] = str(spans)
    return report


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
