"""One workload process: set up, report ready, then measure if asked.

Started by run.py with ``src`` on PYTHONPATH. Messages to the parent are
JSON lines on stdout carrying a "perfbench" key; deltader's own console
output is captured inside each operation. An untraced process samples the
host's speed on a timer while it sets up and measures (see calibrate.py).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing
from calibrate import Sampler
from stats import tail_percentile
from workloads import WORKLOADS, load_reference


def _send(kind: str, **payload) -> None:
    print(json.dumps({"perfbench": kind, **payload}), flush=True)


def _timings(latencies, wall, cpu, top_latency) -> dict:
    pct, tail = tail_percentile(latencies)
    timings = {"wall": wall, "cpu": cpu, "p50": statistics.median(latencies), "tail": tail}
    if top_latency is not None:
        timings["top"] = top_latency(latencies)
    return timings


def _pass_record(workload, intervals, outputs, span, cpu, sampler) -> dict:
    """Checks, and the pass's timings: "raw" as measured, less the calibration
    points inside, and, when ``sampler`` ran, "ref" scaled to the reference host."""
    ok = workload.check(outputs)
    top = getattr(workload, "top_latency", None)
    if sampler is None:
        latencies, wall = [end - start for start, end in intervals], span[1] - span[0]
    else:
        latencies = [sampler.wall(*interval) for interval in intervals]
        wall, cpu = sampler.wall(*span), sampler.cpu(*span, cpu)
    record = {
        "ops": len(ok),
        "failed": ok.count(False),
        "tail_pct": tail_percentile(latencies)[0],
        "samples": len(latencies),
        "raw": _timings(latencies, wall, cpu, top),
    }
    if sampler is not None:
        k = sampler.scale(*span)
        scaled = [t * sampler.scale(*interval) for t, interval in zip(latencies, intervals)]
        record["ref"] = _timings(scaled, k * wall, k * cpu, top)
        record["scale"] = k
    return record


def timed_pass(workload, number: int, sampler=None, tracer=None) -> dict:
    """One pass; with a running ``sampler``, between calibration points."""
    gc.collect()  # garbage left by the previous pass's checks is not this pass's cost
    if tracer is not None:
        tracer.install()
        tracer.begin_phase()
    if sampler is not None:
        sampler.take()
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        intervals, outputs = workload.run_pass(number)
        wall1, cpu = time.perf_counter(), time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.remove()
    if sampler is not None:
        sampler.take()
    return _pass_record(workload, intervals, outputs, (wall0, wall1), cpu, sampler)


def measure(workload, sampler, seconds: float) -> list:
    """Untraced passes, started while less than ``seconds`` have gone by."""
    start = time.perf_counter()
    passes = []
    sampler.start()
    try:
        while time.perf_counter() - start < seconds:
            passes.append(timed_pass(workload, len(passes), sampler))
    finally:
        sampler.stop()
    return passes


def measure_traced(workload, tracer, setup_phase, seconds: float) -> dict:
    """Alternate untraced and traced passes, at least two of each.

    Every pass is pass 0 of the workload, so traced counters can be compared.
    No calibration point is taken, so none lands inside a span.
    """
    start = time.perf_counter()
    plain, traced = [], []
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        plain.append(timed_pass(workload, 0))
        traced.append(timed_pass(workload, 0, tracer=tracer))
    per_pass = [tracing.layer_metrics([setup_phase, phase]) for phase in tracer.phases[1:]]
    layers, unstable = tracing.summarize(per_pass)
    layers["tracing.overhead_s"] = statistics.median(p["raw"]["wall"] for p in traced) - statistics.median(
        p["raw"]["wall"] for p in plain
    )
    layers = {k: {"value": v, "unit": tracing.LAYER_UNITS[k]} for k, v in layers.items()}
    return {"passes": plain + traced, "layers": layers, "unstable_counters": unstable}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args()

    args.workdir.mkdir(parents=True, exist_ok=True)
    # An untraced set-up is sampled on the timer; a traced one takes a single
    # point after it is ready, which no run uses.
    sampler = Sampler()
    if not args.trace:
        sampler.start()
    try:
        reference = load_reference()
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            setup_phase = tracer.begin_phase()
        try:
            workload = WORKLOADS[args.workload](args.seed, args.workdir, reference)
        finally:
            sampler.stop()
            if tracer is not None:
                tracer.remove()
        _send("ready", inputs=workload.inputs)
        # Set-up points and one more taken now give the set-up's scale.
        paused = sum(e - s for s, e in zip(sampler.starts, sampler.ends))
        sampler.take()
        calibration = {"paused": paused, "scale": statistics.mean(sampler.scales)}
        if hasattr(workload, "setup_top_latency"):
            interval = workload.setup_top_latency()
            raw = sampler.wall(*interval)
            calibration["top"] = {"raw": raw, "ref": raw * sampler.scale(*interval)}
        _send("calibration", **calibration)
        if sys.stdin.readline().strip() != "measure":
            return 0
        if tracer is None:
            result = {"passes": measure(workload, sampler, args.seconds)}
        else:
            result = measure_traced(workload, tracer, setup_phase, args.seconds)
            tracer.write(args.spans)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        _send("result", **result)
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
