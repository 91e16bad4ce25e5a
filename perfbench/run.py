"""deltader benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload solve-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 30          # every workload in turn

Run from the repository root; the program is imported from ``src``. Each
workload runs in fresh single-threaded processes: at least three set-up
processes measure ``setup_s`` (interpreter start to inputs ready), and the
last of them goes on to measure passes for ``--seconds`` (a traced run
sets up once). With ``--trace 0`` the last line of stdout is a JSON object
with the end-to-end metrics, times scaled to a reference host speed (see
calibrate.py); with ``--trace 1`` it carries the per-layer metrics of a
traced run. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

from stats import summary

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
# The names of workloads.WORKLOADS; this process does not import deltader.
WORKLOADS = ("solve-ladder", "verify-all", "locality-queries")
RUN_LIMIT_S = 170  # every process of one workload run ends by then
# An untraced run starts set-up processes until it has MIN_SETUPS and they
# took SETUP_SECONDS together, or it has MAX_SETUPS; setup_s is their median.
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 3, 25, 2.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "ops_per_s": "1/s",
    "solve_top_s": "s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    """A workload process failed; no result is printed."""


def environment() -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "deltader").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


class Worker:
    """One workload process, killed if it outlives the run's deadline."""

    def __init__(self, name: str, args, deadline: float, index: int):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        tag = f"{name}-seed{args.seed}"
        argv = [
            sys.executable,
            str(HERE / "worker.py"),
            f"--workload={name}",
            f"--seed={args.seed}",
            f"--seconds={args.seconds}",
            f"--trace={args.trace}",
            f"--workdir={OUT / f'{tag}-{os.getpid()}-{index}'}",
            f"--spans={OUT / f'spans-{tag}.json'}",
        ]
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.watchdog = threading.Timer(max(deadline - time.monotonic(), 0), self.proc.kill)
        self.watchdog.daemon = True
        self.watchdog.start()

    def receive(self, kind: str) -> dict:
        for line in self.proc.stdout:
            try:
                message = json.loads(line)
            except ValueError:
                continue
            if isinstance(message, dict) and message.get("perfbench") == kind:
                return message
        raise BenchError(f"workload process ended without a {kind!r} message")

    def finish(self, command: str = "") -> None:
        """Send the last command; a process not told "measure" exits."""
        if self.proc.stdin.closed:
            return
        try:
            self.proc.stdin.write(command)
            self.proc.stdin.close()
        except BrokenPipeError:
            pass

    def close(self) -> int:
        try:
            self.finish()
            self.proc.stdout.close()
            return self.proc.wait()
        finally:
            self.watchdog.cancel()


def more_setups(setups: list) -> bool:
    if len(setups) < MIN_SETUPS:
        return True
    return len(setups) < MAX_SETUPS and sum(s["s"] for s in setups) < SETUP_SECONDS


def run_workload(name: str, args) -> dict:
    """Set up several times, measure in the last set-up process, aggregate."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    while True:
        started = time.perf_counter()
        worker = Worker(name, args, deadline, len(setups))
        try:
            ready = worker.receive("ready")
            seconds = time.perf_counter() - started
            calibration = worker.receive("calibration")
            paused = calibration.pop("paused")  # calibration points inside the set-up
            setups.append({"s": seconds - paused, **calibration, **ready})
            if not args.trace and more_setups(setups):
                continue
            worker.finish("measure\n")
            result = worker.receive("result")
        finally:
            if worker.close() != 0:
                raise BenchError(f"{name} process exited with code {worker.proc.returncode}")
        return {"setups": setups, **result}


def end_to_end(run: dict, calibrated: bool = True) -> dict:
    """Every end-to-end metric; times in reference seconds unless not ``calibrated``.

    Pass and set-up solve timings come scaled from the worker; a set-up's
    time is scaled here by its process's set-up scale.
    """
    kind = "ref" if calibrated else "raw"
    passes = [p[kind] for p in run["passes"]]
    setups = run["setups"]
    if "top" in passes[0]:
        tops = [p["top"] for p in passes]
    else:
        tops = [s["top"][kind] for s in setups]
    ops = [p["ops"] for p in run["passes"]]
    return {
        "wall_s": summary(p["wall"] for p in passes),
        "cpu_s": summary(p["cpu"] for p in passes),
        "ops_per_s": {
            **summary(n / p["wall"] for n, p in zip(ops, passes)),
            "value": sum(ops) / sum(p["wall"] for p in passes),
        },
        "solve_top_s": summary(tops),
        "query_p50_ms": summary(1000 * p["p50"] for p in passes),
        "query_p99_ms": summary(1000 * p["tail"] for p in passes),
        "peak_rss_mb": summary([run["peak_rss_mb"]]),
        "setup_s": summary(s["s"] * (s["scale"] if calibrated else 1.0) for s in setups),
    }


def report(name: str, args, env: dict, run: dict) -> dict:
    """Print the human-readable table and detail line; return the result."""
    passes = run["passes"]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        metrics = run["layers"]
    else:
        stats = end_to_end(run)
        metrics = {k: {**stats[k], "unit": END_TO_END_UNITS[k]} for k in END_TO_END_UNITS}
    tail = passes[0]
    print(
        f"== {name}  seed={args.seed}  trace={args.trace}  passes={len(passes)}  "
        f"ops={attempted}  failed_ops_frac={failed / attempted:.6g} ({failed}/{attempted})"
    )
    print(
        f"   query latency: {tail['samples']} samples per pass, tail = "
        f"p{tail['tail_pct']:.4g} ({'maximum' if tail['tail_pct'] == 100 else '10 samples beyond'})"
    )
    if not args.trace:
        print(f"   times are scaled to the reference host by {summary(p['scale'] for p in passes)['value']:.4g} (median)")
    for key, m in metrics.items():
        spread = f"  q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}" if "n" in m else ""
        print(f"   {key:<48} {m['value']:>14.6g} {m['unit']:<6}{spread}")
    if args.trace and run["unstable_counters"]:
        print(f"   counters that differ between traced passes: {run['unstable_counters']}")
    detail = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": run["setups"][-1]["inputs"],
        "env": env,
        "failed_ops_frac": failed / attempted,
        "pass_wall_s": [p["raw"]["wall"] for p in passes],
        "pass_cpu_s": [p["raw"]["cpu"] for p in passes],
        "metrics": metrics,
    }
    if args.trace:
        detail["unstable_counters"] = run["unstable_counters"]
    else:
        detail["pass_scale"] = [p["scale"] for p in passes]
        detail["setup_scale"] = [s["scale"] for s in run["setups"]]
        detail["unscaled"] = {k: m["value"] for k, m in end_to_end(run, calibrated=False).items()}
    print(json.dumps(detail))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "deltader" / "__init__.py").is_file():
        print(f"error: no deltader sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: report(name, args, env, run_workload(name, args)) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": m for name, r in results.items() for key, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
