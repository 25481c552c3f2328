#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the perfbench program (and the gofmm
library it measures) from source into .bench_build/ on first use, runs one
workload, and prints its result as one JSON object on the last line of
standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of an untraced run; --trace 1
reports the per-layer metrics of a traced run, and writes its spans (Chrome
trace-event JSON) and every layer figure of the workload to
.bench_build/traces/. The metric names printed must be exactly those
BENCHMARK.json lists for the mode. Everything the benchmark writes (build
tree, zoo matrix cache, traces) stays under .bench_build/.
Exit status is non-zero, with no result printed, when the build fails, the
workload crashes or times out, or its metrics are not the listed ones; it
is 1, with the result printed, when a correctness check fails.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("fmm_matvec", "ulv_solve", "hodlr_solve", "service_mix")
RUN_TIMEOUT_S = 170  # one run must end within 180 s


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_child(cmd, timeout=None, **kwargs):
    """Runs cmd to completion; on a timeout or any exit of this script
    (SIGTERM included) the child is killed and reaped first."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if run_child(cfg, stdout=sys.stderr)[0] != 0:
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    return run_child(cmd, stdout=sys.stderr)[0] == 0


def listed_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json lists for the mode."""
    with open(MANIFEST) as f:
        manifest = json.load(f)
    section = manifest["per_layer" if trace == "1" else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not build():
        log("build failed")
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(WORK, "traces")
        os.makedirs(traces, exist_ok=True)
        stem = os.path.join(traces, f"{args.workload}-seed{args.seed}")
        cmd += ["--trace-file", stem + ".json",
                "--layers-file", stem + ".layers.json"]
    env = dict(os.environ, GOFMM_CACHE_DIR=os.path.join(WORK, "zoo_cache"))
    try:
        status, out = run_child(cmd, timeout=RUN_TIMEOUT_S,
                                stdout=subprocess.PIPE, env=env, text=True)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 2
    lines = out.strip().splitlines()
    if status not in (0, 1) or not lines:
        log(f"{args.workload} exited with status {status}")
        return 2
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = listed_metrics(args.trace)
    finite = all(isinstance(v["value"], (int, float)) and
                 math.isfinite(v["value"]) for v in result["metrics"].values())
    if got != want or not finite:
        log(f"{args.workload} printed metrics {sorted(got.items())}, "
            f"BENCHMARK.json lists {sorted(want.items())}")
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] and status == 0 else 1


if __name__ == "__main__":
    # A terminated run still stops its build or workload child (run_child).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
