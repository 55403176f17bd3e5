#!/usr/bin/env python3
"""Builds pvr_e2e from this checkout and runs one workload of it.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object: whether every output
was verified, the ops attempted and failed, and the metrics BENCHMARK.json
lists -- its end_to_end metrics with --trace 0, its per_layer metrics with
--trace 1. Exits non-zero, printing no result, when the build or the run
fails. The build lives in build-e2e/ and results in bench_out/e2e/.
"""
import argparse
import fcntl
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-e2e")
OUT = os.path.join(ROOT, "bench_out", "e2e")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kwargs):
    """Runs cmd in a process group of its own and returns its exit code, or
    None after killing the whole group (compilers included) on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    # Concurrent runs in one checkout share the build; the lock serializes it.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        generated = ("build.ninja", "Makefile")
        if not any(os.path.exists(os.path.join(BUILD, f)) for f in generated):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", BUILD, "-j4"])
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        with open(log_path, "w") as log:
            for cmd in steps:
                code = run(cmd, max(1.0, deadline - time.monotonic()),
                           stdout=log, stderr=subprocess.STDOUT)
                if code != 0:
                    log.flush()
                    with open(log_path) as f:
                        tail = f.read()[-4000:]
                    fail(f"{' '.join(cmd)} failed ({code}):\n{tail}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    build()

    result_path = os.path.join(
        OUT, args.workload + (".traced.json" if args.trace else ".json"))
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [os.path.join(BUILD, "pvr_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--out", OUT]
    if args.trace:
        cmd.append("--traced")
    sys.stdout.flush()
    # Exit code 1 means "ran, but some output failed verification": the
    # result file still says which, and is reported as correct: false.
    code = run(cmd, RUN_TIMEOUT_S)
    if code is None:
        fail(f"pvr_e2e did not finish within {RUN_TIMEOUT_S} s")
    if code not in (0, 1) or not os.path.exists(result_path):
        fail(f"pvr_e2e exited with {code} and no result")
    with open(result_path) as f:
        result = json.load(f)

    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        got = result["metrics"].get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(
                got["value"]):
            fail(f"metric {m['name']} is missing or not finite")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} is in {got['unit']}, not {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": bool(result["correct"]) and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
