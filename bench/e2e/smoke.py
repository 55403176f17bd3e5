#!/usr/bin/env python3
"""Smoke test of pvr_e2e (ctest pvr_e2e_quick).

    smoke.py PVR_E2E OUT_DIR BENCHMARK_JSON

Runs every workload with --quick (3 ops per pass), untraced and traced side
by side, and checks: every BENCHMARK.json metric is present and finite for
every workload, no op failed verification, the run-async-faults recovery
counters are non-zero, and every trace file parses as JSON.
"""
import json
import math
import os
import subprocess
import sys


def main():
    exe, out, bench_json = sys.argv[1:4]
    with open(bench_json) as f:
        spec = json.load(f)
    runs = {"untraced": [], "traced": ["--traced"]}
    procs = {
        kind: subprocess.Popen(
            [exe, "--quick", "--seed", "1", "--out", os.path.join(out, kind)]
            + flags, stdout=subprocess.DEVNULL)
        for kind, flags in runs.items()
    }
    errors = []
    for kind, proc in procs.items():
        if proc.wait() != 0:
            errors.append(f"{kind} run exited with {proc.returncode}")

    summaries = {}
    for kind, name in (("untraced", "summary.json"),
                       ("traced", "summary.traced.json")):
        with open(os.path.join(out, kind, name)) as f:
            summaries[kind] = json.load(f)["workloads"]

    for w in (w["name"] for w in spec["workloads"]):
        for kind, key in (("untraced", "end_to_end"), ("traced", "per_layer")):
            result = summaries[kind].get(w)
            if result is None:
                errors.append(f"{w}: no {kind} result")
                continue
            if result["failed"] != 0:
                errors.append(f"{w}: {result['failed']} {kind} ops failed")
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got["value"] is None or not math.isfinite(
                        got["value"]) or got["unit"] != m["unit"]:
                    errors.append(f"{w}: {kind} metric {m['name']} is {got}")
        untraced = summaries["untraced"].get(w)
        if untraced and untraced["metrics"]["fail_ratio"]["value"] != 0:
            errors.append(f"{w}: fail_ratio is not 0")
        try:
            with open(os.path.join(out, "traced", w + ".trace.json")) as f:
                json.load(f)
        except (OSError, ValueError) as e:
            errors.append(f"{w}: trace file: {e}")

    faults = summaries["traced"].get("run-async-faults", {}).get("metrics", {})
    for counter in ("net.detoured", "storage.failover_extents", "ckpt.writes"):
        if not faults.get(counter, {}).get("value", 0) > 0:
            errors.append(f"run-async-faults: {counter} is not > 0")

    for e in errors:
        print("FAIL:", e)
    if errors:
        sys.exit(1)
    print("pvr_e2e smoke: ok")


if __name__ == "__main__":
    main()
