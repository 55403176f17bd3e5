#!/usr/bin/env python3
"""Records a trajectory point of pvr_e2e into one JSON file.

    python3 bench/e2e/record.py PVR_E2E OUTPUT.json [--seed N] [--seconds S]

Runs every workload twice untraced and once traced on this host, and writes
the host (nproc, CPU, compiler, PVR_SIMD backend, git describe) with the
three runs. Prints, for every end-to-end metric and workload, the second
untraced run's change against the first, and flags changes beyond the
metric's bound.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def run(exe, out, seed, seconds, traced):
    cmd = [exe, "--seed", str(seed), "--seconds", str(seconds), "--out", out]
    if traced:
        cmd.append("--traced")
    if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
        sys.exit(f"record.py: {' '.join(cmd)} failed")
    name = "summary.traced.json" if traced else "summary.json"
    with open(os.path.join(out, name)) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("exe")
    parser.add_argument("output")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()

    scratch = os.path.join(ROOT, "bench_out", "e2e_record")
    runs = [run(args.exe, os.path.join(scratch, name), args.seed,
                args.seconds, traced)
            for name, traced in (("a", False), ("b", False), ("t", True))]
    git = subprocess.run(["git", "describe", "--always", "--dirty"],
                         cwd=ROOT, capture_output=True, text=True)
    host = dict(runs[0]["host"])
    host["git_describe"] = git.stdout.strip() or "unknown"
    with open(args.output, "w") as f:
        json.dump({"host": host, "seed": args.seed, "seconds": args.seconds,
                   "untraced": [runs[0]["workloads"], runs[1]["workloads"]],
                   "traced": runs[2]["workloads"]}, f, indent=1)
        f.write("\n")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in runs[0]["workloads"]:
        for m in spec["end_to_end"]:
            a = runs[0]["workloads"][w]["metrics"][m["name"]]["value"]
            b = runs[1]["workloads"][w]["metrics"][m["name"]]["value"]
            delta = (b - a) / a
            flag = "  OVER BOUND" if abs(delta) > m["bound"] else ""
            print(f"{w:17} {m['name']:13} {a:12.4f} {b:12.4f} "
                  f"{delta:+7.2%} (bound {m['bound']:.0%}){flag}")


if __name__ == "__main__":
    main()
