#!/usr/bin/env python3
"""Runs the benchmark over several seeds and keeps every output.

    python3 e2ebench/sweep.py --out DIR [--seeds 1-10] [--trace 0|1]
                              [--workloads a,b] [--seconds S]

Run from the repository root. Each run's stdout lands in
DIR/<workload>.<seed>.t<trace>.out and its stderr beside it in .err.
The workload order reverses from one seed to the next, so slow drift
of the host spreads over all of them. Analyse the outputs with
compare_runs.py.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10", type=seed_list)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", default=str(bench["run_seconds"]))
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    workloads = args.workloads.split(",")
    failures = 0
    for i, seed in enumerate(args.seeds):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace]
            path = os.path.join(args.out, "%s.%d.t%s.out" % (w, seed, args.trace))
            with open(path, "w") as out, open(path + ".err", "w") as err:
                rc = subprocess.run(cmd, stdout=out, stderr=err).returncode
            print("%-14s seed %-3d exit %d  %s" % (w, seed, rc, path),
                  flush=True)
            failures += rc != 0
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
