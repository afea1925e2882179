#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs independent sets of runs of the same build, ten runs per workload in
each set, each run on its own seed and run_seconds long, for every workload
in BENCHMARK.json. It reports every end-to-end metric's median and quartiles
per set, and flags a metric whose spread (interquartile range over median)
exceeds its bound in BENCHMARK.json, and one whose median in a later set is
worse than in the first set by more than its bound. It then runs the traced
benchmark twice on one seed per workload and checks that kernel.calls
repeats exactly.

    python3 e2ebench/steady.py --sets 2

Exits 1 when anything is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10  # runs per workload per set


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: incorrect run\n{out}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    flags = []
    values = {}  # (set, workload) -> metric -> [values]
    for s in range(args.sets):
        for i in range(SEEDS):
            seed = 1000 * (s + 1) + i
            for w in workloads:  # interleaved, so drift hits every workload alike
                run = run_once(w, seed, seconds, 0)
                for name, value in run.items():
                    values.setdefault((s, w), {}).setdefault(name, []).append(value)
                print(f"set {s} seed {seed} {w}: " +
                      " ".join(f"{n}={v:.6g}" for n, v in run.items()), flush=True)

    print(f"\n{'workload':9} {'metric':16} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for w in workloads:
        for name, m in metrics.items():
            first = None
            for s in range(args.sets):
                st = summarize(values[(s, w)][name])
                note = ""
                if st["spread"] > m["bound"]:
                    note = "  SPREAD > BOUND"
                    flags.append(f"{w} {name} set {s}: spread {st['spread']:.3f} > {m['bound']}")
                elif st["spread"] > m["bound"] / 3:
                    note = "  (spread > bound/3)"
                if first is None:
                    first = st["median"]
                else:
                    change = (st["median"] - first) / first
                    worse = change if m["better"] == "lower" else -change
                    if worse > m["bound"]:
                        note += "  MEDIAN WORSE THAN SET 0 BY > BOUND"
                        flags.append(f"{w} {name} set {s}: median worse by {worse:.3f}")
                print(f"{w:9} {name:16} {s:>3} {st['median']:12.6g} {st['q1']:12.6g} "
                      f"{st['q3']:12.6g} {st['spread']:7.3f} {m['bound']:6.2f}{note}")

    for w in workloads:
        calls = [run_once(w, 7, 4, 1)["kernel.calls"] for _ in range(2)]
        status = "repeats" if calls[0] == calls[1] else "DIFFERS"
        print(f"seed check {w}: kernel.calls {calls[0]:.0f} / {calls[1]:.0f} {status}")
        if calls[0] != calls[1]:
            flags.append(f"{w}: kernel.calls differs between runs of one seed")

    for flag in flags:
        print("FLAG:", flag)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
