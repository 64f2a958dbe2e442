#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's
spread: the distance between the first and third quartile of its values
(``statistics.quantiles(values, n=4)``) as a share of their median,
next to the metric's bound from BENCHMARK.json.

Run from the repository root:

    python3 tbbench/spread.py --workloads cold-sim,warm-hit --seeds 1-10

Each run's result line is appended to ``--out`` (JSON lines) so a
second set of runs can be compared with ``--compare``: each metric's
median change against the earlier set, signed so that positive is worse,
as a share of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default=".bench_run/spread.jsonl")
    ap.add_argument("--compare", help="earlier --out file to compare medians with")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = str(bench["run_seconds"])
    results = {}
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "a") as out:
        for workload in args.workloads.split(","):
            for seed in parse_seeds(args.seeds):
                cmd = bench["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", seconds, "--trace", "0",
                ]
                start = time.time()
                proc = subprocess.run(cmd, capture_output=True, text=True)
                took = time.time() - start
                if proc.returncode != 0:
                    sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
                line = json.loads(proc.stdout.strip().splitlines()[-1])
                print(f"{workload} seed {seed}: {took:.1f} s, correct {line['correct']}, "
                      f"attempted {line['attempted']}, failed {line['failed']}", flush=True)
                out.write(json.dumps({"workload": workload, "seed": seed, "seconds": took,
                                      "result": line}) + "\n")
                out.flush()
                results.setdefault(workload, []).append(line)

    earlier = {}
    if args.compare:
        for row in map(json.loads, open(args.compare)):
            for name, m in row["result"]["metrics"].items():
                earlier.setdefault((row["workload"], name), []).append(m["value"])

    worst = 0.0
    worst_change = float("-inf")
    for workload, lines in results.items():
        print(f"\n{workload}")
        for name in sorted(lines[0]["metrics"]):
            values = [line["metrics"][name]["value"] for line in lines]
            if len(values) < 2:
                continue
            s, med = spread(values)
            bound = bounds.get(name)
            note = ""
            if bound is not None:
                worst = max(worst, s / bound)
                note = f"  bound {bound:.2f}  spread/bound {s / bound:.2f}"
            if (workload, name) in earlier:
                old = statistics.median(earlier[(workload, name)])
                change = med / old - 1
                worse = change if better.get(name) == "lower" else -change
                note += f"  median vs earlier {change:+.3f}"
                if bound is not None:
                    worst_change = max(worst_change, worse / bound)
                    note += f" (worse/bound {worse / bound:+.2f})"
            print(f"  {name:<30} median {med:>14.4f}  spread {s:.3f}{note}")
    print(f"\nworst spread/bound: {worst:.2f}")
    if earlier:
        print(f"worst median change against earlier, as worse/bound: {worst_change:+.2f}")


if __name__ == "__main__":
    main()
