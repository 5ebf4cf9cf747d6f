#!/usr/bin/env python3
"""Same-host A/B of two checkouts on the benchmark.

    python3 perfbench/ab.py --base DIR --head DIR --workload NAME [--pairs 10]
                            [--trace 0|1] [--seed-base 1000]

Runs `python3 perfbench/run.py` in each checkout for --pairs pairs,
alternating which side runs first, pair i on seed seed-base + i (both
sides see the same seed). Each side builds its own tree on its first run.
Prints, per metric, each side's median and quartiles, the head/base
ratio, and the share of pairs the head won. Both checkouts must carry the
same perfbench/ and BENCHMARK.json: a change that claims a gain does not
edit the benchmark.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(checkout, workload, seed, seconds, trace):
    done = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    result = json.loads(done.stdout.strip().split("\n")[-1])
    if done.returncode != 0 or not result["correct"]:
        sys.exit("%s: run failed on seed %d" % (checkout, seed))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--head", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-base", type=int, default=1000)
    args = parser.parse_args()

    with open(os.path.join(args.head, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    values = {"base": [], "head": []}
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
        for side in order:
            checkout = args.base if side == "base" else args.head
            result = run(checkout, args.workload, seed, spec["run_seconds"],
                         args.trace)
            values[side].append(result["metrics"])
            print("pair %d %s done" % (i, side), file=sys.stderr)

    print("%-28s %12s %25s %12s %25s %8s %6s" %
          ("metric", "base_p50", "base_q1..q3", "head_p50", "head_q1..q3",
           "ratio", "wins"))
    for m in metrics:
        name = m["name"]
        base = [v[name]["value"] for v in values["base"]]
        head = [v[name]["value"] for v in values["head"]]
        bq, hq = statistics.quantiles(base, n=4), statistics.quantiles(head, n=4)
        bm, hm = statistics.median(base), statistics.median(head)
        better = m["better"]
        wins = sum((h > b) if better == "higher" else (h < b)
                   for b, h in zip(base, head))
        print("%-28s %12.5g %12.5g..%-12.5g %12.5g %12.5g..%-12.5g %8.4f %3d/%d"
              % (name, bm, bq[0], bq[2], hm, hq[0], hq[2],
                 hm / bm if bm else float("nan"), wins, len(base)))


if __name__ == "__main__":
    main()
