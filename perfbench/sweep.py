#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workload msg-byz [--workload ...]
        [--seeds 1,2,3 | --held-out] [--seconds 20] [--trace 0] [--out FILE]

From the root of a checkout.  Seeds default to DEFAULT_SEEDS; --held-out
uses HELD_OUT_SEED alone, the seed kept back for verifying a claimed
gain after the change was written.  For every metric it prints the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median; with --trace 0 it also flags a spread that is not
below a third of the metric's bound in BENCHMARK.json.  --out appends
each run's result object, one JSON line per run.
"""

import argparse
import json
import statistics
import subprocess
import sys

DEFAULT_SEEDS = list(range(1, 11))
HELD_OUT_SEED = 9001


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default=",".join(map(str, DEFAULT_SEEDS)))
    ap.add_argument("--held-out", action="store_true")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        declared = json.load(f)
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    seconds = args.seconds or declared["run_seconds"]
    seeds = [HELD_OUT_SEED] if args.held_out else [int(s) for s in args.seeds.split(",")]

    ok = True
    for workload in args.workload:
        results = []
        for seed in seeds:
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True)
            if p.returncode != 0:
                print("%s seed %d: exit %d\n%s" % (workload, seed, p.returncode, p.stderr[-2000:]))
                ok = False
                continue
            result = json.loads(p.stdout.strip().split("\n")[-1])
            results.append(result)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
        if not results:
            continue
        print("== %s: %d run(s), seeds %s" % (workload, len(results), ",".join(map(str, seeds))))
        for name, m in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            line = "  %-44s median %-14.6g" % (name, med)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else 0.0
                line += " q1 %-12.6g q3 %-12.6g spread %.4f" % (q1, q3, spread)
                if name in bounds and spread >= bounds[name] / 3:
                    line += "  (not below bound/3 = %.4f)" % (bounds[name] / 3)
            print(line + "  " + m["unit"])
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
