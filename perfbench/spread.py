#!/usr/bin/env python3
"""Rerun one workload N times with different seeds and report, for every
metric, its median, quartiles and spread (interquartile range as a share of
the median) against the bound BENCHMARK.json gives it.

    python3 perfbench/spread.py --workload small_graphs [--runs 10] [--seconds S]

Run from the root of the checkout. The runs are untraced, with seeds 1..N.
Also checks that every run reports the same share of failed operations.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values, shares = {}, set()
    for seed in range(1, args.runs + 1):
        out = subprocess.run(
            ["python3", os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        shares.add((res["failed"], res["attempted"]))
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", file=sys.stderr)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    ratios = {f / a for f, a in shares}
    print(f"{args.workload}: {args.runs} runs, failed share "
          f"{'identical' if len(ratios) == 1 else 'DIFFERS'}: {sorted(ratios)}")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if spread <= bound / 3 else ("wide" if spread <= bound else "OVER")
        print(f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6} {flag}")


if __name__ == "__main__":
    main()
