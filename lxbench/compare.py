#!/usr/bin/env python3
"""Paired comparison of two builds on the benchmark's end-to-end metrics.

    python3 lxbench/compare.py --base <checkout> [--change <checkout>]

Each checkout is a source tree holding lxbench/ (for example a `git
archive` of the parent commit and the working tree); each builds itself
into its own .bench_build/. For every workload BENCHMARK.json names, pair k
(k = 1..10) runs both sides for run_seconds with seed k, alternating which
side runs first. Per metric the report gives each side's median and
quartiles (statistics.quantiles, n=4), the relative change of the median,
how many pairs the change won, and a verdict against the bound and
direction BENCHMARK.json fixes:

  gain        won >= 9/10 of the pairs and the medians differ by more than
              the base's own quartile spread
  regression  the change's median is worse than the base's by more than the
              bound
  unresolved  the base's quartile spread is wider than the bound
  same        otherwise

With --base alone it runs one side and reports each metric's median,
quartiles and spread (quartile distance / median), the figure the
benchmark's bounds are set against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10


def load_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def run_once(checkout, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    cmd = [sys.executable, "lxbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("compare: %s failed on %s seed %d" % (checkout, workload, seed))
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", required=True)
    p.add_argument("--change")
    args = p.parse_args()
    spec, metrics = load_spec(args.base)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    sides = [args.base] + ([args.change] if args.change else [])

    for w in workloads:
        runs = {side: [] for side in sides}
        for seed in range(1, PAIRS + 1):
            order = sides if seed % 2 == 1 else list(reversed(sides))
            for side in order:
                runs[side].append(run_once(side, w, seed, seconds))
        print("== %s (%d pairs, %d s, seeds 1-%d)" % (w, PAIRS, seconds, PAIRS))
        for name, m in metrics.items():
            base = [r[name] for r in runs[args.base]]
            bq1, bmed, bq3 = quartiles(base)
            spread = (bq3 - bq1) / bmed if bmed else float("inf")
            line = "%-14s base %12.6g [%.6g, %.6g] spread %6.3f" % (name, bmed, bq1, bq3, spread)
            if args.change:
                change = [r[name] for r in runs[args.change]]
                cq1, cmed, cq3 = quartiles(change)
                lower = m["better"] == "lower"
                worse = (cmed - bmed) / bmed if lower else (bmed - cmed) / bmed
                wins = sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))
                if wins >= 0.9 * PAIRS and abs(cmed - bmed) > bq3 - bq1:
                    verdict = "gain"
                elif worse > m["bound"]:
                    verdict = "regression"
                elif spread > m["bound"]:
                    verdict = "unresolved"
                else:
                    verdict = "same"
                line += " | change %12.6g [%.6g, %.6g] worse %+7.3f wins %d/%d %s" % (
                    cmed, cq1, cq3, worse, wins, PAIRS, verdict)
            print(line)
        sys.stdout.flush()


if __name__ == "__main__":
    main()
