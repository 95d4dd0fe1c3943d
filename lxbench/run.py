#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 lxbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 lxbench/run.py --self-check [--workload <name>] [--seed <n>]

Run from the repository root. The package in lxbench/ (CMakeLists.txt) is
configured and built into $CARGO_TARGET_DIR/lxbench (default
.bench_build/lxbench); build output goes to stderr, so the last line of
standard output is the benchmark's JSON result. A traced run (--trace 1)
writes its spans to <build dir>/spans/<workload>-seed<n>.tsv.

--self-check runs the traced run twice with the same seed for each workload
(or the one named) and fails unless both print identical program counts.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["fs_ramfs_mix", "fs_jexfs_journal", "net_e1000_rr", "tenants_churn"]


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "lxbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(out, f)) for f in generated):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "lxbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("lxbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "lxbench")


def run(binary, workload, seed, seconds, trace, capture=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans, "%s-seed%d.tsv" % (workload, seed))]
    if capture:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return subprocess.run(cmd)


def counts_line(proc):
    for line in proc.stdout.splitlines():
        if line.startswith("counts "):
            return line
    return None


def self_check(binary, workloads, seed):
    ok = True
    for w in workloads:
        first = run(binary, w, seed, 1, 1, capture=True)
        second = run(binary, w, seed, 1, 1, capture=True)
        a, b = counts_line(first), counts_line(second)
        same = first.returncode == 0 and second.returncode == 0 and a is not None and a == b
        print("self-check %-18s seed=%d %s" % (w, seed, "identical" if same else "DIFFERENT"))
        if not same:
            print("  first:  %s\n  second: %s" % (a, b))
        ok = ok and same
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()
    if args.self_check:
        binary = build()
        workloads = [args.workload] if args.workload else WORKLOADS
        sys.exit(0 if self_check(binary, workloads, args.seed) else 1)
    if args.workload is None or args.seconds is None or args.trace is None:
        p.error("--workload, --seconds and --trace are required")
    binary = build()
    sys.stdout.flush()
    sys.exit(run(binary, args.workload, args.seed, args.seconds, args.trace).returncode)


if __name__ == "__main__":
    main()
