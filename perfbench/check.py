#!/usr/bin/env python3
"""Checks of the benchmark itself, run from the root of a checkout.

    python3 perfbench/check.py counters [--workload W]
        Runs each traced workload twice with the same seed and fails unless
        every deterministic counter repeats exactly.

    python3 perfbench/check.py spread --workload W [--runs 10] [--first-seed 1]
        Runs the untraced workload once per seed and prints, per end-to-end
        metric, the median and the quartile spread (Q3 - Q1) as a share of
        the median, next to the metric's bound in BENCHMARK.json. The
        benchmark is steady when every spread but setup_s stays below a
        third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve-cold", "rerun-disk", "served-warm")
# Work counted over the first traced pass, a fixed request list. The
# daemon's queue depth at admission is left out: the daemon reads it after
# the push, racing its own dispatcher, so it is timing-dependent.
DETERMINISTIC = (
    "conic.iterations", "conic.rows", "conic.vars",
    "core.verdict_optimal", "core.verdict_infeasible",
    "core.verdict_iteration_limit", "core.verdict_error",
    "store.hits", "store.bytes_read", "store.bytes_written",
    "protocol.frames", "protocol.bytes_in", "protocol.bytes_out",
    "cache.hits", "cache.misses",
)


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result\n{done.stdout}")
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    diag = json.loads(lines[-2].split(" ", 1)[1])
    values["calib"] = (diag["calib_start_ms"], diag["calib_end_ms"])
    return values


def counters(args):
    failed = False
    for workload in args.workload or WORKLOADS:
        first, second = (run(workload, 1, 1, 1) for _ in range(2))
        for name in DETERMINISTIC:
            same = first[name] == second[name]
            failed |= not same
            print(f"{workload:12} {name:30} {first[name]:>14} {second[name]:>14}"
                  f"  {'ok' if same else 'DIFFERS'}")
    if failed:
        sys.exit("deterministic counters differ between runs of the same code")


def spread(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    runs = [run(args.workload, seed, bench["run_seconds"], 0)
            for seed in range(args.first_seed, args.first_seed + args.runs)]
    print("calib_ms (start, end) per run:",
          " ".join(f"{a:.1f}/{b:.1f}" for a, b in (r["calib"] for r in runs)))
    steady = True
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [r[name] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median
        ok = share < metric["bound"] / 3 or name == "setup_s"
        steady &= ok
        print(f"{args.workload:12} {name:16} median {median:14.6g}  spread {share:7.4f}"
              f"  bound {metric['bound']:5.3f}  {'ok' if ok else 'TOO WIDE'}")
        print(f"{'':12} {'':16} values {' '.join(f'{v:.6g}' for v in values)}")
    if not steady:
        sys.exit("spread above a third of the bound")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    counter_parser = commands.add_parser("counters")
    counter_parser.add_argument("--workload", action="append", choices=WORKLOADS)
    spread_parser = commands.add_parser("spread")
    spread_parser.add_argument("--workload", required=True, choices=WORKLOADS)
    spread_parser.add_argument("--runs", type=int, default=10)
    spread_parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    {"counters": counters, "spread": spread}[args.command](args)


if __name__ == "__main__":
    main()
