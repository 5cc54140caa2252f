#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. It builds the `bbs` binary and the
`perfbench` package in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs one workload and prints the benchmark's output;
the last line is the JSON result. The exit code is non-zero when the build or
the run fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve-cold", "rerun-disk", "served-warm")
# A run must end within 180 s; leave room for the build check and cleanup.
RUN_TIMEOUT_S = 170
# What the source digest covers: everything that builds the measured code.
SOURCE_ROOTS = ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench")
SKIPPED_DIRS = {"target", ".bench_build", "__pycache__", ".git"}


def source_id():
    """The commit when the checkout is a git work tree, plus a digest of the
    source files (a checkout without git still gets a stable identity)."""
    digest = hashlib.sha256()
    for top in SOURCE_ROOTS:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for directory, subdirs, names in os.walk(path):
                subdirs[:] = sorted(d for d in subdirs if d not in SKIPPED_DIRS)
                files.extend(os.path.join(directory, name) for name in sorted(names))
        for file in files:
            digest.update(os.path.relpath(file, ROOT).encode())
            with open(file, "rb") as handle:
                digest.update(handle.read())
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "no-git"
    return f"{commit}+src:{digest.hexdigest()[:12]}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "bbs-engine", "--bin", "bbs"],
        ["cargo", "build", "--release", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for command in builds:
        if not os.path.isfile(command[command.index("--manifest-path") + 1]):
            sys.exit("perfbench: missing " + command[command.index("--manifest-path") + 1])
        if subprocess.run(command, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed")

    release = os.path.join(target, "release")
    bench = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--bbs", os.path.join(release, "bbs"),
        "--work-dir", os.path.join(target, "perfbench-work"),
        "--source", source_id(),
    ]
    # One CPU for the benchmark and the daemon it starts. On a small VM,
    # wake-ups across vCPUs stall whenever the hypervisor deschedules the
    # target vCPU; unpinned, served-warm throughput varied by +-20% between
    # runs on a 2-vCPU Xeon VM, pinned by +-2%. The highest-numbered CPU is
    # taken because CPU 0 usually takes the most interrupts.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    # Its own process group, so a timeout also stops the daemon it started.
    process = subprocess.Popen(bench, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        output, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        sys.exit(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if process.returncode == 0:
        print(f"perfbench-host {{\"nproc\": {os.cpu_count()}, \"pinned_cpu\": {cpu}}}")
    sys.stdout.write(output)
    sys.exit(process.returncode)


if __name__ == "__main__":
    main()
