#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload cold-compile --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  The first run configures and
builds perfbench_driver (and the repository libraries it links) into
.bench_build/; later runs rebuild only what changed.  Build output goes to
stderr.  The driver's stdout is passed through unchanged: a metadata line,
then the result object as the last line.  Exits non-zero, printing no
result, when the build fails, the driver fails or its output is malformed.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
# Compilers and the driver keep their temporary files inside the checkout.
ENV = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
WORKLOADS = ("cold-compile", "verify", "serve-warm", "anneal")
# The driver's own run is bounded by --seconds plus set-up; this is the
# hard stop for a hung run.
DRIVER_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=ENV).returncode != 0:
            return None
    cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench_driver", "-j", "2"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=ENV).returncode != 0:
        return None
    return BUILD / "perfbench_driver"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    driver = build()
    if driver is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    scratch = BUILD / "scratch"
    scratch.mkdir(exist_ok=True)
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=DRIVER_TIMEOUT_S, cwd=ROOT, env=ENV)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 4
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: driver exited {run.returncode}", file=sys.stderr)
        return 4
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: malformed driver output", file=sys.stderr)
        return 4
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed driver output", file=sys.stderr)
        return 4
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
