#!/usr/bin/env python3
"""Runs one workload of the SOFOS serving benchmark.

    python3 perfbench/run.py --workload hot_read --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (which compiles the
repository's sofos_lib from src/) into <build>/perfbench, where <build> is
$CARGO_TARGET_DIR when set and .bench_build otherwise, then runs the
workload with its fixed parameters from perfbench/workloads.json. The last
line of stdout is the result JSON; with --trace 1 the replay's spans are
also written to <build>/perfbench/spans/<workload>.jsonl.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no sofos sources (CMakeLists.txt, src/) next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", build_dir, "--target", "sofos_perfbench",
               "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "sofos_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload not in workloads:
        fail("unknown workload %r (known: %s)"
             % (args.workload, ", ".join(sorted(workloads))))

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    binary = build(build_dir)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    for name, value in workloads[args.workload].items():
        command += ["--" + name, str(int(value) if isinstance(value, bool)
                                     else value)]
    if args.trace:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans_out", os.path.join(spans, args.workload + ".jsonl")]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
