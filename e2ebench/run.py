#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the root of the repository:

    python3 e2ebench/run.py --workload make --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --selftest

The build goes to $CARGO_TARGET_DIR if set, else .bench_build/. The last line
of stdout is the benchmark's JSON result; build output goes to stderr. The
exit status is nonzero, with no result printed, when the build or the run
fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("make", "andrew", "ringmix")
# A run must end well within 180 s; this only guards against a wedged world.
RUN_TIMEOUT_S = 170


def build(build_dir, target):
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    generated = (os.path.join(build_dir, name) for name in ("build.ninja", "Makefile"))
    if not any(os.path.exists(path) for path in generated):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the probe recorder's own test")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    target = "e2ebench_probe_test" if args.selftest else "e2ebench"
    try:
        binary = build(build_dir, target)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([binary]).returncode

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    if result.returncode != 0:
        print(f"e2ebench: run exited with {result.returncode}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
