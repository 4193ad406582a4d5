#!/usr/bin/env python3
"""Builds bdbms_bench from this checkout and runs one workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The engine and the benchmark are built
with CMake into .bench_build (or $CARGO_TARGET_DIR when set) on first use,
and the run's database directories and trace files live under it too.
Build output goes to .bench_build/build.log; the benchmark's own report
goes to standard output, whose last line is its JSON result. The exit code
is the benchmark's, or 1 when the build fails.
"""

import argparse
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def build(source, build_dir, env):
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "bdbms_bench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      env=env, timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                done = None
            if done is None or done.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write("build failed: %s\n" % " ".join(step))
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not build(source, build_dir, env):
        return 1

    command = [os.path.join(build_dir, "bdbms_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", os.path.join(build_dir, "run")]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-file", os.path.join(
            traces, "%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("bdbms_bench timed out\n")
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
