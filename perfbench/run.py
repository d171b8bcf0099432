#!/usr/bin/env python3
"""Loopback benchmark of streamrel-server.

Usage (from the repository root):
  python3 perfbench/run.py --workload firehose|jellybean|dashboard \
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

Builds the server and the benchmark driver from source into .bench_build/
(a no-op after the first build), then runs the driver. The driver's last
line of standard output is the result: one JSON object with the keys
correct, attempted, failed and metrics. Traced runs write their spans to
.bench_out/trace_<workload>_<seed>.json. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
OUT = os.path.join(ROOT, ".bench_out")


def build():
    """Configures once, then builds the two targets; returns (driver, server)."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target",
                  "perfbench_driver", "streamrel-server"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return None
    return (os.path.join(BUILD, "perfbench_driver"),
            os.path.join(BUILD, "streamrel", "streamrel-server"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no streamrel sources under %s\n" % ROOT)
        return 1
    binaries = build()
    if binaries is None:
        return 1
    driver, server = binaries
    if args.selftest:
        cmd = [driver, "--selftest"]
    else:
        os.makedirs(OUT, exist_ok=True)
        cmd = [driver, "--server", server, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", OUT]
    try:
        # The driver reaps the server itself; the timeout only guards a hang.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=min(170, 3 * args.seconds + 75))
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: driver timed out\n")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
