#!/usr/bin/env python3
"""Repository benchmark: QuaSAQ admission latency, throughput, QoS outcome.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 40 --trace 0

Builds perfbench/driver.cc and the QuaSAQ libraries from ../src into
.bench_build (Release; the first run configures and compiles), then runs
the driver, which replays seeded query streams through the full text
query path from one submitter thread and checks every outcome.
Workloads (driver.cc's MakeWorkload says where each value comes from):

  paper  the paper's 3-site testbed at 1 query/s
  wide   16 relay-free, disk-bound sites with segment caches, Zipf 1.1,
         at the paper's per-site arrival rate

--trace 0 prints the end-to-end metrics, with times scaled to a nominal
machine speed measured alongside them (see kNominalOpUs in driver.cc;
the unscaled figures go to stderr). --trace 1 prints the per-layer ones
(and writes the spans of the first traced queries to
.bench_build/trace-<workload>-<seed>.json). The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics. Any
build or run error exits non-zero without printing it.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, capture=False):
    """Runs cmd in its own process group, killing the whole group on
    timeout. Child output goes to stderr so stdout carries only the
    result line."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no QuaSAQ sources under " + root)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        code, _ = run(configure, BUILD_TIMEOUT_S)
        if code != 0:
            sys.exit("perfbench: configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code, _ = run(["cmake", "--build", build_dir, "--target",
                   "perfbench_driver", "-j", jobs], BUILD_TIMEOUT_S)
    if code != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(build_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper", "wide"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build")
    driver = build(root, build_dir)

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--trace-file", os.path.join(
            build_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    code, out = run(cmd, RUN_TIMEOUT_S, capture=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.exit("perfbench: driver failed with exit code %d" % code)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("perfbench: malformed driver result")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
