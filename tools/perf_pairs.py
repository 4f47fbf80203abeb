#!/usr/bin/env python3
"""Alternating parent-vs-change runs of the repository benchmark.

Runs perfbench/run.py --pairs times in a parent checkout and as many
times in this working tree, alternating the two and switching which side
runs first on every pair, so slow drift of a shared machine falls on
both sides alike. Each run is one submitter thread (perfbench's own
design) and needs no network access.

    python3 tools/perf_pairs.py --parent ../parent --workload paper \\
        --pairs 10 --seconds 40 --seed 1

The parent is any copy of the parent commit's files, e.g. made with
`git archive <commit> | tar -x -C ../parent`. Each side builds its own
Release driver into its own .bench_build on its first run.

Stops with exit code 1 as soon as a run does not report
`correct: true, failed: 0`. Otherwise prints, for each end-to-end metric
of BENCHMARK.json and each side, the median, [q1, q3] and the number of
pairs that side won, and appends one record per side (commit) to
BENCH_perf.json at the repository root: the commit, the machine's core
count, the run settings, the driver's median speed-scaling factor and,
per metric, the median, [q1, q3] and pairs won. perfbench reports
end-to-end times scaled to a nominal machine speed; the factor says how
far they were scaled.

Wall-clock figures are not byte-stable, so BENCH_perf.json is kept out
of tools/bench_diff.py; `python3 -m json.tool BENCH_perf.json` checks it.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RECORDS = REPO / "BENCH_perf.json"
SIDES = ("parent", "change")
SCALE_RE = re.compile(r"scaled by ([0-9.]+) on average")


def run_once(root: Path, workload: str, seed: int, seconds: int):
    """One perfbench run in `root`: (metrics, scale factor)."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit("perf_pairs: perfbench failed in %s (exit %d)" %
                 (root, proc.returncode))
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        sys.exit("perf_pairs: incorrect run in %s: %s" % (root, lines[-1]))
    scale = SCALE_RE.search(proc.stderr)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, float(scale.group(1)) if scale else None


def spread(values):
    """(median, q1, q3) of `values`."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def git(*args, cwd=REPO):
    proc = subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="copy of the parent commit's files")
    parser.add_argument("--parent-commit",
                        help="the parent's commit (default: read from "
                             "--parent when it is a git checkout)")
    parser.add_argument("--workload", required=True,
                        choices=["paper", "wide"])
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args()
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        sys.exit("perf_pairs: no perfbench/run.py under " + str(parent))
    if parent == REPO or args.pairs < 1 or args.seconds < 1:
        sys.exit("perf_pairs: need a separate parent, pairs >= 1, "
                 "seconds >= 1")

    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    roots = {"parent": parent, "change": REPO}
    runs = {side: [] for side in SIDES}
    scales = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            metrics, scale = run_once(roots[side], args.workload, args.seed,
                                      args.seconds)
            runs[side].append(metrics)
            if scale is not None:
                scales[side].append(scale)
        print("pair %d/%d: %s" % (pair + 1, args.pairs, "  ".join(
            "%s %s=%.6g" % (side, name, runs[side][-1][name])
            for name in ("throughput_qps", "latency_p99_us")
            for side in SIDES)), flush=True)

    wins = {side: {} for side in SIDES}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        for side, other in (SIDES, SIDES[::-1]):
            wins[side][name] = sum(
                1 for mine, theirs in zip(runs[side], runs[other])
                if sign * (mine[name] - theirs[name]) > 0)

    commits = {
        "parent": args.parent_commit or git("rev-parse", "HEAD", cwd=parent)
        or "unknown",
        "change": git("rev-parse", "HEAD") or "unknown",
    }
    dirty = bool(git("status", "--porcelain", "--untracked-files=no", "--",
                     "src", "perfbench", "CMakeLists.txt"))
    date = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")
    records = []
    print("%s seed %d, %d pairs of %d s, %d cores" %
          (args.workload, args.seed, args.pairs, args.seconds,
           os.cpu_count() or 0))
    for side in SIDES:
        other = "change" if side == "parent" else "parent"
        record = {
            "commit": commits[side],
            "date": date,
            "cores": os.cpu_count(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "runs": args.pairs,
            "paired_with": commits[other],
            "metrics": {},
        }
        if side == "change" and dirty:
            record["uncommitted_changes"] = True
        if scales[side]:
            median, q1, q3 = spread(scales[side])
            record["scale"] = {"median": median, "q1": q1, "q3": q3}
        for name in better:
            median, q1, q3 = spread([r[name] for r in runs[side]])
            record["metrics"][name] = {"median": median, "q1": q1, "q3": q3,
                                       "pairs_won": wins[side][name]}
            print("  %-15s %-7s median %-12.6g [%.6g, %.6g]  won %d/%d" %
                  (name, side, median, q1, q3, wins[side][name],
                   args.pairs))
        records.append(record)

    data = {"records": []}
    if RECORDS.exists():
        data = json.loads(RECORDS.read_text())
    data["records"].extend(records)
    RECORDS.write_text(json.dumps(data, indent=2) + "\n")
    print("appended %d records to %s" % (len(records), RECORDS.name))


if __name__ == "__main__":
    main()
