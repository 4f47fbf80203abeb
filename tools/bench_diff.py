#!/usr/bin/env python3
"""Byte-for-byte regression check of the deterministic simulation benches.

Every bench listed in BENCHES replays a seeded discrete-event simulation,
so its stdout, stderr and the files it writes (BENCH_*.json,
BENCH_*.metrics.prom, BENCH_*.metrics.json) are identical from run to
run. A refactor that means to keep behaviour must keep them identical;
this tool runs each bench in a fresh temporary directory and compares
every output against the committed baselines under bench/baselines/.

Baseline layout, one directory per bench:

    bench/baselines/<bench>/stdout.txt, stderr.txt, BENCH_*.json,
                            BENCH_*.metrics.prom
    bench/baselines/SHA256SUMS   sha256 of every *.metrics.json sidecar

The *.metrics.json sidecars carry full gauge histories (megabytes), so
only their digests are committed. On a mismatch the tool prints the
first differing line of a text output (or the digests of a hashed one).

Usage:
    python3 tools/bench_diff.py [--bench-dir build/bench]   # compare
    python3 tools/bench_diff.py --update                      # rewrite
    python3 tools/bench_diff.py --self-test                   # check tool

Build in Release first: byte identity is only established for Release
builds. Exit codes: 0 identical, 1 differences found, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

BENCHES = [
    "fig5_interframe",
    "fig6_throughput",
    "fig7_costmodel",
    "cache_hit_ratio",
    "flash_crowd",
    "heterogeneous",
    "renegotiation_midstream",
    "plan_space",
    "lrb_model",
    "trace_compare",
    "ablation_costmodels",
    "ablation_optimization_goal",
    "ablation_renegotiation",
    "ablation_replication",
    "ablation_replication_dynamic",
]

MANIFEST = "SHA256SUMS"
HASHED_SUFFIX = ".metrics.json"


def is_hashed(name: str) -> bool:
    return name.endswith(HASHED_SUFFIX)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_bench(binary: Path) -> dict[str, bytes]:
    """Runs `binary` in an empty temp dir; returns every output by name."""
    with tempfile.TemporaryDirectory(prefix="bench_diff_") as tmp:
        proc = subprocess.run([str(binary)], cwd=tmp, capture_output=True,
                              check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"{binary.name} exited {proc.returncode}:\n"
                               + proc.stderr.decode(errors="replace"))
        outputs = {"stdout.txt": proc.stdout, "stderr.txt": proc.stderr}
        for path in sorted(Path(tmp).iterdir()):
            if path.is_file():
                outputs[path.name] = path.read_bytes()
        return outputs


def first_difference(want: bytes, got: bytes) -> str:
    """Describes the first line on which `got` departs from `want`."""
    want_lines = want.decode(errors="replace").splitlines(keepends=True)
    got_lines = got.decode(errors="replace").splitlines(keepends=True)
    for i, (w, g) in enumerate(zip(want_lines, got_lines), start=1):
        if w != g:
            return f"line {i}:\n  - {w.rstrip()}\n  + {g.rstrip()}"
    i = min(len(want_lines), len(got_lines)) + 1
    if len(want_lines) > len(got_lines):
        return f"line {i}: output ends early; expected\n  - " + \
            want_lines[i - 1].rstrip()
    if len(got_lines) > len(want_lines):
        return f"line {i}: unexpected extra output\n  + " + \
            got_lines[i - 1].rstrip()
    return "outputs differ only in line endings"


def compare(bench: str, outputs: dict[str, bytes], files: dict[str, bytes],
            digests: dict[str, str]) -> list[str]:
    """Compares one bench's outputs against its baseline.

    `files` holds the committed baseline files of the bench by name and
    `digests` the manifest entries of its hashed outputs by name.
    """
    problems = []
    expected = set(files) | set(digests)
    for name in sorted(expected - set(outputs)):
        problems.append(f"{bench}/{name}: not written")
    for name in sorted(set(outputs) - expected):
        problems.append(f"{bench}/{name}: no baseline (run --update?)")
    for name in sorted(expected & set(outputs)):
        got = outputs[name]
        if name in digests:
            if sha256(got) != digests[name]:
                problems.append(f"{bench}/{name}: sha256 {sha256(got)} != "
                                f"baseline {digests[name]}")
        elif got != files[name]:
            problems.append(f"{bench}/{name}: "
                            + first_difference(files[name], got))
    return problems


def load_manifest(baselines: Path) -> dict[str, dict[str, str]]:
    """Manifest entries grouped by bench: {bench: {file: digest}}."""
    manifest: dict[str, dict[str, str]] = {}
    path = baselines / MANIFEST
    if not path.exists():
        return manifest
    for line in path.read_text().splitlines():
        digest, rel = line.split(maxsplit=1)
        bench, name = rel.split("/", 1)
        manifest.setdefault(bench, {})[name] = digest
    return manifest


def load_baseline(baselines: Path, bench: str) -> dict[str, bytes]:
    directory = baselines / bench
    if not directory.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())
            if p.is_file()}


def write_baselines(baselines: Path,
                    results: dict[str, dict[str, bytes]]) -> None:
    lines = []
    for bench, outputs in results.items():
        directory = baselines / bench
        if directory.exists():
            shutil.rmtree(directory)
        directory.mkdir(parents=True)
        for name, data in outputs.items():
            if is_hashed(name):
                lines.append(f"{sha256(data)}  {bench}/{name}")
            else:
                (directory / name).write_bytes(data)
    (baselines / MANIFEST).write_text("".join(l + "\n" for l in lines))


def self_test() -> int:
    """Synthetic outputs: identical runs pass; a changed line, a changed
    hashed sidecar, a missing and an extra file are each reported."""
    text = b"header\nvalue 1\nvalue 2\n"
    sidecar = b'{"metrics": []}\n'
    files = {"stdout.txt": text, "stderr.txt": b""}
    digests = {"BENCH_x.metrics.json": sha256(sidecar)}
    same = {"stdout.txt": text, "stderr.txt": b"",
            "BENCH_x.metrics.json": sidecar}
    failures = []
    if compare("x", same, files, digests):
        failures.append("identical outputs flagged")
    changed = dict(same, **{"stdout.txt": b"header\nvalue 1\nvalue 3\n"})
    problems = compare("x", changed, files, digests)
    if len(problems) != 1 or "line 3" not in problems[0]:
        failures.append(f"changed line not located: {problems}")
    shorter = dict(same, **{"stdout.txt": b"header\nvalue 1\n"})
    problems = compare("x", shorter, files, digests)
    if len(problems) != 1 or "ends early" not in problems[0]:
        failures.append(f"truncated output not reported: {problems}")
    hashed = dict(same, **{"BENCH_x.metrics.json": b'{"metrics": [1]}\n'})
    problems = compare("x", hashed, files, digests)
    if len(problems) != 1 or "sha256" not in problems[0]:
        failures.append(f"hashed sidecar change not reported: {problems}")
    missing = {"stdout.txt": text, "stderr.txt": b""}
    problems = compare("x", missing, files, digests)
    if len(problems) != 1 or "not written" not in problems[0]:
        failures.append(f"missing output not reported: {problems}")
    extra = dict(same, **{"BENCH_x.json": b"{}\n"})
    problems = compare("x", extra, files, digests)
    if len(problems) != 1 or "no baseline" not in problems[0]:
        failures.append(f"extra output not reported: {problems}")
    with tempfile.TemporaryDirectory(prefix="bench_diff_self_") as tmp:
        write_baselines(Path(tmp), {"x": same})
        round_trip = compare("x", same, load_baseline(Path(tmp), "x"),
                             load_manifest(Path(tmp)).get("x", {}))
        if round_trip:
            failures.append(f"--update round trip mismatched: {round_trip}")
    for f in failures:
        print(f"self-test FAILED: {f}", file=sys.stderr)
    if not failures:
        print("self-test ok: changed, truncated, hashed, missing and extra "
              "outputs are reported; identical outputs pass")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--bench-dir", default=str(REPO / "build" / "bench"),
                        help="directory holding the bench_* binaries")
    parser.add_argument("--baselines", default=str(REPO / "bench" /
                                                   "baselines"),
                        help="baseline directory")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baselines from this build")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the comparison logic on synthetic data")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    # Absolute, because each bench runs with its temp dir as cwd.
    bench_dir = Path(args.bench_dir).resolve()
    baselines = Path(args.baselines).resolve()
    missing = [b for b in BENCHES if not (bench_dir / f"bench_{b}").exists()]
    if missing:
        print(f"error: not built in {bench_dir}: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    results = {}
    for bench in BENCHES:
        try:
            results[bench] = run_bench(bench_dir / f"bench_{bench}")
        except RuntimeError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1

    if args.update:
        baselines.mkdir(parents=True, exist_ok=True)
        write_baselines(baselines, results)
        print(f"baselines written for {len(results)} benches to {baselines}")
        return 0

    manifest = load_manifest(baselines)
    problems = []
    for bench, outputs in results.items():
        problems += compare(bench, outputs, load_baseline(baselines, bench),
                            manifest.get(bench, {}))
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"\n{len(problems)} output(s) differ from {baselines}",
              file=sys.stderr)
        return 1
    files = sum(len(outputs) for outputs in results.values())
    print(f"bench diff ok: {len(results)} benches, {files} outputs "
          "byte-identical to the baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
