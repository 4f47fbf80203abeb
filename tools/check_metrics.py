#!/usr/bin/env python3
"""Metric-name lint for src/.

Every metric registered against obs::MetricsRegistry appears in the
source as a string literal "quasaq_...". This checker enforces the
conventions documented in docs/OBSERVABILITY.md:

  * Names follow  quasaq_<subsystem>_<noun...>_<unit>  with at least
    one noun segment and a unit drawn from the closed set below, so
    dashboards can tell a counter of bytes from a ratio gauge by name
    alone.
  * Each name literal appears exactly once in src/. The single
    occurrence is the registration site; a second occurrence means
    either a copy-pasted registration (two subsystems fighting over
    one series) or a stringly-typed lookup that will silently drift
    when the registration is renamed.
  * The "## Metric catalog" section of docs/OBSERVABILITY.md lists
    exactly the names registered in src/: every registered name has a
    catalog row (the first cell of a table row), and every catalog row
    names a registered metric.

Test code (tests/, bench/) is deliberately out of scope: tests mint
throwaway names like quasaq_stress_* that never reach an exposition.

Exit codes: 0 clean, 1 violations found, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import defaultdict
from pathlib import Path

# Closed unit vocabulary. "total" for counters, "ratio"/"count" for
# gauges and dimensionless histograms, the rest are physical units.
UNITS = ("total", "ratio", "seconds", "ms", "kb", "kbps", "count")

NAME_RE = re.compile(
    r"^quasaq_[a-z][a-z0-9]*(?:_[a-z][a-z0-9]*)+_(?:%s)$"
    % "|".join(UNITS))

LITERAL_RE = re.compile(r'"(quasaq_[A-Za-z0-9_]+)"')


def check_files(files: dict[str, str]) -> list[str]:
    """files: relative path (e.g. 'core/system.cc') -> file contents.

    Returns a list of human-readable violation strings.
    """
    occurrences: dict[str, list[str]] = defaultdict(list)
    for path, text in sorted(files.items()):
        for name in LITERAL_RE.findall(text):
            occurrences[name].append(path)

    violations = []
    for name, paths in sorted(occurrences.items()):
        if not NAME_RE.match(name):
            violations.append(
                f"{paths[0]}: metric '{name}' does not match "
                f"quasaq_<subsystem>_<noun>_<unit> with unit in "
                f"{{{', '.join(UNITS)}}}")
        if len(paths) > 1:
            violations.append(
                f"metric '{name}' registered/used {len(paths)} times "
                f"({', '.join(paths)}); each name literal must appear "
                f"exactly once in src/")
    return violations


def registered_names(files: dict[str, str]) -> set[str]:
    names = set()
    for text in files.values():
        names.update(LITERAL_RE.findall(text))
    return names


CATALOG_HEADING = "## Metric catalog"
DOC_NAME_RE = re.compile(r"`(quasaq_[A-Za-z0-9_]+)`")


def catalog_names(doc: str) -> set[str]:
    """Names in the first cell of the catalog section's table rows."""
    names = set()
    in_catalog = False
    for line in doc.splitlines():
        if line.startswith("## "):
            in_catalog = line.strip() == CATALOG_HEADING
        elif in_catalog and line.startswith("|"):
            names.update(DOC_NAME_RE.findall(line.split("|")[1]))
    return names


def check_catalog(files: dict[str, str], doc: str) -> list[str]:
    """Compares the registered names with the docs catalog, both ways."""
    registered = registered_names(files)
    documented = catalog_names(doc)
    violations = [
        f"metric '{name}' is registered in src/ but has no row in the "
        f"docs/OBSERVABILITY.md catalog"
        for name in sorted(registered - documented)]
    violations += [
        f"docs/OBSERVABILITY.md catalog lists '{name}', which src/ does "
        f"not register"
        for name in sorted(documented - registered)]
    return violations


def load_tree(src_root: Path) -> dict[str, str]:
    files = {}
    for path in sorted(src_root.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        files[str(path.relative_to(src_root))] = path.read_text(
            encoding="utf-8")
    return files


def self_test() -> int:
    """Synthetic trees: the checker must flag duplicates, bad units and
    malformed names, and accept a conforming tree."""
    duplicate = {
        "cache/a.cc": '"quasaq_cache_hits_total"\n',
        "core/b.cc": 'reg.GetCounter("quasaq_cache_hits_total", "x");\n',
    }
    bad_unit = {
        # "bytes" is not in the unit vocabulary (we standardize on kb).
        "net/a.cc": '"quasaq_net_sent_bytes"\n',
    }
    malformed = {
        # No noun segment between subsystem and unit.
        "net/a.cc": '"quasaq_total"\n',
        # Uppercase is out.
        "net/b.cc": '"quasaq_net_Frames_total"\n',
    }
    clean = {
        "cache/a.cc": ('"quasaq_cache_hits_total"\n'
                       '"quasaq_cache_used_kb"\n'),
        "core/b.cc": '"quasaq_session_duration_seconds"\n',
    }
    catalog = ("## Metric catalog\n\n"
               "| name | type | meaning |\n|---|---|---|\n"
               "| `quasaq_cache_hits_total` / `quasaq_cache_used_kb` | c | x |\n"
               "| `quasaq_session_duration_seconds` | histogram | y |\n"
               "\n## Trace span hierarchy\n\n"
               "| `quasaq_plan_stale_total` | outside the catalog |\n")
    # A registered name mentioned only in another row's meaning cell has
    # no row of its own.
    mentioned_only = catalog.replace(
        "| `quasaq_session_duration_seconds` | histogram | y |",
        "| `quasaq_plan_other_total` | counter | "
        "see `quasaq_session_duration_seconds` |")
    failures = []
    if len(check_files(duplicate)) != 1:
        failures.append("duplicate registration not flagged")
    if len(check_files(bad_unit)) != 1:
        failures.append("unknown unit not flagged")
    if len(check_files(malformed)) != 2:
        failures.append("malformed names not flagged")
    if check_files(clean):
        failures.append("conforming tree wrongly flagged")
    if check_catalog(clean, catalog):
        failures.append("matching catalog wrongly flagged")
    undocumented = dict(clean, **{"net/c.cc": '"quasaq_net_sent_kb"\n'})
    if len(check_catalog(undocumented, catalog)) != 1:
        failures.append("registered name missing from the catalog not "
                        "flagged")
    stale = {"cache/a.cc": clean["cache/a.cc"]}
    if len(check_catalog(stale, catalog)) != 1:
        failures.append("catalog row for an unregistered name not flagged")
    if len(check_catalog(clean, mentioned_only)) != 2:
        failures.append("name mentioned outside a first cell counted as a "
                        "catalog row")
    for f in failures:
        print(f"self-test FAILED: {f}", file=sys.stderr)
    if not failures:
        print("self-test ok: duplicates, bad units, malformed names and "
              "catalog drift in either direction are flagged, conforming "
              "trees pass")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", default=None,
                        help="src/ root to scan (default: <repo>/src)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the checker itself on synthetic trees")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    src_root = Path(args.src) if args.src else (
        Path(__file__).resolve().parent.parent / "src")
    # The catalog of the same checkout as the scanned src/.
    docs = src_root.resolve().parent / "docs" / "OBSERVABILITY.md"
    if not src_root.is_dir():
        print(f"error: src root not found: {src_root}", file=sys.stderr)
        return 2
    if not docs.is_file():
        print(f"error: metric catalog not found: {docs}", file=sys.stderr)
        return 2

    files = load_tree(src_root)
    violations = check_files(files) + check_catalog(
        files, docs.read_text(encoding="utf-8"))
    for v in violations:
        print(v, file=sys.stderr)
    if violations:
        print(f"\n{len(violations)} metric naming/catalog violation(s); "
              "the convention is documented in docs/OBSERVABILITY.md",
              file=sys.stderr)
        return 1
    print(f"metrics ok: {len(registered_names(files))} metric names are "
          "unique, follow quasaq_<subsystem>_<noun>_<unit> and match the "
          "docs/OBSERVABILITY.md catalog")
    return 0


if __name__ == "__main__":
    sys.exit(main())
