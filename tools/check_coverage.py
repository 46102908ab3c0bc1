#!/usr/bin/env python3
"""Coverage-floor gate with per-package floors.

Reads a Cobertura-format ``coverage.xml`` (what ``pytest --cov=repro
--cov-report=xml`` writes) and fails unless every configured region
meets its floor.  The policy, enforced by the CI coverage leg:

* ``src/repro/stream/`` — the streaming subsystem's pooled line rate
  must be at least 90%;
* ``src/repro/spambayes/classifier.py`` — the classifier's vectorized
  learning and scoring bodies ship covered: at least 90%;
* ``src/repro/storage/`` — the storage backends (memory and disk
  tables, count columns, message stores): at least 90%;
* ``src/repro/serve/`` — the always-on filter service (framing,
  micro-batcher, daemon, client): at least 90%;
* ``src/repro/defenses/roni.py`` — the RONI gate, the hot path of
  defended streams: at least 90%;
* optionally (``--total-floor``), the whole ``repro`` package must
  meet a (lower) overall floor.

Regions are declared with the repeatable ``--region PREFIX=FLOOR``
flag; when none is given the default policy above applies.  A region
prefix matches whole directories (``repro/stream/``) and single files
(``repro/spambayes/classifier.py``) alike.

Only the stdlib ``xml.etree`` is used, so the gate itself needs no
third-party packages — only the producing pytest run needs
``pytest-cov``.

Run (as CI does)::

    PYTHONPATH=src python -m pytest --cov=repro --cov-report=xml:coverage.xml
    python tools/check_coverage.py coverage.xml

Exit status 0 when every floor holds, 1 otherwise (with a per-file
report of the offending region).
"""

from __future__ import annotations

import argparse
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

__all__ = ["DEFAULT_REGIONS", "measure", "main"]

# (prefix, floor-percent): the repo's standing coverage policy.
DEFAULT_REGIONS: tuple[tuple[str, float], ...] = (
    ("repro/stream/", 90.0),
    ("repro/spambayes/classifier.py", 90.0),
    ("repro/storage/", 90.0),
    ("repro/serve/", 90.0),
    ("repro/defenses/roni.py", 90.0),
)


def measure(coverage_xml: Path, prefix: str) -> tuple[int, int, list[tuple[str, int, int]]]:
    """Pooled (covered, total) line counts for files under ``prefix``.

    Returns ``(covered, total, per_file)`` where ``per_file`` holds
    ``(filename, covered, total)`` rows.  Filenames in the report are
    relative to the source root pytest-cov ran under, so ``prefix`` is
    matched against both the raw filename and its tail (an absolute
    ``src/`` root keeps ``repro/stream/...`` intact either way).
    """
    tree = ET.parse(coverage_xml)
    covered = total = 0
    per_file: list[tuple[str, int, int]] = []
    for cls in tree.iter("class"):
        filename = cls.get("filename", "")
        normalized = filename.replace("\\", "/")
        if not (normalized.startswith(prefix) or f"/{prefix}" in f"/{normalized}"):
            continue
        file_covered = file_total = 0
        for line in cls.iter("line"):
            file_total += 1
            if int(line.get("hits", "0")) > 0:
                file_covered += 1
        covered += file_covered
        total += file_total
        per_file.append((filename, file_covered, file_total))
    return covered, total, per_file


def _percent(covered: int, total: int) -> float:
    return 100.0 * covered / total if total else 0.0


def _parse_region(raw: str) -> tuple[str, float]:
    prefix, sep, floor = raw.rpartition("=")
    if not sep or not prefix:
        raise argparse.ArgumentTypeError(
            f"region {raw!r} is not of the form PREFIX=FLOOR"
        )
    try:
        return prefix, float(floor)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"region {raw!r} has a non-numeric floor"
        ) from exc


def check_region(coverage_xml: Path, prefix: str, floor: float) -> bool:
    """Print one region's report; return True when its floor holds."""
    covered, total, per_file = measure(coverage_xml, prefix)
    if total == 0:
        print(f"coverage gate: no measured lines under {prefix!r}")
        return False
    rate = _percent(covered, total)
    print(f"coverage gate: {prefix} {covered}/{total} lines = {rate:.1f}% "
          f"(floor {floor:.0f}%)")
    if len(per_file) > 1:
        for filename, file_covered, file_total in sorted(per_file):
            print(f"  {filename}: {_percent(file_covered, file_total):5.1f}% "
                  f"({file_covered}/{file_total})")
    if rate < floor:
        print(f"coverage gate: FAIL — {prefix} below the {floor:.0f}% floor")
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("coverage_xml", type=Path, help="Cobertura XML report")
    parser.add_argument(
        "--region",
        action="append",
        type=_parse_region,
        metavar="PREFIX=FLOOR",
        help="source prefix and its minimum pooled line coverage percent; "
        "repeatable (default: the repo policy, see module docstring)",
    )
    parser.add_argument(
        "--total-floor",
        type=float,
        default=None,
        help="optional minimum for the whole report",
    )
    args = parser.parse_args(argv)

    if not args.coverage_xml.exists():
        print(f"coverage gate: report {args.coverage_xml} does not exist")
        return 1
    regions = tuple(args.region) if args.region else DEFAULT_REGIONS
    failed = False
    for prefix, floor in regions:
        if not check_region(args.coverage_xml, prefix, floor):
            failed = True

    if args.total_floor is not None:
        all_covered, all_total, _ = measure(args.coverage_xml, "")
        all_rate = _percent(all_covered, all_total)
        print(f"coverage gate: total {all_covered}/{all_total} lines = "
              f"{all_rate:.1f}% (floor {args.total_floor:.0f}%)")
        if all_rate < args.total_floor:
            print("coverage gate: FAIL — total coverage below floor")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
