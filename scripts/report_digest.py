#!/usr/bin/env python3
"""One sha256 over 168 ``run_suite`` JSON reports.

Usage: python scripts/report_digest.py

The reports: every case of ``perfbench/inputs.catalog_cases()`` (the 24
catalog entry and one-form pairs) and of ``inputs.expr_heavy_cases(1)`` (four
expression-heavy specs with their one-forms), each at 1, 65 and 200 points
with suite seeds 3 and 8.  A report parses the case's text afresh, builds its
one-form with ``inputs.build_pi``, runs ``run_suite`` and is written as
``jsonio.dumps(report.to_json_dict(STAMP))`` with a fixed timestamp.  The
digest covers the reports in that order; the line also gives their count.
The package comes from ``src/`` of the tree holding this script, so copy the
script into two trees and run it in each to check that a change leaves every
report byte for byte alone.
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402

from srclab import jsonio  # noqa: E402
from srclab.parser import parse_document  # noqa: E402
from srclab.verifier import SuiteConfig, run_suite  # noqa: E402

POINTS = (1, 65, 200)
SEEDS = (3, 8)
STAMP = "1970-01-01T00:00:00+00:00"


def cases() -> list[tuple[inputs.Case, int, int]]:
    """(case, points, suite seed) of every report, in order."""
    return [(case, points, seed)
            for case in inputs.catalog_cases() + inputs.expr_heavy_cases(1)
            for points in POINTS for seed in SEEDS]


def report(case: inputs.Case, points: int, seed: int) -> str:
    """The JSON text of one case's suite report."""
    spec = parse_document(case.text).spec
    config = SuiteConfig(points=points, seed=seed, flags=case.flags)
    return jsonio.dumps(run_suite(spec, inputs.build_pi(spec, case.pi_lines),
                                  config).to_json_dict(STAMP))


def digest(items) -> str:
    """The sha256 of the reports of ``items``, each (case, points, seed)."""
    sha = hashlib.sha256()
    for item in items:
        sha.update(report(*item).encode("utf-8") + b"\0")
    return sha.hexdigest()


def main() -> None:
    items = cases()
    print(f"{digest(items)}  {len(items)} reports")


if __name__ == "__main__":
    main()
