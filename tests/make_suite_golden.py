"""Write the golden suite reports that tests/test_suite_golden.py compares against.

Every catalog pair (entry, one-form variant or none) at 1, 40 and 65 sample
points, plus the mixed frame/one-form error spec of
test_verifier.test_mixed_frame_and_oneform_errors_pinned at 100 points.
Each report keeps its warnings and, per check, the status, the number of
points evaluated and both residuals (floats round-trip through JSON).

    PYTHONPATH=src python tests/make_suite_golden.py tests/data/suite_golden.json
"""
from __future__ import annotations

import json
import sys

from srclab.catalog import builtin, catalog_names
from srclab.parser import parse_manifold
from srclab.verifier import SuiteConfig, run_suite

from test_verifier import MIXED, MIXED_ONEFORM, parsed_oneform

POINTS = (1, 40, 65)
SEED = 5


def cases():
    """(key, spec, one-form or None, config) of every golden report."""
    for name in catalog_names():
        entry = builtin(name)
        for variant in (None, *(v.name for v in entry.pi_variants)):
            for points in POINTS:
                yield (f"{name}/{variant}/{points}", entry.spec, entry.oneform(variant),
                       SuiteConfig(points=points, seed=SEED, flags=entry.flags))
    spec = parse_manifold(MIXED)
    pi = parsed_oneform(spec, MIXED_ONEFORM)
    yield "mixed/errors/100", spec, pi, SuiteConfig(points=100, seed=3)


def golden(report) -> dict:
    return {"warnings": list(report.warnings),
            "checks": [[r.id, r.passed, r.skipped_reason, r.points_evaluated,
                        r.max_abs_residual, r.max_rel_residual] for r in report.checks]}


def main(path: str) -> None:
    reports = []
    for key, spec, pi, config in cases():
        report = golden(run_suite(spec, pi, config))
        rows = ",\n".join(f"  {json.dumps(row)}" for row in report["checks"])
        reports.append(f" {json.dumps(key)}: {{\"warnings\": {json.dumps(report['warnings'])},"
                       f"\n  \"checks\": [\n{rows}]}}")
    with open(path, "w", encoding="utf-8") as f:      # one line per check row
        f.write("{\n" + ",\n".join(reports) + "\n}\n")


if __name__ == "__main__":
    main(sys.argv[1])
