#!/usr/bin/env python3
"""Run the identity suite over the whole catalog and print a results matrix.

Usage: python scripts/verify_catalog.py [--points N] [--seed S]

One row per (entry, one-form variant); cells are the per-check status:
'.' pass, 'x' fail, 's' skipped (rank), with the worst relative residual of
the passing checks at the end.  Exit code 0 iff every outcome matches the
catalog's expected annotations.
"""
import argparse
import sys

from srclab.catalog import builtin, catalog_names
from srclab.verifier import CHECK_IDS, SuiteConfig, run_suite

CELLS = {"pass": ".", "fail": "x", "skip": "s"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    header = " ".join(cid[-2:] for cid in CHECK_IDS)
    print(f"{'entry':18s} {'one-form':13s} {header}  worst-rel")
    surprises = 0
    for name in catalog_names():
        entry = builtin(name)
        for variant in (None,) + tuple(v.name for v in entry.pi_variants):
            report = run_suite(entry.spec, entry.oneform(variant),
                               SuiteConfig(points=args.points, seed=args.seed,
                                           flags=entry.flags))
            cells = []
            worst = 0.0
            for rec in report.checks:
                status = "skip" if rec.skipped else ("pass" if rec.passed else "fail")
                cells.append(" " + CELLS[status])
                if status == "pass":
                    worst = max(worst, rec.max_rel_residual)
                if status != entry.expected_status(variant, rec.id):
                    surprises += 1
            print(f"{name:18s} {variant or '-':13s}{''.join(cells)}  {worst:.2e}")
    if surprises:
        print(f"\n{surprises} outcomes differ from the catalog annotations",
              file=sys.stderr)
        return 1
    print("\nall outcomes match the catalog annotations "
          "(note: C13 'x' cells are the expected failures of the tabulated "
          "conformal-change form; the measured change is zero)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
