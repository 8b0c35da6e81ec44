#!/usr/bin/env python3
"""One sha256 over 168 ``run_suite`` JSON reports, one over 4,140 ``srclab eval`` requests.

Usage: python scripts/digest.py [reports | eval]

reports: every case of ``perfbench/inputs.catalog_cases()`` (the 24 catalog
entry and one-form pairs) and of ``inputs.expr_heavy_cases(1)`` (four
expression-heavy specs with their one-forms), each at 1, 65 and 200 points
with suite seeds 3 and 8.  A report parses the case's text afresh, builds its
one-form with ``inputs.build_pi``, runs ``run_suite`` and is written as
``jsonio.dumps(report.to_json_dict(STAMP))`` with a fixed timestamp.  The
digest covers the reports in that order; the line also gives their count.

eval: every catalog entry (``--builtin``) with no one-form, with each of its
one-form variants, and with ``log(<first coordinate> - 5)`` followed by zeros
(both through ``--pi file:``); each of the 23 tensors; at the three points of
``sample_points(spec, 3, 0)``, the origin, every coordinate 1e154, and one
coordinate too many.  Each request runs through ``cli_main`` in this process
under warnings' "always" filter.  The digest covers the argv, exit code,
stdout and stderr of every request in order, stderr followed by each warning
as ``Category: message``.  The line also gives the count of nonzero exits.

With no mode it prints both lines, reports first.  Each text a digest covers
is hashed as its UTF-8 bytes and a NUL.  The package comes from ``src/`` of
the tree holding this script, so copy the script into two trees and run it in
each to check that a change leaves every output byte for byte alone.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402

from srclab import jsonio  # noqa: E402
from srclab.catalog import builtin, catalog_names  # noqa: E402
from srclab.cli import cli_main  # noqa: E402
from srclab.curvature import TENSORS  # noqa: E402
from srclab.manifold import sample_points  # noqa: E402
from srclab.parser import parse_document  # noqa: E402
from srclab.verifier import SuiteConfig, run_suite  # noqa: E402

POINTS = (1, 65, 200)
SEEDS = (3, 8)
STAMP = "1970-01-01T00:00:00+00:00"


def sha256(texts) -> str:
    sha = hashlib.sha256()
    for text in texts:
        sha.update(text.encode("utf-8") + b"\0")
    return sha.hexdigest()


def cases() -> list[tuple[inputs.Case, int, int]]:
    """(case, points, suite seed) of every report, in order."""
    return [(case, points, seed) for case in inputs.catalog_cases() + inputs.expr_heavy_cases(1)
            for points in POINTS for seed in SEEDS]


def report(case: inputs.Case, points: int, seed: int) -> str:
    """The JSON text of one case's suite report."""
    spec = parse_document(case.text).spec
    config = SuiteConfig(points=points, seed=seed, flags=case.flags)
    return jsonio.dumps(run_suite(spec, inputs.build_pi(spec, case.pi_lines),
                                  config).to_json_dict(STAMP))


def requests(workdir: Path) -> list[list[str]]:
    """The argv of every request, in order.  Writes the one-form files into
    ``workdir``; the argv name them relative to it."""
    out = []
    for name in catalog_names():
        entry = builtin(name)
        spec = entry.spec
        oneforms = [(v.name, v.expressions) for v in entry.pi_variants]
        oneforms.append(("log", [f"log({spec.coords[0]} - 5)"] + ["0"] * (spec.ell - 1)))
        pis = [[]]
        for label, lines in oneforms:
            path = f"{name}-{label}.pi"
            (workdir / path).write_text("".join(f"{ln}\n" for ln in lines), encoding="utf-8")
            pis.append(["--pi", f"file:{path}"])
        points = [*sample_points(spec, 3, 0), np.zeros(spec.n), np.full(spec.n, 1e154),
                  np.zeros(spec.n + 1)]
        out += [["eval", "--builtin", name, *pi, "--tensor", tensor,
                 "--point=" + ",".join(map(repr, p.tolist()))]
                for pi in pis for tensor in TENSORS for p in points]
    return out


def request(argv) -> tuple[int, str, str]:
    """The exit code, stdout and stderr (warnings appended) of one request."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue() + "".join(
        f"{w.category.__name__}: {w.message}\n" for w in caught)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("mode", nargs="?", choices=("reports", "eval"), help="default: both")
    mode = ap.parse_args(argv).mode
    if mode != "eval":
        texts = [report(*item) for item in cases()]
        print(f"{sha256(texts)}  {len(texts)} reports")
    if mode != "reports":
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
            runs = [(" ".join(argv), *request(argv)) for argv in requests(Path(tmp))]
        nonzero = sum(code != 0 for _, code, _, _ in runs)
        texts = (text for argv, code, out, err in runs for text in (argv, str(code), out, err))
        print(f"{sha256(texts)}  {len(runs)} requests, {nonzero} nonzero exits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
