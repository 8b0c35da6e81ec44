#!/usr/bin/env python3
"""One sha256 over the output of 4,140 in-process ``srclab eval`` requests.

Usage: python scripts/eval_digest.py

The requests: every catalog entry (``--builtin``) with no one-form, with each
of its one-form variants, and with ``log(<first coordinate> - 5)`` followed by
zeros (both through ``--pi file:``); each of the 23 tensors; at the three
points of ``sample_points(spec, 3, 0)``, the origin, every coordinate 1e154,
and one coordinate too many.  Each request runs through ``cli_main`` in this
process under warnings' "always" filter.  The digest covers the argv, exit
code, stdout and stderr of every request in order, stderr followed by each
warning as ``Category: message``.  The line also gives the count of nonzero
exits.  The package comes from ``src/`` of the tree holding this script, so
copy the script into two trees and run it in each to check that a change
leaves ``srclab eval``'s output alone.
"""
import contextlib
import hashlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from srclab.catalog import builtin, catalog_names  # noqa: E402
from srclab.cli import cli_main  # noqa: E402
from srclab.curvature import TENSORS  # noqa: E402
from srclab.manifold import sample_points  # noqa: E402


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


def digest(argvs) -> tuple[str, int]:
    """The sha256 of the requests' output, and how many exited nonzero; the
    one-form files are read from the working directory."""
    sha, nonzero = hashlib.sha256(), 0
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli_main(argv)
        nonzero += code != 0
        stderr = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n"
                                          for w in caught)
        for part in (" ".join(argv), str(code), out.getvalue(), stderr):
            sha.update(part.encode("utf-8") + b"\0")
    return sha.hexdigest(), nonzero


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        argvs = requests(Path(tmp))
        with contextlib.chdir(tmp):
            sha, nonzero = digest(argvs)
    print(f"{sha}  {len(argvs)} requests, {nonzero} nonzero exits")


if __name__ == "__main__":
    main()
