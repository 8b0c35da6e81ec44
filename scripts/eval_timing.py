#!/usr/bin/env python3
"""Where a one-point ``srclab eval`` request spends its time, stage by stage.

Usage: python scripts/eval_timing.py [--seed N] [--rounds R]

The requests are the benchmark's single-point-eval workload: R rounds of
``perfbench/inputs.eval_round`` for the seed, each request run in this process
through ``cli_main`` with the argv the benchmark builds, its output captured,
after one untimed warm-up round.  A request's time splits into exclusive
stages, each the time inside the wrapped functions named below less the time
of the other wrapped calls inside them:

* argv: ``argparse.ArgumentParser.parse_known_args`` (every parser, nested
  calls included) and ``cli._attach_negative_point``;
* spec: ``cli._load_spec``, reading and parsing the spec file;
* oneform: ``cli._load_pi``, reading and parsing the one-form file;
* frame: the builders of the frame layers of ``curvature.Evaluation``
  (``sweep``, ``frame``, ``brackets`` and ``frame_g``), those of
  them that the tensor reads, at the one point;
* tensor: ``curvature.Evaluation.__getitem__``, the other layers the tensor reads;
* print: ``cli.tensor_text``, the text of a tensor (a scalar prints in other);
* other: the rest of ``cli_main``.

It prints, per stage, the median over the requests in microseconds, its share
of the median request, and the median request (total).  Read the table for
the shares of one tree's stages: tables from separate processes can differ by
more than the change being timed, so compare two trees with
``scripts/ab_suite.py``, which alternates them call by call in one process.
"""
from __future__ import annotations

import argparse
import io
import random
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from srclab import cli, curvature  # noqa: E402

from ingest_timing import StageClock  # noqa: E402
from inputs import eval_cases, eval_round, load_reference, write_case_files  # noqa: E402
from workloads import eval_argv  # noqa: E402

STAGES = ("argv", "spec", "oneform", "frame", "tensor", "print", "other")
FRAME_LAYERS = ("sweep", "frame", "brackets", "frame_g")


def wrap_stages(clock: StageClock) -> None:
    clock.wrap(argparse.ArgumentParser, "parse_known_args", "argv")
    clock.wrap(cli, "_attach_negative_point", "argv")
    clock.wrap(cli, "_load_spec", "spec")
    clock.wrap(cli, "_load_pi", "oneform")
    for name in FRAME_LAYERS:           # a layer's builder is its cached_property's func
        clock.wrap(vars(curvature.Evaluation)[name], "func", "frame")
    clock.wrap(curvature.Evaluation, "__getitem__", "tensor")
    clock.wrap(cli, "tensor_text", "print")


def request(clock: StageClock, argv) -> dict[str, float]:
    """Seconds per stage of one request, ``other`` and ``total`` included."""
    clock.spent.clear()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.cli_main(argv)
    total = time.perf_counter() - start
    if code:
        raise SystemExit(f"{' '.join(argv)}: exit {code}: {err.getvalue().strip()}")
    spent = {stage: clock.spent.get(stage, 0.0) for stage in STAGES[:-1]}
    spent["other"] = total - sum(spent.values())
    spent["total"] = total
    return spent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1, help="request order and points")
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args(argv)

    cases = eval_cases(load_reference())
    rng = random.Random(args.seed)
    clock = StageClock()
    with tempfile.TemporaryDirectory(prefix="eval-timing-") as tmp:
        files = write_case_files([case for case, _ in cases], Path(tmp))
        wrap_stages(clock)
        try:
            runs = []
            for index in range(args.rounds + 1):
                spent = [request(clock, eval_argv(files[req.case], req.tensor, req.point))
                         for req in eval_round(rng, cases)]
                if index:                       # round 0 warms up
                    runs += spent
        finally:
            clock.restore()
    total = statistics.median(run["total"] for run in runs)
    print(f"{len(runs)} single-point-eval requests, seed {args.seed}: median us per request")
    print(f"{'stage':<8} {'us':>8} {'share':>6}")
    for stage in STAGES:
        median = statistics.median(run[stage] for run in runs)
        print(f"{stage:<8} {median * 1e6:>8.1f} {median / total:>6.1%}")
    print(f"{'total':<8} {total * 1e6:>8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
