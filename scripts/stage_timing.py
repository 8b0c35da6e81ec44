#!/usr/bin/env python3
"""Where one-point ``srclab eval`` requests spend their time, stage by stage.

Usage: python scripts/stage_timing.py eval [--seed N] [--rounds R]

eval times the functions ``EVAL`` names, in the ``srclab`` on the path, with
one ``StageClock``: the benchmark's single-point-eval workload, R rounds of
``inputs.eval_round`` for the seed after one untimed warm-up round, each
request run through ``cli_main`` with the argv the benchmark builds
(``workloads.eval_argv``), its output captured; other is the rest of
``cli_main``.  A row per stage gives its median over the requests and its
share of the median request; the last row is the median request (total).

Tables from separate processes can differ by more than a change being timed,
so compare two trees with ``scripts/ab_suite.py``, which alternates them call
by call in one process.
"""
from __future__ import annotations

import argparse
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from srclab import cli  # noqa: E402
from srclab.curvature import Evaluation  # noqa: E402

from inputs import eval_cases, eval_round, load_reference, write_case_files  # noqa: E402
from workloads import eval_argv, run_cli  # noqa: E402

EVAL = [
    (argparse.ArgumentParser, "parse_known_args", "argv"),  # every parser, nested calls too
    (cli, "_attach_negative_point", "argv"),
    (cli, "_load_spec", "spec"),                # reading and parsing the spec file, oneform too
    (cli, "_load_pi", "oneform"),               # reading and parsing the --pi one-form file
    # the builders (each a cached_property's func) of frame_g and the layers it reads
    *((vars(Evaluation)[name], "func", "frame")
      for name in sorted(Evaluation.graph()["frame_g"][1])),
    (Evaluation, "__getitem__", "tensor"),      # the other layers the tensor reads
    (cli, "tensor_text", "print"),              # a tensor's text; a scalar prints in other
]
EVAL_STAGES = ("argv", "spec", "oneform", "frame", "tensor", "print", "other")


class StageClock:
    """Exclusive time per stage of the functions in ``wraps`` (owner, name,
    stage), wrapped while the clock is entered: a call's time counts for its
    stage less the time of the wrapped calls inside it."""

    def __init__(self, rest: str, wraps):
        self.rest, self.wraps = rest, wraps     # rest: the time outside every wrapped call
        self.spent: dict[str, float] = {}
        self._inner: list[float] = []

    def _timed(self, original, stage: str):
        def timed(*args, **kwargs):
            self._inner.append(0.0)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                inner = self._inner.pop()
                self.spent[stage] = self.spent.get(stage, 0.0) + took - inner
                if self._inner:
                    self._inner[-1] += took
        return timed

    def __enter__(self):
        self._originals = [getattr(owner, name) for owner, name, _ in self.wraps]
        for (owner, name, stage), original in zip(self.wraps, self._originals):
            setattr(owner, name, self._timed(original, stage))
        return self

    def __exit__(self, *exc):
        for (owner, name, _), original in zip(self.wraps, self._originals):
            setattr(owner, name, original)

    def time(self, call, *args) -> dict[str, float]:
        """Seconds per stage of ``call(*args)``, the rest stage and ``total`` included."""
        self.spent.clear()
        start = time.perf_counter()
        call(*args)
        total = time.perf_counter() - start
        return {**self.spent, self.rest: total - sum(self.spent.values()), "total": total}


def medians(runs: list[dict[str, float]], scale: float) -> dict[str, float]:
    """Each stage's median over ``runs`` times ``scale``; a run without the stage counts 0."""
    return {stage: statistics.median(run.get(stage, 0.0) for run in runs) * scale
            for stage in {stage for run in runs for stage in run}}


def request(argv) -> None:
    code, _, err = run_cli(argv)
    if code:
        raise SystemExit(f"{' '.join(argv)}: exit {code}: {err.strip()}")


def eval_requests(args) -> None:
    cases = eval_cases(load_reference())
    rng, runs = random.Random(args.seed), []
    with tempfile.TemporaryDirectory(prefix="stage-timing-") as tmp, \
            StageClock("other", EVAL) as clock:
        files = write_case_files([case for case, _ in cases], Path(tmp))
        for index in range(args.rounds + 1):
            spent = [clock.time(request, eval_argv(files[req.case], req.tensor, req.point))
                     for req in eval_round(rng, cases)]
            if index:                       # round 0 warms up
                runs += spent
    m = medians(runs, 1e6)
    print(f"{len(runs)} single-point-eval requests, seed {args.seed}: median us per request")
    print(f"{'stage':<8} {'us':>8} {'share':>6}")
    for stage in EVAL_STAGES:
        print(f"{stage:<8} {m.get(stage, 0.0):>8.1f} {m.get(stage, 0.0) / m['total']:>6.1%}")
    print(f"{'total':<8} {m['total']:>8.1f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_subparsers(dest="mode", required=True).add_parser(
        "eval", help="single-point-eval requests by stage")
    mode.add_argument("--seed", type=int, default=1, help="request order and points")
    mode.add_argument("--rounds", type=int, default=3)
    eval_requests(ap.parse_args(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
