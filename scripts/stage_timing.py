#!/usr/bin/env python3
"""Where ingestion and one-point ``srclab eval`` requests spend their time, stage by stage.

Usage: python scripts/stage_timing.py ingest [--seed N] [--repeats R]
       python scripts/stage_timing.py eval [--seed N] [--rounds R]

Each mode times the functions its table (``INGEST``, ``EVAL``) names, in the
``srclab`` on the path, with one ``StageClock``; the time outside them counts
for the mode's rest stage.

ingest: for the six catalog specs (each with its last one-form variant) and
the four specs of ``perfbench/inputs.expr_heavy_cases(seed)`` (with their
one-forms), a repeat runs ``parse_document(text)`` and ``inputs.build_pi``
on the one-form lines, as the benchmark's sweeps ingest them: compile builds
the jet programs, valid checks the spec, parse is the rest.  A row per spec
gives its expression nodes (``inputs.expression_nodes`` over
``inputs.spec_expressions``: tree nodes, a shared subtree counted once per
place) and, per node, the median of each stage and of the total.

eval: the benchmark's single-point-eval workload, R rounds of
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

from srclab import cli, curvature, jets  # noqa: E402
from srclab.catalog import builtin, catalog_names  # noqa: E402
from srclab.manifold import ManifoldSpec  # noqa: E402
from srclab.parser import parse_document  # noqa: E402

from inputs import (build_pi, eval_cases, eval_round, expr_heavy_cases,  # noqa: E402
                    expression_nodes, load_reference, spec_expressions, write_case_files)
from workloads import eval_argv, run_cli  # noqa: E402

INGEST = [(ManifoldSpec, "__post_init__", "valid"),
          (jets.JetProgram, "__init__", "compile"), (jets.ValueTable, "program", "compile")]
EVAL = [
    (argparse.ArgumentParser, "parse_known_args", "argv"),  # every parser, nested calls too
    (cli, "_attach_negative_point", "argv"),
    (cli, "_load_spec", "spec"),                # reading and parsing the spec file, oneform too
    (cli, "_load_pi", "oneform"),               # reading and parsing the --pi one-form file
    # the builders (each a cached_property's func) of the frame layers the tensor reads
    *((vars(curvature.Evaluation)[name], "func", "frame")
      for name in ("sweep", "frame", "brackets", "frame_g")),
    (curvature.Evaluation, "__getitem__", "tensor"),    # the other layers the tensor reads
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


def ingest(args) -> None:
    specs = [(entry.name, entry.source, tuple(entry.pi_variants[-1].expressions))
             for entry in map(builtin, catalog_names())]
    specs += [(case.name, case.text, case.pi_lines) for case in expr_heavy_cases(args.seed)]
    print(f"{'spec':<18} {'nodes':>6} {'parse':>7} {'valid':>7} {'compile':>8} "
          f"{'total':>7}   (us per node, median of {args.repeats})")
    with StageClock("parse", INGEST) as clock:
        for name, text, pi_lines in specs:
            spec = parse_document(text).spec
            nodes = sum(map(expression_nodes, spec_expressions(spec, build_pi(spec, pi_lines))))
            m = medians([clock.time(lambda: build_pi(parse_document(text).spec, pi_lines))
                         for _ in range(args.repeats)], 1e6 / nodes)
            print(f"{name:<18} {nodes:>6} {m['parse']:>7.3f} {m.get('valid', 0.0):>7.3f} "
                  f"{m.get('compile', 0.0):>8.3f} {m['total']:>7.3f}")


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
    modes = ap.add_subparsers(dest="mode", required=True)
    mode = modes.add_parser("ingest", help="parse, validation and compile per expression node")
    mode.add_argument("--seed", type=int, default=1, help="expr_heavy_cases seed")
    mode.add_argument("--repeats", type=int, default=50)
    mode.set_defaults(run=ingest)
    mode = modes.add_parser("eval", help="single-point-eval requests by stage")
    mode.add_argument("--seed", type=int, default=1, help="request order and points")
    mode.add_argument("--rounds", type=int, default=3)
    mode.set_defaults(run=eval_requests)
    args = ap.parse_args(argv)
    args.run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
