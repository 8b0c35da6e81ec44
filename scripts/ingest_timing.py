#!/usr/bin/env python3
"""Ingestion cost per expression node: parse, validation and compile.

Usage: python scripts/ingest_timing.py [--seed N] [--repeats R]

Ingestion turns a spec's source text and its one-form lines into the jet
programs a suite run evaluates.  For the six catalog specs (each with its
last one-form variant) and the four specs of
``perfbench/inputs.expr_heavy_cases(seed)`` (with their one-forms), one
repeat runs, in this process, ``parse_document(text)``, the one-form lines
through ``inputs.build_pi`` (as the benchmark's sweeps ingest them), and a
first read of the spec's frame and metric program and the one-form's
(``spec._jet_program``, ``pi._jet_program``; a tree from before the one
program reads the pair ``spec._jet_programs``).  Its time splits into three
exclusive stages:

* compile: inside ``JetProgram.__init__`` or ``ValueTable.program``, wherever
  they are called, building the programs;
* validation: inside ``ManifoldSpec.__post_init__``, outside compile;
* parse: the rest.

It prints the medians over the repeats in microseconds per expression node,
where the nodes are the benchmark's count (``inputs.expression_nodes`` over
``inputs.spec_expressions``: tree nodes, a shared subtree counted once per
place), and the median total.  The functions it times are looked up by name,
so it runs on trees without a ``ValueTable`` too: run it on two trees to
compare their ingestion.
"""
from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from srclab import jets  # noqa: E402
from srclab.catalog import builtin, catalog_names  # noqa: E402
from srclab.manifold import ManifoldSpec  # noqa: E402
from srclab.parser import parse_document  # noqa: E402

from inputs import build_pi, expr_heavy_cases, expression_nodes, spec_expressions  # noqa: E402


class StageClock:
    """Exclusive time per stage of the wrapped functions: a call's time
    counts for its stage less the time of the wrapped calls inside it."""

    def __init__(self):
        self.spent: dict[str, float] = {}
        self._inner: list[float] = []
        self._patched: list[tuple] = []

    def wrap(self, owner, name: str, stage: str) -> None:
        original = getattr(owner, name)

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

        setattr(owner, name, timed)
        self._patched.append((owner, name, original))

    def restore(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)


def cases(seed: int) -> list[tuple[str, str, tuple[str, ...]]]:
    """(name, source text, one-form lines) of every spec covered."""
    out = []
    for name in catalog_names():
        entry = builtin(name)
        out.append((name, entry.source, tuple(entry.pi_variants[-1].expressions)))
    out += [(case.name, case.text, case.pi_lines) for case in expr_heavy_cases(seed)]
    return out


def ingest_once(clock: StageClock, text: str, pi_lines) -> tuple[float, float, float]:
    """(parse, validation, compile) seconds of one ingestion."""
    clock.spent.clear()
    start = time.perf_counter()
    spec = parse_document(text).spec
    pi = build_pi(spec, pi_lines)
    getattr(spec, "_jet_program", None) or spec._jet_programs
    if pi is not None:
        pi._jet_program
    total = time.perf_counter() - start
    valid, comp = clock.spent.get("validation", 0.0), clock.spent.get("compile", 0.0)
    return total - valid - comp, valid, comp


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1, help="expr_heavy_cases seed")
    ap.add_argument("--repeats", type=int, default=50)
    args = ap.parse_args(argv)

    clock = StageClock()
    clock.wrap(ManifoldSpec, "__post_init__", "validation")
    clock.wrap(jets.JetProgram, "__init__", "compile")
    if hasattr(jets, "ValueTable"):
        clock.wrap(jets.ValueTable, "program", "compile")
    try:
        print(f"{'spec':<18} {'nodes':>6} {'parse':>7} {'valid':>7} {'compile':>8} "
              f"{'total':>7}   (us per node, median of {args.repeats})")
        for name, text, pi_lines in cases(args.seed):
            spec = parse_document(text).spec
            nodes = sum(map(expression_nodes, spec_expressions(spec, build_pi(spec, pi_lines))))
            runs = [ingest_once(clock, text, pi_lines) for _ in range(args.repeats)]
            parse, valid, comp = (statistics.median(stage) * 1e6 / nodes for stage in zip(*runs))
            total = statistics.median(sum(run) for run in runs) * 1e6 / nodes
            print(f"{name:<18} {nodes:>6} {parse:>7.3f} {valid:>7.3f} {comp:>8.3f} {total:>7.3f}")
    finally:
        clock.restore()
    return 0


if __name__ == "__main__":
    sys.exit(main())
