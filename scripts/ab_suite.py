#!/usr/bin/env python3
"""Time two source trees against each other in one process, call by call.

Usage: python scripts/ab_suite.py WORKLOAD TREE_A TREE_B [--rounds N] [--seed S]

WORKLOAD is one of the benchmark's workloads (catalog-sweep,
expr-heavy-sweep, single-point-eval) and each TREE a checkout of this
repository.  Each tree's ``src/srclab`` is copied under a package name of its
own (``srclab_a``, ``srclab_b``) into a temporary directory and both are
imported here, so the two run on one interpreter, one heap and one CPU
frequency, which separate benchmark processes on a shared host do not give.

The inputs come from ``perfbench/inputs`` of the repository holding this
script, for the workload's seed.  A sweep call parses the spec, builds its
one-form, runs ``run_suite`` at 200 points and dumps the report as JSON; an
eval call runs one ``srclab eval`` request through the tree's ``cli_main``.
Every item of a round runs on both trees, the tree that goes first
alternating from item to item, after one untimed warm-up round.

It prints each side's ms per call and B's speed over A's (A's time / B's
time) per round, then per case (a spec and one-form pair) the median over
the rounds of B's speed over A's on that case's calls, how many rounds each
side won, and whether every output (report JSON; exit code, stdout and
stderr) was byte-identical between the trees.  The exit status is 0 when
they were, 1 when they were not.

The comparison is not neutral: on catalog-sweep it favours tree A by about
0.5%, for a reason not yet known.  A B/A speed within +-0.5%, or a count
such as B faster in 10 of 30 rounds, says nothing; a small claim needs runs
in both tree orders, A/B and B/A.
"""
from __future__ import annotations

import argparse
import importlib
import io
import random
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402
from workloads import STAMP, eval_argv  # noqa: E402

WORKLOADS = ("catalog-sweep", "expr-heavy-sweep", "single-point-eval")


def load_tree(tree: Path, name: str, into: Path):
    """The tree's srclab package imported as ``name`` from a copy in ``into``."""
    shutil.copytree(tree / "src" / "srclab", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return {mod: importlib.import_module(f"{name}.{mod}")
            for mod in ("parser", "connections", "verifier", "jsonio", "cli")}


def sweep_call(pkg, case, seed: int) -> str:
    """parse + one-form + run_suite(P=200) + dumps: the report's JSON text."""
    spec = pkg["parser"].parse_document(case.text).spec
    pi = None
    if case.pi_lines:
        exprs = tuple(pkg["parser"].parse_scalar_expression(line, spec.coords)
                      for line in case.pi_lines)
        pi = pkg["connections"].OneFormData.from_expressions(exprs, spec.n)
    config = pkg["verifier"].SuiteConfig(points=inputs.SWEEP_POINTS, seed=seed, flags=case.flags)
    report = pkg["verifier"].run_suite(spec, pi, config)
    return pkg["jsonio"].dumps(report.to_json_dict(STAMP))


def eval_call(pkg, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = pkg["cli"].cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def rounds(workload: str, seed: int, count: int, workdir: Path):
    """Per round, the (case name, call, arguments) items of the workload's inputs."""
    if workload == "single-point-eval":
        cases = inputs.eval_cases(inputs.load_reference())
        files = inputs.write_case_files([case for case, _ in cases], workdir)
        rng = random.Random(seed)
        for _ in range(count):
            yield [(req.case, eval_call, (eval_argv(files[req.case], req.tensor, req.point),))
                   for req in inputs.eval_round(rng, cases)]
        return
    cases = (inputs.catalog_cases() if workload == "catalog-sweep"
             else inputs.expr_heavy_cases(seed))
    for index in range(count):
        yield [(case.name, sweep_call, (case, inputs.suite_seed(seed, i, index)))
               for i, case in enumerate(cases)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("tree_a", type=Path)
    ap.add_argument("tree_b", type=Path)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="ab-suite-") as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp))
        pkgs = (load_tree(args.tree_a.resolve(), "srclab_a", tmp),
                load_tree(args.tree_b.resolve(), "srclab_b", tmp))
        print(f"{args.workload}, seed {args.seed}: A = {args.tree_a}, B = {args.tree_b}")
        print(f"{'round':>5} {'calls':>6} {'A ms/call':>10} {'B ms/call':>10} {'B speed/A':>10}")
        ratios, differ, calls, per_case = [], 0, 0, {}
        for index, items in enumerate(rounds(args.workload, args.seed, args.rounds + 1, tmp)):
            spent, by_case = [0.0, 0.0], {}
            for k, (case, call, item_args) in enumerate(items):
                outputs, case_spent = [None, None], by_case.setdefault(case, [0.0, 0.0])
                for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                    start = time.perf_counter()
                    outputs[side] = call(pkgs[side], *item_args)
                    took = time.perf_counter() - start
                    spent[side] += took
                    case_spent[side] += took
                if index:           # round 0 warms both trees up, untimed
                    differ += outputs[0] != outputs[1]
            if index:
                calls += len(items)
                ratios.append(spent[0] / spent[1])
                for case, (a, b) in by_case.items():
                    per_case.setdefault(case, []).append(a / b)
                print(f"{index:>5} {len(items):>6} {spent[0] * 1e3 / len(items):>10.3f} "
                      f"{spent[1] * 1e3 / len(items):>10.3f} {ratios[-1]:>10.3f}")
        sys.path.remove(str(tmp))
    width = max(map(len, per_case), default=4)
    print(f"{'case':<{width}} {'rounds':>6} {'median B speed/A':>16}")
    for case, case_ratios in per_case.items():
        print(f"{case:<{width}} {len(case_ratios):>6} {statistics.median(case_ratios):>16.3f}")
    wins_b = sum(r > 1 for r in ratios)
    print(f"median B speed/A {statistics.median(ratios):.3f}; B faster in {wins_b} of "
          f"{len(ratios)} rounds, A in {sum(r < 1 for r in ratios)}")
    print(f"outputs byte-identical: {'yes' if not differ else 'no'} "
          f"({differ} of {calls} calls differ)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
