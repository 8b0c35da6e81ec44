#!/usr/bin/env python3
"""Sweep the finite-difference step against the jet directional derivative.

Usage: python scripts/fd_step_sweep.py [--builtin NAME]

Prints, for a handful of catalog expressions, the relative disagreement
between the jet-based directional derivative and a central difference as the
step shrinks: the classic V-shape (truncation error falling, then rounding
error rising) with the jet value at the bottom, since the jets carry exact
derivatives and need no step at all.
"""
import argparse

import numpy as np

from srclab.catalog import builtin
from srclab.jets import fd_crosscheck
from srclab.manifold import sample_points
from srclab.parser import parse_scalar_expression

STEPS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-10)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--builtin", default="curved-metric-l3")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    entry = builtin(args.builtin)
    spec = entry.spec
    exprs = [e for row in spec.metric for e in row]
    exprs += [e for vf in spec.hframe for e in vf.components]
    for variant in entry.pi_variants:
        exprs += [parse_scalar_expression(t, spec.coords)
                  for t in variant.expressions]
    point = sample_points(spec, 1, args.seed)[0]
    print(f"{args.builtin} at {np.round(point, 3).tolist()}")
    print(f"{'step':>8s}  max relative |jet - central difference|")
    for step in STEPS:
        worst = 0.0
        for expr in exprs:
            for frame in spec.hframe:
                worst = max(worst, fd_crosscheck(expr, point, frame.components, step))
        print(f"{step:8.0e}  {worst:.3e}")


if __name__ == "__main__":
    main()
