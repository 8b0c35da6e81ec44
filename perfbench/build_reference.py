"""Build perfbench/reference.json, the oracle table for single-point-eval.

Every value comes from ``tests/oracles.oracle_eval``, the independent sympy
route (symbolic brackets, exact linear solves, exact rational points), so the
reference shares no code with the jet/einsum engine the benchmark times.

Run from the repository root (takes about ten minutes on 2 cores, most of it
on curved-metric-l3)::

    python3 perfbench/build_reference.py

Points lie on the dyadic grid k/64, so the decimal the benchmark passes to
``srclab eval --point=`` parses to exactly the oracle's rational point.
The pool is fixed here; the workload seed only chooses among it.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
from sympy import Rational

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import oracle_eval  # noqa: E402
from srclab.catalog import builtin, catalog_names  # noqa: E402

GRID = 64
POINTS_PER_PAIR = 4
POOL_SEED = 1306
# `srclab eval --tensor` name -> oracle_eval key; S/Sbar/C/Cbar need rank >= 3.
TENSORS = {"coeff": "coeff", "Gamma": "Gamma", "Omega": "Om", "M": "Mc",
           "Lambda": "Lam", "K": "K", "R": "R", "ricci-K": "ricK",
           "ricci-R": "ricR", "scalar-K": "scalK", "scalar-R": "scalR",
           "S": "S", "Sbar": "Sbar", "C": "C", "Cbar": "Cbar", "W": "W",
           "Wbar": "Wbar", "pi-char": "plo", "alpha": "alpha"}


def oracle_pairs():
    """(entry, variant) pairs oracle_eval can evaluate.

    ``tests/oracles.sym_pi`` builds its whole variant table with ``c[3]``,
    so it raises IndexError for every one-form on the 3-coordinate entries
    (heisenberg1, flat3); those two contribute only their "none" pair.
    """
    pairs = []
    for name in catalog_names():
        entry = builtin(name)
        variants = [None]
        if entry.spec.n > 3:
            variants += [v.name for v in entry.pi_variants]
        pairs += [(name, v) for v in variants]
    return pairs


def main() -> None:
    rng = np.random.default_rng(POOL_SEED)
    table = []
    for name, variant in oracle_pairs():
        n = builtin(name).spec.n
        points = []
        for _ in range(POINTS_PER_PAIR):
            ks = [int(k) for k in rng.integers(-48, 49, size=n)]
            start = time.perf_counter()
            values = oracle_eval(name, variant, tuple(Rational(k, GRID) for k in ks))
            tensors = {cli: np.asarray(values[key]).tolist()
                       for cli, key in TENSORS.items() if key in values}
            points.append({"k": ks, "tensors": tensors})
            print(f"{name} {variant} {ks} {time.perf_counter() - start:.1f}s",
                  file=sys.stderr, flush=True)
        table.append({"entry": name, "variant": variant, "points": points})
    out = Path(__file__).with_name("reference.json")
    out.write_text(json.dumps({"grid": GRID, "pairs": table}, separators=(",", ":")) + "\n",
                   encoding="utf-8")


if __name__ == "__main__":
    main()
