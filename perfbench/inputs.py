"""Workload inputs: catalog pairs, seeded expression-heavy specs, eval requests.

Everything here is a pure function of the workload seed (and of the committed
oracle table), so two runs with one seed see identical inputs; ``digest``
hashes them so that can be shown.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import numpy as np

from srclab.catalog import builtin, catalog_names
from srclab.connections import OneFormData
from srclab.jets import Expression
from srclab.parser import parse_scalar_expression
from srclab.verifier import CHECK_IDS

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SWEEP_POINTS = 200


@dataclasses.dataclass(frozen=True)
class Case:
    """One manifold + one-form, as the text a user would hand to srclab."""

    name: str
    text: str                       # manifold source, parsed afresh per call
    pi_lines: tuple[str, ...]       # one expression per horizontal index; () for none
    flags: frozenset = frozenset()
    expected: tuple[tuple[str, str], ...] = ()   # (check id, status)


def build_pi(spec, pi_lines) -> OneFormData | None:
    """The one-form of a case; None (srclab's zero one-form) when it has none."""
    if not pi_lines:
        return None
    exprs = tuple(parse_scalar_expression(line, spec.coords) for line in pi_lines)
    return OneFormData.from_expressions(exprs, spec.n)


def status(record) -> str:
    if record.skipped:
        return "skip"
    return "pass" if record.passed else "fail"


def expression_nodes(expr: Expression) -> int:
    """Node count of an expression tree (every node type, via its fields)."""
    count, stack = 0, [expr]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(v for f in dataclasses.fields(node)
                     if isinstance(v := getattr(node, f.name), Expression))
    return count


def spec_expressions(spec, pi) -> list[Expression]:
    """Frame, metric and one-form expressions of a parsed spec."""
    out = [c for vf in spec.hframe + spec.vframe for c in vf.components]
    out += [e for row in spec.metric for e in row]
    return out + ([c.expr for c in pi.components] if pi is not None else [])


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()[:16]


# --------------------------------------------------------------------------
# catalog-sweep: every (entry, one-form) pair of the builtin catalog
# --------------------------------------------------------------------------

def catalog_cases() -> list[Case]:
    cases = []
    for name in catalog_names():
        entry = builtin(name)
        for variant in (None,) + tuple(v.name for v in entry.pi_variants):
            lines = entry.variant(variant).expressions if variant else ()
            expected = tuple((cid, entry.expected_status(variant, cid))
                             for cid in CHECK_IDS)
            cases.append(Case(f"{name}/{variant or 'none'}", entry.source,
                              tuple(lines), entry.flags, expected))
    return cases


# --------------------------------------------------------------------------
# expr-heavy-sweep: seeded free step-2 frames with large expressions
# --------------------------------------------------------------------------

def _coef(rng) -> str:
    return repr(rng.randint(1, 16) / 32)      # dyadic, printed and parsed exactly


def _term(rng, coords, degree) -> str:
    return "*".join([_coef(rng)] + [rng.choice(coords) for _ in range(degree)])


def _poly(rng, coords, degrees) -> str:
    """Sum of monomials with the given degrees; every sign is a binary +/-,
    so the tree shape depends only on ``degrees``, never on the seed."""
    out = _term(rng, coords, degrees[0])
    for deg in degrees[1:]:
        out += f" {rng.choice('+-')} {_term(rng, coords, deg)}"
    return out


def expr_heavy_case(rng: random.Random, ell: int, label: str) -> Case:
    """Free step-2 frame X_i = dx_i + sum_b f_ib dz_b, metric L L^T + I.

    The frame matrix is unit lower-triangular (det E = 1 everywhere) and the
    metric is SPD by construction, so every generated spec is valid and
    nothing is resampled.
    """
    xs = [f"x{i + 1}" for i in range(ell)]
    zs = [f"z{i + 1}{j + 1}" for i in range(ell) for j in range(i + 1, ell)]
    coords = xs + zs
    lines = [f"manifold {label}", f"dim {len(coords)}", f"hdim {ell}",
             "coords " + " ".join(coords), "hframe"]
    for i, x in enumerate(xs):
        terms = [f"d{x}"]
        for z in zs:
            trig = f"{rng.choice(('sin', 'cos'))}({rng.choice(coords)})"
            f = f"{_poly(rng, coords, (1, 1, 2, 2, 3))} + 0.25*{trig}"
            terms.append(f"({f}) d{z}")
        lines.append(f"  X{i + 1} = " + " + ".join(terms))
    lines.append("vframe")
    lines += [f"  Z{z[1:]} = d{z}" for z in zs]
    L = {(i, k): _poly(rng, coords, (0, 1, 2))
         for i in range(ell) for k in range(i + 1)}
    lines.append("metric rows")
    rows = [[""] * ell for _ in range(ell)]
    for i in range(ell):
        for j in range(i + 1):
            g = " + ".join(f"({L[i, k]})*({L[j, k]})" for k in range(j + 1))
            rows[i][j] = rows[j][i] = f"{g} + 1" if i == j else g
    lines += ["  " + ", ".join(row) for row in rows]
    pi_lines = tuple(f"sin({rng.choice(xs)}) + {_poly(rng, coords, (1, 2))}"
                     for _ in range(ell))
    expected = tuple((cid, "fail" if cid == "C13" else "pass") for cid in CHECK_IDS)
    return Case(label, "\n".join(lines) + "\n", pi_lines, frozenset(), expected)


def expr_heavy_cases(seed: int) -> list[Case]:
    rng = random.Random(seed)
    return [expr_heavy_case(rng, ell, f"expr-r{ell}-{tag}")
            for ell, tag in ((3, "a"), (3, "b"), (4, "a"), (4, "b"))]


def suite_seed(seed: int, case_index: int, pass_index: int) -> int:
    """run_suite seed of one sweep call, derived from the workload seed."""
    return (seed * 1_000_003 + case_index * 7_919 + pass_index) % 2**31


# --------------------------------------------------------------------------
# single-point-eval: CLI eval requests checked against the oracle table
# --------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Request:
    case: str                # key into the written spec/pi files
    tensor: str
    point: tuple[float, ...]
    want: np.ndarray


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def eval_cases(reference: dict) -> list[tuple[Case, list]]:
    """(Case, [(point, {tensor: oracle array})]) for every pair the table covers."""
    grid = reference["grid"]
    out = []
    for pair in reference["pairs"]:
        entry = builtin(pair["entry"])
        variant = pair["variant"]
        lines = entry.variant(variant).expressions if variant else ()
        case = Case(f"{entry.name}/{variant or 'none'}", entry.source, tuple(lines))
        pool = [(tuple(k / grid for k in pt["k"]),
                 {name: np.asarray(value, dtype=float) for name, value in pt["tensors"].items()})
                for pt in pair["points"]]
        out.append((case, pool))
    return out


def eval_round(rng: random.Random, cases) -> list[Request]:
    """Every (pair, tensor) once, in seeded order, each at a seeded pool point."""
    reqs = []
    for case, pool in cases:
        for tensor in pool[0][1]:
            point, tensors = rng.choice(pool)
            reqs.append(Request(case.name, tensor, point, tensors[tensor]))
    rng.shuffle(reqs)
    return reqs


def write_case_files(cases, directory: Path) -> dict[str, tuple[Path, Path | None]]:
    """Spec file and one-form file (None without one-form) per case, as
    ``srclab eval --spec/--pi`` reads them."""
    files = {}
    for idx, case in enumerate(cases):
        spec_path = directory / f"case{idx}.manifold"
        spec_path.write_text(case.text, encoding="utf-8")
        pi_path = None
        if case.pi_lines:
            pi_path = directory / f"case{idx}.pi"
            pi_path.write_text("".join(line + "\n" for line in case.pi_lines),
                               encoding="utf-8")
        files[case.name] = (spec_path, pi_path)
    return files
