"""Command-line driver.

Subcommands: ``verify`` (run the check suite, optionally write a JSON
report), ``eval`` (print one tensor at one point), ``catalog`` (list
builtins), ``checks`` (enumerate the check table), ``parse`` (validate a
manifold file).  Exit codes: 0 success, 1 check failure, 2 usage/parse error.
"""
from __future__ import annotations

import argparse
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import jsonio
from .catalog import builtin, catalog_names
from .connections import (OneFormData, koszul_connection, semi_connection,
                          torsion)
from .curvature import (characteristic_tensor, conformal_tensor,
                        projective_tensor, s_tensor, schouten_curvature)
from .errors import ParseError, SrclabError, ValidationError
from .manifold import snapshot
from .parser import parse_manifold, parse_scalar_expression
from .verifier import CHECKS, SuiteConfig, run_suite

_TENSORS = ("g", "ginv", "E", "Omega", "M", "Lambda", "coeff", "Gamma",
            "torsion", "K", "R", "ricci-K", "ricci-R", "scalar-K", "scalar-R",
            "S", "Sbar", "C", "Cbar", "W", "Wbar", "pi-char", "alpha")


def _build_argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="srclab",
                                  description="sub-Riemannian tensor calculus and "
                                              "identity verification")
    sub = top.add_subparsers(dest="command", required=True)

    def add_spec_args(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--builtin", help="catalog entry name")
        group.add_argument("--spec", help="path to a manifold file")
        p.add_argument("--pi", help="one-form: const:a,b,... or file:PATH "
                                    "(one expression per line)")

    verify = sub.add_parser("verify", help="run the identity suite")
    add_spec_args(verify)
    verify.add_argument("--points", type=int, default=20)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--tol", type=float, default=None,
                        help="override every check tolerance")
    verify.add_argument("--json", help="write the JSON report here")
    verify.add_argument("--quiet", action="store_true")

    ev = sub.add_parser("eval", help="print one tensor at one point")
    add_spec_args(ev)
    ev.add_argument("--tensor", required=True, choices=_TENSORS)
    ev.add_argument("--point", required=True, help="comma-separated coordinates")

    sub.add_parser("catalog", help="list builtin entries")
    sub.add_parser("checks", help="enumerate the check table")

    parse_cmd = sub.add_parser("parse", help="validate a manifold file")
    parse_cmd.add_argument("file")
    return top


def _load_spec(args):
    if args.builtin:
        entry = builtin(args.builtin)
        return entry.spec, entry.flags
    text = Path(args.spec).read_text(encoding="utf-8")
    return parse_manifold(text), frozenset()


def _load_pi(arg: str | None, spec) -> OneFormData | None:
    if arg is None:
        if spec.oneform is not None:     # the file's bundled one-form is the default
            return OneFormData.from_expressions(spec.oneform, spec.n)
        return None
    if arg.startswith("const:"):
        values = [float(v) for v in arg[len("const:"):].split(",")]
        if len(values) != spec.ell:
            raise ValidationError(
                f"--pi const needs {spec.ell} components, got {len(values)}")
        return OneFormData.constant(values, spec.n)
    if arg.startswith("file:"):
        lines = [ln.strip() for ln in
                 Path(arg[len("file:"):]).read_text(encoding="utf-8").splitlines()
                 if ln.strip() and not ln.strip().startswith("#")]
        if len(lines) != spec.ell:
            raise ValidationError(
                f"--pi file needs {spec.ell} expressions, got {len(lines)}")
        exprs = tuple(parse_scalar_expression(ln, spec.coords) for ln in lines)
        return OneFormData.from_expressions(exprs, spec.n)
    raise ValidationError("--pi must start with 'const:' or 'file:'")


def _cmd_verify(args) -> int:
    spec, flags = _load_spec(args)
    pi = _load_pi(args.pi, spec)
    config = SuiteConfig(points=args.points, seed=args.seed, tol=args.tol,
                         flags=flags)
    report = run_suite(spec, pi, config)
    if not args.quiet:
        for rec in report.checks:
            if rec.skipped:
                status = f"SKIP ({rec.skipped_reason})"
                print(f"{rec.id}  {status:28s} {rec.description}")
            else:
                status = "PASS" if rec.passed else "FAIL"
                print(f"{rec.id}  {status}  rel {rec.max_rel_residual:.3e} "
                      f"(tol {rec.tolerance:.1e}, {rec.points_evaluated} pts)  "
                      f"{rec.description}")
        for warning in report.warnings:
            print(f"warning: {warning}", file=sys.stderr)
    if args.json:
        stamp = datetime.now(timezone.utc).isoformat()
        Path(args.json).write_text(jsonio.dumps(report.to_json_dict(stamp)),
                                   encoding="utf-8")
    return 0 if report.passed() else 1


def _cmd_eval(args) -> int:
    spec, _ = _load_spec(args)
    try:
        point = np.array([float(v) for v in args.point.split(",")])
    except ValueError:
        raise ValidationError(f"--point needs comma-separated numbers, got {args.point!r}") from None
    if point.shape != (spec.n,):
        raise ValidationError(f"--point needs {spec.n} coordinates")
    pi = _load_pi(args.pi, spec) or OneFormData.zero(spec.ell, spec.n)
    name = args.tensor

    def bundle(kind):
        conn = (koszul_connection(spec) if kind == "K"
                else semi_connection(spec, pi))
        return schouten_curvature(conn, point)

    if name in ("g", "ginv", "E", "Omega", "M", "Lambda"):
        snap = snapshot(spec, point)
        value = {"g": snap.g, "ginv": snap.ginv, "E": snap.E, "Omega": snap.Omega,
                 "M": snap.Mcoef, "Lambda": snap.Lambda}[name]
    elif name == "coeff":
        value = koszul_connection(spec).coefficients(point)
    elif name == "Gamma":
        value = semi_connection(spec, pi).coefficients(point)
    elif name == "torsion":
        value = torsion(semi_connection(spec, pi), point)
    elif name in ("K", "R"):
        value = bundle(name).curv
    elif name in ("ricci-K", "ricci-R"):
        value = bundle(name[-1]).ricci
    elif name in ("scalar-K", "scalar-R"):
        value = bundle(name[-1]).scalar
    elif name in ("S", "Sbar"):
        value = s_tensor(bundle("K" if name == "S" else "R"), spec, point)
    elif name in ("C", "Cbar"):
        value = conformal_tensor(bundle("K" if name == "C" else "R"), spec, point)
    elif name in ("W", "Wbar"):
        value = projective_tensor(bundle("K" if name == "W" else "R"), spec, point)
    elif name == "pi-char":
        value = characteristic_tensor(spec, pi, point).pi_lower
    else:
        value = characteristic_tensor(spec, pi, point).alpha
    if isinstance(value, float):
        print(f"{value:.17g}")
    else:
        print(np.array2string(np.asarray(value), precision=12, suppress_small=False))
    return 0


def _cmd_catalog() -> int:
    for name in catalog_names():
        entry = builtin(name)
        spec = entry.spec
        variants = ", ".join(v.name for v in entry.pi_variants) or "-"
        flags = ", ".join(sorted(entry.flags)) or "-"
        skips = sorted(cid for cid, status in entry.annotations["none"].items()
                       if status == "skip")
        fails = sorted({cid for table in entry.annotations.values()
                        for cid, status in table.items() if status == "fail"})
        print(f"{name:18s} dim {spec.n}  hdim {spec.ell}  flags [{flags}]  "
              f"pi variants: {variants}")
        if skips:
            print(f"{'':18s} expected skips (rank): {', '.join(skips)}")
        if fails:
            print(f"{'':18s} expected failures (nonzero pi): {', '.join(fails)}")
    return 0


def _cmd_checks() -> int:
    for check in CHECKS:
        meta = check.meta
        print(f"{meta.id}  rank>={meta.required_rank}  tol {meta.tolerance:.1e}  "
              f"{meta.description}")
        print(f"      {meta.paper_ref}")
    return 0


def _cmd_parse(args) -> int:
    text = Path(args.file).read_text(encoding="utf-8")
    spec = parse_manifold(text)
    print(f"OK: {spec.name} (dim {spec.n}, hdim {spec.ell}, "
          f"oneform {'yes' if spec.oneform else 'no'})")
    return 0


def _attach_negative_point(argv) -> list[str]:
    """Rewrite ``--point -0.5,...`` as ``--point=-0.5,...``: argparse takes a
    value that starts with '-' and is not a plain number for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--point" and re.match(r"-\.?\d", arg):
            out[-1] = f"--point={arg}"
        else:
            out.append(arg)
    return out


def cli_main(argv) -> int:
    """Run the CLI on an argument list; returns the exit code."""
    parser = _build_argparser()
    try:
        args = parser.parse_args(_attach_negative_point(argv))
    except SystemExit as exc:       # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "catalog":
            return _cmd_catalog()
        if args.command == "checks":
            return _cmd_checks()
        return _cmd_parse(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SrclabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
