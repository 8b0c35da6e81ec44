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
from functools import cache
from pathlib import Path

import numpy as np

from . import jsonio
from .catalog import builtin, catalog_names
from .connections import OneFormData
from .curvature import TENSORS, Evaluation
from .errors import DomainError, SrclabError, ValidationError
from .parser import _Lines, parse_document, parse_oneform
from .verifier import CHECK_IDS, CHECKS, SuiteConfig, _quiet, run_suite


@cache         # built once per process: argparse keeps no state between parse_args calls
def _build_argparser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommands' parsers by name."""
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
    ev.add_argument("--tensor", required=True, choices=tuple(TENSORS))
    ev.add_argument("--point", required=True, help="comma-separated coordinates")

    catalog = sub.add_parser("catalog", help="list builtin entries")
    checks = sub.add_parser("checks", help="enumerate the check table")

    parse_cmd = sub.add_parser("parse", help="validate a manifold file")
    parse_cmd.add_argument("file")
    return top, {"verify": verify, "eval": ev, "catalog": catalog, "checks": checks,
                 "parse": parse_cmd}


def _read_text(path: str) -> str:
    """A UTF-8 file's text, its line endings as written (the parsers split lines
    themselves); a ValidationError naming the first byte that is not UTF-8.

    One unbuffered read of the bytes of ``Path(path)``, the file that
    ``Path.read_text`` opens, so a path like ``x/`` or ``''`` opens what it
    opened before and an OSError spells the path as ``Path`` does."""
    try:
        with open(Path(path), "rb", buffering=0) as f:
            return f.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text at byte {exc.start}") from None


def _load_spec(args):
    """The spec, its check flags and its default one-form: a spec file's oneform line, or None."""
    if args.builtin:
        entry = builtin(args.builtin)
        return entry.spec, entry.flags, None
    doc = parse_document(_read_text(args.spec))
    return doc.spec, frozenset(), doc.oneform


def _numbers(text: str, what: str) -> np.ndarray:
    """Comma-separated finite numbers, else a ValidationError naming ``what``."""
    try:
        values = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise ValidationError(f"{what} needs comma-separated numbers, got {text!r}") from None
    if not np.isfinite(values).all():
        raise ValidationError(f"{what} needs finite numbers, got {text!r}")
    return values


def _load_pi(arg: str | None, spec, default: OneFormData | None) -> OneFormData | None:
    """The one-form ``--pi`` gives, else ``default``."""
    if arg is None:
        return default
    if arg.startswith("const:"):
        values = _numbers(arg[len("const:"):], "--pi const")
        if len(values) != spec.ell:
            raise ValidationError(
                f"--pi const needs {spec.ell} components, got {len(values)}")
        return OneFormData.constant(values, spec.n)
    if arg.startswith("file:"):
        lines = _Lines(_read_text(arg[len("file:"):])).expressions()
        if len(lines) != spec.ell:
            raise ValidationError(
                f"--pi file needs {spec.ell} expressions, got {len(lines)}")
        return parse_oneform(lines, spec.coords)
    raise ValidationError("--pi must start with 'const:' or 'file:'")


def _cmd_verify(args) -> int:
    spec, flags, default = _load_spec(args)
    pi = _load_pi(args.pi, spec, default)
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
    spec, _, default = _load_spec(args)
    point = _numbers(args.point, "--point")
    if point.shape != (spec.n,):
        raise ValidationError(f"--point needs {spec.n} coordinates")
    with _quiet():          # a value that is not finite is reported below
        value = Evaluation(spec, _load_pi(args.pi, spec, default), point[None])[args.tensor][0]
    if not np.isfinite(value).all():
        raise DomainError(f"{args.tensor} is not finite at {point.tolist()}")
    print(f"{value:.17g}" if np.ndim(value) == 0 else tensor_text(value))
    return 0


def tensor_text(value: np.ndarray) -> str:
    """``np.array2string(value, precision=12, suppress_small=False,
    threshold=sys.maxsize)`` under numpy's default print options, for a finite
    float array with at least one entry, whatever the caller's print options.

    numpy's FloatingFormat prints in scientific notation when a nonzero |x| is
    >= 1e8 or < 1e-4, or the largest nonzero |x| over the smallest exceeds 1000,
    and positionally otherwise.  It first takes each entry's shortest unique
    digits cut at 12 places, trailing zeros trimmed.  A positional entry prints
    those, padded with spaces to the widest integer part and fraction.  A
    scientific entry prints its exact value rounded to as many places as the
    longest of those fractions, its exponent padded to the most digits.  C's
    ``%.12f`` and ``%.12e`` round the exact value, which gives the shortest
    digits whenever they fit in 12 places and lie within half the last place of
    the value: always, except for positional values from 2**13 up, where
    ``repr`` gives them, and for subnormals (see :func:`_subnormal`)."""
    flat = value.ravel().tolist()
    nonzero = [abs(x) for x in flat if x]
    top, bottom = (max(nonzero), min(nonzero)) if nonzero else (0.0, 1.0)
    if top >= 1e8 or bottom < 1e-4 or top / bottom > 1e3:
        first = ("%.12e\n" * len(flat) % tuple(flat)).split()
        if bottom < sys.float_info.min:
            first = [_subnormal(x) if 0 < abs(x) < sys.float_info.min else t
                     for x, t in zip(flat, first)]
        trailing = re.findall("0*e", " ".join(first))     # each mantissa's zeros, and its e
        places = 13 - min(map(len, trailing))
        sign = " " if np.signbit(value).any() else ""
        text = f"%{sign}#.{places}e\n" * len(flat) % tuple(flat)
        if re.search(r"e[+-]\d{3}", text):
            text = re.sub(r"e([+-])(\d\d)$", r"e\g<1>0\2", text, flags=re.M)
        fields = text.split("\n")[:-1]
        entry, width = "%s", len(fields[0])
    else:
        mantissas = ("%.12f\n" * len(flat) % tuple(flat)).split()
        if top >= 2.0 ** 13:
            mantissas = [r if len(r) - r.index(".") <= 13 else t
                         for r, t in zip(map(repr, flat), mantissas)]
        fields = ".".join([m.rstrip("0") for m in mantissas]).split(".")
        left, right = max(map(len, fields[::2])), max(map(len, fields[1::2]))
        entry, width = f"%{left}s.%-{right}s", left + 1 + right
    text = _nesting(entry, width, value.shape) % tuple(fields)
    return re.sub(" +\n", "\n", text) if " \n" in text else text


def _subnormal(x: float) -> str:
    """A subnormal x's first digits in ``%.12e`` form: its shortest unique digits
    when they fit in 13, else its exact value rounded to 13; its ulp can exceed
    half the 13th digit, so ``%.12e`` alone can miss the shortest digits."""
    mantissa, exponent = repr(x).split("e")
    head, _, fraction = mantissa.partition(".")
    return f"{head}.{fraction:0<12}e{exponent}" if len(fraction) <= 12 else "%.12e" % x


def _nesting(entry: str, width: int, shape: tuple[int, ...]) -> str:
    """numpy's _formatArray at 75 columns as a format string of ``entry``s that
    print ``width`` characters each, in C order: rows in brackets, wrapped with a
    hanging indent; blocks one line apart per axis below them.  A wrapped line
    keeps its last entry's padding, which numpy strips."""
    depth, row = len(shape) - 1, shape[-1]
    per_line = max(1, (74 - 2 * depth) // (width + 1))
    lines = [" ".join([entry] * min(per_line, row - i)) for i in range(0, row, per_line)]
    nested = "[" + ("\n" + " " * (depth + 1)).join(lines) + "]"
    for axis in range(depth - 1, -1, -1):
        nested = "[" + ("\n" * (depth - axis) + " " * (axis + 1)).join(
            [nested] * shape[axis]) + "]"
    return nested


def _cmd_catalog() -> int:
    for name in catalog_names():
        entry = builtin(name)
        spec = entry.spec
        variants = ", ".join(v.name for v in entry.pi_variants) or "-"
        flags = ", ".join(sorted(entry.flags)) or "-"
        skips = [cid for cid in CHECK_IDS if entry.expected_status(None, cid) == "skip"]
        fails = [cid for cid in CHECK_IDS if any(entry.expected_status(v.name, cid) == "fail"
                                                 for v in entry.pi_variants)]
        print(f"{name:18s} dim {spec.n}  hdim {spec.ell}  flags [{flags}]  "
              f"pi variants: {variants}")
        if skips:
            print(f"{'':18s} expected skips (rank): {', '.join(skips)}")
        if fails:
            print(f"{'':18s} expected failures (nonzero pi): {', '.join(fails)}")
    return 0


def _cmd_checks() -> int:
    for check in CHECKS:
        print(f"{check.id}  rank>={check.required_rank}  tol {check.tolerance:.1e}  "
              f"{check.description}")
        print(f"      {check.paper_ref}")
    return 0


def _cmd_parse(args) -> int:
    doc = parse_document(_read_text(args.file))
    print(f"OK: {doc.spec.name} (dim {doc.spec.n}, hdim {doc.spec.ell}, "
          f"oneform {'no' if doc.oneform is None else 'yes'})")
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


def _parse_args(argv) -> argparse.Namespace:
    """The top-level parser's reading of ``argv``, in one scan when ``argv[0]``
    names a subcommand: that subcommand's parser reads the rest, and leftovers
    are reported as the top-level parser reports them."""
    top, commands = _build_argparser()
    argv = _attach_negative_point(argv)
    command = commands.get(argv[0]) if argv else None
    if command is None:             # no argv, -h, or not a subcommand
        return top.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        top.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def cli_main(argv) -> int:
    """Run the CLI on an argument list; returns the exit code."""
    try:
        args = _parse_args(argv)
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
    except (SrclabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
