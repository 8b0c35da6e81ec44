import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from jsonschema import validate

from srclab import jsonio
from srclab.catalog import builtin
from srclab.cli import cli_main, tensor_text
from srclab.parser import parse_document
from srclab.verifier import SuiteConfig, run_suite

REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "manifold", "seed", "points", "jet_order",
                 "checks", "warnings", "timestamp"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": 1},
        "manifold": {"type": "string"},
        "seed": {"type": "integer"},
        "points": {"type": "integer", "minimum": 1},
        "jet_order": {"const": 2},
        "checks": {
            "type": "array",
            "minItems": 18,
            "maxItems": 18,
            "items": {
                "type": "object",
                "required": ["id", "description", "paper_ref", "max_abs_residual",
                             "max_rel_residual", "tolerance", "pass",
                             "skipped_reason"],
                "additionalProperties": False,
                "properties": {
                    "id": {"type": "string", "pattern": "^C[0-9]{2}$"},
                    "description": {"type": "string"},
                    "paper_ref": {"type": "string"},
                    "max_abs_residual": {"type": ["number", "null"]},
                    "max_rel_residual": {"type": ["number", "null"]},
                    "tolerance": {"type": "number"},
                    "pass": {"type": "boolean"},
                    "skipped_reason": {"type": ["string", "null"]},
                },
            },
        },
        "warnings": {"type": "array", "items": {"type": "string"}},
        "timestamp": {"type": "string"},
    },
}


def test_verify_heisenberg2_default_exits_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = cli_main(["verify", "--builtin", "heisenberg2", "--json", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    validate(data, REPORT_SCHEMA)
    assert data["manifold"] == "heisenberg2"
    assert all(c["pass"] or c["skipped_reason"] for c in data["checks"])
    printed = capsys.readouterr().out
    assert "C01" in printed and "C18" in printed


def test_verify_json_byte_identical_except_timestamp(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--builtin", "involutive-l3", "--points", "7", "--seed", "3",
            "--quiet"]
    assert cli_main(args + ["--json", str(a)]) == 0
    assert cli_main(args + ["--json", str(b)]) == 0
    la = [ln for ln in a.read_text().splitlines() if '"timestamp"' not in ln]
    lb = [ln for ln in b.read_text().splitlines() if '"timestamp"' not in ln]
    assert la == lb


def test_verify_heisenberg1_skips_and_exits_zero(capsys):
    rc = cli_main(["verify", "--builtin", "heisenberg1", "--points", "5"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed.count("SKIP (RankTooSmall)") == 3


def test_verify_prints_a_zero_residual_unsigned(capsys):
    """flat3's residuals are exact zeros; their norms, reduced along the points
    at rank 2, print as 0.000e+00, never -0.000e+00."""
    assert cli_main(["verify", "--builtin", "flat3", "--points", "5"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if " PASS " in line]
    assert len(rows) == 15 and all(" rel 0.000e+00 " in line for line in rows)


def test_verify_nonzero_pi_reports_conformal_form_failure(capsys):
    rc = cli_main(["verify", "--builtin", "heisenberg2", "--points", "5",
                   "--pi", "const:1,0,0,0"])
    assert rc == 1       # C13's tabulated closed form is inconsistent
    printed = capsys.readouterr().out
    failing = [ln for ln in printed.splitlines() if "FAIL" in ln]
    assert len(failing) == 1 and failing[0].startswith("C13")


def test_verify_pi_from_file(tmp_path):
    pi_file = tmp_path / "pi.txt"
    pi_file.write_text("0\n0\n0\n0\n")
    rc = cli_main(["verify", "--builtin", "heisenberg2", "--points", "5",
                   "--pi", f"file:{pi_file}", "--quiet"])
    assert rc == 0


def test_verify_spec_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(builtin("flat3").source)
    assert cli_main(["verify", "--spec", str(path), "--points", "5", "--quiet"]) == 0


def test_spec_file_oneform_is_the_default_pi(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text(builtin("heisenberg2").source + "oneform 1, 0, 0, 0\n")
    rc = cli_main(["eval", "--spec", str(path), "--tensor", "alpha",
                   "--point", "0,0,0,0,0"])
    assert rc == 0
    assert abs(float(capsys.readouterr().out.strip()) - 1.0) <= 1e-14
    # an explicit --pi still overrides the bundled one-form
    rc = cli_main(["eval", "--spec", str(path), "--tensor", "alpha",
                   "--point", "0,0,0,0,0", "--pi", "const:0,0,0,0"])
    assert float(capsys.readouterr().out.strip()) == 0.0
    assert rc == 0
    # the file's one-form prints the bytes its expressions print as a --pi file
    exprs = ("sin(x1) + y2", "x1*y1/2", "0", "cos(z)")
    path.write_text(builtin("heisenberg2").source + "oneform " + ", ".join(exprs) + "  # pi\n")
    pi = tmp_path / "pi.txt"
    pi.write_text("".join(f"  {e}  # component {i}\n\n" for i, e in enumerate(exprs)))
    argv = ["eval", "--spec", str(path), "--tensor", "R", "--point", "0.1,0.2,-0.3,0.4,0.5"]
    assert cli_main(argv) == 0
    out = capsys.readouterr()
    assert cli_main(argv + ["--pi", f"file:{pi}"]) == 0
    assert capsys.readouterr() == out and len(out.out) > 1000


def test_library_and_cli_agree_on_a_spec_files_oneform(tmp_path):
    """run_suite(doc.spec, doc.oneform, config) writes the JSON report that
    ``srclab verify --spec FILE --json`` writes, byte for byte but the
    timestamp: the file's one-form is the one the library runs."""
    path, out = tmp_path / "m.txt", tmp_path / "report.json"
    path.write_text(builtin("heisenberg2").source + "oneform 1, 0, 0, 0\n")
    assert cli_main(["verify", "--spec", str(path), "--points", "5", "--seed", "2", "--quiet",
                     "--json", str(out)]) == 1                    # C13 fails for a nonzero pi
    doc = parse_document(path.read_text())
    report = run_suite(doc.spec, doc.oneform, SuiteConfig(points=5, seed=2))
    written = out.read_text(encoding="utf-8")
    stamp = json.loads(written)["timestamp"]
    assert jsonio.dumps(report.to_json_dict(stamp)) == written
    assert not report.record("C13").passed


def test_eval_zero_curvature(capsys):
    rc = cli_main(["eval", "--builtin", "heisenberg1", "--tensor", "K",
                   "--point", "0.1,0.2,0.3"])
    assert rc == 0
    values = re.findall(r"-?\d+\.?\d*(?:e[+-]?\d+)?", capsys.readouterr().out)
    assert len(values) == 16
    assert all(float(v) == 0.0 for v in values)


def test_eval_prints_every_entry_of_a_large_tensor(capsys, tmp_path):
    """K of a flat hdim-7 spec has 7^4 = 2,401 entries, above numpy's
    summarization threshold of 1,000: all of them are printed, none elided."""
    coords = [f"x{i}" for i in range(1, 8)] + ["z"]
    path = tmp_path / "flat8.manifold"
    path.write_text(f"manifold flat8\ndim 8\nhdim 7\ncoords {' '.join(coords)}\nhframe\n"
                    + "".join(f"  X{i} = d{c}\n" for i, c in enumerate(coords[:7], 1))
                    + "vframe\n  Z = dz\nmetric identity\n", encoding="utf-8")
    assert cli_main(["eval", "--spec", str(path), "--tensor", "K",
                     "--point", ",".join(["0.5"] * 8)]) == 0
    out = capsys.readouterr().out
    assert "..." not in out
    values = re.findall(r"-?\d+\.?\d*(?:e[+-]?\d+)?", out)
    assert len(values) == 7 ** 4 and all(float(v) == 0.0 for v in values)


RICCI_R = ["eval", "--builtin", "heisenberg2", "--tensor", "ricci-R", "--pi", "const:1,0.5,0,0",
           "--point=0.1,0.2,0.3,0.4,0.5"]


@pytest.mark.parametrize("argv, text", [
    (RICCI_R, "[[ 0.5 -1.   0.   0. ]\n [-1.   2.   0.   0. ]\n"
              " [ 0.   0.   2.5  0. ]\n [ 0.   0.   0.   2.5]]\n"),
    (["eval", "--builtin", "heisenberg2", "--tensor", "scalar-R", "--pi", "const:1,0,0,0",
      "--point=0.1,0.2,0.3,0.4,0.5"], "6\n"),
], ids=["ricci-R", "scalar-R"])
def test_eval_text_ignores_numpy_print_options(capsys, argv, text):
    """numpy's default array2string text at precision 12 and 75 columns, and a
    scalar's .17g, whatever print options the caller has set."""
    for options in ({}, {"linewidth": 40, "sign": "+", "floatmode": "fixed"},
                    {"legacy": "1.13", "precision": 3, "suppress": True}):
        with np.printoptions(**options):
            assert cli_main(argv) == 0
        assert capsys.readouterr().out == text, options


def _family(elements):
    return arrays(np.float64, array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=7),
                  elements=elements)


MAGNITUDES = st.builds(lambda m, e, s: s * m * 10.0 ** e, st.floats(1, 10),
                       st.integers(-20, 20), st.sampled_from([-1.0, 1.0]))
ZEROS = st.sampled_from([0.0, -0.0])
DYADIC = st.builds(lambda k, i: i + k / 8192, st.integers(-8191, 8191), st.integers(-3, 3))
SHORT = st.builds(lambda k, e: k * 10.0 ** e, st.integers(-999, 999), st.integers(-6, 9))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.one_of(_family(MAGNITUDES), _family(st.one_of(MAGNITUDES, ZEROS)),
                 _family(st.one_of(DYADIC, ZEROS)), _family(st.one_of(SHORT, ZEROS)),
                 _family(st.one_of(MAGNITUDES, ZEROS, DYADIC, SHORT))))
@example(np.zeros((7, 7, 7, 7)))                        # K of the flat hdim-7 spec above
@example(np.arange(9.0).reshape(3, 3, 1) / 7)           # M when n - ell = 1
@example(np.array([1, 3, 5, -7]) / 8192)                # ties at the 13th decimal
@example(np.arange(-3.0, 4.0) / 3)                      # a wrapped row
@example(np.arange(1.0, 6.0) / 7)                       # 5 x 14 columns: wraps after 4
@example(np.array([[12345678.9, -0.5], [8192.25, 8191.999999999999]]))
@example(np.array([[5e-324, -1e-320], [2.5e-310, 1.0]]))        # subnormals
@example(np.array([1e300, -1e-300, 3.0, 9.9999999999999e99]))   # three-digit exponents
def test_tensor_text_is_numpy_default_array2string(value):
    assert tensor_text(value) == np.array2string(value, precision=12, suppress_small=False,
                                                 threshold=sys.maxsize)


def test_eval_scalar_curvature(capsys):
    rc = cli_main(["eval", "--builtin", "heisenberg2", "--tensor", "scalar-R",
                   "--point", "0.1,0.2,0.3,0.4,0.5", "--pi", "const:1,0,0,0"])
    assert rc == 0
    assert abs(float(capsys.readouterr().out.strip()) - 6.0) <= 1e-12


def test_eval_alpha(capsys):
    rc = cli_main(["eval", "--builtin", "heisenberg2", "--tensor", "alpha",
                   "--point", "0,0,0,0,0", "--pi", "const:1,0,0,0"])
    assert rc == 0
    assert abs(float(capsys.readouterr().out.strip()) - 1.0) <= 1e-14


def test_eval_negative_first_coordinate(capsys):
    args = ["eval", "--builtin", "heisenberg1", "--tensor", "E"]
    assert cli_main(args + ["--point", "-0.5,0.1,0.2"]) == 0
    spaced = capsys.readouterr().out
    assert cli_main(args + ["--point=-0.5,0.1,0.2"]) == 0
    assert spaced == capsys.readouterr().out
    assert "-0.05" in spaced                   # X1 = dx - (y/2) dz at y = 0.1
    assert cli_main(args + ["--point", "-x,0.1,0.2"]) == 2     # an option, not a point
    assert cli_main(args + ["--point", "-0.5,oops,0.2"]) == 2
    capsys.readouterr()


def test_catalog_and_checks_listings(capsys):
    assert cli_main(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in ("heisenberg1", "heisenberg2", "free-step2-l3", "flat3",
                 "curved-metric-l3", "involutive-l3"):
        assert name in out
    assert cli_main(["checks"]) == 0
    out = capsys.readouterr().out
    for i in range(1, 19):
        assert f"C{i:02d}" in out


def test_parse_command(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text(builtin("heisenberg2").source)
    assert cli_main(["parse", str(good)]) == 0
    assert "OK" in capsys.readouterr().out

    bad = tmp_path / "bad.txt"
    bad.write_text("manifold broken\ndim 3\n")
    assert cli_main(["parse", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_usage_errors_exit_two(capsys, tmp_path):
    assert cli_main(["verify", "--builtin", "nope", "--points", "2"]) == 2
    assert cli_main(["verify"]) == 2
    assert cli_main(["eval", "--builtin", "heisenberg1", "--tensor", "K",
                     "--point", "0.1,0.2"]) == 2          # wrong point length
    assert cli_main(["verify", "--builtin", "heisenberg2", "--points", "2",
                     "--pi", "const:1,0"]) == 2           # wrong pi length
    assert cli_main(["verify", "--spec", str(tmp_path / "missing.txt")]) == 2
    for pi in ("const:a,b,c,d", "const:nan,0,0,0", "const:1,inf,0,0"):
        assert cli_main(["verify", "--builtin", "heisenberg2", "--points", "2",
                         "--pi", pi]) == 2             # non-numeric / non-finite pi
    for point in ("0,0,0,0,nan", "0,0,inf,0,0"):
        assert cli_main(["eval", "--builtin", "heisenberg2", "--tensor", "K",
                         "--point", point]) == 2       # non-finite point
    for points in ("0", "-3"):
        assert cli_main(["verify", "--builtin", "heisenberg2",
                         "--points", points]) == 2     # no sample points
    capsys.readouterr()


@pytest.mark.parametrize("option,message", [
    (["--seed", "-1"], "need a seed >= 0, got -1"),
    (["--tol", "nan"], "need a finite tolerance >= 0, got nan"),
    (["--tol", "-1"], "need a finite tolerance >= 0, got -1.0"),
    (["--tol", "inf"], "need a finite tolerance >= 0, got inf")])
def test_bad_seed_or_tolerance_exits_two(capsys, tmp_path, option, message):
    """A negative seed, and a tolerance that is not finite or is negative,
    exit 2 with one error line before any check runs or any report is written."""
    out = tmp_path / "r.json"
    argv = ["verify", "--builtin", "heisenberg1", "--points", "2", *option, "--json", str(out)]
    assert cli_main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "verify"])
@pytest.mark.parametrize("pi,message", [
    ("pi:1,0,0,0", "--pi must start with 'const:' or 'file:'"),
    ("const:1,0", "--pi const needs 4 components, got 2"),
    ("file:{}", "--pi file needs 4 expressions, got 3")])
def test_bad_pi_arguments_exit_two_with_their_message(capsys, tmp_path, command, pi, message):
    """A --pi with an unknown prefix, or with a component count other than the
    horizontal rank, exits 2 from eval and from verify, naming what it needs."""
    pi_file = tmp_path / "three.pi"
    pi_file.write_text("1\n0\n0\n", encoding="utf-8")
    argv = [command, "--builtin", "heisenberg2", "--pi", pi.format(pi_file)]
    argv += (["--tensor", "K", "--point", "0,0,0,0,0"] if command == "eval"
             else ["--points", "2"])
    assert cli_main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_eval_overflowing_oneform_exits_two(capsys, tmp_path):
    """exp(1000 x1) overflows at x1 = 0.9: the one-form is rejected there
    (exit 2) and evaluates at x1 = -0.9."""
    pi_file = tmp_path / "overflow.pi"
    pi_file.write_text("exp(1000*x1)\n0\n0\n0\n", encoding="utf-8")
    argv = ["eval", "--builtin", "heisenberg2", "--pi", f"file:{pi_file}",
            "--tensor", "alpha", "--point"]
    assert cli_main(argv + ["0.9,0,0,0,0"]) == 2
    assert "not finite" in capsys.readouterr().err
    assert cli_main(argv + ["-0.9,0,0,0,0"]) == 0
    capsys.readouterr()


def test_bad_subcommand_exits_two(capsys):
    assert cli_main(["frobnicate"]) == 2
    capsys.readouterr()


def test_eval_rank_guarded_tensor_exits_two(capsys):
    rc = cli_main(["eval", "--builtin", "heisenberg1", "--tensor", "S",
                   "--point", "0.1,0.2,0.3"])
    assert rc == 2
    assert "rank" in capsys.readouterr().err


def test_verify_overflow_prints_no_numpy_warnings():
    """pi = (1e200, 0, 0, 0) overflows the transformed curvature; the report
    names those points, and numpy's own RuntimeWarnings stay off stderr."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "from srclab.cli import main; main()", "verify",
         "--builtin", "heisenberg2", "--pi", "const:1e200,0,0,0", "--points", "5"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "RuntimeWarning" not in proc.stderr
    failing = ["C05", *(f"C{i:02d}" for i in range(9, 19))]
    rows = [re.match(r"(C\d\d)  (PASS|FAIL)  rel (\S+) \(tol [^,]+, (\d+) pts\)", ln).groups()
            for ln in proc.stdout.splitlines()]
    assert rows == [(cid, "FAIL", "inf", "0") if cid in failing
                    else (cid, "PASS", "0.000e+00", "0" if cid == "C08" else "5")
                    for cid in (f"C{i:02d}" for i in range(1, 19))]
    point = ("[0.2739233746429086, -0.4604265724722594, -0.9180529521276106, "
             "-0.9669447289429418, 0.6265404784005448]")
    assert proc.stderr.splitlines() == [
        f"warning: {cid}: non-finite residual or operand scale at {point}" for cid in failing]


def test_cached_parser_matches_fresh_parsers(capsys, monkeypatch, tmp_path):
    """One parser serves every cli_main call of a process: after usage errors
    it parses eval, verify, checks and parse requests to the same stdout,
    stderr and exit codes as a parser built afresh for each call."""
    from srclab import cli
    spec_file = tmp_path / "h2.txt"
    spec_file.write_text(builtin("heisenberg2").source, encoding="utf-8")
    requests = [
        ["verify"],                                                   # missing --builtin/--spec
        ["eval", "--builtin", "heisenberg1", "--tensor", "nope", "--point", "0,0,0"],
        ["frobnicate"],
        ["eval", "--builtin", "heisenberg1", "--tensor", "K", "--point", "-0.5,0.1,0.2"],
        ["eval", "--builtin", "heisenberg2", "--pi", "const:1,0,0,0", "--tensor", "alpha",
         "--point", "0.1,0.2,0.3,0.4,0.5"],
        ["verify", "--builtin", "heisenberg2", "--pi", "const:1,0,0,0", "--points", "3"],
        ["verify", "--spec", str(spec_file), "--seed", "4"],            # default --points
        ["checks"],
        ["parse", str(spec_file)],
        ["verify", "--builtin", "heisenberg1", "--spec", str(spec_file)],   # both: usage error
    ]

    def outcomes():
        out = []
        for argv in requests:
            rc = cli_main(argv)
            out.append((rc, *capsys.readouterr()))
        return out

    cli._build_argparser.cache_clear()
    cached = outcomes()
    assert cli._build_argparser.cache_info().misses == 1
    monkeypatch.setattr(cli, "_build_argparser", cli._build_argparser.__wrapped__)
    assert cached == outcomes()
    assert [rc for rc, _, _ in cached] == [2, 2, 2, 0, 0, 1, 0, 0, 0, 2]


def test_one_argument_parse_matches_the_top_level_parser(capsys, monkeypatch):
    """cli_main hands the arguments after a subcommand's name to that
    subcommand's parser alone; every exit code, stdout and stderr is what the
    top-level parser alone gives, usage and help text included."""
    from srclab import cli
    top = cli._build_argparser()[0]
    ok = ["eval", "--builtin", "heisenberg1", "--tensor", "K", "--point", "0.1,0.2,0.3"]
    requests = [
        [], ["-h"], ["--bogus", "eval"], ["frobnicate"], ["eval", "-h"], ["eval"],
        ok + ["--bogus"], ok + ["stray"], ok + ["--spec", "x.txt"],
        ok[:3] + ["--tensor", "nope", "--point", "0.1,0.2,0.3"],
        ["verify", "--points", "x"], ["catalog", "x"], ["parse"],
        ok, ok[:-1] + ["-0.5,0.1,0.2"], ["catalog"], ["checks"],
    ]

    def outcomes():
        out = []
        for argv in requests:
            rc = cli_main(argv)
            out.append((rc, *capsys.readouterr()))
        return out

    single = outcomes()
    monkeypatch.setattr(cli, "_parse_args",
                        lambda argv: top.parse_args(cli._attach_negative_point(argv)))
    assert single == outcomes()
    assert [rc for rc, _, _ in single] == [2, 0, 2, 2, 0, 2, 2, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0]
    monkeypatch.undo()
    for argv in (ok, ok[:-1] + ["-0.5,0.1,0.2"], ["verify", "--spec", "s.txt", "--quiet"],
                 ["catalog"], ["parse", "s.txt"]):
        assert vars(cli._parse_args(argv)) == vars(top.parse_args(cli._attach_negative_point(argv)))


def test_long_sum_spec_end_to_end(tmp_path, capsys):
    """A frame component summing 5,000 terms (a tree 5,000 levels deep)
    parses, evaluates and verifies: nothing on the way recurses per term."""
    rng = random.Random(5)
    total = " + ".join(f"{rng.randint(1, 9) / 64!r}*{rng.choice('xyz')}" for _ in range(5000))
    path = tmp_path / "long.manifold"
    path.write_text(f"manifold long\ndim 3\nhdim 2\ncoords x y z\nhframe\n  X = dx + ({total}) dz\n"
                    "  Y = dy\nvframe\n  Z = dz\nmetric identity\n", encoding="utf-8")
    assert cli_main(["parse", str(path)]) == 0
    assert capsys.readouterr().out.startswith("OK: long")
    assert cli_main(["eval", "--spec", str(path), "--tensor", "K", "--point=0.1,-0.2,0.3"]) == 0
    assert "[" in capsys.readouterr().out
    assert cli_main(["verify", "--spec", str(path), "--points", "2", "--quiet"]) == 0
    assert capsys.readouterr().out == ""


OVERFLOWING_FRAME = """\
manifold overflowing-frame
dim 3
hdim 2
coords x y z
hframe
  X1 = dx + exp(1000) dz
  X2 = dy
vframe
  Z = dz
metric identity
"""


def test_overflowing_constants_fail_their_points(tmp_path, capsys):
    """A constant subexpression beyond float range (exp(1000), 2^1100) in a
    frame field, a metric row or a one-form is kept as an op, so its points
    fail as not finite: verify reports them (exit 1) and eval exits 2 with the
    failing layer's message, never a traceback."""
    frame = tmp_path / "frame.txt"
    frame.write_text(OVERFLOWING_FRAME, encoding="utf-8")
    metric = tmp_path / "metric.txt"
    metric.write_text(OVERFLOWING_FRAME.replace(" + exp(1000) dz", "").replace(
        "metric identity", "metric rows\n  1 + 2^1100*x^2, 0\n  0, 1"), encoding="utf-8")
    pi = tmp_path / "pi.txt"
    pi.write_text("exp(1000)*x\n0\n", encoding="utf-8")
    cases = [(["--spec", str(frame)], "frame determinant 0.000e+00 below threshold"),
             (["--spec", str(metric)], "Gram matrix not positive definite"),
             (["--builtin", "flat3", "--pi", f"file:{pi}"], "one-form not finite")]
    for args, message in cases:
        assert cli_main(["verify", *args, "--points", "3", "--quiet"]) == 1
        assert "Traceback" not in capsys.readouterr().err
        assert cli_main(["eval", *args, "--tensor", "R", "--point=0.1,0.2,0.3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err, err


def test_tiny_constant_divisors_fold(tmp_path, capsys):
    """A constant divisor whose square underflows (1e-200) folds to its quotient:
    a frame field and a one-form holding 1/1e-200 parse and verify to a report
    (exit 1) instead of raising ZeroDivisionError."""
    frame = tmp_path / "frame.txt"
    frame.write_text(OVERFLOWING_FRAME.replace("exp(1000) dz", "(1/1e-200)*y dz"),
                     encoding="utf-8")
    pi = tmp_path / "pi.txt"
    pi.write_text("1/1e-200\n0\n", encoding="utf-8")
    assert cli_main(["parse", str(frame)]) == 0
    for args in (["--spec", str(frame)], ["--builtin", "flat3", "--pi", f"file:{pi}"]):
        assert cli_main(["verify", *args, "--points", "3", "--quiet"]) == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("component,argv,code,err", [
    ("sqrt(-exp(1000*x))", ["verify", "--points", "5", "--quiet"], 1, ""),
    ("sqrt(-exp(x))", ["eval", "--tensor", "K", "--point=1000,0,0"], 2,
     "error: sqrt of negative value -inf\n"),
    ("sqrt(-1/(x*1e-200))", ["eval", "--tensor", "K", "--point=0.5,0,0"], 2,
     "error: sqrt of negative value -2e+200\n"),
])
def test_domain_errors_quote_operands_beyond_float_range(tmp_path, capsys, component, argv,
                                                         code, err):
    """The operand a domain error quotes is evaluated step by step in floats;
    a step that overflows (exp(1000)) quotes inf, as the batched run has it, and
    a tiny divisor (x*1e-200) quotes its quotient."""
    spec = tmp_path / "spec.txt"
    spec.write_text(OVERFLOWING_FRAME.replace("exp(1000)", f"({component})"), encoding="utf-8")
    assert cli_main([argv[0], "--spec", str(spec), *argv[1:]]) == code
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("text,err", [
    ("# one-form\n1\n\nx + $\n", "error: line 4, col 5: unexpected character '$'\n"),
    ("1\n  x +\n", "error: line 2, col 6: expected a number, name or '(', "
                   "found end of input\n"),
])
def test_pi_file_errors_name_the_file_line_and_column(tmp_path, capsys, text, err):
    pi = tmp_path / "pi.txt"
    pi.write_text(text, encoding="utf-8")
    assert cli_main(["verify", "--builtin", "flat3", "--pi", f"file:{pi}"]) == 2
    assert capsys.readouterr().err == err


def test_pi_file_lines_drop_trailing_comments(tmp_path, capsys):
    """A '#' comment after a one-form file's expression is dropped, as on a spec
    file's oneform line; error columns still count from the start of the line."""
    plain, commented = tmp_path / "plain.pi", tmp_path / "commented.pi"
    plain.write_text("y\nx\n", encoding="utf-8")
    commented.write_text("y  # first component\n  x# second\n", encoding="utf-8")
    argv = ["eval", "--builtin", "heisenberg1", "--tensor", "alpha", "--point", "0.1,0.2,0.3"]
    assert cli_main(argv + ["--pi", f"file:{commented}"]) == 0
    out = capsys.readouterr()
    assert cli_main(argv + ["--pi", f"file:{plain}"]) == 0
    assert capsys.readouterr() == out
    spec = tmp_path / "h1.manifold"         # the same one-form on a spec file's oneform line
    spec.write_text(builtin("heisenberg1").source + "oneform y, x  # pi\n", encoding="utf-8")
    assert cli_main(["eval", "--spec", str(spec)] + argv[3:]) == 0
    assert capsys.readouterr() == out
    commented.write_text("y # first\n  x + $  # second\n", encoding="utf-8")
    assert cli_main(argv + ["--pi", f"file:{commented}"]) == 2
    assert capsys.readouterr().err == "error: line 2, col 7: unexpected character '$'\n"


@pytest.mark.parametrize("argv", [["parse", "{}"], ["verify", "--spec", "{}"],
                                  ["verify", "--builtin", "flat3", "--pi", "file:{}"]])
def test_non_utf8_files_exit_two(tmp_path, capsys, argv):
    """The error names the bad byte's offset in the file, also past the first 8 KiB."""
    bad = tmp_path / "bad.txt"
    for content, offset in ((b"manifold m\xff\n", 10),
                            (b"# padding\n" * 1000 + b"manifold m\xff\n", 10010)):
        bad.write_bytes(content)
        assert cli_main([arg.format(bad) for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text at byte {offset}\n"


def test_unreadable_paths_exit_two_with_the_os_error(tmp_path, capsys, monkeypatch):
    """A path that cannot be read exits 2 with the OSError that Path.read_text
    raises, the path spelled as Path spells it; a file name with a trailing
    slash reads the file, as Path reads it."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.txt").write_text(builtin("flat3").source, encoding="utf-8")
    for path in (str(tmp_path), str(tmp_path / "missing.txt"), "./missing.txt", "", "spec.txt/x"):
        with pytest.raises(OSError) as exc:
            Path(path).read_text(encoding="utf-8")
        for argv in (["parse", path], ["verify", "--spec", path],
                     ["verify", "--builtin", "flat3", "--pi", f"file:{path}"]):
            assert cli_main(argv) == 2
            assert capsys.readouterr() == ("", f"error: {exc.value}\n")
    assert cli_main(["parse", "spec.txt/"]) == 0
    assert capsys.readouterr().out == "OK: flat3 (dim 3, hdim 2, oneform no)\n"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_spec_and_pi_files_with_any_line_ending_eval_as_builtins(tmp_path, capsys, newline):
    """Each catalog source written as a spec file with LF, CRLF or CR line
    endings, with and without its last one-form in a file with the same
    endings, prints what --builtin prints, byte for byte."""
    from srclab.catalog import catalog_names
    from srclab.manifold import sample_points

    def run(argv):
        rc = cli_main(argv)
        return (rc, *capsys.readouterr())

    printed = 0
    for name in catalog_names():
        entry = builtin(name)
        spec_file, pi_lf, pi_file = (tmp_path / f"{name}{ext}" for ext in (".txt", ".lf", ".pi"))
        spec_file.write_bytes(entry.source.replace("\n", newline).encode())
        lines = entry.pi_variants[-1].expressions
        pi_lf.write_bytes("".join(e + "\n" for e in lines).encode())
        pi_file.write_bytes("".join(e + newline for e in lines).encode())
        point = ",".join(map(repr, sample_points(entry.spec, 1, 3)[0].tolist()))
        for tensor in ("g", "K", "alpha", "scalar-R", "W"):
            tail = ["--tensor", tensor, f"--point={point}"]
            for pis in (([], []), (["--pi", f"file:{pi_lf}"], ["--pi", f"file:{pi_file}"])):
                want = run(["eval", "--builtin", name, *pis[0], *tail])
                assert run(["eval", "--spec", str(spec_file), *pis[1], *tail]) == want
                printed += want[0] == 0
    assert printed >= 50


def test_eval_prints_no_numpy_warnings(tmp_path, capsys):
    """A tensor that overflows at a huge point is reported by the error line
    alone: eval runs under the suite's floating-point error state."""
    import warnings

    pi = tmp_path / "linear.pi"
    pi.write_text("".join(e + "\n" for e in builtin("flat3").variant("linear").expressions),
                  encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli_main(["eval", "--builtin", "flat3", "--pi", f"file:{pi}", "--tensor",
                       "pi-char", "--point=1e154,1e154,1e154"])
    assert (rc, caught) == (2, [])
    assert capsys.readouterr().err == "error: pi-char is not finite at [1e+154, 1e+154, 1e+154]\n"


DEGENERATE_L3 = """\
manifold degenerate-l3
dim 4
hdim 3
coords x y z w
hframe
  X1 = x dx
  X2 = dy
  X3 = dz
vframe
  W = dw
metric identity
"""


def test_eval_raises_only_the_errors_of_the_layers_a_tensor_reads(tmp_path, capsys):
    """With a one-form that fails everywhere, the 13 tensors that do not read
    it print and exit 0 and the 10 that do exit 2 with its message; where the
    frame is singular all 23 exit 2 with the frame's message."""
    from srclab.curvature import TENSORS, Evaluation

    spec = tmp_path / "degenerate.txt"
    spec.write_text(DEGENERATE_L3, encoding="utf-8")
    pi = tmp_path / "failing.pi"
    pi.write_text("log(x - 5)\n0\n0\n", encoding="utf-8")
    args = ["eval", "--spec", str(spec), "--pi", f"file:{pi}", "--tensor"]
    reads_pi = {name for name, path in TENSORS.items() if "pij" in Evaluation.reads([path])}
    assert len(TENSORS) == 23 and reads_pi == {
        "Gamma", "torsion", "R", "ricci-R", "scalar-R", "Sbar", "Cbar", "Wbar", "pi-char",
        "alpha"}
    for name in TENSORS:
        rc = cli_main([*args, name, "--point=0.5,0.1,0.2,0.3"])
        out, err = capsys.readouterr()
        if name in reads_pi:
            assert (rc, out, err) == (2, "", "error: log of non-positive value -4.5\n"), name
        else:
            assert (rc, err) == (0, "") and out, name
        rc = cli_main([*args, name, "--point=0,0.1,0.2,0.3"])
        assert (rc, capsys.readouterr().err) == (2, "error: frame determinant 0.000e+00 below "
                                                 "threshold at [0.0, 0.1, 0.2, 0.3]\n"), name


NEAR_DEGENERATE = """\
manifold near-degenerate
dim 3
hdim 2
coords x y z
hframe
  X1 = dx
  X2 = dx + 0.0000000001 dy
vframe
  Z = dz
metric identity
"""


def test_verify_prints_condition_warnings_unless_quiet(tmp_path, capsys):
    """Without --quiet, verify prints the report's frame warnings to stderr
    after the check table on stdout; with it, neither."""
    path = tmp_path / "near-degenerate.txt"
    path.write_text(NEAR_DEGENERATE, encoding="utf-8")
    assert cli_main(["verify", "--spec", str(path), "--points", "1"]) == 0
    out, err = capsys.readouterr()
    assert out.count("\n") == 18 and err == (
        "warning: frame condition number 2.000e+10 at "
        "[0.2739233746429086, -0.4604265724722594, -0.9180529521276106]\n")
    assert cli_main(["verify", "--spec", str(path), "--points", "1", "--quiet"]) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("argv", [["checks"], ["eval", "--builtin", "no-such-entry"]])
def test_main_exits_with_the_cli_main_code(argv, monkeypatch, capsys):
    """The console script ``srclab`` exits with cli_main's return code on its argv."""
    from srclab.cli import main

    want = cli_main(argv)
    capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["srclab", *argv])
    with pytest.raises(SystemExit) as excinfo:
        main()
    assert excinfo.value.code == want
    assert want == (0 if argv == ["checks"] else 2)


def test_jsonio_edge_values():
    """Non-finite floats serialize as null, an empty dict as {}; a bool, a
    float subclass (np.float64), a tuple (as a list) and -0.0 as the stdlib
    writes them, with 17 significant digits; and any other type raises a
    TypeError naming it."""
    from srclab import jsonio

    assert jsonio.dumps({"a": float("inf"), "b": float("nan"), "c": {}, "d": [-float("inf")]}) \
        == '{\n  "a": null,\n  "b": null,\n  "c": {},\n  "d": [\n    null\n  ]\n}\n'
    assert jsonio.dumps({"e": True, "f": np.float64(0.1), "g": (1, "x"), "h": -0.0}) \
        == '{\n  "e": true,\n  "f": 0.10000000000000001,\n  "g": [\n    1,\n    "x"\n  ],' \
           '\n  "h": -0.0\n}\n'
    with pytest.raises(TypeError, match="^cannot serialize set$"):
        jsonio.dumps({"a": {1}})
