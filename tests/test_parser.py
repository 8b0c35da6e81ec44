import math
import os
import random
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from jet_reference import jet_eval

import srclab
from srclab.catalog import builtin, catalog_names
from srclab.connections import OneFormData
from srclab.errors import ParseError, SrclabError, ValidationError
from srclab.jets import Add, Call, Const, Coord, Div, Mul, Neg, Pow, Sub
from srclab.manifold import ManifoldSpec, VectorFieldSpec
from srclab.parser import (SpecDocument, parse_document, parse_manifold,
                           parse_scalar_expression, serialize_document,
                           serialize_manifold)

H1 = builtin("heisenberg1").source


def test_heisenberg_source_parses():
    spec = parse_manifold(H1)
    assert spec.name == "heisenberg1"
    assert spec.n == 3 and spec.ell == 2
    assert len(spec.hframe) == 2 and len(spec.vframe) == 1
    assert parse_document(H1).oneform is None


def test_vector_field_components():
    spec = parse_manifold(H1)
    assert spec.hframe[0].components == (Const(1.0), Const(0.0),
                                         Neg(Div(Coord(1), Const(2.0))))
    assert spec.hframe[1].components == (Const(0.0), Const(1.0),
                                         Div(Coord(0), Const(2.0)))
    assert spec.vframe[0].components == (Const(0.0), Const(0.0), Const(1.0))


def test_scalar_expression_grammar():
    coords = ("x", "y")
    e = parse_scalar_expression("1 + 2*3^2", coords)
    assert jet_eval(e, [0.0, 0.0], 0).value == 19.0
    assert jet_eval(parse_scalar_expression("2^3^2", coords), [0, 0], 0).value == 512.0
    e = parse_scalar_expression("-x^2", coords)
    assert e == Neg(Pow(Coord(0), 2))
    assert jet_eval(e, [3.0, 0.0], 0).value == -9.0
    e = parse_scalar_expression("(x + 1)^2 / y", coords)
    assert jet_eval(e, [1.0, 2.0], 0).value == 2.0
    e = parse_scalar_expression("sin(x)*cos(y) - exp(x*y)", coords)
    assert isinstance(e, Sub) and isinstance(e.left, Mul) and isinstance(e.right, Call)
    assert parse_scalar_expression("x^-1", coords) == Pow(Coord(0), -1)
    with pytest.raises(ParseError):
        parse_scalar_expression("x^y", coords)
    with pytest.raises(ParseError):
        parse_scalar_expression("x^1.5", coords)
    with pytest.raises(ParseError):
        parse_scalar_expression("unknown(x)", coords)
    with pytest.raises(ParseError):
        parse_scalar_expression("x + ", coords)
    with pytest.raises(ParseError):
        parse_scalar_expression("(x + 1", coords)


@pytest.mark.parametrize("name", catalog_names())
def test_round_trip_catalog(name):
    doc = parse_document(builtin(name).source)
    text = serialize_document(doc)
    again = parse_document(text)
    assert again.spec == doc.spec
    assert serialize_document(again) == text


def test_round_trip_with_oneform_and_metric_rows():
    """A document with a one-form and metric rows, and flat3 with a metric
    entry holding an infinite literal, serialize and reparse to the same
    document."""
    text = """\
manifold demo
dim 4
hdim 3
coords x y z w
hframe
  A = dx - (y/2) dw
  B = dy + x dz
  C = dz
vframe
  V = dw
metric rows
  1 + x^2, (x*y)/2, 0
  (x*y)/2, 1 + y^2, 0
  0, 0, 1
oneform sin(x), y/2, 0
"""
    infinite = builtin("flat3").source.replace("metric identity",
                                               "metric rows\n  1 + 0*1e999*x, 0\n  0, 1")
    for source in (text, infinite):
        doc = parse_document(source)
        assert (doc.oneform is not None) == (source is text)
        out = serialize_document(doc)
        assert parse_document(out) == doc


# Leaves and operators of trees built in Python, each marked True where the parser
# could never read it back: the door (ValueTable.enter) must refuse exactly those.
_LEAVES = ([(Coord(k), False) for k in range(3)]
           + [(Const(v), False) for v in (0.0, -0.0, 1.0, -2.0, 0.5, 3, 1e300, -1e-300,
                                           5e-324, math.inf, -math.inf)]
           + [(Coord(-1), True), (Coord(3), True), (Coord(1.5), True),
              (Const(math.nan), True), (Const(10 ** 400), True), (Const("a"), True)])
_EXPONENTS = ([(k, False) for k in (0, 1, 2, 3, -1, -2, 2 ** 53)]
              + [(2.5, True), (2 ** 60, True), (True, True)])
_FNS = [(fn, False) for fn in ("sin", "cos", "exp", "log", "sqrt")] + [("tan", True)]


def _grow(trees):
    """A node over one or two trees, marked bad where a part is."""
    binary = st.tuples(st.sampled_from([Add, Sub, Mul, Div]), trees, trees).map(
        lambda t: (t[0](t[1][0], t[2][0]), t[1][1] or t[2][1]))
    power = st.tuples(trees, st.sampled_from(_EXPONENTS)).map(
        lambda t: (Pow(t[0][0], t[1][0]), t[0][1] or t[1][1]))
    call = st.tuples(st.sampled_from(_FNS), trees).map(
        lambda t: (Call(t[0][0], t[1][0]), t[0][1] or t[1][1]))
    return st.one_of(binary, trees.map(lambda t: (Neg(t[0]), t[1])), power, call)


_SWEEP_POINTS = [[0.5, -0.25, 2.0], [0.0, -0.0, 1.0], [-1.5, 1.0, 0.0], [2.0, 1e-3, -3.0]]


@given(st.recursive(st.sampled_from(_LEAVES), _grow, max_leaves=6))
@example((Const(-0.0), False))      # a term of a frame field, an entry of a metric not the identity
@settings(max_examples=300, deadline=None, derandomize=True)
def test_every_tree_the_door_admits_reads_back(tree):
    """A tree built in Python, as a metric entry (on and off the diagonal), a one-form
    component and a frame component, is refused with a SrclabError exactly when it
    holds a part the parser could never read; otherwise its serialized document
    parses to a spec that passes the checks of a spec built in Python, and to a
    program whose values sweep equals the original's bit for bit (NaNs and signed
    zeros too), with the same failing points and messages."""
    expr, bad = tree
    flat = builtin("flat3").spec
    field = VectorFieldSpec((Const(1.0), expr, Const(0.0)))
    builds = [lambda: SpecDocument(replace(flat, metric=((expr, Const(0.0)), (Const(0.0), Const(1.0)))),
                                   ("X1", "X2"), ("V1",), None),
              lambda: SpecDocument(flat, ("X1", "X2"), ("V1",), OneFormData((expr, Const(0.0)), 3)),
              lambda: SpecDocument(replace(flat, hframe=(field, flat.hframe[1])),
                                   ("X1", "X2"), ("V1",), None),
              lambda: SpecDocument(replace(flat, metric=((Const(1.0), expr), (expr, Const(1.0)))),
                                   ("X1", "X2"), ("V1",), None)]
    for place, build in enumerate(builds):
        try:
            doc = build()
        except SrclabError:
            assert bad
            continue
        assert not bad
        again = parse_document(serialize_document(doc))
        assert _rebuilt(again.spec) == again.spec
        want, got = [(d.oneform if place == 1 else d.spec)._jet_program.sweep(_SWEEP_POINTS)
                     for d in (doc, again)]
        assert got.values.tobytes() == want.values.tobytes() and got.errors == want.errors


def _rebuilt(spec):
    """A parsed spec built again in Python from its fields, without the parse's numbering,
    so that construction makes every check the parse path leaves to the parser."""
    return ManifoldSpec(**{f.name: getattr(spec, f.name) for f in fields(spec)})


def test_parsed_specs_pass_the_checks_of_specs_built_in_python(monkeypatch):
    """Every catalog spec and the benchmark's four expression-heavy specs (seed 1),
    rebuilt in Python, pass every constructor check and equal the parsed spec."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import inputs

    sources = [builtin(name).source for name in catalog_names()]
    sources += [case.text for case in inputs.expr_heavy_cases(1)]
    assert len(sources) == len(catalog_names()) + 4
    for source in sources:
        spec = parse_manifold(source)
        assert _rebuilt(spec) == spec


CORRUPT_CASES = [
    # (source, error type, substring expected in the message)
    ("dim 3\nhdim 2\n", ParseError, "manifold"),
    ("manifold m\ndim x\n", ParseError, "integer"),
    ("manifold m\ndim 3\nhdim 3\ncoords x y z\n", ValidationError, "hdim"),
    ("manifold m\ndim 3\nhdim 2\ncoords x y\n", ValidationError, "coords"),
    ("manifold m\ndim 3\nhdim 2\ncoords x y z\nhframe\n  X = dx\nvframe\n"
     "  Z = dz\nmetric identity\n", ValidationError, "hframe declares 1"),
    ("manifold m\ndim 3\nhdim 2\ncoords x y z\nhframe\n  X = dx\n  Y = dy\n"
     "vframe\n  Z = dz\nmetric rows\n  1, 0\n  0\n", ValidationError, "metric row"),
    ("manifold m\ndim 3\nhdim 2\ncoords x y z\nhframe\n  X = dx\n  Y = dy\n"
     "vframe\n  Z = dz\nmetric rows\n  1, x\n  y, 1\n", ValidationError, "symmetric"),
    ("manifold m\ndim 3\nhdim 2\ncoords x y z\nhframe\n  X = dq\n  Y = dy\n"
     "vframe\n  Z = dz\nmetric identity\n", ParseError, "unknown name"),
    ("manifold m\ndim 3\nhdim 2\ncoords x y z\nhframe\n  X = dx +\n  Y = dy\n"
     "vframe\n  Z = dz\nmetric identity\n", ParseError, "expected a number"),
    ("manifold m\ndim 3\nhdim 2\ncoords x y z\nhframe\n  X = dx\n  Y = dy\n"
     "vframe\n  Z = dz\nmetric identity\noneform 1\n", ValidationError, "oneform"),
]


@pytest.mark.parametrize("case", range(len(CORRUPT_CASES)))
def test_corrupt_corpus_produces_located_errors(case):
    source, err, fragment = CORRUPT_CASES[case]
    with pytest.raises(err) as excinfo:
        parse_manifold(source)
    assert fragment in str(excinfo.value)
    exc = excinfo.value
    if isinstance(exc, ParseError):
        assert exc.line >= 1 and exc.col >= 1
        assert f"line {exc.line}" in str(exc)
    elif exc.line is not None:
        assert f"line {exc.line}" in str(exc)


def test_error_locations_point_at_the_offending_line():
    source = ("manifold m\ndim 3\nhdim 2\ncoords x y z\nhframe\n  X = dx\n"
              "  Y = d!\nvframe\n  Z = dz\nmetric identity\n")
    with pytest.raises(ParseError) as excinfo:
        parse_manifold(source)
    assert excinfo.value.line == 7


def test_comments_and_blank_lines_ignored():
    text = H1.replace("hframe", "# a comment\n\nhframe")
    assert parse_manifold(text) == parse_manifold(H1)


def test_whitespace_separated_metric_rows():
    text = """\
manifold ws
dim 3
hdim 2
coords x y z
hframe
  X = dx
  Y = dy
vframe
  Z = dz
metric rows
  1 0
  0 1
"""
    spec = parse_manifold(text)
    assert spec.metric == ((Const(1.0), Const(0.0)), (Const(0.0), Const(1.0)))


def test_serialize_fresh_names():
    spec = parse_manifold(H1)
    text = serialize_manifold(spec)
    assert "X1 =" in text and "V1 =" in text
    assert parse_manifold(text) == spec


def test_accumulating_duplicate_dcoord_terms():
    from srclab.jets import ValueTable
    from srclab.parser import _ExprParser
    parser = _ExprParser(("x", "y"), ValueTable())
    comps = parser.start("dx + x dx", 1).vfexpr(2)
    assert parser.table.nodes[comps[0]] == Add(Const(1.0), Coord(0))


@given(st.text(max_size=300))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_parser_totality_random_text(text):
    try:
        parse_manifold(text)
    except (ParseError, ValidationError):
        pass


@given(st.text(alphabet="xyzdw123+-*/^(), .\n\t aeiousqrtlogincmf", max_size=200))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_parser_totality_grammar_like_text(text):
    preamble = "manifold f\ndim 3\nhdim 2\ncoords x y z\nhframe\n"
    try:
        parse_manifold(preamble + text)
    except (ParseError, ValidationError):
        pass


@given(st.text(alphabet="xy 12+-*/^()sincoqrt.", max_size=80))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_expression_parser_totality(text):
    try:
        parse_scalar_expression(text, ("x", "y"))
    except ParseError:
        pass


_PRE = "manifold m\ndim 3\nhdim 2\ncoords x y z\nhframe\n"
_FRAME = "  X = dx\n  Y = dy\nvframe\n  Z = dz\n"

# (source, error type, message, line, col); col is None for a ValidationError.
# Columns count from the start of the line, in metric and one-form entries too.
LOCATED_ERRORS = [
    (_PRE + "  X = dx $ dy\n  Y = dy\nvframe\n  Z = dz\nmetric identity\n",
     ParseError, "unexpected character '$'", 6, 10),
    (_PRE + _FRAME + "metric rows\n  1, x @ 2\n  0, 1\n",
     ParseError, "unexpected character '@'", 11, 8),
    (_PRE + "  X = dx + q dy\n  Y = dy\nvframe\n  Z = dz\nmetric identity\n",
     ParseError, "unknown name 'q' (not a coordinate or function)", 6, 12),
    (_PRE + _FRAME + "metric identity\noneform 1, foo(x)\n",
     ParseError, "unknown name 'foo' (not a coordinate or function)", 11, 12),
    (_PRE + "  X = dx + (x + 1 dy\n  Y = dy\nvframe\n  Z = dz\nmetric identity\n",
     ParseError, "expected ')', found 'dy'", 6, 19),
    (_PRE + _FRAME + "metric rows\n  (1 + x, 0\n  0, 1\n",
     ParseError, "expected ')', found end of input", 11, 9),
    (_PRE + _FRAME + "metric rows\n  1 x, 0\n  0, 1\n",
     ParseError, "trailing input after expression, found 'x'", 11, 5),
    (_PRE + _FRAME + "metric rows\n  1 + x^1.5, 0\n  0, 1\n",
     ParseError, "expected an integer literal exponent, found '1.5'", 11, 9),
    (_PRE + "  X = dx + y^x dz\n  Y = dy\nvframe\n  Z = dz\nmetric identity\n",
     ParseError, "expected an integer literal exponent, found 'x'", 6, 14),
    (_PRE + "  X = dx + y\n  Y = dy\nvframe\n  Z = dz\nmetric identity\n",
     ParseError, "expected d<coordinate>, found end of input", 6, 13),
    (_PRE + "  X = dx dy\n  Y = dy\nvframe\n  Z = dz\nmetric identity\n",
     ParseError, "expected '+' or '-' between terms, found 'dy'", 6, 10),
    (_PRE + _FRAME + "metric rows\n  1, 0, 0\n  0, 1\n",
     ValidationError, "metric row 1 has 3 entries, expected 2", 11, None),
    (_PRE + _FRAME + "metric identity\noneform 1, 2, 3\n",
     ValidationError, "oneform has 3 entries, expected 2", 11, None),
    (_PRE + _FRAME + "metric rows\n  1 + x^2^-1, 0\n  0, 1\n",
     ParseError, "exponent 2^-1 is not an integer", 11, 9),
    (_PRE + "  X = dx + x^0^-1 dz\n  Y = dy\nvframe\n  Z = dz\nmetric identity\n",
     ParseError, "exponent 0^-1 divides by zero", 6, 14),
    (_PRE + _FRAME + "metric identity\noneform x^9^9^9, 0\n",
     ParseError, "exponent 9^387420489 exceeds 9007199254740992 in magnitude", 11, 11),
    (_PRE + _FRAME + "metric rows\n  1   x$\n  0 1\n",
     ParseError, "unexpected character '$'", 11, 8),
    (_PRE.replace("x y z", "x x z") + _FRAME + "metric identity\n",
     ValidationError, "coordinate names must be distinct", 4, None),
    (_PRE.replace("x y z", "x 1y z") + _FRAME + "metric identity\n",
     ValidationError, "coordinate name '1y' is not an identifier", 4, None),
    (_PRE.replace("x y z", "x dx z") + _FRAME + "metric identity\n",
     ValidationError, "coordinate 'dx' is ambiguous with the frame token dx", 4, None),
    # a missing name, an argument to hframe, a bad field name, a d-coordinate as a
    # factor, an unknown metric form, too few metric rows (before the next section
    # and at the end of input), content after the one-form, a tower topped by a
    # literal over MAX_EXPONENT, a function name without '('
    ("manifold\ndim 3\nhdim 2\ncoords x y z\nhframe\n" + _FRAME + "metric identity\n",
     ParseError, "manifold needs a name", 1, 9),
    (_PRE.replace("hframe", "hframe X") + _FRAME + "metric identity\n",
     ParseError, "hframe keyword takes no arguments", 5, 1),
    (_PRE + "  1X = dx\n  Y = dy\nvframe\n  Z = dz\nmetric identity\n",
     ParseError, "bad frame field name '1X'", 6, 1),
    (_PRE + "  X1 = 2*dx dy\n  Y = dy\nvframe\n  Z = dz\nmetric identity\n",
     ParseError, "expected an expression, found 'dx'", 6, 10),
    (_PRE + _FRAME + "metric diagonal\n",
     ParseError, "expected 'identity' or 'rows' after metric", 10, 8),
    (_PRE + _FRAME + "metric rows\n  1, 0\noneform 1, 0\n",
     ValidationError, "metric has 1 rows, expected 2", 12, None),
    (_PRE + _FRAME + "metric rows\n  1, 0\n",
     ParseError, "unexpected end of input", 11, 1),
    (_PRE + _FRAME + "metric identity\noneform 1, 0\n  x\n",
     ParseError, "unexpected content 'x'", 12, 1),
    (_PRE + _FRAME + "metric identity\noneform x^2^99999999999999999999, 0\n",
     ParseError, "exponent 99999999999999999999 exceeds 9007199254740992 in magnitude", 11, 13),
    (_PRE + _FRAME + "metric rows\n  sin x, 0\n  0, 1\n",
     ParseError, "expected '(', found 'x'", 11, 7),
    # a literal over CPython's 4,300-digit int conversion limit, named by its length
    (_PRE + _FRAME + "metric rows\n  1 + x^" + "9" * 5000 + ", 0\n  0, 1\n",
     ParseError, "exponent <5000 digits> exceeds 9007199254740992 in magnitude", 11, 9),
]


@pytest.mark.parametrize("case", range(len(LOCATED_ERRORS)))
def test_error_messages_and_locations_pinned(case):
    source, err, message, line, col = LOCATED_ERRORS[case]
    with pytest.raises(err) as excinfo:
        parse_manifold(source)
    exc = excinfo.value
    assert (exc.message, exc.line, getattr(exc, "col", None)) == (message, line, col)


def test_scalar_error_columns_count_from_the_offset():
    for text, message, col in [("x $ 1", "unexpected character '$'", 10),
                               ("  x + ", "expected a number, name or '(', found end of input", 14),
                               ("x ) ", "trailing input after expression, found ')'", 10),
                               ("x^-", "expected an integer literal exponent, found end of input", 11),
                               ("1.2.3", "trailing input after expression, found '.3'", 11)]:
        with pytest.raises(ParseError) as excinfo:
            parse_scalar_expression(text, ("x", "y"), 4, 7)
        assert (excinfo.value.message, excinfo.value.line, excinfo.value.col) == (message, 4, col)


def test_sign_runs_and_exponent_towers_parse_without_recursion():
    coords = ("x", "y")
    assert parse_scalar_expression("-+-x", coords) == Neg(Neg(Coord(0)))
    assert parse_scalar_expression("x^-2^3", coords) == Pow(Coord(0), -8)
    assert parse_scalar_expression("x^" + "9" * 5000 + "^0", coords) == Pow(Coord(0), 1)
    deep = parse_scalar_expression("-" * 3000 + "x" + "^1" * 3000, coords)
    assert jet_eval(deep, [2.0, 0.0], 0).value == 2.0


def test_bad_exponent_tower_exits_two(tmp_path, capsys):
    """A tower that is no bounded integer is a located ParseError at the
    command line too, not an uncaught ZeroDivisionError, nor the ValueError of
    converting a literal over 4,300 digits."""
    from srclab.cli import cli_main

    path = tmp_path / "tower.manifold"
    for tower, message in [("x^0^-1", "exponent 0^-1 divides by zero"),
                           ("x^" + "9" * 5000, "exponent <5000 digits> exceeds")]:
        path.write_text(_PRE + f"  X = dx + {tower} dz\n  Y = dy\nvframe\n  Z = dz\n"
                        "metric identity\n", encoding="utf-8")
        assert cli_main(["parse", str(path)]) == 2
        assert message in capsys.readouterr().err


def test_deep_nesting_parses(tmp_path, capsys):
    """300 nested parentheses or calls parse through ``srclab parse`` and
    round-trip, and 5,000 levels parse and evaluate: nothing recurses."""
    from srclab.cli import cli_main

    for opener in ("(", "sin("):
        source = (_PRE + "  X = dx + " + opener * 300 + "x" + ")" * 300 + " dz\n  Y = dy\n"
                  "vframe\n  Z = dz\nmetric identity\n")
        path = tmp_path / "deep.manifold"
        path.write_text(source, encoding="utf-8")
        assert cli_main(["parse", str(path)]) == 0
        assert capsys.readouterr().out.startswith("OK: m ")
        doc = parse_document(source)
        assert parse_document(serialize_document(doc)).spec == doc.spec
    assert parse_scalar_expression("(" * 5000 + "-x" + ")" * 5000, ("x",)) == Neg(Coord(0))
    nested = parse_scalar_expression("cos(" * 5000 + "x" + ")" * 5000, ("x",))
    value = 0.5
    for _ in range(5000):
        value = math.cos(value)
    assert jet_eval(nested, [0.5], 0).value == value


def _long_sum_source(terms: int) -> str:
    rng = random.Random(terms)
    total = " + ".join(f"{rng.randint(1, 9) / 64!r}*{rng.choice('xyz')}" for _ in range(terms))
    return (f"manifold long\ndim 3\nhdim 2\ncoords x y z\nhframe\n  X = dx + ({total}) dz\n"
            "  Y = dy\nvframe\n  Z = dz\nmetric identity\n")


def test_long_sum_round_trips():
    """A 5,000-term frame component (a left-deep tree 5,000 levels high)
    serializes and reparses to the same spec and the same text."""
    doc = parse_document(_long_sum_source(5000))
    text = serialize_document(doc)
    again = parse_document(text)
    assert again.spec == doc.spec and hash(again.spec) == hash(doc.spec)
    assert serialize_document(again) == text


def test_ingestion_calls_grow_linearly():
    """Python-level calls into srclab made by parsing a spec and compiling its
    JetProgram: doubling the terms of a sum at most 2.2 times the calls (a
    quadratic ingestion makes it about 4)."""
    package = os.path.dirname(srclab.__file__) + os.sep

    def srclab_calls(terms):
        source, count = _long_sum_source(terms), 0

        def profile(frame, event, arg):
            nonlocal count
            if event == "call" and frame.f_code.co_filename.startswith(package):
                count += 1

        sys.setprofile(profile)
        try:
            parse_manifold(source)._jet_program
        finally:
            sys.setprofile(None)
        return count

    one, two = srclab_calls(1000), srclab_calls(2000)
    assert two <= 2.2 * one, (one, two)


def test_round_trip_of_a_negated_metric_entry_and_a_zero_field():
    """A metric entry with a leading minus prints as '-x', a frame field with
    no nonzero component as '0 d<first coordinate>', and both parse back to
    the same spec."""
    doc = parse_document(_PRE + "  X = dx\n  Y = dy\nvframe\n  Z = 0 dz\n"
                         "metric rows\n  2, -x\n  -x, 2\n")
    assert doc.spec.vframe[0].components == (Const(0.0),) * 3
    text = serialize_document(doc)
    assert "  Z = 0 dx\n" in text and "  2, -x\n  -x, 2\n" in text
    assert parse_document(text).spec == doc.spec
