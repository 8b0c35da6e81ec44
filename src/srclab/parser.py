"""Manifold source format: tokenizer, operator-precedence parser, serializer.

Line-oriented grammar (``#`` starts a comment, blank lines ignored, sections
in this order)::

    manifold <name>
    dim <int>
    hdim <int>
    coords <name>+
    hframe
      <Name> = <vfexpr>        (exactly hdim lines)
    vframe
      <Name> = <vfexpr>        (exactly dim-hdim lines)
    metric identity
    metric rows                (alternative: hdim rows of hdim entries)
      <scalar-expr>, ...
    oneform <scalar-expr>, ... (optional, hdim entries: the document's one-form)

``vfexpr`` is a signed sum of terms ``[factor] d<coord>`` where the optional
factor is a multiplicative scalar expression (write ``(y/2) dz``, ``2*x dz``).
Scalar expressions use the usual precedence over ``+ - * / ^ ( )`` with
numbers, coordinate names and sin/cos/exp/log/sqrt; ``^`` binds tightest,
is right-associative and takes integer literal exponents only; a tower such
as ``x^2^3`` folds to one integer exponent, of magnitude at most MAX_EXPONENT.

Metric rows and oneform entries are comma-separated; rows without commas may
use whitespace separation when no entry contains spaces.  The serializer
always emits commas.  Serializing a parsed document and reparsing yields a
structurally identical document; a document built in Python reads back with
the same values (:func:`serialize_manifold`).  The ``oneform`` line is the document's
default one-form, not part of its ManifoldSpec; :func:`parse_oneform` parses
it, a one-form file (its lines read by :class:`_Lines`) and a catalog variant.
"""
from __future__ import annotations

import math
import re
import string
from dataclasses import dataclass

from .connections import OneFormData
from .errors import ParseError, ValidationError
from .jets import (Add, Call, Const, Coord, Div, Expression, Mul, Neg, Pow,
                   Sub, FUNCTIONS, MAX_EXPONENT, ValueTable)
from .manifold import ManifoldSpec, VectorFieldSpec, check_coordinates

# one token: an operator, a name or a number
_TOKEN = r"[+\-*/^(),=]|[A-Za-z_][A-Za-z_0-9]*|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TOKEN_RE = re.compile(rf"\s*({_TOKEN}|\S)")    # any other character is a token too: an error
_WELL_FORMED = re.compile(_TOKEN)
_NAME_START = frozenset(string.ascii_letters + "_")
_OPERATORS = frozenset("+-*/^(),=")
_STRAY = re.compile(r"[^A-Za-z0-9_.+\-*/^(),= ]")     # not in a token, nor a space
_PRODUCTS = {"*": Mul, "/": Div}
_SUMS = {"+": Add, "-": Sub}
_EXPONENT_DIGITS = len(str(MAX_EXPONENT))      # a literal with more digits exceeds it


def _tokenize(text: str, line: int, col_offset: int = 0) -> list[str]:
    """The tokens of one line from one scan, then "" for its end.  A line
    with a _STRAY character or a lone '.' is scanned again for the column of
    its first token that is not well formed, which raises."""
    tokens = _TOKEN_RE.findall(text)
    if _STRAY.search(text) or "." in tokens:
        for tok, col in zip(tokens, _columns(text, col_offset)):
            if not _WELL_FORMED.fullmatch(tok):
                raise ParseError(f"unexpected character {tok!r}", line, col)
    tokens.append("")
    return tokens


def _columns(text: str, col_offset: int) -> list[int]:
    """The column of each token of a line and of its end, counted from 1 at
    ``col_offset`` characters before the start of ``text``."""
    return ([m.start(1) + 1 + col_offset for m in _TOKEN_RE.finditer(text)]
            + [len(text) + 1 + col_offset])


class _ExprParser:
    """Parser of scalar expressions and vector fields over the coordinates
    ``coords``, one line at a time (:meth:`start`).  Every node it reads goes
    into ``table`` (a :class:`~srclab.jets.ValueTable`), which hash-conses it
    and gives its value; the parser returns node numbers.  Token columns are
    computed only for an error.  Nothing in it recurses, so expressions of any
    length or nesting parse."""

    def __init__(self, coords: tuple[str, ...], table: ValueTable):
        self.table = table
        self.coord_index = {c: k for k, c in enumerate(coords)}
        self.atoms: dict[str, int] = {}     # the node of each coordinate and number read so far

    def start(self, text: str, line: int, col_offset: int = 0) -> "_ExprParser":
        """Read ``text`` next: line ``line`` from column ``col_offset + 1``."""
        self.text, self.line, self.col_offset = text, line, col_offset
        self.tokens = _tokenize(text, line, col_offset)
        self.pos = 0
        return self

    def accept(self, *ops: str) -> str:
        """The next token, consumed, if it is one of the operators ``ops``;
        else '' and nothing is consumed."""
        tok = self.tokens[self.pos]
        if tok in ops:
            self.pos += 1
            return tok
        return ""

    def at_end(self) -> bool:
        return self.tokens[self.pos] == ""

    def error(self, message: str, pos: int) -> ParseError:
        """A ParseError at token ``pos`` of the line."""
        return ParseError(message, self.line, _columns(self.text, self.col_offset)[pos])

    def fail(self, message: str):
        tok = self.tokens[self.pos]
        raise self.error(f"{message}, found {repr(tok) if tok else 'end of input'}", self.pos)

    # scalar grammar -------------------------------------------------------

    def scalar(self) -> int:
        """The line's one scalar expression."""
        node = self.expr()
        if not self.at_end():
            self.fail("trailing input after expression")
        return node

    def expr(self, stop_at_dcoord: bool = False) -> int:
        """A sum of products or, with ``stop_at_dcoord``, one product: the
        factor of a vector-field term, none of whose operands outside
        parentheses may be a d<coordinate> name.

        Operator precedence with the state of every open parenthesis on an
        explicit stack, so neither length nor nesting recurses.  Signs bind
        looser than ``^`` and tighter than ``*``; sums and products associate
        to the left.  The token position is a local, stored back before a
        method reads it.
        """
        toks, i, make, atoms = self.tokens, self.pos, self.table.make, self.atoms
        levels = []         # (total, add, product, mul, negations, opener) per open "("
        total = add = product = mul = None              # add and mul: the operator's class
        while True:
            negations = 0                   # an operand: signs, then a number, name or "("
            tok = toks[i]
            while tok == "-" or tok == "+":
                negations += tok == "-"
                i += 1
                tok = toks[i]
            if tok == "(" or tok in FUNCTIONS:
                i += 1
                if tok != "(":
                    if toks[i] != "(":
                        self.pos = i
                        self.fail("expected '('")
                    i += 1
                levels.append((total, add, product, mul, negations, tok))
                total = add = product = mul = None
                continue
            node = atoms.get(tok)
            if node is None:
                self.pos = i
                node = self.atom(stop_at_dcoord and not levels)
            i += 1
            while True:                     # after an operand, up through every closed level
                tok = toks[i]
                if tok == "^":
                    self.pos = i + 1
                    node = make(Pow, node, self.exponent())
                    i = self.pos
                    tok = toks[i]
                while negations:
                    node = make(Neg, node)
                    negations -= 1
                product = make(mul, product, node) if mul else node
                mul = _PRODUCTS.get(tok)
                if mul:
                    i += 1
                    break
                if levels or not stop_at_dcoord:        # a sum: products joined by + and -
                    total = make(add, total, product) if add else product
                    add = _SUMS.get(tok)
                    if add:
                        i += 1
                        break
                    product = total                     # the finished sum
                if not levels:
                    self.pos = i
                    return product
                if tok != ")":
                    self.pos = i
                    self.fail("expected ')'")
                i += 1
                node = product
                total, add, product, mul, negations, opener = levels.pop()
                if opener != "(":
                    node = make(Call, opener, node)

    def exponent(self) -> int:
        """A tower of signed integer literals, ``^`` right-associative, folded
        from the top while every level is an integer of magnitude at most
        MAX_EXPONENT; a level that is not raises at its literal.  A literal with more
        digits than MAX_EXPONENT (leading zeros aside) is not converted: the rules
        need only know that it exceeds MAX_EXPONENT, and a message gives its length."""
        tower = []
        while not tower or self.accept("^"):
            sign = -1 if self.accept("-") else 1
            tok = self.tokens[self.pos]
            if not tok.isdecimal():
                self.fail("expected an integer literal exponent")
            digits = tok.lstrip("0") or "0"
            value = int(digits) if len(digits) <= _EXPONENT_DIGITS else MAX_EXPONENT + 1
            shown = digits if len(digits) <= 40 else f"<{len(digits)} digits>"
            tower.append((sign, value, shown, self.pos))
            self.pos += 1
        too_big = f"exceeds {MAX_EXPONENT} in magnitude"
        sign, value, shown, pos = tower.pop()
        if value > MAX_EXPONENT:
            raise self.error(f"exponent {shown} {too_big}", pos)
        value *= sign
        for sign, base, shown, pos in reversed(tower):
            problem = ("divides by zero" if value < 0 and base == 0
                       else "is not an integer" if value < 0 and base != 1
                       else too_big if base > 1 and (value > MAX_EXPONENT.bit_length()
                                                     or base ** value > MAX_EXPONENT)
                       else None)
            if problem:
                raise self.error(f"exponent {shown}^{value} {problem}", pos)
            value = sign * base ** max(value, 0)         # 1 ** -k is the integer 1
        return value

    def atom(self, stop_at_dcoord: bool) -> int:
        """A number or coordinate name not read before (:attr:`atoms`)."""
        tok = self.tokens[self.pos]
        if tok[:1] in _NAME_START:
            if stop_at_dcoord and self.at_dcoord():
                self.fail("expected an expression")
            if tok not in self.coord_index:
                raise self.error(f"unknown name {tok!r} (not a coordinate or function)",
                                 self.pos)
            node = self.table.make(Coord, self.coord_index[tok])
        elif tok and tok not in _OPERATORS:
            node = self.table.make(Const, float(tok))
        else:
            self.fail("expected a number, name or '('")
        self.atoms[tok] = node
        return node

    # vector-field grammar -------------------------------------------------

    def at_dcoord(self) -> bool:
        tok = self.tokens[self.pos]
        return tok[:1] == "d" and tok[1:] in self.coord_index

    def vfexpr(self, n: int) -> list[int]:
        """The n components of a vector field; terms on one d<coordinate>
        add up in order."""
        make, components = self.table.make, {}
        while True:
            op = self.accept("+", "-")
            if not op and components:
                self.fail("expected '+' or '-' between terms")
            contribution = (make(Const, 1.0) if self.at_dcoord()
                            else self.expr(stop_at_dcoord=True))
            if not self.at_dcoord():
                self.fail("expected d<coordinate>")
            k = self.coord_index[self.tokens[self.pos][1:]]
            self.pos += 1
            if op == "-":
                contribution = make(Neg, contribution)
            components[k] = (make(Add, components[k], contribution)
                             if k in components else contribution)
            if self.at_end():
                break
        return [components[k] if k in components else make(Const, 0.0) for k in range(n)]


def parse_scalar_expression(text: str, coords: tuple[str, ...],
                            line: int = 1, col_offset: int = 0) -> Expression:
    parser = _ExprParser(coords, ValueTable())
    return parser.table.nodes[parser.start(text, line, col_offset).scalar()]


def parse_oneform(lines, coords: tuple[str, ...]) -> OneFormData:
    """The one-form on the chart ``coords`` whose components are ``lines``, each (text,
    line, column offset) of one scalar expression, parsed into one value table that
    also assembles its program."""
    parser = _ExprParser(coords, ValueTable())
    numbers = [parser.start(text, line, offset).scalar() for text, line, offset in lines]
    return OneFormData(tuple(parser.table.nodes[k] for k in numbers), len(coords),
                       parser.table.program(numbers, len(coords)))


# --------------------------------------------------------------------------
# Document parser
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SpecDocument:
    """Parsed manifold source: the spec, the names of its frame fields and
    the one-form of its ``oneform`` line, None without one."""

    spec: ManifoldSpec
    hframe_names: tuple[str, ...]
    vframe_names: tuple[str, ...]
    oneform: OneFormData | None


_SECTION_KEYWORDS = ("manifold", "dim", "hdim", "coords", "hframe", "vframe",
                     "metric", "oneform")


class _Lines:
    """(line number, text) of each line holding code: its '#' comment and trailing blanks cut."""

    def __init__(self, text: str):
        self.items: list[tuple[int, str]] = []
        lines = text.splitlines()
        for idx, raw in enumerate(lines, start=1):
            body = raw.split("#", 1)[0].rstrip()
            if body.strip():
                self.items.append((idx, body))
        self.pos = 0
        self.last_line = len(lines) or 1

    def expressions(self) -> list[tuple[str, int, int]]:
        """Each line as (text, line number, column offset), its indentation cut too."""
        return [(body.lstrip(), line, len(body) - len(body.lstrip())) for line, body in self.items]

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self):
        item = self.peek()
        if item is None:
            raise ParseError("unexpected end of input", self.last_line, 1)
        self.pos += 1
        return item


def _keyword_line(lines: _Lines, keyword: str) -> tuple[int, str]:
    item = lines.peek()
    if item is None:
        raise ParseError(f"expected {keyword!r} section", lines.last_line, 1)
    line_no, body = item
    stripped = body.strip()
    head = stripped.split(None, 1)[0] if stripped else ""
    if head != keyword:
        raise ParseError(f"expected keyword {keyword!r}, found {head!r}", line_no,
                         body.index(head) + 1 if head else 1)
    lines.next()
    rest = stripped[len(keyword):].strip()
    return line_no, rest


def _parse_int(text: str, what: str, line_no: int) -> int:
    if not re.fullmatch(r"\d+", text):
        raise ParseError(f"expected an integer for {what}", line_no, 1)
    return int(text)


def _frame_block(lines: _Lines, count: int, n, section: str, head_line: int, parser):
    """The names of a frame section's fields and their components, as node numbers."""
    names, fields = [], []
    while True:
        item = lines.peek()
        if item is None:
            break
        line_no, body = item
        stripped = body.strip()
        head = stripped.split(None, 1)[0]
        if head in _SECTION_KEYWORDS:
            break
        lines.next()
        if "=" not in stripped:
            raise ParseError("expected '<Name> = <vector field>'", line_no,
                             body.index(stripped[0]) + 1)
        name, rhs = stripped.split("=", 1)
        name = name.strip()
        if not name.isidentifier():
            raise ParseError(f"bad frame field name {name!r}", line_no, 1)
        names.append(name)
        fields.append(parser.start(rhs, line_no, body.index("=") + 1).vfexpr(n))
    if len(fields) != count:
        raise ValidationError(
            f"{section} declares {len(fields)} fields, expected {count}", head_line)
    return tuple(names), fields


def _split_entries(body: str, start: int, line_no: int, expected: int, what: str):
    """(entry, offset) pairs of a metric row or one-form line whose ``body``
    starts at offset ``start`` of the line, so entries report line columns."""
    sep = "," if "," in body else None
    parts = body.split(sep)
    if len(parts) != expected:
        raise ValidationError(f"{what} has {len(parts)} entries, expected {expected}",
                              line_no)
    entries, pos = [], 0
    for part in parts:
        if sep is None:
            pos = body.index(part, pos)         # past the whitespace before it
        entries.append((part, start + pos))
        pos += len(part) + (sep is not None)
    return entries


def parse_document(text: str) -> SpecDocument:
    """Parse manifold source text into a SpecDocument (grammar in module docstring):
    structural invariants are checked here, pointwise ones (frame condition,
    positive Gram) at evaluation time."""
    lines = _Lines(text)

    line_no, name = _keyword_line(lines, "manifold")
    if not name:
        raise ParseError("manifold needs a name", line_no, len("manifold") + 1)

    line_no, rest = _keyword_line(lines, "dim")
    n = _parse_int(rest, "dim", line_no)

    line_no, rest = _keyword_line(lines, "hdim")
    ell = _parse_int(rest, "hdim", line_no)
    if not 2 <= ell < n:
        raise ValidationError(f"need 2 <= hdim < dim, got hdim={ell}, dim={n}", line_no)

    line_no, rest = _keyword_line(lines, "coords")
    coords = tuple(rest.split())
    if len(coords) != n:
        raise ValidationError(f"coords lists {len(coords)} names, expected {n}", line_no)
    check_coordinates(coords, line_no)

    line_no, rest = _keyword_line(lines, "hframe")
    if rest:
        raise ParseError("hframe keyword takes no arguments", line_no, 1)
    parser = _ExprParser(coords, ValueTable())      # one value table for the whole document
    hnames, hframe = _frame_block(lines, ell, n, "hframe", line_no, parser)

    line_no, rest = _keyword_line(lines, "vframe")
    vnames, vframe = _frame_block(lines, n - ell, n, "vframe", line_no, parser)

    line_no, rest = _keyword_line(lines, "metric")
    if rest == "identity":
        one, zero = parser.table.make(Const, 1.0), parser.table.make(Const, 0.0)
        metric = [[one if i == j else zero for j in range(ell)] for i in range(ell)]
    elif rest == "rows":
        metric, texts, row_lines = [], [], []
        for i in range(ell):
            row_line, body = lines.next()
            stripped = body.strip()
            if stripped.split(None, 1)[0] in _SECTION_KEYWORDS:
                raise ValidationError(
                    f"metric has {i} rows, expected {ell}", row_line)
            parts = _split_entries(stripped, len(body) - len(stripped), row_line, ell,
                                   f"metric row {i + 1}")
            texts.append([part.strip() for part, _ in parts])
            metric.append([metric[j][i] if j < i and texts[i][j] == texts[j][i]   # its mirror's
                           else parser.start(part, row_line, offset).scalar()
                           for j, (part, offset) in enumerate(parts)])
            row_lines.append(row_line)
        for i in range(ell):
            for j in range(i):
                if metric[i][j] != metric[j][i]:        # hash-consed: equal trees, equal numbers
                    raise ValidationError(
                        f"metric entry ({i + 1},{j + 1}) is not symmetric",
                        row_lines[i])
    else:
        raise ParseError("expected 'identity' or 'rows' after metric", line_no,
                         len("metric") + 2)

    oneform = None
    item = lines.peek()
    if item is not None:
        line_no, rest = _keyword_line(lines, "oneform")
        parts = _split_entries(rest, len(item[1]) - len(rest), line_no, ell, "oneform")
        oneform = parse_oneform([(part, line_no, offset) for part, offset in parts], coords)
        if lines.peek() is not None:
            extra_line, body = lines.peek()
            raise ParseError(f"unexpected content {body.strip()!r}", extra_line, 1)

    nodes = parser.table.nodes
    outputs = [k for field in hframe + vframe for k in field] + [k for row in metric for k in row]
    spec = ManifoldSpec(
        name, coords, ell,
        tuple(VectorFieldSpec(tuple(nodes[k] for k in field)) for field in hframe),
        tuple(VectorFieldSpec(tuple(nodes[k] for k in field)) for field in vframe),
        tuple(tuple(nodes[k] for k in row) for row in metric), numbering=(parser.table, outputs))
    return SpecDocument(spec, hnames, vnames, oneform)


# --------------------------------------------------------------------------
# Serializer
# --------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _fmt_const(value: float) -> str:
    """An integral value as an integer (-0.0 as -0), any other by ``repr``, inf as 1e999."""
    if abs(value) < 1e16 and value == int(value):
        return f"{value:.0f}"
    return repr(value).replace("inf", "1e999")


_BINARY = {Add: (" + ", _PREC_ADD), Sub: (" - ", _PREC_ADD),
           Mul: ("*", _PREC_MUL), Div: ("/", _PREC_MUL)}


def _print_expr(node: Expression, coords, prec: int = 0) -> str:
    """Source text of an expression, parenthesized where ``prec`` binds
    tighter; written left to right from an explicit stack of pending pieces
    (strings, or subexpressions with the precedence their place needs)."""
    out, stack = [], [(node, prec)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, prec = item
        if isinstance(node, Const):             # a negative one binds as a unary minus
            pieces = [_fmt_const(node.value)]
            p = _PREC_UNARY if pieces[0][0] == "-" else _PREC_ATOM
        elif isinstance(node, Coord):
            pieces, p = [coords[node.index]], _PREC_ATOM
        elif type(node) in _BINARY:
            op, p = _BINARY[type(node)]
            pieces = [(node.left, p), op, (node.right, p + 1)]
        elif isinstance(node, Neg):
            pieces, p = ["-", (node.arg, _PREC_UNARY)], _PREC_UNARY
        elif isinstance(node, Pow):
            exp = str(node.exponent) if node.exponent >= 0 else f"-{-node.exponent}"
            pieces, p = [(node.base, _PREC_ATOM), f"^{exp}"], _PREC_POW
        else:                                       # a Call
            pieces, p = [f"{node.fn}(", (node.arg, 0), ")"], _PREC_ATOM
        if p < prec:
            pieces = ["(", *pieces, ")"]
        stack.extend(reversed(pieces))
    return "".join(out)


def _is_zero(expr: Expression) -> bool:
    """Whether ``expr`` is the constant +0 (a -0.0 is printed, so that its sign reads back)."""
    return expr == Const(0.0) and math.copysign(1.0, expr.value) > 0


def _print_vf(vf: VectorFieldSpec, coords) -> str:
    """The terms ``[factor] d<coord>`` of the nonzero components joined by their signs (a
    leading + dropped), or ``0 d<first coordinate>`` without one."""
    out = ""
    for k, comp in enumerate(vf.components):
        if not _is_zero(comp):
            sign, inner = ("-", comp.arg) if isinstance(comp, Neg) else ("+", comp)
            factor = "" if inner == Const(1.0) else _print_expr(inner, coords, _PREC_ATOM) + " "
            out += (f" {sign} " if out else "" if sign == "+" else "-") + f"{factor}d{coords[k]}"
    return out or f"0 d{coords[0]}"


def serialize_manifold(spec: ManifoldSpec, hframe_names=None, vframe_names=None) -> str:
    """Canonical source text.  A parsed spec reads back structurally identical; one built in
    Python with the same values (``Const(-1.0)`` comes back as ``Neg(Const(1.0))``)."""
    coords = spec.coords
    hnames = hframe_names or tuple(f"X{i + 1}" for i in range(spec.ell))
    vnames = vframe_names or tuple(f"V{i + 1}" for i in range(spec.n - spec.ell))
    lines = [f"manifold {spec.name}", f"dim {spec.n}", f"hdim {spec.ell}",
             "coords " + " ".join(coords), "hframe"]
    for name, vf in zip(hnames, spec.hframe):
        lines.append(f"  {name} = {_print_vf(vf, coords)}")
    lines.append("vframe")
    for name, vf in zip(vnames, spec.vframe):
        lines.append(f"  {name} = {_print_vf(vf, coords)}")
    identity = all(spec.metric[i][j] == Const(1.0) if i == j else _is_zero(spec.metric[i][j])
                   for i in range(spec.ell) for j in range(spec.ell))
    if identity:
        lines.append("metric identity")
    else:
        lines.append("metric rows")
        for row in spec.metric:
            lines.append("  " + ", ".join(_print_expr(e, coords) for e in row))
    return "\n".join(lines) + "\n"


def serialize_document(doc: SpecDocument) -> str:
    """Canonical source text, which reads back as :func:`serialize_manifold` says."""
    text = serialize_manifold(doc.spec, doc.hframe_names, doc.vframe_names)
    return text if doc.oneform is None else text + "oneform " + ", ".join(
        _print_expr(e, doc.spec.coords) for e in doc.oneform.exprs) + "\n"
