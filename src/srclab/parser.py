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
    oneform <scalar-expr>, ... (optional, hdim entries)

``vfexpr`` is a signed sum of terms ``[factor] d<coord>`` where the optional
factor is a multiplicative scalar expression (write ``(y/2) dz``, ``2*x dz``).
Scalar expressions use the usual precedence over ``+ - * / ^ ( )`` with
numbers, coordinate names and sin/cos/exp/log/sqrt; ``^`` binds tightest,
is right-associative and takes integer literal exponents only; a tower such
as ``x^2^3`` folds to one integer exponent, of magnitude at most MAX_EXPONENT.

Metric rows and oneform entries are comma-separated; rows without commas may
use whitespace separation when no entry contains spaces.  The serializer
always emits commas.  Serializing a parsed document and reparsing yields a
structurally identical ManifoldSpec.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError, ValidationError
from .jets import (Add, Call, Const, Coord, Div, Expression, Mul, Neg, Pow,
                   Sub, FUNCTIONS)
from .manifold import ManifoldSpec, VectorFieldSpec, check_coordinates

MAX_EXPONENT = 2 ** 53      # the largest magnitude up to which every integer is a float

_TOKEN_RE = re.compile(r"""
    (\s*)                                   # whitespace before the token
    (?: (\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)    # number
      | ([A-Za-z_][A-Za-z_0-9]*)            # name
      | ([+\-*/^(),=])                      # operator
      | (\S) )                              # any other character is an error
""", re.VERBOSE)


def _tokenize(text: str, line: int, col_offset: int = 0) -> list[tuple]:
    """(kind, text, line, col) tokens of one line from one scan; the kind is
    num, name, end or, for an operator, the operator itself.  Columns come
    from a running offset into the line."""
    out, col = [], col_offset + 1
    for ws, num, name, op, bad in _TOKEN_RE.findall(text):
        col += len(ws)
        if bad:
            raise ParseError(f"unexpected character {bad!r}", line, col)
        tok = num or name or op
        out.append(("num" if num else "name" if name else op, tok, line, col))
        col += len(tok)
    out.append(("end", "", line, len(text) + 1 + col_offset))
    return out


class _ExprParser:
    """Parser of one token stream; knows the coordinate names.  Nothing in it
    recurses, so expressions of any length or nesting parse."""

    def __init__(self, tokens: list[tuple], coords: tuple[str, ...], nodes=None):
        self.tokens = tokens
        self.pos = 0
        self.coords = coords
        self.nodes = {} if nodes is None else nodes

    def make(self, cls, *fields) -> Expression:
        """``cls(*fields)``, or the equal node made before with the same table
        (hash-consing): equal subtrees are one object, so comparing or
        compiling them again costs O(1)."""
        key = (cls, *fields)
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = cls(*fields)
        return node

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def next(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, ops: str) -> str:
        """The next token, consumed, if it is one of the operators ``ops``;
        else '' and nothing is consumed."""
        kind = self.tokens[self.pos][0]
        if kind in ops:
            self.pos += 1
            return kind
        return ""

    def expect_op(self, text: str):
        if not self.accept(text):
            self.fail(f"expected {text!r}")

    def at_end(self) -> bool:
        return self.peek()[0] == "end"

    def fail(self, message: str):
        kind, text, line, col = self.peek()
        found = "end of input" if kind == "end" else repr(text)
        raise ParseError(f"{message}, found {found}", line, col)

    # scalar grammar -------------------------------------------------------

    def expr(self, stop_at_dcoord: bool = False) -> Expression:
        """A sum of products or, with ``stop_at_dcoord``, one product: the
        factor of a vector-field term, none of whose operands outside
        parentheses may be a d<coordinate> name.

        Operator precedence with the state of every open parenthesis on an
        explicit stack, so neither length nor nesting recurses.  Signs bind
        looser than ``^`` and tighter than ``*``; sums and products associate
        to the left.
        """
        levels = []         # (total, add, product, mul, negations, function) per open "("
        total, add, product, mul = None, "", None, ""
        while True:
            negations = 0                   # an operand: signs, then a number, name or "("
            while op := self.accept("+-"):
                negations += op == "-"
            kind, text = self.peek()[:2]
            if kind == "(" or kind == "name" and text in FUNCTIONS:
                self.next()
                if kind == "name":
                    self.expect_op("(")
                levels.append((total, add, product, mul, negations,
                               text if kind == "name" else None))
                total, add, product, mul = None, "", None, ""
                continue
            node = self.atom(stop_at_dcoord and not levels)
            while True:                     # after an operand, up through every closed level
                if self.accept("^"):
                    node = self.make(Pow, node, self.exponent())
                for _ in range(negations):
                    node = self.make(Neg, node)
                product = self.make(Mul if mul == "*" else Div, product, node) if mul else node
                if mul := self.accept("*/"):
                    break
                if levels or not stop_at_dcoord:        # a sum: products joined by + and -
                    total = (self.make(Add if add == "+" else Sub, total, product) if add
                             else product)
                    if add := self.accept("+-"):
                        break
                    product = total                     # the finished sum
                if not levels:
                    return product
                self.expect_op(")")
                node = product
                total, add, product, mul, negations, function = levels.pop()
                if function:
                    node = self.make(Call, function, node)

    def exponent(self) -> int:
        """A tower of signed integer literals, ``^`` right-associative, folded
        from the top while every level is an integer of magnitude at most
        MAX_EXPONENT; a level that is not raises at its literal."""
        tower = []
        while not tower or self.accept("^"):
            sign = -1 if self.accept("-") else 1
            kind, text, line, col = self.peek()
            if kind != "num" or not text.isdecimal():
                self.fail("expected an integer literal exponent")
            self.next()
            tower.append((sign, int(text), line, col))
        too_big = f"exceeds {MAX_EXPONENT} in magnitude"
        sign, value, line, col = tower.pop()
        if value > MAX_EXPONENT:
            raise ParseError(f"exponent {value} {too_big}", line, col)
        value *= sign
        for sign, base, line, col in reversed(tower):
            problem = ("divides by zero" if value < 0 and base == 0
                       else "is not an integer" if value < 0 and base != 1
                       else too_big if base > 1 and (value > MAX_EXPONENT.bit_length()
                                                     or base ** value > MAX_EXPONENT)
                       else None)
            if problem:
                raise ParseError(f"exponent {base}^{value} {problem}", line, col)
            value = sign * base ** max(value, 0)         # 1 ** -k is the integer 1
        return value

    def atom(self, stop_at_dcoord: bool) -> Expression:
        """A number or coordinate name."""
        kind, text, line, col = self.peek()
        if kind == "num":
            self.next()
            return self.make(Const, float(text))
        if kind == "name":
            if stop_at_dcoord and self.at_dcoord():
                self.fail("expected an expression")
            self.next()
            if text in self.coords:
                return self.make(Coord, self.coords.index(text))
            raise ParseError(f"unknown name {text!r} (not a coordinate or function)",
                             line, col)
        self.fail("expected a number, name or '('")

    # vector-field grammar -------------------------------------------------

    def at_dcoord(self) -> bool:
        kind, text = self.peek()[:2]
        return kind == "name" and text.startswith("d") and text[1:] in self.coords

    def vfexpr(self, n: int) -> tuple[Expression, ...]:
        components: dict[int, Expression] = {}
        while True:
            op = self.accept("+-")
            if not op and components:
                self.fail("expected '+' or '-' between terms")
            contribution = (self.make(Const, 1.0) if self.at_dcoord()
                            else self.expr(stop_at_dcoord=True))
            if not self.at_dcoord():
                self.fail("expected d<coordinate>")
            k = self.coords.index(self.next()[1][1:])
            if op == "-":
                contribution = self.make(Neg, contribution)
            components[k] = (self.make(Add, components[k], contribution)
                             if k in components else contribution)
            if self.at_end():
                break
        return tuple(components.get(k) or self.make(Const, 0.0) for k in range(n))


def parse_scalar_expression(text: str, coords: tuple[str, ...],
                            line: int = 1, col_offset: int = 0) -> Expression:
    return _scalar(_ExprParser(_tokenize(text, line, col_offset), coords))


def _scalar(parser: _ExprParser) -> Expression:
    node = parser.expr()
    if not parser.at_end():
        parser.fail("trailing input after expression")
    return node


# --------------------------------------------------------------------------
# Document parser
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SpecDocument:
    """Parsed manifold source: the spec and the names of its frame fields."""

    spec: ManifoldSpec
    hframe_names: tuple[str, ...]
    vframe_names: tuple[str, ...]


_SECTION_KEYWORDS = ("manifold", "dim", "hdim", "coords", "hframe", "vframe",
                     "metric", "oneform")


class _Lines:
    def __init__(self, text: str):
        self.items: list[tuple[int, str]] = []
        for idx, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].rstrip()
            if body.strip():
                self.items.append((idx, body))
        self.pos = 0
        self.last_line = len(text.splitlines()) or 1

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


def _frame_block(lines: _Lines, count: int, coords, n, section: str, head_line: int, nodes):
    names, specs = [], []
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
        parser = _ExprParser(_tokenize(rhs, line_no, body.index("=") + 1), coords, nodes)
        comps = parser.vfexpr(n)
        names.append(name)
        specs.append(VectorFieldSpec(comps))
    if len(specs) != count:
        raise ValidationError(
            f"{section} declares {len(specs)} fields, expected {count}", head_line)
    return tuple(names), tuple(specs)


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
    """Parse manifold source text into a SpecDocument (grammar in module docstring)."""
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
    nodes: dict = {}        # one hash-consing table for the whole document
    hnames, hframe = _frame_block(lines, ell, coords, n, "hframe", line_no, nodes)

    line_no, rest = _keyword_line(lines, "vframe")
    vnames, vframe = _frame_block(lines, n - ell, coords, n, "vframe", line_no, nodes)

    line_no, rest = _keyword_line(lines, "metric")
    if rest == "identity":
        metric = tuple(tuple(Const(1.0) if i == j else Const(0.0) for j in range(ell))
                       for i in range(ell))
    elif rest == "rows":
        rows, row_lines = [], []
        for i in range(ell):
            row_line, body = lines.next()
            stripped = body.strip()
            if stripped.split(None, 1)[0] in _SECTION_KEYWORDS:
                raise ValidationError(
                    f"metric has {i} rows, expected {ell}", row_line)
            parts = _split_entries(stripped, len(body) - len(stripped), row_line, ell,
                                   f"metric row {i + 1}")
            rows.append(tuple(_scalar(_ExprParser(_tokenize(part, row_line, offset), coords, nodes))
                              for part, offset in parts))
            row_lines.append(row_line)
        metric = tuple(rows)
        for i in range(ell):
            for j in range(i):
                if metric[i][j] != metric[j][i]:
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
        oneform = tuple(_scalar(_ExprParser(_tokenize(part, line_no, offset), coords, nodes))
                        for part, offset in parts)
        if lines.peek() is not None:
            extra_line, body = lines.peek()
            raise ParseError(f"unexpected content {body.strip()!r}", extra_line, 1)

    spec = ManifoldSpec(name, coords, ell, hframe, vframe, metric, oneform)
    return SpecDocument(spec, hnames, vnames)


def parse_manifold(text: str) -> ManifoldSpec:
    """Parse manifold source text; structural invariants validated here,
    pointwise ones (frame condition, positive Gram) at evaluation time."""
    return parse_document(text).spec


# --------------------------------------------------------------------------
# Serializer
# --------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _fmt_const(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


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
        if isinstance(node, Const):
            pieces, p = [_fmt_const(node.value)], _PREC_ATOM
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
        elif isinstance(node, Call):
            pieces, p = [f"{node.fn}(", (node.arg, 0), ")"], _PREC_ATOM
        else:
            raise TypeError(f"not an expression node: {node!r}")
        if p < prec:
            pieces = ["(", *pieces, ")"]
        stack.extend(reversed(pieces))
    return "".join(out)


def _print_vf(vf: VectorFieldSpec, coords) -> str:
    terms = []
    for k, comp in enumerate(vf.components):
        if comp == Const(0.0) or comp == Const(-0.0):
            continue
        sign = "+"
        inner = comp
        if isinstance(inner, Neg):
            sign, inner = "-", inner.arg
        if inner == Const(1.0):
            body = f"d{coords[k]}"
        else:
            factor = _print_expr(inner, coords, _PREC_ATOM)
            body = f"{factor} d{coords[k]}"
        terms.append((sign, body))
    if not terms:
        return f"0 d{coords[0]}"
    first_sign, first_body = terms[0]
    out = first_body if first_sign == "+" else f"-{first_body}"
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


def serialize_manifold(spec: ManifoldSpec, hframe_names=None, vframe_names=None) -> str:
    """Canonical source text; reparsing reproduces the same ManifoldSpec."""
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
    identity = all(spec.metric[i][j] == (Const(1.0) if i == j else Const(0.0))
                   for i in range(spec.ell) for j in range(spec.ell))
    if identity:
        lines.append("metric identity")
    else:
        lines.append("metric rows")
        for row in spec.metric:
            lines.append("  " + ", ".join(_print_expr(e, coords) for e in row))
    if spec.oneform is not None:
        lines.append("oneform " + ", ".join(_print_expr(e, coords)
                                            for e in spec.oneform))
    return "\n".join(lines) + "\n"


def serialize_document(doc: SpecDocument) -> str:
    return serialize_manifold(doc.spec, doc.hframe_names, doc.vframe_names)
