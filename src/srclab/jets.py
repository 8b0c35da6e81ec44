"""Expression trees, their value table, and their truncated Taylor jets (orders 0..2).

Ingestion takes one walk: as the parser reads a document it makes each node through a
:class:`ValueTable`, whose one lookup hash-conses the node and gives its value, a folded
constant or an op of one op DAG.  A :class:`JetProgram` is assembled from that DAG for a
list of output nodes, and evaluates its ops on a whole (P, n) array of points, carrying the
value, gradient and symmetric Hessian of every output with a leading point axis, along a
basis (the identity by default); frame data and one-forms are evaluated through it.  Trees
built in Python enter a table by one walk, their one door (:meth:`ValueTable.enter`), which
admits only what the parser reads and keys each node as the parser does.  Exact
derivatives; finite differences serve only as cross-checks (:func:`fd_crosscheck`).
Constant folding (:func:`_value`) computes each value as the values sweep does, so a
folded constant is the swept value bit for bit.  Each library function is one row of
:data:`FUNCTIONS` (its numpy ufunc, f' and f'', domain tests), which the parser,
:func:`_value` and both sweeps read.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatch, DomainError, ValidationError

MAX_EXPONENT = 2 ** 53      # the largest magnitude up to which every integer is a float
_INT_END = 2 ** 1024 - 2 ** 970     # the least int magnitude that rounds to an infinite float

# --------------------------------------------------------------------------
# Expression trees
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Expression:
    """Base node; subclasses form the closed expression language.

    A node's hash is stored at construction (:func:`_node`); ``==``, ``repr`` and
    pickling never recurse, loading a pickle rehashes under the reader's hash seed,
    and a copy is the node itself (nodes are frozen).
    """

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs = [(self, other)]
        for a, b in pairs:
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            for x, y in zip(a.__dict__.values(), b.__dict__.values()):
                if isinstance(x, Expression):
                    pairs.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self):
        return self._hash

    def __repr__(self):
        """The dataclass text, written left to right from a stack of pending pieces."""
        out, stack = [], [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            parts = []
            for f in fields(item):
                value = getattr(item, f.name)
                parts += [", " if parts else f"{type(item).__qualname__}(", f"{f.name}=",
                          value if isinstance(value, Expression) else repr(value)]
            stack += reversed(parts + [")"])
        return "".join(out)

    def __reduce__(self):
        """The tree as a flat post-order list of (class, fields), operands as places in it."""
        place, nodes = {}, []
        for node in _postorder(self):
            place[id(node)] = len(nodes)
            values = (getattr(node, f.name) for f in fields(node))
            nodes.append((type(node), tuple(place[id(v)] if isinstance(v, Expression) else v
                                            for v in values)))
        return _rebuild, (nodes,)

    def __copy__(self, memo=None):
        return self

    __deepcopy__ = __copy__


def _rebuild(nodes) -> Expression:
    """The tree of a pickled post-order list (:meth:`Expression.__reduce__`)."""
    built: list[Expression] = []
    for cls, values in nodes:
        built.append(cls(*(built[v] if f.type == "Expression" else v
                           for f, v in zip(fields(cls), values))))
    return built[-1]


def _node(cls):
    """``cls`` as a frozen dataclass whose ``__init__`` also stores the hash of
    (class, fields), each operand entering by its stored hash; generated like
    the dataclass methods, so building a node stays one plain call."""
    cls = dataclass(frozen=True, eq=False, init=False, repr=False)(cls)
    names = [f.name for f in fields(cls)]
    keys = [f"{f.name}._hash" if f.type == "Expression" else f.name for f in fields(cls)]
    namespace = {"cls": cls}
    exec(f"def __init__(self, {', '.join(names)}):\n    fields = self.__dict__\n"
         + "".join(f"    fields[{n!r}] = {n}\n" for n in names)
         + f"    fields['_hash'] = hash((cls, {', '.join(keys)}))", namespace)
    cls.__init__ = namespace["__init__"]
    return cls


@_node
class Const(Expression):
    value: float


@_node
class Coord(Expression):
    index: int


@_node
class Add(Expression):
    left: Expression
    right: Expression


@_node
class Sub(Expression):
    left: Expression
    right: Expression


@_node
class Mul(Expression):
    left: Expression
    right: Expression


@_node
class Div(Expression):
    left: Expression
    right: Expression


@_node
class Neg(Expression):
    arg: Expression


@_node
class Pow(Expression):
    base: Expression
    exponent: int


@_node
class Call(Expression):
    fn: str
    arg: Expression


class Function(NamedTuple):
    """A row of :data:`FUNCTIONS`: its ufunc (folded and swept values), (f', f'') from the
    operand values v and function values f, and domain tests, each (a test on v, a message)."""

    ufunc: Callable
    derivatives: Callable
    domain: tuple = ()


FUNCTIONS = {
    "sin": Function(np.sin, lambda v, f: (np.cos(v), -f)),
    "cos": Function(np.cos, lambda v, f: (-np.sin(v), -f)),
    "exp": Function(np.exp, lambda v, f: (f, f)),
    "log": Function(np.log, lambda v, f: (1.0 / v, -1.0 / (v * v)),
                    ((lambda v: v <= 0.0, "log of non-positive value {}"),)),
    "sqrt": Function(np.sqrt, lambda v, f: (0.5 / f, -0.25 / (f * v)),
                     ((lambda v: v < 0.0, "sqrt of negative value {}"),
                      (lambda v: v == 0.0, "sqrt not differentiable at zero"))),
}
_ARITHMETIC = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Neg: operator.neg}
_UFUNCS = {"add": np.add, "sub": np.subtract, "mul": np.multiply}
_BINARY_NODES = frozenset((Add, Sub, Mul, Div))


def _operands(node: Expression) -> tuple[Expression, ...]:
    """Child expressions of a node, in evaluation order."""
    cls = type(node)
    if cls in _BINARY_NODES:
        return (node.left, node.right)
    if cls is Neg or cls is Call:
        return (node.arg,)
    if cls is Pow:
        return (node.base,)
    return ()


def _postorder(*exprs: Expression) -> list[Expression]:
    """Each node object of ``exprs`` once, after its operands, from an explicit
    stack on which ``(node,)`` stands for a node whose operands are done."""
    order, seen, stack = [], set(), list(reversed(exprs))
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            order.append(node[0])
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node,))
            stack += reversed(_operands(node))
    return order


# --------------------------------------------------------------------------
# Compiled expression lists, evaluated on a batch of points
# --------------------------------------------------------------------------

class ValueSweep(NamedTuple):
    """Every op's values at P points (:meth:`JetProgram.sweep`)."""

    points: np.ndarray       # (P, n)
    values: np.ndarray       # (P, m): the outputs
    slots: list              # op -> its values (P,), until JetProgram.derivatives drops them
    errors: dict             # point index -> (expression index, DomainError message)


class JetBatch(NamedTuple):
    """Order-2 jets of m compiled expressions at P points; with a basis B of
    d vectors, derivatives along B instead of the coordinates."""

    values: np.ndarray       # (P, m)
    grads: np.ndarray        # (P, m, n), or (P, m, d) along B: G B
    hessians: np.ndarray     # (P, h, n, n) for the h expressions compiled with one,
                             # or (P, h, hdim, hdim) along B: B_h^T H B_h
    errors: dict             # point index -> (expression index, DomainError message)


def _value(node: Expression, args: list[float]) -> float:
    """The value of an operator node from its operands' values, as :meth:`JetProgram.sweep`
    computes it, with its domain errors: ``+ - *`` and ``x * (1 / y)`` in Python floats
    (IEEE, numpy's bits), a power or a library function by its ufunc, which raises
    FloatingPointError where it overflows or is invalid."""
    if isinstance(node, Call):
        for test, message in FUNCTIONS[node.fn].domain:
            if test(args[0]):
                raise DomainError(message.format(args[0]))
        with np.errstate(over="raise", invalid="raise"):
            return float(FUNCTIONS[node.fn].ufunc(args[0]))
    if isinstance(node, Pow):
        if args[0] == 0.0 and node.exponent < 0:
            raise DomainError("zero raised to a negative power")
        with np.errstate(over="raise", invalid="raise"):
            return 1.0 if node.exponent == 0 else float(np.power(args[0], float(node.exponent)))
    if isinstance(node, Div):
        if args[1] == 0.0:
            raise DomainError("division by zero")
        return args[0] * (1.0 / args[1])
    return _ARITHMETIC[type(node)](*args)


def _shown(value) -> str:
    """``value`` in a message: its repr cut to 40 characters, a long int by its size."""
    if isinstance(value, int) and value.bit_length() > 128:     # no int over 4300 digits prints
        return f"an int of {value.bit_length()} bits"
    return f"{value!r:.40}"


_CODES = {Add: "add", Sub: "sub", Mul: "mul"}
_BINARY_CODES = frozenset(_UFUNCS)              # ops that read two slots
_LEAF_CODES = frozenset(("coord", "const"))     # ops that read none


class ValueTable:
    """Expression nodes, hash-consed and numbered, with their values in one op DAG.

    :meth:`make` returns a node's number; an equal node keeps the number it got
    first, so equal subtrees are one object (hash-consing: Filliâtre & Conchon,
    ML Workshop 2006).  The same lookup gives a new node its value (value
    numbering: Aho, Lam, Sethi & Ullman, *Compilers*, 2nd ed., §6.1.2): a float
    that :meth:`_combine` folds, or the number of an op (code, x, y) whose
    operand slots are op numbers, an op equal to an earlier one being that one.
    The parser fills a table as it reads; :meth:`enter` walks trees built in
    Python into one, checking them; :meth:`program` assembles a :class:`JetProgram`
    from the op DAG alone.
    """

    def __init__(self):
        self.keys: dict = {}            # (class, a, b) as make takes them -> node number
        self.nodes: list[Expression] = []
        self.values: list = []          # node number -> op number (int) or folded constant (float)
        self.ops: list[tuple] = []      # op number -> (code, x, y)
        self.operands: list[tuple] = []     # op number -> the ops it reads, last first
        self._op_numbers: dict = {}

    def make(self, cls, a, b=None) -> int:
        """The number of the node (Const, value), (Coord, index), (Neg, arg),
        (Pow, base, k), (Call, fn, arg) or (cls, left, right), operands by number."""
        key = (cls, a, b)
        number = self.keys.get(key)
        if number is None:
            number = self.keys[key] = self._new(key)
        return number

    def _new(self, key, node=None) -> int:
        """Number a node that is not in the table: ``node``, or one built from ``key``."""
        cls, a, b = key
        nodes, values = self.nodes, self.values
        if cls in _BINARY_NODES:
            node, x, y = node or cls(nodes[a], nodes[b]), values[a], values[b]
            value = (self._emit(_CODES[cls], x, y) if type(x) is int and type(y) is int
                     and cls is not Div else self._combine(node, [x, y]))
        elif cls is Const:
            node, value = node or Const(a), float(a)
        elif cls is Coord:
            node, value = node or Coord(a), self._emit("coord", a)
        elif cls is Call:
            node = node or Call(a, nodes[b])
            value = self._combine(node, [values[b]])
        else:
            node = node or (Pow(nodes[a], b) if cls is Pow else Neg(nodes[a]))
            value = self._combine(node, [values[a]])
        nodes.append(node)
        values.append(value)
        return len(nodes) - 1

    def enter(self, exprs, n: int) -> list[int]:
        """Node numbers of trees on R^n built outside the table: one post-order walk
        over them all admits each node object only if the parser could read it (a Coord
        index outside 0..n-1 is a DimensionMismatch, any other fault a ValidationError),
        then numbers it once (equal objects are not merged; their ops are), keyed as
        :meth:`make` keys each node."""
        exprs, numbers = list(exprs), {}
        for node in _postorder(*exprs):
            cls = type(node)
            if not isinstance(node, Expression):
                raise ValidationError(f"expected an expression, got {_shown(node)}")
            if cls is Coord and not (type(k := node.index) is int and 0 <= k < n):
                raise DimensionMismatch(
                    f"coordinate index {_shown(k)} out of range for dimension {n}")
            if cls is Call and node.fn not in FUNCTIONS:
                raise ValidationError(f"Call.fn {_shown(node.fn)} is not a function of FUNCTIONS")
            if cls is Pow and not (type(k := node.exponent) is int and abs(k) <= MAX_EXPONENT):
                raise ValidationError(
                    f"Pow.exponent {_shown(k)} does not read back as an int exponent")
            if cls is Const and not (isinstance(v := node.value, float) and v == v
                                     or isinstance(v, int) and abs(v) < _INT_END):
                raise ValidationError(f"Const.value {_shown(v)} does not read back as a float")
            key = (cls, *(numbers[id(x)] if isinstance(x, Expression) else x
                          for x in map(node.__dict__.get, node.__match_args__)), None)
            numbers[id(node)] = self._new(key[:3], node)      # (cls, a, b), b None if unused
        return [numbers[id(expr)] for expr in exprs]

    def program(self, outputs, n: int, hessians=(), hdim: int | None = None) -> JetProgram:
        """The :class:`JetProgram` of the nodes ``outputs`` on R^n."""
        program = JetProgram.__new__(JetProgram)
        program._assemble(self, outputs, n, hessians, hdim)
        return program

    def _emit(self, code, x, y=None) -> int:
        """The number of the op (code, x, y), made if it is new."""
        key = (code, x, y)
        if code == "affine" and y[0] == 0.0 or code == "const" and x == 0.0:
            key += (math.copysign(1.0, y[0] if code == "affine" else x),)   # 0.0 == -0.0
        number = self._op_numbers.get(key)
        if number is None:
            number = self._op_numbers[key] = len(self.ops)
            self.ops.append((code, x, y))
            self.operands.append((y, x) if code in _BINARY_CODES
                                 else () if code in _LEAF_CODES else (x,))
        return number

    def _affine(self, x: int, a: float, c: float) -> int:
        """x * a + c, as :func:`_value` computes ``x * a`` and ``x + c``."""
        return x if (a, c) == (1.0, 0.0) else self._emit("affine", x, (a, c))

    def _combine(self, node, args):
        """The value of an operator node from its operands' values (op numbers or
        floats; :meth:`_new` emits ``+ - *`` of two ops itself): constants folded; a
        constant operand of ``+``, ``-``, ``*`` or ``/`` fused into one affine op."""
        if int not in map(type, args):             # a subtree of constants: no op slots
            try:
                return _value(node, args)
            except (DomainError, FloatingPointError):   # fails at every point: keep the op
                args = [self._emit("const", a) for a in args]
        cls, x, y = type(node), args[0], args[-1]
        code = _CODES.get(cls)
        if code == "mul":                          # c * y, x * c
            return self._affine(y, x, 0.0) if type(x) is float else self._affine(x, y, 0.0)
        if code:                                   # c + y, c - y, x + c, x - c
            if type(x) is float:
                return self._affine(y, 1.0 if code == "add" else -1.0, x)
            return self._affine(x, 1.0, y if code == "add" else -y)
        if cls is Div:                             # x * (1 / y), as _value computes it
            if type(y) is float and y != 0.0:
                return self._affine(x, 1.0 / y, 0.0)
            r = self._emit("recip", self._emit("const", y) if type(y) is float else y)
            return self._affine(r, x, 0.0) if type(x) is float else self._emit("mul", x, r)
        if cls is Neg:
            return self._affine(x, -1.0, 0.0)
        if cls is Pow:
            return x if node.exponent == 1 else self._emit("pow", x, node.exponent)
        return self._emit("call", x, node.fn)


class JetProgram:
    """The ops that compute a list of outputs on R^n, evaluated on many points at once.

    A program is assembled from a :class:`ValueTable`'s op DAG
    (:meth:`ValueTable.program`), or from a list of expressions entered into a
    new table (the constructor).  Its ops are the ones the outputs reach, in
    first-occurrence post-order over the outputs in list order, so every
    operand precedes its use and each op is owned by the first output that
    reaches it.  Equal subtrees are one op, constant subtrees are folded, and a
    constant operand turns ``+ c``, ``* c`` and ``/ c`` into one affine op.
    Assembly and a run's set-up grow with the ops and outputs (a coordinate is
    seeded when its op runs).  A run evaluates the list on a (P, n) point
    array with one vectorized step per op in two sweeps: :meth:`sweep` gives
    every op's values, then :meth:`derivatives` reads them and carries
    gradients and, only where an output in ``hessians`` needs them, Hessians;
    each intermediate is dropped after its last use.  The arithmetic is the
    truncated Taylor arithmetic of Griewank & Walther (*Evaluating
    Derivatives*, ch. 13) with a leading point axis.

    :meth:`derivatives` seeds coordinate k with row k of a basis (the
    identity by default; it may be built from the values), so every
    derivative comes out along the basis vectors (directional Taylor
    propagation, ibid.): Hessians along the first ``hdim`` of a given basis.

    A domain error marks only the points where it happens: ``errors`` maps
    each such point to the first expression (in list order) that fails there
    and a message that quotes the operand value the domain test saw there.
    """

    def __init__(self, exprs, n: int, hessians=(), hdim: int | None = None):
        table = ValueTable()
        self._assemble(table, table.enter(exprs, n), n, hessians, hdim)

    def _assemble(self, table: ValueTable, outputs, n: int, hessians, hdim):
        """The ops of ``table`` that the nodes ``outputs`` reach, in one walk of
        the op DAG, each op placed after its operands (first-occurrence
        post-order over the outputs in list order) and owned by the first
        output that reaches it; then, going back once, the ops that need a
        Hessian and the op after which each slot is dropped."""
        refs = [table.values[k] for k in outputs]
        operands, place, order, owners = table.operands, {}, [], []    # place: op -> slot
        for owner, top in enumerate(refs):
            stack = [] if type(top) is float else [top]
            while stack:
                j = stack.pop()
                if j < 0:                               # its operands are placed
                    place[~j] = len(order)
                    order.append(~j)
                    owners.append(owner)
                elif j not in place:
                    stack.append(~j)
                    stack += operands[j]
        codes, xs, ys, args = [], [], [], []            # args: the slots an op reads
        last_use = list(range(len(order)))              # its last reader, or the op itself
        for j in order:
            code, x, y = table.ops[j]
            if code in _BINARY_CODES:
                x, y = place[x], place[y]
                args.append((x, y))
                last_use[x] = last_use[y] = len(codes)
            elif code not in _LEAF_CODES:
                x = place[x]
                args.append((x,))
                last_use[x] = len(codes)
            else:
                args.append(())
            codes.append(code)
            xs.append(x)
            ys.append(y)

        hessians = list(hessians)
        need_h, writes, hwrites, frees = ([False] * len(codes), [()] * len(codes),
                                          [()] * len(codes), [()] * len(codes))
        for k, ref in enumerate(refs):
            if type(ref) is int:
                writes[place[ref]] += (k,)
        for hk, k in enumerate(hessians):
            if type(refs[k]) is int:
                hwrites[place[refs[k]]] += (hk,)
                need_h[place[refs[k]]] = True
        for j in range(len(codes) - 1, -1, -1):
            if need_h[j]:
                for s in args[j]:
                    need_h[s] = True
        for j, last in enumerate(last_use):
            frees[last] += (j,)

        self.n, self.hdim = n, hdim
        self.ops = tuple(zip(codes, xs, ys, owners, need_h, writes, hwrites, frees))
        self._const_values = np.array([r if type(r) is float else 0.0 for r in refs])
        self._n_hess = len(hessians)

    def run(self, points, basis=None) -> JetBatch:
        """Values, gradients and the requested Hessians at every row of ``points``."""
        return self.derivatives(self.sweep(points), basis)

    def sweep(self, points) -> ValueSweep:
        """Every op's values at every row of ``points``, and the domain errors."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise DimensionMismatch(f"points must be an array of shape (P, {self.n})")
        P = len(pts)
        values = np.empty((len(self._const_values), P))       # outputs, points last
        values[:] = self._const_values[:, None]
        slots: list = [None] * len(self.ops)
        failed = np.zeros(P, dtype=bool)
        errors: dict = {}

        def flag(mask, owner, message, operand):
            new = mask & ~failed
            for i in np.flatnonzero(new):
                errors[int(i)] = (owner, message.format(float(operand[i])))
            failed[new] = True

        with np.errstate(all="ignore"):
            for j, (code, x, y, owner, _, writes, _, _) in enumerate(self.ops):
                if code == "coord":
                    v = pts[:, x]
                elif code == "const":
                    v = np.full(P, x)
                elif code == "affine":
                    v = slots[x] if y[0] == 1.0 else slots[x] * y[0]
                    if y[1] != 0.0:
                        v = v + y[1]
                elif code in _UFUNCS:
                    v = _UFUNCS[code](slots[x], slots[y])
                elif code == "recip":
                    flag(slots[x] == 0.0, owner, "division by zero", slots[x])
                    v = 1.0 / slots[x]
                elif code == "pow":
                    if y < 0:
                        flag(slots[x] == 0.0, owner, "zero raised to a negative power", slots[x])
                    v = np.ones(P) if y == 0 else np.power(slots[x], float(y))
                else:
                    for test, message in FUNCTIONS[y].domain:
                        flag(test(slots[x]), owner, message, slots[x])
                    v = FUNCTIONS[y].ufunc(slots[x])
                slots[j] = v
                for k in writes:
                    values[k] = v
        return ValueSweep(pts, values.T, slots, errors)

    def derivatives(self, sweep: ValueSweep, basis=None) -> JetBatch:
        """The jets of a :meth:`sweep`, carrying only derivatives and dropping the
        sweep's values after their last use.  ``basis`` (P, n, d) seeds x_k with
        the row ``basis[:, k]``: gradients are derivatives along the d basis
        vectors, G B, and Hessians B_h^T H B_h on the first ``hdim``; without one
        it is the identity, and Hessians are n x n whatever ``hdim`` is."""
        pts, vals = sweep.points, sweep.slots
        P, n = pts.shape
        hd = n                              # the Hessian width
        if basis is None:
            basis = np.broadcast_to(np.eye(n), (P, n, n))
        else:
            basis = np.asarray(basis, dtype=float)
            hd = basis.shape[-1] if self.hdim is None else self.hdim
            if basis.shape[:2] != (P, n) or basis.ndim != 3 or basis.shape[2] < hd:
                raise DimensionMismatch(
                    f"basis must be an array of shape (P, {n}, d), d >= {hd}")
        G = basis.shape[2]
        # an op's derivatives are packed in one (W, P) array, points last so every
        # part is contiguous: the G gradient entries and, where the op needs a
        # Hessian that is not zero, its hd * hd entries
        W = G + hd * hd
        grads = np.zeros((len(self._const_values), G, P))             # outputs, points last
        hess = np.zeros((self._n_hess, hd * hd, P))

        def hessian(J):
            return J[G:].reshape(hd, hd, P)

        def outer(X, Y):
            """Products of the first hd gradient entries of two jets."""
            return X[:hd, None] * Y[None, :hd]

        slots: list = [None] * len(self.ops)
        with np.errstate(all="ignore"):
            for j, (code, x, y, _, need_h, writes, hwrites, frees) in enumerate(self.ops):
                if code == "coord":         # seeded with basis row k
                    J = np.empty((G, P))
                    J[:] = basis[:, x].T
                elif code == "const":
                    J = np.zeros((G, P))
                elif code == "affine":      # x * a + c, Hessian and all
                    X = slots[x] if need_h else slots[x][:G]
                    J = X * y[0] if y[0] != 1.0 else X
                elif code in ("add", "sub"):
                    X, Y = (slots[x], slots[y]) if need_h else (slots[x][:G], slots[y][:G])
                    op = _UFUNCS[code]
                    if len(X) == len(Y):
                        J = op(X, Y)
                    elif len(X) == W:                       # the Hessian is x's
                        J = X.copy()
                        op(J[:G], Y, out=J[:G])
                    else:                                   # the Hessian is y's, or -y's
                        J = Y.copy() if code == "add" else -Y
                        J[:G] += X
                elif code == "mul":
                    X, Y = (slots[x], slots[y]) if need_h else (slots[x][:G], slots[y][:G])
                    # A has any Hessian; a and b are the values of A and B
                    A, a, B, b = ((X, vals[x], Y, vals[y]) if len(X) >= len(Y)
                                  else (Y, vals[y], X, vals[x]))
                    if need_h and len(A) == G:              # neither has one
                        J = np.empty((W, P))
                        np.multiply(A, b, out=J[:G])
                    else:
                        J = A * b                           # [y x', y x'']
                    J[:len(B)] += a * B                     # + x y' (+ x y'')
                    if need_h:
                        cross = outer(X, Y)
                        if len(A) == G:
                            np.add(cross, cross.transpose(1, 0, 2), out=hessian(J))
                        else:
                            h = hessian(J)
                            h += cross
                            h += cross.transpose(1, 0, 2)
                else:                       # chain rule through a scalar function
                    X = slots[x] if need_h else slots[x][:G]
                    xv = vals[x]
                    if code == "recip":
                        f1, f2 = -1.0 / (xv * xv), 2.0 / (xv * xv * xv)
                    elif code == "pow" and y == 0:          # x ** 0 is the constant 1
                        f1, f2 = np.zeros(P), np.zeros(P)
                    elif code == "pow":
                        f1 = y * np.power(xv, float(y - 1))
                        f2 = y * (y - 1) * np.power(xv, float(y - 2))
                    else:
                        f1, f2 = FUNCTIONS[y].derivatives(xv, vals[j])
                    if need_h and len(X) == G:              # the Hessian is f'' x' x'^T alone
                        J = np.empty((W, P))
                        np.multiply(X, f1, out=J[:G])
                        np.multiply(f2, outer(X, X), out=hessian(J))
                    else:
                        J = X * f1                          # [f' x', f' x'']
                        if need_h:
                            h = hessian(J)
                            h += f2 * outer(X, X)
                slots[j] = J
                for k in writes:
                    grads[k] = J[:G]
                if len(J) == W:
                    for hk in hwrites:
                        hess[hk] = J[G:]
                for s in frees:
                    slots[s] = vals[s] = None
        return JetBatch(sweep.values, grads.transpose(2, 0, 1),
                        hess.reshape(self._n_hess, hd, hd, P).transpose(3, 0, 1, 2), sweep.errors)


def _run(exprs, points, hessians=()) -> JetBatch:
    """The run of a program over ``exprs``, raising the DomainError of its first failing point."""
    batch = JetProgram(exprs, points.shape[1], hessians).run(points)
    if batch.errors:
        raise DomainError(batch.errors[min(batch.errors)][1])
    return batch


def jet_eval(expr: Expression, point, order: int):
    """(value, gradient, Hessian at order 2 or None) of ``expr`` at one point,
    a view of a one-point :class:`JetProgram` kept for the benchmark's probes."""
    batch = _run([expr], np.asarray(point, dtype=float)[None], [0] if order == 2 else ())
    return batch.values[0, 0], batch.grads[0, 0], batch.hessians[0, 0] if order == 2 else None


def fd_crosscheck(expr: Expression, point, direction_exprs, step: float) -> float:
    """|X(f) from the jet - central difference of f along X| / max(1, |X(f)|).

    ``direction_exprs`` are the coordinate components of X; X at the point, and
    f there and at the two shifted points, are evaluated by :class:`JetProgram`.
    """
    if step <= 0:
        raise DomainError("finite-difference step must be positive")
    p = np.asarray(point, dtype=float)
    d = _run(direction_exprs, p[None]).values[0]
    f = _run([expr], np.stack([p, p + step * d, p - step * d]))
    dd = float(d @ f.grads[0, 0])
    fd = (f.values[1, 0] - f.values[2, 0]) / (2.0 * step)
    return abs(dd - fd) / max(1.0, abs(dd))
