"""Truncated Taylor-jet arithmetic (orders 0..2) on expression trees.

A ``Jet`` carries the value, gradient and symmetric Hessian of a scalar
quantity at one point of R^n.  Propagating jets through an expression tree
yields exact first and second derivatives; finite differences are used only
as cross-checks (:func:`fd_crosscheck`).

:class:`JetProgram` compiles a list of expressions once into a flat op list
(shared subtrees once, constants folded) and evaluates it on a whole (P, n)
array of points, the same arithmetic with a leading point axis; frame data
and one-forms are evaluated through it.  :func:`jet_eval`, a walk of one
tree at one point, is the reference the tests hold the compiled programs to.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, DomainError

MAX_ORDER = 2


class Jet:
    """Value / gradient / Hessian of a scalar at a point of R^n.

    ``grad`` is present iff order >= 1, ``hess`` iff order == 2.  The Hessian
    stays exactly symmetric: every arithmetic rule below only ever adds
    symmetric arrays or symmetrized outer products.
    """

    __slots__ = ("n", "order", "value", "grad", "hess")

    def __init__(self, n, order, value, grad=None, hess=None):
        if order not in (0, 1, 2):
            raise DimensionMismatch(f"jet order must be 0, 1 or 2, got {order}")
        self.n = int(n)
        self.order = int(order)
        self.value = float(value)
        self.grad = None if order < 1 else np.asarray(grad, dtype=float)
        self.hess = None if order < 2 else np.asarray(hess, dtype=float)
        if self.grad is not None and self.grad.shape != (self.n,):
            raise DimensionMismatch("gradient length does not match n")
        if self.hess is not None and self.hess.shape != (self.n, self.n):
            raise DimensionMismatch("hessian shape does not match n")

    @staticmethod
    def constant(value, n, order):
        return Jet(n, order, value,
                   np.zeros(n) if order >= 1 else None,
                   np.zeros((n, n)) if order >= 2 else None)

    @staticmethod
    def coordinate(value, index, n, order):
        grad = hess = None
        if order >= 1:
            grad = np.zeros(n)
            grad[index] = 1.0
        if order >= 2:
            hess = np.zeros((n, n))
        return Jet(n, order, value, grad, hess)

    def _check(self, other):
        if self.n != other.n:
            raise DimensionMismatch(f"jet dimensions differ: {self.n} vs {other.n}")
        if self.order != other.order:
            raise DimensionMismatch(f"jet orders differ: {self.order} vs {other.order}")

    def _coerce(self, other):
        if isinstance(other, Jet):
            return other
        return Jet.constant(float(other), self.n, self.order)

    def __add__(self, other):
        o = self._coerce(other)
        self._check(o)
        return Jet(self.n, self.order, self.value + o.value,
                   None if self.order < 1 else self.grad + o.grad,
                   None if self.order < 2 else self.hess + o.hess)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        self._check(o)
        return Jet(self.n, self.order, self.value - o.value,
                   None if self.order < 1 else self.grad - o.grad,
                   None if self.order < 2 else self.hess - o.hess)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __neg__(self):
        return Jet(self.n, self.order, -self.value,
                   None if self.order < 1 else -self.grad,
                   None if self.order < 2 else -self.hess)

    def __mul__(self, other):
        o = self._coerce(other)
        self._check(o)
        grad = hess = None
        if self.order >= 1:
            grad = self.value * o.grad + o.value * self.grad
        if self.order >= 2:
            cross = np.outer(self.grad, o.grad)
            hess = self.value * o.hess + o.value * self.hess + cross + cross.T
        return Jet(self.n, self.order, self.value * o.value, grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        self._check(o)
        if o.value == 0.0:
            raise DomainError("division by zero")
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def _reciprocal(self):
        v = self.value
        return self.compose(1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v))

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise DomainError("integer exponents only")
        if exponent == 0:
            return Jet.constant(1.0, self.n, self.order)
        if exponent == 1:
            return Jet(self.n, self.order, self.value, self.grad, self.hess)
        v = self.value
        if v == 0.0 and exponent < 0:
            raise DomainError("zero raised to a negative power")
        if v == 0.0:
            d1 = 1.0 if exponent == 1 else 0.0
            d2 = 2.0 if exponent == 2 else 0.0
            return self.compose(0.0, d1, d2)
        return self.compose(v ** exponent,
                            exponent * v ** (exponent - 1),
                            exponent * (exponent - 1) * v ** (exponent - 2))

    def compose(self, f0, f1, f2):
        """Chain rule through a scalar function with derivatives f0, f1, f2 at self.value."""
        grad = hess = None
        if self.order >= 1:
            grad = f1 * self.grad
        if self.order >= 2:
            hess = f1 * self.hess + f2 * np.outer(self.grad, self.grad)
        return Jet(self.n, self.order, f0, grad, hess)

    def __repr__(self):
        return f"Jet(n={self.n}, order={self.order}, value={self.value!r})"


def sin(j: Jet) -> Jet:
    return j.compose(math.sin(j.value), math.cos(j.value), -math.sin(j.value))


def cos(j: Jet) -> Jet:
    return j.compose(math.cos(j.value), -math.sin(j.value), -math.cos(j.value))


def exp(j: Jet) -> Jet:
    e = math.exp(j.value)
    return j.compose(e, e, e)


def log(j: Jet) -> Jet:
    if j.value <= 0.0:
        raise DomainError(f"log of non-positive value {j.value}")
    return j.compose(math.log(j.value), 1.0 / j.value, -1.0 / (j.value * j.value))


def sqrt(j: Jet) -> Jet:
    if j.value < 0.0:
        raise DomainError(f"sqrt of negative value {j.value}")
    if j.value == 0.0:
        if j.order == 0:
            return Jet.constant(0.0, j.n, 0)
        raise DomainError("sqrt not differentiable at zero")
    r = math.sqrt(j.value)
    return j.compose(r, 0.5 / r, -0.25 / (r * j.value))


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
    exec(f"def __init__(self, {', '.join(names)}):\n"
         f"    self.__dict__.update({', '.join(f'{n}={n}' for n in names)},"
         f" _hash=hash((cls, {', '.join(keys)})))", namespace)
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


FUNCTIONS = {"sin": sin, "cos": cos, "exp": exp, "log": log, "sqrt": sqrt}
_BINARY_JETS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}
_UFUNCS = {"add": np.add, "sub": np.subtract, "mul": np.multiply}


def _operands(node: Expression) -> tuple[Expression, ...]:
    """Child expressions of a node, in evaluation order."""
    if isinstance(node, (Add, Sub, Mul, Div)):
        return (node.left, node.right)
    if isinstance(node, (Neg, Call)):
        return (node.arg,)
    if isinstance(node, Pow):
        return (node.base,)
    return ()


def _postorder(expr: Expression) -> list[Expression]:
    """Each node object of ``expr`` once, after its operands, from an explicit stack."""
    order, seen, stack = [], set(), [(expr, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack += [(node, True)] + [(arg, False) for arg in reversed(_operands(node))]
    return order


def coordinate_indices(*exprs: Expression) -> set[int]:
    """All coordinate indices referenced by the expressions; each node object
    is visited once, so subtrees the parser shares are walked once."""
    out: set[int] = set()
    seen, stack = set(), list(exprs)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, Coord):
                out.add(node.index)
            stack.extend(_operands(node))
    return out


def _apply(node: Expression, args: list[Jet]) -> Jet:
    """The jet of an operator node from the jets of its operands."""
    if type(node) in _BINARY_JETS:
        return _BINARY_JETS[type(node)](*args)
    if isinstance(node, Neg):
        return -args[0]
    if isinstance(node, Pow):
        return args[0] ** node.exponent
    if isinstance(node, Call):
        return FUNCTIONS[node.fn](args[0])
    raise TypeError(f"not an expression node: {node!r}")


def jet_eval(expr: Expression, point, order: int) -> Jet:
    """Evaluate an expression tree to a jet at ``point``.

    This is the reference evaluator: one point, one walk over the tree, with
    an explicit stack.  The package evaluates frames and metrics through
    :class:`JetProgram`, which the tests hold to this function.

    Raises DomainError for division by zero / log of non-positive /
    sqrt of negative, DimensionMismatch for out-of-range coordinates.
    """
    p = np.asarray(point, dtype=float)
    if p.ndim != 1:
        raise DimensionMismatch("point must be a flat coordinate sequence")
    if order not in (0, 1, 2):
        raise DimensionMismatch(f"order must be 0, 1 or 2, got {order}")
    n = p.shape[0]
    jets: dict[int, Jet] = {}           # id(node) -> its jet
    for node in _postorder(expr):
        if isinstance(node, Const):
            jets[id(node)] = Jet.constant(node.value, n, order)
        elif isinstance(node, Coord):
            if not 0 <= node.index < n:
                raise DimensionMismatch(
                    f"coordinate index {node.index} out of range for dimension {n}")
            jets[id(node)] = Jet.coordinate(p[node.index], node.index, n, order)
        else:
            jets[id(node)] = _apply(node, [jets[id(arg)] for arg in _operands(node)])
    return jets[id(expr)]


# --------------------------------------------------------------------------
# Compiled expression lists, evaluated on a batch of points
# --------------------------------------------------------------------------

class JetBatch(NamedTuple):
    """Order-2 jets of m compiled expressions at P points; with a basis B of
    d vectors, derivatives along B instead of the coordinates."""

    values: np.ndarray       # (P, m)
    grads: np.ndarray        # (P, m, n), or (P, m, d) along B: G B
    hessians: np.ndarray     # (P, h, n, n) for the h expressions compiled with one,
                             # or (P, h, hdim, hdim) along B: B_h^T H B_h
    errors: dict             # point index -> (expression index, DomainError message)


def _library(fn: str, v: np.ndarray):
    """(f, f', f'') of a library function at an array of values."""
    if fn == "sin":
        s, c = np.sin(v), np.cos(v)
        return s, c, -s
    if fn == "cos":
        s, c = np.sin(v), np.cos(v)
        return c, -s, -c
    if fn == "exp":
        e = np.exp(v)
        return e, e, e
    if fn == "log":
        return np.log(v), 1.0 / v, -1.0 / (v * v)
    r = np.sqrt(v)
    return r, 0.5 / r, -0.25 / (r * v)


# Domain tests of the library functions, as the scalar jets raise them.
_DOMAIN = {
    "log": ((lambda v: v <= 0.0, "log of non-positive value {}"),),
    "sqrt": ((lambda v: v < 0.0, "sqrt of negative value {}"),
             (lambda v: v == 0.0, "sqrt not differentiable at zero")),
}


def _operand_slots(code, x, y) -> tuple[int, ...]:
    if code in ("add", "sub", "mul"):
        return (x, y)
    if code in ("coord", "const"):
        return ()
    return (x,)


class _Compiler:
    """Builds the op list of a :class:`JetProgram`.

    An operand reference is an int (the slot of an op) or a float (a folded
    constant).
    """

    def __init__(self, n: int):
        self.n = n
        self.ops: list[tuple] = []      # (code, x, y, owning expression index)
        self.owner = 0
        self._keys: dict = {}
        self._refs: dict = {}           # id(node) -> reference; the caller keeps the nodes alive

    def ref(self, expr: Expression):
        """Operand reference of ``expr``, walked as :func:`jet_eval` walks; a
        node object compiled before is not walked again."""
        refs = self._refs
        stack = [(expr, False)]
        while stack:
            node, ready = stack.pop()
            if ready:
                refs[id(node)] = self._combine(node, [refs[id(arg)] for arg in _operands(node)])
            elif id(node) in refs:
                continue
            elif isinstance(node, Const):
                refs[id(node)] = float(node.value)
            elif isinstance(node, Coord):
                if not 0 <= node.index < self.n:
                    raise DimensionMismatch(
                        f"coordinate index {node.index} out of range for dimension {self.n}")
                refs[id(node)] = self._emit("coord", node.index)
            else:
                stack.append((node, True))
                stack += [(arg, False) for arg in reversed(_operands(node)) if id(arg) not in refs]
        return refs[id(expr)]

    def _emit(self, code, x, y=None) -> int:
        key = (code, x, y)
        slot = self._keys.get(key)
        if slot is None:
            slot = self._keys[key] = len(self.ops)
            self.ops.append((code, x, y, self.owner))
        return slot

    def _affine(self, x: int, a: float, c: float) -> int:
        """x * a + c, as the scalar jets compute ``x * a`` and ``x + c``."""
        return x if (a, c) == (1.0, 0.0) else self._emit("affine", x, (a, c))

    def _combine(self, node, args):
        if int not in map(type, args):             # a subtree of constants: no op slots
            try:
                return _apply(node, [Jet.constant(a, 0, MAX_ORDER) for a in args]).value
            except (DomainError, OverflowError):   # fails at every point: keep the op
                args = [self._emit("const", a) for a in args]
        if isinstance(node, Pow):
            return args[0] if node.exponent == 1 else self._emit("pow", args[0], node.exponent)
        if isinstance(node, Call):
            if node.fn not in FUNCTIONS:
                raise KeyError(node.fn)            # as jet_eval's FUNCTIONS lookup does
            return self._emit("call", args[0], (node.fn, node.arg))
        if isinstance(node, Neg):
            return self._affine(args[0], -1.0, 0.0)
        x, y = args                                # at most one is a constant
        if isinstance(node, Div):                  # x * (1 / y), as Jet.__truediv__ does
            if isinstance(y, float) and y != 0.0:
                return self._affine(x, 1.0 / y, 0.0)
            r = self._emit("recip", self._emit("const", y) if isinstance(y, float) else y)
            return self._affine(r, x, 0.0) if isinstance(x, float) else self._emit("mul", x, r)
        code = {Add: "add", Sub: "sub", Mul: "mul"}[type(node)]
        if isinstance(x, float):                   # c + y, c - y, c * y
            if code == "mul":
                return self._affine(y, x, 0.0)
            return self._affine(y, 1.0 if code == "add" else -1.0, x)
        if isinstance(y, float):                   # x + c, x - c, x * c
            if code == "mul":
                return self._affine(x, y, 0.0)
            return self._affine(x, 1.0, y if code == "add" else -y)
        return self._emit(code, x, y)


class JetProgram:
    """A list of expressions on R^n compiled once into a flat op list.

    Ops are kept in first-occurrence post-order, so every operand precedes
    its use.  Equal subtrees become one op (an op is keyed by its code and
    operands), constant subtrees are folded, and a constant operand turns
    ``+ c``, ``* c`` and ``/ c`` into one affine op.  :meth:`run` evaluates the list
    on a (P, n) point array with one vectorized step per op, carrying values,
    gradients and, only where an output in ``hessians`` needs them, Hessians;
    each intermediate is dropped after its last use.  The arithmetic is the
    scalar :class:`Jet` arithmetic term by term (Griewank & Walther,
    *Evaluating Derivatives*, ch. 13), with a leading point axis.

    Given a basis, :meth:`run` seeds the coordinates with its rows instead of
    the unit vectors, so every derivative comes out along the basis vectors
    (directional Taylor propagation, ibid.): Hessians are then taken along
    the first ``hdim`` of them only (all of them by default).  :meth:`values`
    evaluates a prefix of the expressions without derivatives.

    A domain error marks only the points where it happens: ``errors`` maps
    each such point to the first expression (in list order) that fails there
    and the message :func:`jet_eval` raises for it.
    """

    def __init__(self, exprs, n: int, hessians=(), hdim: int | None = None):
        comp, exprs = _Compiler(n), list(exprs)     # a list keeps the id-keyed nodes alive
        refs = []
        for k, expr in enumerate(exprs):
            comp.owner = k
            refs.append(comp.ref(expr))
        ops = comp.ops
        hessians = list(hessians)

        need_h = [False] * len(ops)
        writes = [[] for _ in ops]
        hwrites = [[] for _ in ops]
        for k, ref in enumerate(refs):
            if isinstance(ref, int):
                writes[ref].append(k)
        for hk, k in enumerate(hessians):
            if isinstance(refs[k], int):
                hwrites[refs[k]].append(hk)
                need_h[refs[k]] = True
        last_use: dict[int, int] = {}
        for j in reversed(range(len(ops))):
            for s in _operand_slots(*ops[j][:3]):
                need_h[s] = need_h[s] or need_h[j]
                last_use.setdefault(s, j)
        frees = [[] for _ in ops]
        for j in range(len(ops)):
            frees[last_use.get(j, j)].append(j)

        self.n, self.hdim = n, hdim
        self.ops = tuple((code, x, y, owner, need_h[j], tuple(writes[j]),
                          tuple(hwrites[j]), tuple(frees[j]))
                         for j, (code, x, y, owner) in enumerate(ops))
        self._owners = [owner for _, _, _, owner in ops]      # nondecreasing
        self._const_values = np.array([r if isinstance(r, float) else 0.0 for r in refs])
        self._n_hess = len(hessians)
        self._eye = np.eye(n)

    def _points(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise DimensionMismatch(f"points must be an array of shape (P, {self.n})")
        return pts

    def values(self, points, count: int | None = None) -> np.ndarray:
        """Values (P, count) of the first ``count`` expressions (all by
        default) at every row of ``points``, bit for bit those of :meth:`run`,
        from only the ops they use: an op belongs to the first expression that
        uses it, so those ops are a prefix of the list.  No derivatives and no
        error records: a point outside a domain holds what the arithmetic gives."""
        pts = self._points(points)
        m = len(self._const_values) if count is None else count
        out = np.empty((m, len(pts)))
        out[:] = self._const_values[:m, None]
        slots: list = [None] * len(self.ops)
        with np.errstate(all="ignore"):
            for j, (code, x, y, _, _, writes, _, _) in enumerate(
                    self.ops[:bisect_left(self._owners, m)]):
                if code == "coord":
                    v = pts[:, x]
                elif code == "const":
                    v = np.full(len(pts), x)
                elif code == "affine":
                    v = slots[x] if y[0] == 1.0 else slots[x] * y[0]
                    if y[1] != 0.0:
                        v = v + y[1]
                elif code in _UFUNCS:
                    v = _UFUNCS[code](slots[x], slots[y])
                elif code == "recip":
                    v = 1.0 / slots[x]
                elif code == "pow":
                    v = np.ones(len(pts)) if y == 0 else np.power(slots[x], float(y))
                else:
                    v = getattr(np, y[0])(slots[x])        # the f of _library
                slots[j] = v
                for k in writes:
                    if k < m:
                        out[k] = v
        return out.T

    def run(self, points, basis=None) -> JetBatch:
        """Values, gradients and the requested Hessians at every row of ``points``.

        ``basis`` (P, n, d), if given, seeds coordinate x_k with the row
        ``basis[:, k]``: gradients come out as derivatives along the d basis
        vectors, G B, and Hessians as B_h^T H B_h on the first ``hdim`` of
        them.  Without one, gradients and Hessians are along the coordinates."""
        pts = self._points(points)
        P, n = pts.shape
        hd = n                              # the Hessian width
        if basis is not None:
            basis = np.asarray(basis, dtype=float)
            hd = basis.shape[-1] if self.hdim is None else self.hdim
            if basis.shape[:2] != (P, n) or basis.ndim != 3 or basis.shape[2] < hd:
                raise DimensionMismatch(
                    f"basis must be an array of shape (P, {n}, d), d >= {hd}")
            n = basis.shape[2]
        # an op's jet is packed in one (W, P) array, points last so every part is
        # contiguous: the value, the n gradient entries and, where the op needs
        # a Hessian that is not zero, its hd * hd entries
        G, W = 1 + n, 1 + n + hd * hd
        values = np.empty((len(self._const_values), P))               # outputs, points last too
        values[:] = self._const_values[:, None]
        grads = np.zeros((len(self._const_values), n, P))
        hess = np.zeros((self._n_hess, hd * hd, P))
        failed = np.zeros(P, dtype=bool)
        errors: dict = {}

        def flag(mask, owner, message, arg=None):
            new = mask & ~failed
            for i in np.flatnonzero(new):
                # quote the operand as jet_eval computes it, so the message
                # does not depend on the vector math library
                value = jet_eval(arg, pts[i], 0).value if arg is not None else None
                errors[int(i)] = (owner, message.format(value))
            failed[new] = True

        seeds = np.empty((self.n, G, P))        # the jet of each coordinate:
        seeds[:, 0] = pts.T                     # a unit vector, or a basis row
        seeds[:, 1:] = self._eye[:, :, None] if basis is None else basis.transpose(1, 2, 0)

        def hessian(J):
            return J[G:].reshape(hd, hd, P)

        def outer(X, Y):
            """Products of the first hd gradient entries of two jets."""
            return X[1:1 + hd, None] * Y[None, 1:1 + hd]

        slots: list = [None] * len(self.ops)
        with np.errstate(all="ignore"):
            for j, (code, x, y, owner, need_h, writes, hwrites, frees) in enumerate(self.ops):
                if code == "coord":         # no op writes into an operand's jet
                    J = seeds[x]
                elif code == "const":
                    J = np.zeros((G, P))
                    J[0] = x
                elif code == "affine":      # x * a + c, Hessian and all
                    X = slots[x] if need_h else slots[x][:G]
                    a, c = y
                    J = X * a if a != 1.0 else X.copy()
                    if c != 0.0:
                        J[0] += c
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
                    A, B = (X, Y) if len(X) >= len(Y) else (Y, X)   # A has any Hessian
                    if need_h and len(A) == G:              # neither has one
                        J = np.empty((W, P))
                        np.multiply(A, B[0], out=J[:G])
                    else:
                        J = A * B[0]                        # [x y, y x', y x'']
                    J[1:len(B)] += A[0] * B[1:]             # + x y' (+ x y'')
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
                    xv = X[0]
                    if code == "recip":
                        flag(xv == 0.0, owner, "division by zero")
                        f0, f1, f2 = 1.0 / xv, -1.0 / (xv * xv), 2.0 / (xv * xv * xv)
                    elif code == "pow" and y == 0:          # x ** 0 is the constant 1
                        f0, f1, f2 = np.ones(P), np.zeros(P), np.zeros(P)
                    elif code == "pow":
                        if y < 0:
                            flag(xv == 0.0, owner, "zero raised to a negative power")
                        f0 = np.power(xv, float(y))
                        f1 = y * np.power(xv, float(y - 1))
                        f2 = y * (y - 1) * np.power(xv, float(y - 2))
                    else:
                        fn, arg = y
                        for test, message in _DOMAIN.get(fn, ()):
                            flag(test(xv), owner, message, arg)
                        f0, f1, f2 = _library(fn, xv)
                    if need_h and len(X) == G:              # the Hessian is f'' x' x'^T alone
                        J = np.empty((W, P))
                        np.multiply(X, f1, out=J[:G])
                        np.multiply(f2, outer(X, X), out=hessian(J))
                    else:
                        J = X * f1                          # [., f' x', f' x'']
                        if need_h:
                            h = hessian(J)
                            h += f2 * outer(X, X)
                    J[0] = f0
                slots[j] = J
                for k in writes:
                    values[k] = J[0]
                    grads[k] = J[1:G]
                if len(J) == W:
                    for hk in hwrites:
                        hess[hk] = J[G:]
                for s in frees:
                    slots[s] = None
        return JetBatch(values.T, grads.transpose(2, 0, 1),
                        hess.reshape(-1, hd, hd, P).transpose(3, 0, 1, 2), errors)


def fd_crosscheck(expr: Expression, point, direction_exprs, step: float) -> float:
    """|X(f) from the jet - central difference of f along X| / max(1, |X(f)|).

    ``direction_exprs`` are the coordinate components of X; both X and f are
    evaluated with :func:`jet_eval`.
    """
    if step <= 0:
        raise DomainError("finite-difference step must be positive")
    p = np.asarray(point, dtype=float)
    d = np.array([jet_eval(c, p, 0).value for c in direction_exprs])
    dd = float(d @ jet_eval(expr, p, 1).grad)
    fd = (jet_eval(expr, p + step * d, 0).value
          - jet_eval(expr, p - step * d, 0).value) / (2.0 * step)
    return abs(dd - fd) / max(1.0, abs(dd))
