"""Truncated Taylor-jet arithmetic (orders 0..2) on expression trees.

A ``Jet`` carries the value, gradient and symmetric Hessian of a scalar
quantity at one point of R^n.  Propagating jets through an expression tree
yields exact first and second derivatives; finite differences are used only
as cross-checks (:func:`fd_crosscheck`).

:class:`JetProgram` compiles a list of expressions once into a flat op list
(shared subtrees once, constants folded) and evaluates it on a whole (P, n)
array of points, the same arithmetic with a leading point axis; frame data
and one-forms are evaluated through it.  :func:`jet_eval`, the one-point
recursive walk, is the reference the tests hold the compiled programs to.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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

@dataclass(frozen=True)
class Expression:
    """Base node; subclasses form the closed expression language."""


@dataclass(frozen=True)
class Const(Expression):
    value: float


@dataclass(frozen=True)
class Coord(Expression):
    index: int


@dataclass(frozen=True)
class Add(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Sub(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Mul(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Div(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Neg(Expression):
    arg: Expression


@dataclass(frozen=True)
class Pow(Expression):
    base: Expression
    exponent: int


@dataclass(frozen=True)
class Call(Expression):
    fn: str
    arg: Expression


FUNCTIONS = {"sin": sin, "cos": cos, "exp": exp, "log": log, "sqrt": sqrt}

ZERO = Const(0.0)
ONE = Const(1.0)


def _operands(node: Expression) -> tuple[Expression, ...]:
    """Child expressions of a node, in evaluation order."""
    if isinstance(node, (Add, Sub, Mul, Div)):
        return (node.left, node.right)
    if isinstance(node, (Neg, Call)):
        return (node.arg,)
    if isinstance(node, Pow):
        return (node.base,)
    return ()


def coordinate_indices(expr: Expression) -> set[int]:
    """All coordinate indices referenced by the expression."""
    out: set[int] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Coord):
            out.add(node.index)
        stack.extend(_operands(node))
    return out


def jet_eval(expr: Expression, point, order: int) -> Jet:
    """Evaluate an expression tree to a jet at ``point``.

    This is the reference evaluator: one point, one recursive walk.  The
    package evaluates frames and metrics through :class:`JetProgram`, which
    the tests hold to this function.

    Raises DomainError for division by zero / log of non-positive /
    sqrt of negative, DimensionMismatch for out-of-range coordinates.
    """
    p = np.asarray(point, dtype=float)
    if p.ndim != 1:
        raise DimensionMismatch("point must be a flat coordinate sequence")
    if order not in (0, 1, 2):
        raise DimensionMismatch(f"order must be 0, 1 or 2, got {order}")
    n = p.shape[0]

    def rec(node):
        if isinstance(node, Const):
            return Jet.constant(node.value, n, order)
        if isinstance(node, Coord):
            if not 0 <= node.index < n:
                raise DimensionMismatch(
                    f"coordinate index {node.index} out of range for dimension {n}")
            return Jet.coordinate(p[node.index], node.index, n, order)
        if isinstance(node, Add):
            return rec(node.left) + rec(node.right)
        if isinstance(node, Sub):
            return rec(node.left) - rec(node.right)
        if isinstance(node, Mul):
            return rec(node.left) * rec(node.right)
        if isinstance(node, Div):
            return rec(node.left) / rec(node.right)
        if isinstance(node, Neg):
            return -rec(node.arg)
        if isinstance(node, Pow):
            return rec(node.base) ** node.exponent
        if isinstance(node, Call):
            return FUNCTIONS[node.fn](rec(node.arg))
        raise TypeError(f"not an expression node: {node!r}")

    return rec(expr)


# --------------------------------------------------------------------------
# Compiled expression lists, evaluated on a batch of points
# --------------------------------------------------------------------------

class JetBatch(NamedTuple):
    """Order-2 jets of m compiled expressions at P points."""

    values: np.ndarray       # (P, m)
    grads: np.ndarray        # (P, m, n)
    hessians: np.ndarray     # (P, h, n, n) for the h expressions compiled with one
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


def _plus(a, b):
    """Sum of two Hessian stacks where None stands for zero."""
    return a if b is None else (b if a is None else a + b)


def _scaled(v, h):
    return None if h is None else v[:, None, None] * h


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
        self._memo: dict = {}

    def ref(self, node: Expression):
        if isinstance(node, Const):
            return float(node.value)
        ref = self._memo.get(node)
        if ref is None:
            if isinstance(node, Coord):
                if not 0 <= node.index < self.n:
                    raise DimensionMismatch(
                        f"coordinate index {node.index} out of range for dimension {self.n}")
                ref = self._emit("coord", node.index)
            else:
                ref = self._combine(node, [self.ref(arg) for arg in _operands(node)])
            self._memo[node] = ref
        return ref

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
        if all(isinstance(a, float) for a in args):    # a subtree of constants
            try:
                return jet_eval(node, (), MAX_ORDER).value
            except DomainError:                    # fails at every point: keep the op
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
    its use.  Equal subtrees become one op (expressions hash by value),
    constant subtrees are folded, and a constant operand turns ``+ c``,
    ``* c`` and ``/ c`` into one affine op.  :meth:`run` evaluates the list
    on a (P, n) point array with one vectorized step per op, carrying values,
    gradients and, only where an output in ``hessians`` needs them, Hessians;
    each intermediate is dropped after its last use.  The arithmetic is the
    scalar :class:`Jet` arithmetic term by term (Griewank & Walther,
    *Evaluating Derivatives*, ch. 13), with a leading point axis.

    A domain error marks only the points where it happens: ``errors`` maps
    each such point to the first expression (in list order) that fails there
    and the message :func:`jet_eval` raises for it.
    """

    def __init__(self, exprs, n: int, hessians=()):
        comp = _Compiler(n)
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

        self.n = n
        self.ops = tuple((code, x, y, owner, need_h[j], tuple(writes[j]),
                          tuple(hwrites[j]), tuple(frees[j]))
                         for j, (code, x, y, owner) in enumerate(ops))
        self._const_values = np.array([r if isinstance(r, float) else 0.0 for r in refs])
        self._n_hess = len(hessians)
        self._eye = np.eye(n)

    def run(self, points) -> JetBatch:
        """Values, gradients and the requested Hessians at every row of ``points``."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise DimensionMismatch(f"points must be an array of shape (P, {self.n})")
        P, n = pts.shape
        values = np.repeat(self._const_values[None], P, axis=0)
        grads = np.zeros((P, len(self._const_values), n))
        hess = np.zeros((P, self._n_hess, n, n))
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

        slots: list = [None] * len(self.ops)
        with np.errstate(all="ignore"):
            for j, (code, x, y, owner, need_h, writes, hwrites, frees) in enumerate(self.ops):
                h = None
                if code == "coord":
                    v, g = pts[:, x], self._eye[x:x + 1]     # (1, n), broadcast by its users
                elif code == "const":
                    v, g = np.full(P, x), np.zeros((P, n))
                elif code == "affine":
                    xv, xg, xh = slots[x]
                    a, c = y
                    if a == 1.0:
                        v, g, h = xv, xg, xh
                    else:
                        v, g = xv * a, xg * a
                        if need_h and xh is not None:
                            h = xh * a
                    if c != 0.0:
                        v = v + c
                elif code == "add":
                    (xv, xg, xh), (yv, yg, yh) = slots[x], slots[y]
                    v, g = xv + yv, xg + yg
                    if need_h:
                        h = _plus(xh, yh)
                elif code == "sub":
                    (xv, xg, xh), (yv, yg, yh) = slots[x], slots[y]
                    v, g = xv - yv, xg - yg
                    if need_h:
                        h = _plus(xh, None if yh is None else -yh)
                elif code == "mul":
                    (xv, xg, xh), (yv, yg, yh) = slots[x], slots[y]
                    v = xv * yv
                    g = xv[:, None] * yg + yv[:, None] * xg
                    if need_h:
                        cross = xg[:, :, None] * yg[:, None, :]
                        h = _plus(_plus(_scaled(xv, yh), _scaled(yv, xh)), cross) \
                            + cross.transpose(0, 2, 1)
                else:                   # chain rule through a scalar function
                    xv, xg, xh = slots[x]
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
                    v, g = f0, f1[:, None] * xg
                    if need_h:
                        h = _plus(_scaled(f1, xh), _scaled(f2, xg[:, :, None] * xg[:, None, :]))
                slots[j] = (v, g, h)
                for k in writes:
                    values[:, k] = v
                    grads[:, k] = g
                if h is not None:
                    for hk in hwrites:
                        hess[:, hk] = h
                for s in frees:
                    slots[s] = None
        return JetBatch(values, grads, hess, errors)


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
