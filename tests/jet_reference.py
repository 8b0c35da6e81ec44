"""Scalar truncated Taylor jets (orders 0..2) and a one-point tree walk.

A ``Jet`` carries the value, gradient and symmetric Hessian of a scalar
quantity at one point of R^n; :func:`jet_eval` propagates jets through an
expression tree, one node at a time.  This is the reference arithmetic the
tests hold :class:`srclab.jets.JetProgram` (the package's one evaluator) to.
The values of sin, cos, exp, log, sqrt and x^k are numpy's, as the package's
sweeps and constant folding compute them (:func:`_ufunc`); their derivative
rules use :mod:`math` and Python floats.
"""
from __future__ import annotations

import math
import operator

import numpy as np

from srclab.errors import DimensionMismatch, DomainError
from srclab.jets import (Add, Call, Const, Coord, Div, Expression, Mul, Neg, Pow, Sub,
                         _operands, _postorder)


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
        f0 = _ufunc(np.power, v, float(exponent))
        if v == 0.0:
            d1 = 1.0 if exponent == 1 else 0.0
            d2 = 2.0 if exponent == 2 else 0.0
            return self.compose(f0, d1, d2)
        return self.compose(f0,
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


def _ufunc(f, *args) -> float:
    """f(*args) as a Python float, FloatingPointError where it overflows or is invalid."""
    with np.errstate(over="raise", invalid="raise"):
        return float(f(*args))


def sin(j: Jet) -> Jet:
    return j.compose(_ufunc(np.sin, j.value), math.cos(j.value), -math.sin(j.value))


def cos(j: Jet) -> Jet:
    return j.compose(_ufunc(np.cos, j.value), -math.sin(j.value), -math.cos(j.value))


def exp(j: Jet) -> Jet:
    e = _ufunc(np.exp, j.value)
    return j.compose(e, e, e)


def log(j: Jet) -> Jet:
    if j.value <= 0.0:
        raise DomainError(f"log of non-positive value {j.value}")
    return j.compose(_ufunc(np.log, j.value), 1.0 / j.value, -1.0 / (j.value * j.value))


def sqrt(j: Jet) -> Jet:
    if j.value < 0.0:
        raise DomainError(f"sqrt of negative value {j.value}")
    r = _ufunc(np.sqrt, j.value)
    if j.value == 0.0:
        if j.order == 0:
            return Jet.constant(r, j.n, 0)
        raise DomainError("sqrt not differentiable at zero")
    return j.compose(r, 0.5 / r, -0.25 / (r * j.value))


FUNCTIONS = {"sin": sin, "cos": cos, "exp": exp, "log": log, "sqrt": sqrt}
_BINARY_JETS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


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
