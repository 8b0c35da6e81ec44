"""Independent symbolic oracle for the numeric engine.

Everything here is computed with sympy from the expression trees of a
:class:`~srclab.manifold.ManifoldSpec` and a one-form, translated node by node
(:func:`sym_expr`): brackets by symbolic differentiation, structure constants
by exact linear solves, connection coefficients from the defining linear
system, and curvature from the operator-expanded coordinate formula.
Evaluation happens at exact rational points (25-digit numeric only where trig
enters), so these values are a genuinely independent route against which the
jet/einsum implementation is compared, for any spec (:func:`spec_oracle`) and
for the catalog by name (:func:`oracle_eval`).

The trade: the oracle shares no arithmetic with the jets or the contractions
(it imports only their node classes), but it reads its input through the
parser, as the engine does, so a parser that builds the wrong tree gives both
the same wrong manifold.
``tests/test_parser.py`` pins the parser's structure and precedence on its own.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import sympy as sp
from sympy import Rational as Q

from srclab.catalog import builtin
from srclab.connections import OneFormData
from srclab.jets import Add, Call, Const, Coord, Div, Expression, Mul, Neg, Pow, Sub
from srclab.manifold import ManifoldSpec

_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}
_CALLS = {"sin": sp.sin, "cos": sp.cos, "exp": sp.exp, "log": sp.log, "sqrt": sp.sqrt}


def sym_expr(node: Expression, coords: list):
    """The sympy expression of an expression tree over the coordinate symbols
    ``coords``; a constant is the exact rational of its double."""
    if isinstance(node, Const):
        return Q(node.value)
    if isinstance(node, Coord):
        return coords[node.index]
    if isinstance(node, Neg):
        return -sym_expr(node.arg, coords)
    if isinstance(node, Pow):
        return sym_expr(node.base, coords) ** node.exponent
    if isinstance(node, Call):
        return _CALLS[node.fn](sym_expr(node.arg, coords))
    return _BINARY[type(node)](sym_expr(node.left, coords), sym_expr(node.right, coords))


def _bracket(coords, X, Y):
    n = len(coords)
    return [sum(X[q] * sp.diff(Y[m], coords[q]) - Y[q] * sp.diff(X[m], coords[q])
                for q in range(n)) for m in range(n)]


@dataclass
class SymManifold:
    coords: list
    hframe: list
    vframe: list
    metric: sp.Matrix

    def __post_init__(self):
        n, ell = len(self.coords), len(self.hframe)
        nv = n - ell
        frame = self.hframe + self.vframe
        E = sp.Matrix(n, n, lambda m, a: frame[a][m])
        Einv = E.inv()
        self.E, self.Einv, self.n, self.ell, self.nv = E, Einv, n, ell, nv

        self.Om = [[[0] * ell for _ in range(ell)] for _ in range(ell)]
        self.Mc = [[[0] * nv for _ in range(ell)] for _ in range(ell)]
        for i in range(ell):
            for j in range(ell):
                c = Einv * sp.Matrix(_bracket(self.coords, self.hframe[i], self.hframe[j]))
                for k in range(ell):
                    self.Om[i][j][k] = sp.expand(c[k])
                for b in range(nv):
                    self.Mc[i][j][b] = sp.expand(c[ell + b])
        self.Lam = [[[0] * ell for _ in range(ell)] for _ in range(nv)]
        for b in range(nv):
            for k in range(ell):
                c = Einv * sp.Matrix(_bracket(self.coords, self.vframe[b], self.hframe[k]))
                for h in range(ell):
                    self.Lam[b][k][h] = sp.expand(c[h])

        self.ginv = self.metric.inv()
        self.coeff = self._connection()

    def fd(self, i, expr):
        """Frame derivative e_i(expr) for horizontal i."""
        return sum(self.hframe[i][m] * sp.diff(expr, self.coords[m])
                   for m in range(self.n))

    def _connection(self):
        ell, g, ginv, Om = self.ell, self.metric, self.ginv, self.Om
        co = [[[0] * ell for _ in range(ell)] for _ in range(ell)]
        for i in range(ell):
            for j in range(ell):
                rhs = sp.zeros(ell, 1)
                for k in range(ell):
                    val = self.fd(i, g[j, k]) + self.fd(j, g[i, k]) - self.fd(k, g[i, j])
                    val += sum(Om[i][j][e] * g[e, k] - Om[i][k][e] * g[e, j]
                               - Om[j][k][e] * g[e, i] for e in range(ell))
                    rhs[k] = val
                sol = ginv * rhs / 2
                for h in range(ell):
                    co[i][j][h] = sp.expand(sol[h])
        return co

    def gamma(self, pi):
        """Transformed coefficients for one-form components pi (length ell)."""
        ell, g = self.ell, self.metric
        piu = [sp.expand(sum(self.ginv[i, j] * pi[j] for j in range(ell)))
               for i in range(ell)]
        return [[[sp.expand(self.coeff[i][j][k] + (pi[j] if i == k else 0)
                            - g[i, j] * piu[k]) for k in range(ell)]
                 for j in range(ell)] for i in range(ell)], piu

    def curvature(self, co):
        """Operator-expanded coordinate formula (direction-first Omega term)."""
        ell, nv = self.ell, self.nv
        out = [[[[0] * ell for _ in range(ell)] for _ in range(ell)] for _ in range(ell)]
        for i in range(ell):
            for j in range(ell):
                for k in range(ell):
                    for h in range(ell):
                        v = self.fd(i, co[j][k][h]) - self.fd(j, co[i][k][h])
                        v += sum(co[j][k][e] * co[i][e][h] - co[i][k][e] * co[j][e][h]
                                 for e in range(ell))
                        v -= sum(self.Om[i][j][e] * co[e][k][h] for e in range(ell))
                        v -= sum(self.Mc[i][j][b] * self.Lam[b][k][h] for b in range(nv))
                        out[i][j][k][h] = v
        return out

    def characteristic(self, pi, piu):
        ell = self.ell
        nab = [[sp.expand(self.fd(i, pi[k]) - sum(self.coeff[i][k][e] * pi[e]
                                                  for e in range(ell)))
                for k in range(ell)] for i in range(ell)]
        pi2 = sum(pi[h] * piu[h] for h in range(ell))
        plo = [[sp.expand(nab[i][k] - pi[i] * pi[k] + self.metric[i, k] * pi2 / 2)
                for k in range(ell)] for i in range(ell)]
        pmix = [[sp.expand(sum(plo[i][k] * self.ginv[k, h] for k in range(ell)))
                 for h in range(ell)] for i in range(ell)]
        alpha = sum(pmix[i][i] for i in range(ell))
        return plo, pmix, alpha


def _contract(curv, ginv, ell):
    ric = [[sum(curv[i][e][k][e] for e in range(ell)) for k in range(ell)]
           for i in range(ell)]
    ric2 = [[sum(curv[i][k][e][e] for e in range(ell)) for k in range(ell)]
            for i in range(ell)]
    scal = sum(ginv[i, k] * ric[i][k] for i in range(ell) for k in range(ell))
    return ric, ric2, scal


def _s_tensor(curv, ric, scal, g, ginv, ell):
    out = [[[[0] * ell for _ in range(ell)] for _ in range(ell)] for _ in range(ell)]
    for i in range(ell):
        for j in range(ell):
            for k in range(ell):
                for h in range(ell):
                    v = curv[i][j][k][h] - Q(1, ell - 2) * (
                        (ric[i][k] if j == h else 0) - (ric[j][k] if i == h else 0)
                        + g[i, k] * sum(ginv[f, h] * ric[j][f] for f in range(ell))
                        - g[j, k] * sum(ginv[f, h] * ric[i][f] for f in range(ell)))
                    v += scal / ((ell - 1) * (ell - 2)) * (
                        g[i, k] * (1 if j == h else 0) - g[j, k] * (1 if i == h else 0))
                    out[i][j][k][h] = v
    return out


def _c_tensor(curv, ric, ric2, scal, g, ginv, ell):
    A = [[ric[i][k] - Q(1, ell) * ric2[i][k] - scal / (2 * (ell - 1)) * g[i, k]
          for k in range(ell)] for i in range(ell)]
    Aup = [[sum(A[j][f] * ginv[f, h] for f in range(ell)) for h in range(ell)]
           for j in range(ell)]
    out = [[[[0] * ell for _ in range(ell)] for _ in range(ell)] for _ in range(ell)]
    for i in range(ell):
        for j in range(ell):
            for k in range(ell):
                for h in range(ell):
                    v = curv[i][j][k][h] - Q(1, ell - 2) * (
                        (A[i][k] if j == h else 0) - (A[j][k] if i == h else 0)
                        + g[i, k] * Aup[j][h] - g[j, k] * Aup[i][h])
                    v += Q(1, ell) * (ric2[i][j] if k == h else 0)
                    out[i][j][k][h] = v
    return out


def _w_tensor(curv, ric, ell):
    return [[[[curv[i][j][k][h] - Q(1, ell - 1) * ((ric[i][k] if j == h else 0)
                                                   - (ric[j][k] if i == h else 0))
               for h in range(ell)] for k in range(ell)] for j in range(ell)]
            for i in range(ell)]


@lru_cache(maxsize=None)
def sym_spec(spec: ManifoldSpec) -> SymManifold:
    """The spec's frame fields and metric, translated by :func:`sym_expr`."""
    coords = [sp.Symbol(c) for c in spec.coords]
    return SymManifold(coords, *([[sym_expr(e, coords) for e in vf.components] for vf in fields]
                                 for fields in (spec.hframe, spec.vframe)),
                       sp.Matrix([[sym_expr(e, coords) for e in row] for row in spec.metric]))


def sym_manifold(name: str) -> SymManifold:
    return sym_spec(builtin(name).spec)


def sym_pi(name: str, variant: str):
    coords = sym_manifold(name).coords
    return [sym_expr(e, coords) for e in builtin(name).oneform(variant).exprs]


def _to_array(obj, subs):
    def ev(e):
        return float(sp.sympify(e).subs(subs).evalf(25))
    if isinstance(obj, sp.MatrixBase):
        return np.array([[ev(obj[i, j]) for j in range(obj.cols)]
                         for i in range(obj.rows)])
    if isinstance(obj, list):
        return np.array([_to_array(o, subs) for o in obj])
    return ev(obj)


def _at(obj, subs):
    """Nested lists of expressions with the point substituted: exact values."""
    if isinstance(obj, list):
        return [_at(o, subs) for o in obj]
    return sp.sympify(obj).subs(subs)


@lru_cache(maxsize=None)
def oracle_eval(name: str, variant: str | None, point: tuple):
    """:func:`spec_oracle` of a catalog entry and its one-form variant (None: zero)."""
    entry = builtin(name)
    return spec_oracle(entry.spec, entry.oneform(variant), point)


def spec_oracle(spec: ManifoldSpec, pi: OneFormData | None, point: tuple):
    """Every tensor of interest of a spec and one-form (None: the zero one-form)
    at an exact rational point, as float arrays.

    The point goes into the curvature tensors, the characteristic tensor and
    the metric before they are contracted, so the contractions and W, S and C
    are built from exact values rather than from ever larger expressions."""
    m = sym_spec(spec)
    ell = m.ell
    pi = [sp.Integer(0)] * ell if pi is None else [sym_expr(e, m.coords) for e in pi.exprs]
    subs = dict(zip(m.coords, [Q(p) if not isinstance(p, Q) else p for p in point]))

    gamma, piu = m.gamma(pi)
    plo, pmix, alpha = m.characteristic(pi, piu)
    K, R, plo = (_at(T, subs) for T in (m.curvature(m.coeff), m.curvature(gamma), plo))
    g, ginv = m.metric.subs(subs), m.ginv.subs(subs)
    ricK, ric2K, scalK = _contract(K, ginv, ell)
    ricR, ric2R, scalR = _contract(R, ginv, ell)

    out = {
        "coeff": m.coeff, "Gamma": gamma, "Om": m.Om, "Mc": m.Mc, "Lam": m.Lam,
        "K": K, "R": R, "ricK": ricK, "ricR": ricR, "ric2K": ric2K, "ric2R": ric2R,
        "scalK": scalK, "scalR": scalR, "plo": plo, "alpha": alpha,
        "W": _w_tensor(K, ricK, ell), "Wbar": _w_tensor(R, ricR, ell),
    }
    if ell >= 3:
        out["S"] = _s_tensor(K, ricK, scalK, g, ginv, ell)
        out["Sbar"] = _s_tensor(R, ricR, scalR, g, ginv, ell)
        out["C"] = _c_tensor(K, ricK, ric2K, scalK, g, ginv, ell)
        out["Cbar"] = _c_tensor(R, ricR, ric2R, scalR, g, ginv, ell)
    return {key: _to_array(val, subs) for key, val in out.items()}
