"""Independent symbolic oracle for the numeric engine.

Everything here is computed with sympy from hand-transcribed frame/metric
data: brackets by symbolic differentiation, structure constants by exact
linear solves, connection coefficients from the defining linear system, and
curvature from the operator-expanded coordinate formula.  Evaluation happens
at exact rational points (25-digit numeric only where trig enters), so these
values are a genuinely independent route against which the jet/einsum
implementation is compared.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import sympy as sp
from sympy import Rational as Q


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

    def check_connection_axioms(self):
        """Nonzero metricity/torsion residuals (symbolic; empty means exact)."""
        ell, g = self.ell, self.metric
        bad = []
        for k in range(ell):
            for i in range(ell):
                for j in range(ell):
                    met = sp.simplify(self.fd(k, g[i, j])
                                      - sum(self.coeff[k][i][e] * g[e, j]
                                            + self.coeff[k][j][e] * g[e, i]
                                            for e in range(ell)))
                    tor = sp.simplify(self.coeff[i][j][k] - self.coeff[j][i][k]
                                      - self.Om[i][j][k])
                    if met != 0:
                        bad.append(("metricity", k, i, j, met))
                    if tor != 0:
                        bad.append(("torsion", i, j, k, tor))
        return bad

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


# -- hand transcriptions of the catalog ------------------------------------

def _sym(names):
    return list(sp.symbols(names))


@lru_cache(maxsize=None)
def sym_manifold(name: str) -> SymManifold:
    if name == "heisenberg1":
        x, y, z = _sym("x y z")
        return SymManifold([x, y, z],
                           [[1, 0, -y / 2], [0, 1, x / 2]],
                           [[0, 0, 1]], sp.eye(2))
    if name == "heisenberg2":
        x1, y1, x2, y2, z = _sym("x1 y1 x2 y2 z")
        return SymManifold([x1, y1, x2, y2, z],
                           [[1, 0, 0, 0, -y1 / 2], [0, 1, 0, 0, x1 / 2],
                            [0, 0, 1, 0, -y2 / 2], [0, 0, 0, 1, x2 / 2]],
                           [[0, 0, 0, 0, 1]], sp.eye(4))
    if name == "free-step2-l3":
        x1, x2, x3, z12, z13, z23 = _sym("x1 x2 x3 z12 z13 z23")
        return SymManifold([x1, x2, x3, z12, z13, z23],
                           [[1, 0, 0, -x2 / 2, -x3 / 2, 0],
                            [0, 1, 0, x1 / 2, 0, -x3 / 2],
                            [0, 0, 1, 0, x1 / 2, x2 / 2]],
                           [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0],
                            [0, 0, 0, 0, 0, 1]], sp.eye(3))
    if name == "flat3":
        x, y, z = _sym("x y z")
        return SymManifold([x, y, z], [[1, 0, 0], [0, 1, 0]], [[0, 0, 1]], sp.eye(2))
    if name == "curved-metric-l3":
        x, y, z, w = _sym("x y z w")
        g = sp.Matrix([[1 + x**2, x * y / 2, 0],
                       [x * y / 2, 1 + y**2, 0],
                       [0, 0, 1 + z**2]])
        return SymManifold([x, y, z, w],
                           [[1, 0, 0, -y / 2], [0, 1, 0, x / 2], [w, 0, 1, 0]],
                           [[0, 0, 0, 1]], g)
    if name == "involutive-l3":
        x, y, z, w = _sym("x y z w")
        g = sp.Matrix([[1, 0, 0], [0, 1 + x**2, 0], [0, 0, 1]])
        return SymManifold([x, y, z, w],
                           [[1, 0, 0, 0], [0, 1, 0, 0], [0, x, 1, 0]],
                           [[0, 0, 0, 1]], g)
    raise KeyError(name)


# One-form components per (entry, variant), as functions of the coordinates,
# so each entry indexes only the coordinates it has.
_PI_TABLE = {
    ("heisenberg1", "const"): lambda c: [1, 0],
    ("heisenberg1", "trig"): lambda c: [sp.sin(c[0]), sp.cos(c[1])],
    ("heisenberg2", "const"): lambda c: [1, 0, 0, 0],
    ("heisenberg2", "linear"): lambda c: [c[1], c[0], c[2], 0],
    ("heisenberg2", "trig"): lambda c: [sp.sin(c[0]), sp.cos(c[1]), sp.sin(c[2]),
                                        sp.cos(c[3])],
    ("free-step2-l3", "const"): lambda c: [1, 0, 0],
    ("free-step2-l3", "linear"): lambda c: [c[1], c[0], c[2]],
    ("free-step2-l3", "trig"): lambda c: [sp.sin(c[0]), sp.cos(c[1]), sp.sin(c[2])],
    ("free-step2-l3", "alpha-zero"): lambda c: [2 / (c[0] + 4), 0, 0],
    ("free-step2-l3", "proportional"): lambda c: [1 / (4 - c[0]), 0, 0],
    ("flat3", "const"): lambda c: [1, 0],
    ("flat3", "linear"): lambda c: [c[1], c[0]],
    ("curved-metric-l3", "const"): lambda c: [1, 0, 0],
    ("curved-metric-l3", "linear"): lambda c: [c[1], c[0], c[2]],
    ("curved-metric-l3", "trig"): lambda c: [sp.sin(c[0]), sp.cos(c[1]), sp.sin(c[2])],
    ("involutive-l3", "const"): lambda c: [1, 0, 0],
    ("involutive-l3", "linear"): lambda c: [c[1], c[0], c[2]],
    ("involutive-l3", "trig"): lambda c: [sp.sin(c[0]), sp.cos(c[1]), sp.sin(c[2])],
}


def sym_pi(name: str, variant: str):
    coords = sym_manifold(name).coords
    return [sp.sympify(e) for e in _PI_TABLE[(name, variant)](coords)]


def _to_array(obj, subs):
    def ev(e):
        return float(sp.sympify(e).subs(subs).evalf(25))
    if isinstance(obj, sp.MatrixBase):
        return np.array([[ev(obj[i, j]) for j in range(obj.cols)]
                         for i in range(obj.rows)])
    if isinstance(obj, list):
        return np.array([_to_array(o, subs) for o in obj])
    return ev(obj)


@lru_cache(maxsize=None)
def oracle_eval(name: str, variant: str | None, point: tuple):
    """Every tensor of interest at an exact rational point, as float arrays."""
    m = sym_manifold(name)
    ell = m.ell
    pi = sym_pi(name, variant) if variant else [sp.Integer(0)] * ell
    subs = dict(zip(m.coords, [Q(p) if not isinstance(p, Q) else p for p in point]))

    gamma, piu = m.gamma(pi)
    K = m.curvature(m.coeff)
    R = m.curvature(gamma)
    ricK, ric2K, scalK = _contract(K, m.ginv, ell)
    ricR, ric2R, scalR = _contract(R, m.ginv, ell)
    plo, pmix, alpha = m.characteristic(pi, piu)

    out = {
        "coeff": m.coeff, "Gamma": gamma, "Om": m.Om, "Mc": m.Mc, "Lam": m.Lam,
        "K": K, "R": R, "ricK": ricK, "ricR": ricR, "ric2K": ric2K, "ric2R": ric2R,
        "scalK": scalK, "scalR": scalR, "plo": plo, "alpha": alpha,
        "W": _w_tensor(K, ricK, ell), "Wbar": _w_tensor(R, ricR, ell),
    }
    if ell >= 3:
        out["S"] = _s_tensor(K, ricK, scalK, m.metric, m.ginv, ell)
        out["Sbar"] = _s_tensor(R, ricR, scalR, m.metric, m.ginv, ell)
        out["C"] = _c_tensor(K, ricK, ric2K, scalK, m.metric, m.ginv, ell)
        out["Cbar"] = _c_tensor(R, ricR, ric2R, scalR, m.metric, m.ginv, ell)
    return {key: _to_array(val, subs) for key, val in out.items()}
