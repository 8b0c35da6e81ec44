"""Horizontal connections on V0.

``koszul_connection`` builds the unique metric, torsion-free connection by
solving, pointwise,

    2 {_ij^h} g_hk = e_i(g_jk) + e_j(g_ik) - e_k(g_ij)
                     + Omega_ij^e g_ek - Omega_ik^e g_ej - Omega_jk^e g_ei,

``semi_connection`` applies the semi-symmetric transformation

    Gamma_ij^k = {_ij^k} + delta_i^k pi_j - g_ij pi^k,

which keeps the connection metric and turns the torsion into
T_ij^k = delta_i^k pi_j - delta_j^k pi_i.

Coefficients are exposed both as cached pointwise tensors (with coordinate
gradients, so curvature can take frame derivatives) and as lazily evaluated
scalar fields supporting order-1 jets.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch
from .jets import ConstField, ExprField, Jet, ScalarField
from .manifold import FramePointData, ManifoldSpec, _frame_at


@dataclass(frozen=True)
class OneFormData:
    """Horizontal coframe components pi_i of a one-form, as scalar fields."""

    components: tuple[ScalarField, ...]

    @property
    def ell(self) -> int:
        return len(self.components)

    @property
    def n(self) -> int:
        return self.components[0].n

    @classmethod
    def from_expressions(cls, exprs, n: int) -> "OneFormData":
        return cls(tuple(ExprField(e, n) for e in exprs))

    @classmethod
    def constant(cls, values, n: int) -> "OneFormData":
        return cls(tuple(ConstField(v, n) for v in values))

    @classmethod
    def zero(cls, ell: int, n: int) -> "OneFormData":
        return cls.constant([0.0] * ell, n)

    def values(self, point) -> np.ndarray:
        return np.array([c.jet(point, 0).value for c in self.components])

    def jets(self, point):
        js = [c.jet(point, 1) for c in self.components]
        return (np.array([j.value for j in js]),
                np.stack([j.grad for j in js]))

    def is_zero(self) -> bool:
        return all(isinstance(c, ConstField) and c.const == 0.0 for c in self.components)

    def raised(self, spec: ManifoldSpec) -> tuple[ScalarField, ...]:
        """pi^i = g^{ij} pi_j as lazily evaluated fields (order <= 1)."""
        return tuple(_RaisedComponent(spec, self, i) for i in range(self.ell))


class _RaisedComponent(ScalarField):
    def __init__(self, spec, pi, index):
        self.spec = spec
        self.pi = pi
        self.index = index
        self.n = spec.n
        self.max_order = 1

    def jet(self, point, order):
        self._guard(order)
        data = _frame_at(self.spec, np.asarray(point, dtype=float))
        piv, pig = self.pi.jets(point)
        vals = data.ginv @ piv
        if order == 0:
            return Jet(self.n, 0, vals[self.index])
        grads = np.einsum("ier,e->ir", data.ginv_g, piv) + data.ginv @ pig
        return Jet(self.n, 1, vals[self.index], grads[self.index])


class CoefficientJets(NamedTuple):
    values: np.ndarray   # (ell, ell, ell): coeff[i, j, k] along e_k of D_{e_i} e_j
    grads: np.ndarray    # (ell, ell, ell, n): coordinate derivatives


def _koszul_jets(data: FramePointData) -> CoefficientJets:
    fdg, fdg_g, gv, gg, Om, Om_g = data.fdg, data.fdg_g, data.gv, data.gg, data.Om, data.Om_g
    B = (fdg + fdg.transpose(1, 0, 2) - fdg.transpose(2, 1, 0)
         + np.einsum("ije,ek->ijk", Om, gv)
         - np.einsum("ike,ej->ijk", Om, gv)
         - np.einsum("jke,ei->ijk", Om, gv))
    B_g = (fdg_g + fdg_g.transpose(1, 0, 2, 3) - fdg_g.transpose(2, 1, 0, 3)
           + np.einsum("ijer,ek->ijkr", Om_g, gv) + np.einsum("ije,ekr->ijkr", Om, gg)
           - np.einsum("iker,ej->ijkr", Om_g, gv) - np.einsum("ike,ejr->ijkr", Om, gg)
           - np.einsum("jker,ei->ijkr", Om_g, gv) - np.einsum("jke,eir->ijkr", Om, gg))
    values = 0.5 * np.einsum("ijk,kh->ijh", B, data.ginv)
    grads = 0.5 * (np.einsum("ijkr,kh->ijhr", B_g, data.ginv)
                   + np.einsum("ijk,khr->ijhr", B, data.ginv_g))
    return CoefficientJets(values, grads)


def _semi_jets(data: FramePointData, pi: OneFormData, point) -> CoefficientJets:
    base = _koszul_jets(data)
    ell = data.gv.shape[0]
    piv, pig = pi.jets(point)
    piu = data.ginv @ piv
    piu_g = np.einsum("ker,e->kr", data.ginv_g, piv) + data.ginv @ pig
    eye = np.eye(ell)
    A = np.einsum("ik,j->ijk", eye, piv) - np.einsum("ij,k->ijk", data.gv, piu)
    A_g = (np.einsum("ik,jr->ijkr", eye, pig)
           - np.einsum("ijr,k->ijkr", data.gg, piu)
           - np.einsum("ij,kr->ijkr", data.gv, piu_g))
    return CoefficientJets(base.values + A, base.grads + A_g)


class _CoefficientField(ScalarField):
    """Single connection coefficient as an evaluable field (order <= 1)."""

    def __init__(self, conn, i, j, k):
        self.conn = conn
        self.ijk = (i, j, k)
        self.n = conn.spec.n
        self.max_order = 1

    def jet(self, point, order):
        self._guard(order)
        jets = self.conn.coefficient_jets(point)
        i, j, k = self.ijk
        if order == 0:
            return Jet(self.n, 0, jets.values[i, j, k])
        return Jet(self.n, 1, jets.values[i, j, k], jets.grads[i, j, k])


@dataclass(frozen=True, eq=False)
class ConnectionField:
    """A nonholonomic connection with lazily evaluated coefficients.

    kind 'subriemannian': the Koszul connection (metric, torsion-free).
    kind 'semisubriemannian': the transformed connection D with one-form pi.
    """

    kind: str
    spec: ManifoldSpec
    oneform: OneFormData | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def ell(self) -> int:
        return self.spec.ell

    def coefficient_jets(self, point) -> CoefficientJets:
        p = np.asarray(point, dtype=float)
        key = p.tobytes()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        data = _frame_at(self.spec, p)
        if self.kind == "subriemannian":
            jets = _koszul_jets(data)
        else:
            jets = _semi_jets(data, self.oneform, p)
        if len(self._cache) > 8192:
            self._cache.clear()
        self._cache[key] = jets
        return jets

    def coefficients(self, point) -> np.ndarray:
        return self.coefficient_jets(point).values

    def frame_derivatives(self, point) -> np.ndarray:
        """D[i, j, k, h] = e_i(coeff[j, k, h]) for horizontal e_i."""
        p = np.asarray(point, dtype=float)
        data = _frame_at(self.spec, p)
        grads = self.coefficient_jets(p).grads
        return np.einsum("mi,jkhm->ijkh", data.Ev[:, : self.ell], grads)

    @cached_property
    def coeff(self):
        ell = self.ell
        return tuple(tuple(tuple(_CoefficientField(self, i, j, k)
                                 for k in range(ell))
                           for j in range(ell))
                     for i in range(ell))


def koszul_connection(spec: ManifoldSpec) -> ConnectionField:
    """The unique metric, torsion-free horizontal connection."""
    return ConnectionField("subriemannian", spec)


def semi_connection(spec: ManifoldSpec, pi: OneFormData) -> ConnectionField:
    """Semi-symmetric metric transformation of the Koszul connection."""
    if pi.ell != spec.ell:
        raise DimensionMismatch(f"one-form needs {spec.ell} components, got {pi.ell}")
    if pi.n != spec.n:
        raise DimensionMismatch("one-form fields live on the wrong R^n")
    return ConnectionField("semisubriemannian", spec, pi)


def torsion(conn: ConnectionField, point) -> np.ndarray:
    """T[i, j, k] = coeff[i,j,k] - coeff[j,i,k] - Omega[i,j,k]."""
    data = _frame_at(conn.spec, np.asarray(point, dtype=float))
    co = conn.coefficients(point)
    return co - co.transpose(1, 0, 2) - data.Om


def nabla_oneform(spec: ManifoldSpec, pi: OneFormData, point) -> np.ndarray:
    """Koszul covariant derivative of pi: e_i(pi_j) - {_ij^k} pi_k."""
    p = np.asarray(point, dtype=float)
    data = _frame_at(spec, p)
    piv, pig = pi.jets(p)
    co = _koszul_jets(data).values
    fd_pi = np.einsum("mi,jm->ij", data.Ev[:, : spec.ell], pig)
    return fd_pi - np.einsum("ijk,k->ij", co, piv)


def oneform_derivative(conn: ConnectionField, point) -> np.ndarray:
    """(D_i pi)_j = e_i(pi_j) - Gamma_ij^e pi_e for the connection's own pi."""
    if conn.oneform is None:
        raise DimensionMismatch("connection carries no one-form")
    p = np.asarray(point, dtype=float)
    data = _frame_at(conn.spec, p)
    piv, pig = conn.oneform.jets(p)
    co = conn.coefficients(p)
    fd_pi = np.einsum("mi,jm->ij", data.Ev[:, : conn.ell], pig)
    return fd_pi - np.einsum("ijk,k->ij", co, piv)


def covariant_derivative_T(conn: ConnectionField, point) -> np.ndarray:
    """(D_i T)_jk^h for the connection's own torsion, index order [i][j][k][h]."""
    p = np.asarray(point, dtype=float)
    data = _frame_at(conn.spec, p)
    jets = conn.coefficient_jets(p)
    Tv = jets.values - jets.values.transpose(1, 0, 2) - data.Om
    Tg = jets.grads - jets.grads.transpose(1, 0, 2, 3) - data.Om_g
    eT = np.einsum("mi,jkhm->ijkh", data.Ev[:, : conn.ell], Tg)
    co = jets.values
    return (eT
            + np.einsum("ieh,jke->ijkh", co, Tv)
            - np.einsum("ije,ekh->ijkh", co, Tv)
            - np.einsum("ike,jeh->ijkh", co, Tv))
