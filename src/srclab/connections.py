"""Horizontal connections on V0.

``koszul_connection`` builds the unique metric, torsion-free connection by
solving, pointwise,

    2 {_ij^h} g_hk = e_i(g_jk) + e_j(g_ik) - e_k(g_ij)
                     + Omega_ij^e g_ek - Omega_ik^e g_ej - Omega_jk^e g_ei,

``semi_connection`` applies the semi-symmetric transformation

    Gamma_ij^k = {_ij^k} + delta_i^k pi_j - g_ij pi^k,

which keeps the connection metric and turns the torsion into
T_ij^k = delta_i^k pi_j - delta_j^k pi_i.

Coefficients are pointwise tensors with coordinate gradients, so curvature
can take frame derivatives.  The Koszul coefficients are computed once per
point and kept with the point's frame data (``FramePointData.koszul``); the
semi-symmetric ones add the one-form terms to them.  A one-form's
components are expressions, compiled once into a
:class:`~srclab.jets.JetProgram`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, DomainError
from .jets import Const, Expression, JetProgram
from .manifold import CoefficientJets, FramePointData, ManifoldSpec, _frame_at, _memo_at


class OneFormComponent(NamedTuple):
    """One component pi_i as an expression on R^n."""

    expr: Expression
    n: int


@dataclass(frozen=True)
class OneFormData:
    """Horizontal coframe components pi_i of a one-form, as expressions on R^n.

    Their jets are kept per point in ``_cache``, like the spec's frame data,
    and ``with_frame_data`` can fill it in batches through ``_batch``.
    """

    exprs: tuple[Expression, ...]
    n: int
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def ell(self) -> int:
        return len(self.exprs)

    @property
    def components(self) -> tuple[OneFormComponent, ...]:
        """The components as (expr, n) records, the form perfbench/inputs.py reads."""
        return tuple(OneFormComponent(e, self.n) for e in self.exprs)

    @classmethod
    def from_expressions(cls, exprs, n: int) -> "OneFormData":
        return cls(tuple(exprs), n)

    @classmethod
    def constant(cls, values, n: int) -> "OneFormData":
        return cls(tuple(Const(float(v)) for v in values), n)

    @classmethod
    def zero(cls, ell: int, n: int) -> "OneFormData":
        return cls.constant([0.0] * ell, n)

    @cached_property
    def _jet_program(self) -> JetProgram:
        return JetProgram(self.exprs, self.n)

    def _batch(self, points) -> list:
        """(values, grads) at every row of ``points`` from one run, or the
        DomainError of a row where a component leaves its domain or is not finite."""
        batch = self._jet_program.run(points)
        finite = np.isfinite(batch.values).all(axis=1) & np.isfinite(batch.grads).all(axis=(1, 2))
        return [DomainError(batch.errors[i][1]) if i in batch.errors
                else (batch.values[i], batch.grads[i]) if finite[i]
                else DomainError(f"one-form not finite at {p.tolist()}")
                for i, p in enumerate(points)]

    def jets(self, point):
        """Values (ell,) and coordinate gradients (ell, n) at one point."""
        return _memo_at(self._cache, np.asarray(point, dtype=float), self._batch)

    def values(self, point) -> np.ndarray:
        return self.jets(point)[0]


def _semi_jets(data: FramePointData, pi: OneFormData, point) -> CoefficientJets:
    piv, pig = pi.jets(point)
    piu = data.ginv @ piv
    piu_g = np.einsum("ker,e->kr", data.ginv_g, piv) + data.ginv @ pig
    eye = np.eye(len(piv))
    A = np.einsum("ik,j->ijk", eye, piv) - np.einsum("ij,k->ijk", data.gv, piu)
    A_g = (np.einsum("ik,jr->ijkr", eye, pig)
           - np.einsum("ijr,k->ijkr", data.gg, piu)
           - np.einsum("ij,kr->ijkr", data.gv, piu_g))
    return CoefficientJets(data.koszul.values + A, data.koszul.grads + A_g)


@dataclass(frozen=True, eq=False)
class ConnectionField:
    """A nonholonomic connection, evaluated point by point.

    kind 'subriemannian': the Koszul connection (metric, torsion-free).
    kind 'semisubriemannian': the transformed connection D with one-form pi.
    """

    kind: str
    spec: ManifoldSpec
    oneform: OneFormData | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    def coefficient_jets(self, point) -> CoefficientJets:
        p = np.asarray(point, dtype=float)
        if self.kind == "subriemannian":
            return _frame_at(self.spec, p).koszul
        key = p.tobytes()
        hit = self._cache.get(key)
        if hit is None:
            hit = _semi_jets(_frame_at(self.spec, p), self.oneform, p)
            if len(self._cache) > 8192:
                self._cache.clear()
            self._cache[key] = hit
        return hit

    def coefficients(self, point) -> np.ndarray:
        return self.coefficient_jets(point).values

    def frame_derivatives(self, point) -> np.ndarray:
        """D[i, j, k, h] = e_i(coeff[j, k, h]) for horizontal e_i."""
        p = np.asarray(point, dtype=float)
        data = _frame_at(self.spec, p)
        grads = self.coefficient_jets(p).grads
        return np.einsum("mi,jkhm->ijkh", data.Ev[:, : self.spec.ell], grads)


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


def _covariant_oneform(data: FramePointData, co, pi: OneFormData, point) -> np.ndarray:
    """e_i(pi_j) - co[i, j, k] pi_k for connection coefficients co."""
    piv, pig = pi.jets(point)
    fd_pi = np.einsum("mi,jm->ij", data.Ev[:, : len(co)], pig)
    return fd_pi - np.einsum("ijk,k->ij", co, piv)


def nabla_oneform(spec: ManifoldSpec, pi: OneFormData, point) -> np.ndarray:
    """Koszul covariant derivative of pi: e_i(pi_j) - {_ij^k} pi_k."""
    p = np.asarray(point, dtype=float)
    data = _frame_at(spec, p)
    return _covariant_oneform(data, data.koszul.values, pi, p)


def oneform_derivative(conn: ConnectionField, point) -> np.ndarray:
    """(D_i pi)_j = e_i(pi_j) - Gamma_ij^e pi_e for the connection's own pi."""
    if conn.oneform is None:
        raise DimensionMismatch("connection carries no one-form")
    p = np.asarray(point, dtype=float)
    data = _frame_at(conn.spec, p)
    return _covariant_oneform(data, conn.coefficients(p), conn.oneform, p)


def covariant_derivative_T(conn: ConnectionField, point) -> np.ndarray:
    """(D_i T)_jk^h for the connection's own torsion, index order [i][j][k][h]."""
    p = np.asarray(point, dtype=float)
    data = _frame_at(conn.spec, p)
    co, co_g = conn.coefficient_jets(p)
    Tv = co - co.transpose(1, 0, 2) - data.Om
    Tg = co_g - co_g.transpose(1, 0, 2, 3) - data.Om_g
    eT = np.einsum("mi,jkhm->ijkh", data.Ev[:, : conn.spec.ell], Tg)
    return (eT
            + np.einsum("ieh,jke->ijkh", co, Tv)
            - np.einsum("ije,ekh->ijkh", co, Tv)
            - np.einsum("ike,jeh->ijkh", co, Tv))
