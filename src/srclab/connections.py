"""Horizontal connections on V0.

``koszul_connection`` builds the unique metric, torsion-free connection by
solving, pointwise,

    2 {_ij^h} g_hk = e_i(g_jk) + e_j(g_ik) - e_k(g_ij)
                     + Omega_ij^e g_ek - Omega_ik^e g_ej - Omega_jk^e g_ei,

``semi_connection`` applies the semi-symmetric transformation

    Gamma_ij^k = {_ij^k} + delta_i^k pi_j - g_ij pi^k,

which keeps the connection metric and turns the torsion into
T_ij^k = delta_i^k pi_j - delta_j^k pi_i.

Coefficients are tensors with their derivatives along the horizontal
frame, the only ones curvature reads.  They are evaluated on a stack of
points at once: a :class:`ConnectionBatch` holds a connection's coefficient
jets with a leading point axis, built from one :class:`~srclab.manifold.FrameData`
(whose Koszul jets both connections share) and, for the transformed
connection, the one-form's jets on the same points.  The per-point
functions below are the same code on a stack of one.  A one-form's
components are expressions, compiled once into a
:class:`~srclab.jets.JetProgram`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, DomainError
from .jets import Const, Expression, JetProgram
from .manifold import CoefficientJets, FrameData, ManifoldSpec, _frame_data, contract, one_point


class OneFormComponent(NamedTuple):
    """One component pi_i as an expression on R^n."""

    expr: Expression
    n: int


class OneFormJets(NamedTuple):
    """A one-form's values (P, ell) and gradients (P, ell, d) along a basis
    (the coordinates, d = n, by default) on a stack of points, and the
    DomainError of each point where it fails."""

    values: np.ndarray
    grads: np.ndarray
    errors: dict[int, DomainError]

    def check(self, i: int) -> None:
        if i in self.errors:
            raise self.errors[i]


@dataclass(frozen=True)
class OneFormData:
    """Horizontal coframe components pi_i of a one-form, as expressions on R^n."""

    exprs: tuple[Expression, ...]
    n: int

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
    @cache
    def zero(cls, ell: int, n: int) -> "OneFormData":
        """The zero one-form, one shared instance (and compiled program) per shape."""
        return cls.constant([0.0] * ell, n)

    @cached_property
    def _jet_program(self) -> JetProgram:
        return JetProgram(self.exprs, self.n)

    def batch(self, points, basis=None) -> OneFormJets:
        """Jets at every row of ``points`` from one run, with gradients along
        ``basis`` (see :meth:`~srclab.jets.JetProgram.run`); a point fails
        where a component leaves its domain or is not finite."""
        pts = np.asarray(points, dtype=float)
        run = self._jet_program.run(pts, basis)
        errors = {i: DomainError(message) for i, (_, message) in run.errors.items()}
        finite = np.isfinite(run.values).all(axis=1) & np.isfinite(run.grads).all(axis=(1, 2))
        for i in map(int, np.flatnonzero(~finite)):
            errors.setdefault(i, DomainError(f"one-form not finite at {pts[i].tolist()}"))
        return OneFormJets(run.values, run.grads, errors)

    def jets(self, point):
        """Values (ell,) and coordinate gradients (ell, n) at one point."""
        pts = np.asarray(point, dtype=float)[None]
        one = self.batch(pts)
        one.check(0)
        return one.values[0], one.grads[0]

    def values(self, point) -> np.ndarray:
        return self.jets(point)[0]


def semi_jets(frame: FrameData, pij: OneFormJets) -> CoefficientJets:
    """Koszul jets plus delta_i^k pi_j - g_ij pi^k and its derivatives, from
    the one-form's horizontal frame derivatives."""
    piv, pig = pij.values, pij.grads
    piu = contract(frame.ginv, piv)
    piu_g = contract(frame.ginv_g.transpose(0, 1, 3, 2), piv) + contract(frame.ginv, pig)
    eye = np.eye(piv.shape[1])
    A = eye[:, None, :] * piv[:, None, :, None] - frame.gv[..., None] * piu[:, None, None, :]
    A_g = (eye[:, None, :, None] * pig[:, None, :, None, :]
           - frame.gg[:, :, :, None, :] * piu[:, None, None, :, None]
           - frame.gv[..., None, None] * piu_g[:, None, None, :, :])
    return CoefficientJets(frame.koszul.values + A, frame.koszul.grads + A_g)


def frame_derivative(grads: np.ndarray) -> np.ndarray:
    """out[p, i, ...] = e_i(T[p, ...]) from the horizontal frame derivatives
    ``grads[p, ..., i]``: the derivative axis moved to the front."""
    return np.moveaxis(grads, -1, 1)


def covariant_oneform(co: np.ndarray, pij: OneFormJets) -> np.ndarray:
    """e_i(pi_j) - co[i, j, k] pi_k for connection coefficients co."""
    return frame_derivative(pij.grads) - contract(co, pij.values)


@dataclass(frozen=True, eq=False)
class ConnectionBatch:
    """A connection's coefficient jets on a stack of points (leading axis p),
    with the frame data and one-form jets they were built from."""

    kind: str
    frame: FrameData
    jets: CoefficientJets
    pi: OneFormJets | None = None

    def frame_derivatives(self) -> np.ndarray:
        """D[p, i, j, k, h] = e_i(coeff[j, k, h]) for horizontal e_i."""
        return frame_derivative(self.jets.grads)

    @cached_property
    def torsion(self) -> np.ndarray:
        """T[p, i, j, k] = coeff[i,j,k] - coeff[j,i,k] - Omega[i,j,k], built once."""
        co = self.jets.values
        return co - co.transpose(0, 2, 1, 3) - self.frame.Om

    def covariant_T(self) -> np.ndarray:
        """(D_i T)_jk^h for the connection's own torsion, index order [p][i][j][k][h]."""
        co, co_g = self.jets
        Tv = self.torsion
        Tg = co_g - co_g.transpose(0, 2, 1, 3, 4) - self.frame.Om_g
        return (frame_derivative(Tg)
                + contract(Tv, co.transpose(0, 2, 1, 3)).transpose(0, 3, 1, 2, 4)
                - contract(co, Tv)
                - contract(co, Tv.transpose(0, 2, 1, 3)).transpose(0, 1, 3, 2, 4))


def _stack_of_one(spec: ManifoldSpec, point, pi: OneFormData | None):
    """Frame data and one-form jets at one point, as stacks of one; the
    point's frame error, then its one-form error, is raised."""
    pts = one_point(spec, point)
    frame = _frame_data(spec, pts)
    frame.check(0)
    pij = None
    if pi is not None:
        pij = pi.batch(pts, frame.Ev[:, :, :spec.ell])
        pij.check(0)
    return frame, pij


@dataclass(frozen=True, eq=False)
class ConnectionField:
    """A nonholonomic connection.

    kind 'subriemannian': the Koszul connection (metric, torsion-free).
    kind 'semisubriemannian': the transformed connection D with one-form pi.
    """

    kind: str
    spec: ManifoldSpec
    oneform: OneFormData | None = None

    def batch(self, frame: FrameData, pij: OneFormJets | None = None) -> ConnectionBatch:
        """The connection on the points of ``frame``; ``pij`` are the jets of
        its one-form there."""
        if self.kind == "subriemannian":
            return ConnectionBatch(self.kind, frame, frame.koszul)
        return ConnectionBatch(self.kind, frame, semi_jets(frame, pij), pij)

    def at(self, point) -> ConnectionBatch:
        """The connection at one point, as a stack of one."""
        return self.batch(*_stack_of_one(self.spec, point, self.oneform))

    def coefficient_jets(self, point) -> CoefficientJets:
        values, grads = self.at(point).jets
        return CoefficientJets(values[0], grads[0])

    def coefficients(self, point) -> np.ndarray:
        return self.at(point).jets.values[0]

    def frame_derivatives(self, point) -> np.ndarray:
        """D[i, j, k, h] = e_i(coeff[j, k, h]) for horizontal e_i."""
        return self.at(point).frame_derivatives()[0]


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
    return conn.at(point).torsion[0]


def nabla_oneform(spec: ManifoldSpec, pi: OneFormData, point) -> np.ndarray:
    """Koszul covariant derivative of pi: e_i(pi_j) - {_ij^k} pi_k."""
    frame, pij = _stack_of_one(spec, point, pi)
    return covariant_oneform(frame.koszul.values, pij)[0]


def oneform_derivative(conn: ConnectionField, point) -> np.ndarray:
    """(D_i pi)_j = e_i(pi_j) - Gamma_ij^e pi_e for the connection's own pi."""
    if conn.oneform is None:
        raise DimensionMismatch("connection carries no one-form")
    cb = conn.at(point)
    return covariant_oneform(cb.jets.values, cb.pi)[0]


def covariant_derivative_T(conn: ConnectionField, point) -> np.ndarray:
    """(D_i T)_jk^h for the connection's own torsion, index order [i][j][k][h]."""
    return conn.at(point).covariant_T()[0]
