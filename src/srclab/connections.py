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
points at once: a connection is its :class:`~srclab.manifold.CoefficientJets`
with a leading point axis, built from one :class:`~srclab.manifold.FrameData`
(the Koszul jets, which the transformed connection adds to) and, for the
transformed connection, the one-form's jets on the same points; an
:class:`~srclab.curvature.Evaluation` builds both, and their torsions, as
layers.  A one-form's components are expressions, compiled into a
:class:`~srclab.jets.JetProgram` when the one-form is made.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .jets import Const, Expression, JetProgram
from .manifold import CoefficientJets, FrameData, ManifoldSpec, contract


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


@dataclass(frozen=True)
class OneFormData:
    """Horizontal coframe components pi_i of a one-form, as expressions on R^n.

    ``program`` is their :class:`~srclab.jets.JetProgram` when a parse has
    assembled it; without one, construction compiles them (DimensionMismatch)."""

    exprs: tuple[Expression, ...]
    n: int
    program: InitVar[JetProgram | None] = None

    def __post_init__(self, program):
        self.__dict__["_jet_program"] = (JetProgram(self.exprs, self.n) if program is None
                                         else program)

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


def koszul_jets(frame: FrameData) -> CoefficientJets:
    """Koszul coefficients and their derivatives on the points of ``frame``."""
    fdg, fdg_g, gv, gg, Om, Om_g = frame.fdg, frame.fdg_g, frame.gv, frame.gg, frame.Om, frame.Om_g
    OG = contract(Om, gv)                              # Omega_ij^e g_ek
    OG_g = (contract(Om_g.transpose(0, 1, 2, 4, 3), gv).transpose(0, 1, 2, 4, 3)
            + contract(Om, gg))
    B = (fdg + fdg.transpose(0, 2, 1, 3) - fdg.transpose(0, 3, 2, 1)
         + OG - OG.transpose(0, 1, 3, 2) - OG.transpose(0, 3, 1, 2))
    B_g = (fdg_g + fdg_g.transpose(0, 2, 1, 3, 4) - fdg_g.transpose(0, 3, 2, 1, 4)
           + OG_g - OG_g.transpose(0, 1, 3, 2, 4) - OG_g.transpose(0, 3, 1, 2, 4))
    values = 0.5 * contract(B, frame.ginv)
    grads = 0.5 * (contract(B_g.transpose(0, 1, 2, 4, 3), frame.ginv).transpose(0, 1, 2, 4, 3)
                   + contract(B, frame.ginv_g))
    return CoefficientJets(values, grads)


def semi_jets(frame: FrameData, koszul: CoefficientJets, pij: OneFormJets) -> CoefficientJets:
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
    return CoefficientJets(koszul.values + A, koszul.grads + A_g)


def frame_derivative(grads: np.ndarray) -> np.ndarray:
    """out[p, i, ...] = e_i(T[p, ...]) from the horizontal frame derivatives
    ``grads[p, ..., i]``: the derivative axis moved to the front."""
    return np.moveaxis(grads, -1, 1)


def covariant_oneform(co: np.ndarray, pij: OneFormJets) -> np.ndarray:
    """e_i(pi_j) - co[i, j, k] pi_k for connection coefficients co."""
    return frame_derivative(pij.grads) - contract(co, pij.values)


def torsion_tensor(co: np.ndarray, Om: np.ndarray) -> np.ndarray:
    """T[p, i, j, k] = co[i,j,k] - co[j,i,k] - Omega[i,j,k] for connection coefficients co."""
    return co - co.transpose(0, 2, 1, 3) - Om


def covariant_T(jets: CoefficientJets, T: np.ndarray, Om_g: np.ndarray) -> np.ndarray:
    """(D_i T)_jk^h, [p][i][j][k][h], of a connection's torsion T from its jets and Om_g."""
    co, co_g = jets
    Tg = co_g - co_g.transpose(0, 2, 1, 3, 4)
    Tg -= Om_g                            # each sum in place: one temporary at a time
    out = contract(T, co.transpose(0, 2, 1, 3)).transpose(0, 3, 1, 2, 4)
    out += frame_derivative(Tg)
    del Tg
    out -= contract(co, T)
    out -= contract(co, T.transpose(0, 2, 1, 3)).transpose(0, 1, 3, 2, 4)
    return np.ascontiguousarray(out)


@dataclass(frozen=True, eq=False)
class ConnectionField:
    """A nonholonomic connection: the Koszul connection (metric, torsion-free)
    when ``oneform`` is None, else the transformed connection D with one-form pi."""

    spec: ManifoldSpec
    oneform: OneFormData | None = None

    def _at(self, point, koszul: str, semi: str):
        """This connection's layer of an Evaluation at one point; its error there is raised."""
        from .curvature import Evaluation       # the layer stack is built on this module
        ev = Evaluation(self.spec, self.oneform, np.asarray(point)[None])
        return ev.read(koszul if self.oneform is None else semi)

    def coefficient_jets(self, point) -> CoefficientJets:
        return CoefficientJets(*(a[0] for a in self._at(point, "nab", "D")))

    def coefficients(self, point) -> np.ndarray:
        return self._at(point, "nab.values", "D.values")[0]


def koszul_connection(spec: ManifoldSpec) -> ConnectionField:
    """The unique metric, torsion-free horizontal connection."""
    return ConnectionField(spec)


def semi_connection(spec: ManifoldSpec, pi: OneFormData) -> ConnectionField:
    """Semi-symmetric transformation of the Koszul connection, checked by an Evaluation."""
    from .curvature import Evaluation
    Evaluation(spec, pi, np.empty((0, spec.n)))
    return ConnectionField(spec, pi)


def torsion(conn: ConnectionField, point) -> np.ndarray:
    """T[i, j, k] = coeff[i,j,k] - coeff[j,i,k] - Omega[i,j,k]."""
    return conn._at(point, "T_nab", "T_D")[0]
