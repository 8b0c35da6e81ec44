"""Horizontal connections on V0.

``koszul_connection`` builds the unique metric, torsion-free connection by
solving, pointwise,

    2 {_ij^h} g_hk = e_i(g_jk) + e_j(g_ik) - e_k(g_ij)
                     + Omega_ij^e g_ek - Omega_ik^e g_ej - Omega_jk^e g_ei,

``semi_connection`` applies the semi-symmetric transformation

    Gamma_ij^k = {_ij^k} + delta_i^k pi_j - g_ij pi^k,

which keeps the connection metric and turns the torsion into
T_ij^k = delta_i^k pi_j - delta_j^k pi_i.

Coefficients are plain arrays with their derivatives along the horizontal
frame, the only ones curvature reads.  An :class:`~srclab.curvature.Evaluation`
builds them on a stack of points (leading axis p) as layers, values and
gradients apart: the Koszul ones from the frame layers and their sum B, the
transformed ones from those, the one-form's jets and pi^k = g^{kj} pi_j.  A
one-form compiles its components into a :class:`~srclab.jets.JetProgram`.  Sums of
permuted stacks (B, B's derivatives, nabla T) run along the points (permuted_sum).
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .jets import Const, Expression, JetProgram
from .manifold import (Brackets, CoefficientJets, FrameDerivatives, FrameValues, ManifoldSpec,
                       contract, permuted_sum)

_eye = cache(np.eye)        # one identity per rank, shared by the layers; never written


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

    ``program`` is their :class:`~srclab.jets.JetProgram` when a parse has assembled
    it; without one, construction compiles them (:meth:`~srclab.jets.ValueTable.enter`)."""

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
        if not (np.isfinite(run.values).all() and np.isfinite(run.grads).all()):
            finite = np.isfinite(run.values).all(axis=1) & np.isfinite(run.grads).all(axis=(1, 2))
            for i in map(int, np.flatnonzero(~finite)):
                errors.setdefault(i, DomainError(f"one-form not finite at {pts[i].tolist()}"))
        return OneFormJets(run.values, run.grads, errors)


def koszul_sum(fdg: np.ndarray, OG: np.ndarray) -> np.ndarray:
    """fdg_ijk + fdg_jik - fdg_kji + OG_ijk - OG_ikj - OG_jki on axes 1-3 of any rank: with
    OG_ijk = Omega_ij^e g_ek the sum B = 2 {_ij^h} g_hk; with their frame derivatives, B's."""
    return permuted_sum((1, fdg, ()), (1, fdg, (2, 1)), (-1, fdg, (3, 2, 1)),
                        (1, OG, ()), (-1, OG, (1, 3, 2)), (-1, OG, (3, 1, 2)))


def koszul_grads(frame: FrameValues, br: Brackets, fd: FrameDerivatives,
                 B: np.ndarray) -> np.ndarray:
    """The horizontal frame derivatives of the Koszul coefficients, from their sum B."""
    OG_g = (contract(fd.Om_g.transpose(0, 1, 2, 4, 3), frame.gv).transpose(0, 1, 2, 4, 3)
            + contract(br.Om, br.gg))
    B_g = koszul_sum(fd.fdg_g, OG_g)
    return 0.5 * (contract(B_g.transpose(0, 1, 2, 4, 3), frame.ginv).transpose(0, 1, 2, 4, 3)
                  + contract(B, fd.ginv_g))


def semi(frame: FrameValues, nab: np.ndarray, pij: OneFormJets, piu: np.ndarray) -> np.ndarray:
    """Koszul coefficients plus delta_i^k pi_j - g_ij pi^k, with pi^k = ``piu``."""
    piv = pij.values
    A = _eye(piv.shape[1])[:, None, :] * piv[:, None, :, None] \
        - frame.gv[..., None] * piu[:, None, None, :]
    return nab + A


def semi_grads(frame: FrameValues, br: Brackets, fd: FrameDerivatives, nab_g: np.ndarray,
               pij: OneFormJets, piu: np.ndarray) -> np.ndarray:
    """Koszul gradients plus those of delta_i^k pi_j - g_ij pi^k, with pi^k = ``piu``."""
    piu_g = contract(fd.ginv_g.transpose(0, 1, 3, 2), pij.values) + contract(frame.ginv, pij.grads)
    A_g = (_eye(piu.shape[1])[:, None, :, None] * pij.grads[:, None, :, None, :]
           - br.gg[:, :, :, None, :] * piu[:, None, None, :, None]
           - frame.gv[..., None, None] * piu_g[:, None, None, :, :])
    return nab_g + A_g


def covariant_oneform(co: np.ndarray, pij: OneFormJets) -> np.ndarray:
    """e_i(pi_j) - co[i, j, k] pi_k for connection coefficients co."""
    return pij.grads.transpose(0, 2, 1) - contract(co, pij.values)


def torsion_tensor(co: np.ndarray, Om: np.ndarray) -> np.ndarray:
    """T[p, i, j, k] = co[i,j,k] - co[j,i,k] - Omega[i,j,k] for connection coefficients co."""
    return co - co.transpose(0, 2, 1, 3) - Om


def covariant_T(co: np.ndarray, co_g: np.ndarray, T: np.ndarray, Om_g: np.ndarray) -> np.ndarray:
    """(D_i T)_jk^h, [p][i][j][k][h], of a connection's torsion T from its coefficients."""
    out = permuted_sum((1, contract(T, co.transpose(0, 2, 1, 3)), (3, 1, 2, 4)),
                       (1, permuted_sum((1, co_g, ()), (-1, co_g, (2, 1)), (-1, Om_g, ()),
                                        points_last=True), (4, 1, 2, 3)))  # e_i(T[j, k, h])
    out -= contract(co, T)                # each in place: one temporary at a time
    out -= contract(co, T.transpose(0, 2, 1, 3)).transpose(0, 1, 3, 2, 4)
    return out


@dataclass(frozen=True, eq=False)
class ConnectionField:
    """A nonholonomic connection: the Koszul connection (metric, torsion-free)
    when ``oneform`` is None, else the transformed connection D with one-form pi."""

    spec: ManifoldSpec
    oneform: OneFormData | None = None

    def _at(self, point, koszul: str, semi: str) -> list:
        """This connection's layers at the paths in ``koszul`` (or ``semi``) of an
        Evaluation at one point; its error there is raised."""
        from .curvature import Evaluation       # the layer stack is built on this module
        ev = Evaluation(self.spec, self.oneform, np.asarray(point)[None])
        return [ev.read(path) for path in (koszul if self.oneform is None else semi).split()]

    def coefficient_jets(self, point) -> CoefficientJets:
        return CoefficientJets(*(a[0] for a in self._at(point, "nab nab_g", "D D_g")))

    def coefficients(self, point) -> np.ndarray:
        return self._at(point, "nab", "D")[0][0]


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
    return conn._at(point, "T_nab", "T_D")[0][0]
