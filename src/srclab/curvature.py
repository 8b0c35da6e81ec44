"""Schouten curvature tensors, contractions, and derived invariants.

Stored index order: ``curv[i][j][k][h]`` is the e_h-component of K(e_i, e_j)e_k,
so the coordinate formula reads

    curv[i,j,k,h] = e_i(co[j,k,h]) - e_j(co[i,k,h])
                    + co[j,k,e] co[i,e,h] - co[i,k,e] co[j,e,h]
                    - Omega_ij^e co[e,k,h] - M_ij^b Lambda_bk^h.

The Omega term contracts into the *direction* slot of the coefficients (the
bracket's horizontal part is the direction of the third covariant
derivative); with that order the first Bianchi identity and the curvature
relation between the two connections close to machine precision.

Contractions: ``ricci[i,k] = curv[i,e,k,e]`` (trace over the second lower and
the upper slot) and the second trace ``curv[i,k,e,e]``; the two differ because
the lowered tensor has no pair symmetry.  All (ell-2)/(ell-1) divisions are
guarded by RankTooSmall.

Curvature is evaluated on a stack of points (leading axis p) from a
:class:`~srclab.connections.ConnectionBatch`; a bundle or characteristic
tensor at one point is row 0 of a stack of one.  The derived tensors below
take either, since their formulas act on the trailing axes, and read the
metric their bundle or characteristic tensor carries.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .connections import (ConnectionBatch, ConnectionField, OneFormData, OneFormJets,
                          _stack_of_one, covariant_oneform)
from .errors import RankTooSmall
from .manifold import FrameData, ManifoldSpec, _mirror_pair_antisym, contract


def _row(record, i: int):
    """Point ``i`` of a record whose arrays carry a leading point axis."""
    def pick(value):
        value = value[i]
        return float(value) if np.ndim(value) == 0 else value
    return replace(record, **{f.name: pick(getattr(record, f.name)) for f in fields(record)
                              if isinstance(getattr(record, f.name), np.ndarray)})


def _scalar(x, axes: int) -> np.ndarray:
    """A per-point scalar with ``axes`` trailing axes, to broadcast over tensors."""
    return np.asarray(x)[(...,) + (None,) * axes]


@dataclass(frozen=True)
class CurvatureBundle:
    """Curvature data of one connection, at one point or on a stack of points."""

    kind: str
    point: np.ndarray
    curv: np.ndarray       # (ell,)*4, index order [i][j][k][h]
    ricci: np.ndarray      # (ell, ell): curv[i, e, k, e]
    scalar: float          # g^{ik} ricci[i, k]
    lowered: np.ndarray    # curv[i, j, k, e] g[e, h]
    bianchi_residual: float
    g: np.ndarray          # the metric and its inverse at the point
    ginv: np.ndarray

    def second_contraction(self) -> np.ndarray:
        """ric2[i, k] = curv[i, k, e, e]; antisymmetric only for torsion-free kinds."""
        return np.trace(self.curv, axis1=-2, axis2=-1)


def curvature_raw(cb: ConnectionBatch) -> np.ndarray:
    """Curvature tensors of a connection batch straight from the coordinate
    formula, no mirroring."""
    co, frame = cb.jets.values, cb.frame
    dco = cb.frame_derivatives()
    Q = contract(co, co.transpose(0, 2, 1, 3))          # Q[p, j, k, i, h] = co[j,k,e] co[i,e,h]
    return (dco - dco.transpose(0, 2, 1, 3, 4)
            + Q.transpose(0, 3, 1, 2, 4)
            - Q.transpose(0, 1, 3, 2, 4)
            - contract(frame.Om, co)
            - contract(frame.Mc, frame.Lam))


def curvature_bundle(cb: ConnectionBatch, raw: np.ndarray) -> CurvatureBundle:
    """Bundles of a connection batch from its raw curvature: tensor made
    exactly antisymmetric in (i, j), Ricci trace, scalar, lowered."""
    frame = cb.frame
    curv = raw.copy()
    _mirror_pair_antisym(curv.transpose(0, 3, 4, 1, 2))
    ricci = np.trace(curv, axis1=2, axis2=4)
    scalar = (frame.ginv * ricci).sum(axis=(1, 2))
    lowered = contract(curv, frame.gv)
    cyc = curv + curv.transpose(0, 2, 3, 1, 4) + curv.transpose(0, 3, 1, 2, 4)
    return CurvatureBundle(cb.kind, frame.point, curv, ricci, scalar, lowered,
                           np.abs(cyc).max(axis=(1, 2, 3, 4)), frame.gv, frame.ginv)


def curvature_components_raw(conn: ConnectionField, point) -> np.ndarray:
    """Curvature tensor straight from the coordinate formula, no mirroring."""
    return curvature_raw(conn.at(point))[0]


def schouten_curvature(conn: ConnectionField, point) -> CurvatureBundle:
    """Curvature bundle of a connection: tensor, Ricci trace, scalar, lowered."""
    cb = conn.at(point)
    return _row(curvature_bundle(cb, curvature_raw(cb)), 0)


@dataclass(frozen=True)
class CharacteristicTensor:
    """pi_ik = nabla_i pi_k - pi_i pi_k + (1/2) g_ik pi_h pi^h, with raised form
    and trace, and the metric it was built with."""

    pi_lower: np.ndarray   # (ell, ell)
    pi_mixed: np.ndarray   # (ell, ell): pi_lower g^{-1}
    alpha: float           # trace of pi_mixed
    g: np.ndarray


def characteristic(frame: FrameData, pij: OneFormJets) -> CharacteristicTensor:
    """Characteristic tensors on the points of ``frame``, from the one-form's jets there."""
    piv, ginv = pij.values, frame.ginv
    pi2 = (piv * contract(ginv, piv)).sum(axis=1)
    lower = (covariant_oneform(frame, frame.koszul.values, pij)
             - piv[:, :, None] * piv[:, None, :] + 0.5 * frame.gv * pi2[:, None, None])
    mixed = lower @ ginv
    return CharacteristicTensor(lower, mixed, np.trace(mixed, axis1=1, axis2=2), frame.gv)


def characteristic_tensor(spec: ManifoldSpec, pi: OneFormData, point) -> CharacteristicTensor:
    return _row(characteristic(*_stack_of_one(spec, point, pi)), 0)


def _require_rank(ell: int, minimum: int, what: str):
    if ell < minimum:
        raise RankTooSmall(f"{what} needs horizontal rank >= {minimum}, got {ell}")


def delta_g(A, gv=None, B=None) -> np.ndarray:
    """delta_j^h A_ik - delta_i^h A_jk, plus g_ik B_j^h - g_jk B_i^h when B is given.

    The pattern every tensor below is assembled from; ``delta_g(g)`` is
    delta_j^h g_ik - delta_i^h g_jk.  Leading axes broadcast.
    """
    ell = A.shape[-1]
    lead = A.shape[:-2]
    # t[..., (i, k), (j, h)] = A_ik delta_j^h + g_ik B_j^h
    if B is None:
        t = np.zeros(lead + (ell * ell, ell * ell))
    else:
        t = gv.reshape(lead + (ell * ell, 1)) * B.reshape(lead + (1, ell * ell))
    t[..., ::ell + 1] += A.reshape(lead + (ell * ell, 1))
    t = t.reshape(lead + (ell,) * 4)
    return np.swapaxes(t - np.swapaxes(t, -4, -2), -3, -2)


def delta_k(A) -> np.ndarray:
    """A_ij delta_k^h."""
    ell = A.shape[-1]
    t = np.zeros(A.shape + (ell * ell,))
    t[..., ::ell + 1] = A[..., None]
    return t.reshape(A.shape + (ell, ell))


def s_tensor(bundle: CurvatureBundle, spec: ManifoldSpec, point) -> np.ndarray:
    """The curvature/Ricci/scalar combination invariant under the transformation.

    S^h_ijk = curv - (1/(ell-2)) {delta_j^h ric_ik - delta_i^h ric_jk
              + g_ik ric_j^h - g_jk ric_i^h}
              + scalar/((ell-1)(ell-2)) (g_ik delta_j^h - g_jk delta_i^h)
    """
    ell = spec.ell
    _require_rank(ell, 3, "s_tensor")
    gv, ric = bundle.g, bundle.ricci
    return (bundle.curv - delta_g(ric, gv, ric @ bundle.ginv) / (ell - 2)
            + _scalar(bundle.scalar, 4) / ((ell - 1) * (ell - 2)) * delta_g(gv))


def conformal_tensor(bundle: CurvatureBundle, spec: ManifoldSpec, point) -> np.ndarray:
    """Weyl-type conformal tensor; consumes both Ricci-type contractions."""
    ell = spec.ell
    _require_rank(ell, 3, "conformal_tensor")
    gv = bundle.g
    ric2 = bundle.second_contraction()
    A = bundle.ricci - ric2 / ell - _scalar(bundle.scalar, 2) / (2 * (ell - 1)) * gv
    return (bundle.curv - delta_g(A, gv, A @ bundle.ginv) / (ell - 2)
            + delta_k(ric2) / ell)


def projective_tensor(bundle: CurvatureBundle, spec: ManifoldSpec, point) -> np.ndarray:
    """W^h_ijk = curv - (1/(ell-1))(delta_j^h ric_ik - delta_i^h ric_jk)."""
    return bundle.curv - delta_g(bundle.ricci) / (spec.ell - 1)


def curvature_relation_terms(ct: CharacteristicTensor, spec: ManifoldSpec, point) -> np.ndarray:
    """delta_j^h pi_ik - delta_i^h pi_jk + pi_j^h g_ik - pi_i^h g_jk.

    Added to the torsion-free curvature this yields the transformed one.
    """
    return delta_g(ct.pi_lower, ct.g, ct.pi_mixed)


def conformal_difference_formula(ct: CharacteristicTensor, spec: ManifoldSpec,
                                 point) -> np.ndarray:
    """Tabulated closed form for the conformal-tensor change under the transformation.

    -(1/ell)(delta_j^h pi_ik - delta_i^h pi_jk + g_ik pi_j^h - g_jk pi_i^h)
    - 2 alpha/(ell(ell-2)) (delta_j^h g_ik - delta_i^h g_jk)
    - ((ell-2)/ell) delta_k^h pi_ij - (alpha/ell) delta_k^h g_ij.

    Direct evaluation of both conformal tensors shows their difference
    vanishes identically instead; the formula is kept verbatim so the
    verifier can report the discrepancy honestly (check C13).
    """
    ell = spec.ell
    _require_rank(ell, 3, "conformal_difference_formula")
    gv = ct.g
    return (-delta_g(ct.pi_lower, gv, ct.pi_mixed) / ell
            - 2 * _scalar(ct.alpha, 4) / (ell * (ell - 2)) * delta_g(gv)
            - delta_k((ell - 2) * ct.pi_lower + _scalar(ct.alpha, 2) * gv) / ell)


def projective_difference_formula(ct: CharacteristicTensor, spec: ManifoldSpec,
                                  point) -> np.ndarray:
    """Closed form for the projective-tensor change under the transformation.

    (1/(ell-1))(delta_j^h pi_ik - delta_i^h pi_jk)
    + (g_ik pi_j^h - g_jk pi_i^h)
    - alpha/(ell-1) (delta_j^h g_ik - delta_i^h g_jk).
    """
    gv = ct.g
    return delta_g((ct.pi_lower - _scalar(ct.alpha, 2) * gv) / (spec.ell - 1), gv, ct.pi_mixed)


def flatness_characteristic_form(bundle: CurvatureBundle, spec: ManifoldSpec,
                                 point) -> np.ndarray:
    """pi_ik = (1/(2-ell)) (ric_ik - scalar g_ik / (2(ell-1))): the one-form's
    characteristic tensor forced by a flat transformed connection."""
    ell = spec.ell
    _require_rank(ell, 3, "flatness_characteristic_form")
    return (bundle.ricci - _scalar(bundle.scalar, 2) / (2 * (ell - 1)) * bundle.g) / (2 - ell)
