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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connections import ConnectionField, OneFormData, nabla_oneform
from .errors import RankTooSmall
from .manifold import ManifoldSpec, _frame_at, _mirror_pair_antisym


@dataclass(frozen=True)
class CurvatureBundle:
    """Pointwise curvature data of one connection."""

    kind: str
    point: np.ndarray
    curv: np.ndarray       # (ell,)*4, index order [i][j][k][h]
    ricci: np.ndarray      # (ell, ell): curv[i, e, k, e]
    scalar: float          # g^{ik} ricci[i, k]
    lowered: np.ndarray    # curv[i, j, k, e] g[e, h]
    bianchi_residual: float

    def second_contraction(self) -> np.ndarray:
        """ric2[i, k] = curv[i, k, e, e]; antisymmetric only for torsion-free kinds."""
        return np.einsum("ikee->ik", self.curv)


def curvature_components_raw(conn: ConnectionField, point) -> np.ndarray:
    """Curvature tensor straight from the coordinate formula, no mirroring."""
    p = np.asarray(point, dtype=float)
    data = _frame_at(conn.spec, p)
    co = conn.coefficients(p)
    dco = conn.frame_derivatives(p)
    return (dco - dco.transpose(1, 0, 2, 3)
            + np.einsum("jke,ieh->ijkh", co, co)
            - np.einsum("ike,jeh->ijkh", co, co)
            - np.einsum("ije,ekh->ijkh", data.Om, co)
            - np.einsum("ijb,bkh->ijkh", data.Mc, data.Lam))


def schouten_curvature(conn: ConnectionField, point) -> CurvatureBundle:
    """Curvature bundle of a connection: tensor, Ricci trace, scalar, lowered."""
    p = np.asarray(point, dtype=float)
    data = _frame_at(conn.spec, p)
    ell = conn.spec.ell
    curv = curvature_components_raw(conn, p)
    _mirror_pair_antisym(curv.transpose(2, 3, 0, 1), None, ell)    # exact in (i, j)
    ricci = np.einsum("ieke->ik", curv)
    scalar = float(np.einsum("ik,ik->", data.ginv, ricci))
    lowered = np.einsum("ijke,eh->ijkh", curv, data.gv)
    cyc = curv + curv.transpose(1, 2, 0, 3) + curv.transpose(2, 0, 1, 3)
    return CurvatureBundle(conn.kind, p, curv, ricci, scalar, lowered,
                           float(np.abs(cyc).max()))


@dataclass(frozen=True)
class CharacteristicTensor:
    """pi_ik = nabla_i pi_k - pi_i pi_k + (1/2) g_ik pi_h pi^h, with raised form and trace."""

    pi_lower: np.ndarray   # (ell, ell)
    pi_mixed: np.ndarray   # (ell, ell): pi_lower g^{-1}
    alpha: float           # trace of pi_mixed


def characteristic_tensor(spec: ManifoldSpec, pi: OneFormData, point) -> CharacteristicTensor:
    p = np.asarray(point, dtype=float)
    data = _frame_at(spec, p)
    piv = pi.values(p)
    piu = data.ginv @ piv
    pi2 = float(piv @ piu)
    lower = nabla_oneform(spec, pi, p) - np.outer(piv, piv) + 0.5 * data.gv * pi2
    mixed = lower @ data.ginv
    return CharacteristicTensor(lower, mixed, float(np.trace(mixed)))


def _require_rank(ell: int, minimum: int, what: str):
    if ell < minimum:
        raise RankTooSmall(f"{what} needs horizontal rank >= {minimum}, got {ell}")


def delta_g(A, gv=None, B=None) -> np.ndarray:
    """delta_j^h A_ik - delta_i^h A_jk, plus g_ik B_j^h - g_jk B_i^h when B is given.

    The pattern every tensor below is assembled from; ``delta_g(g)`` is
    delta_j^h g_ik - delta_i^h g_jk.
    """
    t = np.einsum("ik,jh->ijkh", A, np.eye(len(A)))
    if B is not None:
        t = t + np.einsum("ik,jh->ijkh", gv, B)
    return t - t.transpose(1, 0, 2, 3)


def s_tensor(bundle: CurvatureBundle, spec: ManifoldSpec, point) -> np.ndarray:
    """The curvature/Ricci/scalar combination invariant under the transformation.

    S^h_ijk = curv - (1/(ell-2)) {delta_j^h ric_ik - delta_i^h ric_jk
              + g_ik ric_j^h - g_jk ric_i^h}
              + scalar/((ell-1)(ell-2)) (g_ik delta_j^h - g_jk delta_i^h)
    """
    ell = spec.ell
    _require_rank(ell, 3, "s_tensor")
    data = _frame_at(spec, np.asarray(point, dtype=float))
    gv, ric = data.gv, bundle.ricci
    return (bundle.curv - delta_g(ric, gv, ric @ data.ginv) / (ell - 2)
            + bundle.scalar / ((ell - 1) * (ell - 2)) * delta_g(gv))


def conformal_tensor(bundle: CurvatureBundle, spec: ManifoldSpec, point) -> np.ndarray:
    """Weyl-type conformal tensor; consumes both Ricci-type contractions."""
    ell = spec.ell
    _require_rank(ell, 3, "conformal_tensor")
    data = _frame_at(spec, np.asarray(point, dtype=float))
    gv = data.gv
    ric2 = bundle.second_contraction()
    A = bundle.ricci - ric2 / ell - bundle.scalar / (2 * (ell - 1)) * gv
    return (bundle.curv - delta_g(A, gv, A @ data.ginv) / (ell - 2)
            + np.einsum("ij,kh->ijkh", ric2, np.eye(ell)) / ell)


def projective_tensor(bundle: CurvatureBundle, spec: ManifoldSpec, point) -> np.ndarray:
    """W^h_ijk = curv - (1/(ell-1))(delta_j^h ric_ik - delta_i^h ric_jk)."""
    return bundle.curv - delta_g(bundle.ricci) / (spec.ell - 1)


def curvature_relation_terms(ct: CharacteristicTensor, spec: ManifoldSpec, point) -> np.ndarray:
    """delta_j^h pi_ik - delta_i^h pi_jk + pi_j^h g_ik - pi_i^h g_jk.

    Added to the torsion-free curvature this yields the transformed one.
    """
    data = _frame_at(spec, np.asarray(point, dtype=float))
    return delta_g(ct.pi_lower, data.gv, ct.pi_mixed)


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
    data = _frame_at(spec, np.asarray(point, dtype=float))
    gv = data.gv
    return (-delta_g(ct.pi_lower, gv, ct.pi_mixed) / ell
            - 2 * ct.alpha / (ell * (ell - 2)) * delta_g(gv)
            - np.einsum("ij,kh->ijkh", (ell - 2) * ct.pi_lower + ct.alpha * gv,
                        np.eye(ell)) / ell)


def projective_difference_formula(ct: CharacteristicTensor, spec: ManifoldSpec,
                                  point) -> np.ndarray:
    """Closed form for the projective-tensor change under the transformation.

    (1/(ell-1))(delta_j^h pi_ik - delta_i^h pi_jk)
    + (g_ik pi_j^h - g_jk pi_i^h)
    - alpha/(ell-1) (delta_j^h g_ik - delta_i^h g_jk).
    """
    gv = _frame_at(spec, np.asarray(point, dtype=float)).gv
    return delta_g((ct.pi_lower - ct.alpha * gv) / (spec.ell - 1), gv, ct.pi_mixed)


def flatness_characteristic_form(bundle: CurvatureBundle, spec: ManifoldSpec,
                                 point) -> np.ndarray:
    """pi_ik = (1/(2-ell)) (ric_ik - scalar g_ik / (2(ell-1))): the one-form's
    characteristic tensor forced by a flat transformed connection."""
    ell = spec.ell
    _require_rank(ell, 3, "flatness_characteristic_form")
    data = _frame_at(spec, np.asarray(point, dtype=float))
    return (bundle.ricci - bundle.scalar / (2 * (ell - 1)) * data.gv) / (2 - ell)
