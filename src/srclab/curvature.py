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
guarded by RankTooSmall.  Every delta/g pattern is one kernel, :func:`delta_g`,
whose ``base`` is a tensor the sum starts from and never writes (curv in W, g pi
in the change formulas, nabla T in C18), ``K`` the delta_k^h coefficient (C's
ric2, C13's, C18's) and ``J`` a lone delta_j^h one (C18's).

Curvature is evaluated on a stack of points (leading axis p) from a
connection's coefficients and gradients (its permuted terms one permuted_sum,
whose point-axis copies delta_g shares); a bundle or characteristic
tensor at one point is row 0 of an :class:`Evaluation` of one point.  The
derived tensors below take either, since their formulas act on the trailing
axes, and read the metric their bundle or characteristic tensor carries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cache, cached_property
from operator import attrgetter

import numpy as np

from .connections import (ConnectionField, OneFormData, OneFormJets, covariant_oneform,
                          covariant_T, koszul_grads, koszul_sum, semi, semi_grads,
                          torsion_tensor)
from .errors import DimensionMismatch, RankTooSmall
from .jets import Const
from .manifold import (Brackets, FrameValues, ManifoldSpec, _mirror_pair_antisym, _points_last,
                       contract, frame_derivatives, frame_values, permuted_sum, structure_constants)


def _row(record):
    """Row 0 of a record whose arrays carry a leading point axis."""
    return replace(record, **{f.name: getattr(record, f.name)[0] for f in fields(record)
                              if isinstance(getattr(record, f.name), np.ndarray)})


def _scalar(x, axes: int) -> np.ndarray:
    """A per-point scalar with ``axes`` trailing axes, to broadcast over tensors."""
    return np.asarray(x)[(...,) + (None,) * axes]


@dataclass(frozen=True)
class CurvatureBundle:
    """Curvature data of one connection, at one point or on a stack of points."""

    curv: np.ndarray       # (ell,)*4, index order [i][j][k][h]
    ricci: np.ndarray      # (ell, ell): curv[i, e, k, e]
    scalar: float          # g^{ik} ricci[i, k]
    g: np.ndarray          # the metric and its inverse at the point
    ginv: np.ndarray
    # built on first use: curv[i, j, k, e] g[e, h]
    lowered = cached_property(lambda b: (b.curv.reshape(b.g.shape[:-2] + (-1, b.g.shape[-1]))
                                         @ b.g).reshape(b.curv.shape))

    def second_contraction(self) -> np.ndarray:
        """ric2[i, k] = curv[i, k, e, e]; antisymmetric only for torsion-free connections."""
        return np.einsum("...ikee->...ik", self.curv)


def curvature_raw(co: np.ndarray, co_g: np.ndarray, br: Brackets) -> np.ndarray:
    """Curvature tensors of coefficients and gradients from the coordinate formula, unmirrored."""
    Q = contract(co, co.transpose(0, 2, 1, 3))          # Q[p, j, k, i, h] = co[j,k,e] co[i,e,h]
    raw = permuted_sum((1, co_g, (4, 1, 2, 3)), (-1, co_g, (1, 4, 2, 3)),  # e_i(co_j) - e_j(co_i)
                       (1, Q, (3, 1, 2, 4)), (-1, Q, (1, 3, 2, 4)))
    del Q
    raw -= contract(br.Om, co)                          # in place: one temporary at a time
    raw -= contract(br.Mc, br.Lam)                      # M_ij^b Lambda_bk^h
    return raw


def curvature_bundle(frame: FrameValues, raw: np.ndarray) -> CurvatureBundle:
    """The bundle of a raw curvature on the points of ``frame``: tensor made
    exactly antisymmetric in (i, j), Ricci trace, scalar, lowered."""
    curv = raw.copy()
    _mirror_pair_antisym(curv)
    ricci = np.einsum("...ieke->...ik", curv)
    scalar = (frame.ginv * ricci).sum(axis=(1, 2))
    return CurvatureBundle(curv, ricci, scalar, frame.gv, frame.ginv)


def schouten_curvature(conn: ConnectionField, point) -> CurvatureBundle:
    """Curvature bundle of a connection: tensor, Ricci trace, scalar, lowered."""
    return _row(*conn._at(point, "Kb", "Rb"))


@dataclass(frozen=True)
class CharacteristicTensor:
    """pi_ik = nabla_i pi_k - pi_i pi_k + (1/2) g_ik pi_h pi^h, with raised form
    and trace, pi_h pi^h, and the metric it was built with."""

    pi_lower: np.ndarray   # (ell, ell)
    pi_mixed: np.ndarray   # (ell, ell): pi_lower g^{-1}
    alpha: float           # trace of pi_mixed
    pi2: float             # pi_h pi^h
    g: np.ndarray
    # g_ik pi_j^h - g_jk pi_i^h, built on first use and shared by the curvature-change formulas
    gpi = cached_property(lambda ct: delta_g(g=ct.g, B=ct.pi_mixed))


def characteristic(frame: FrameValues, nab: np.ndarray, pij: OneFormJets,
                   piu: np.ndarray) -> CharacteristicTensor:
    """Characteristic tensors from Koszul coefficients, one-form jets and pi^h = ``piu``."""
    piv, pi2 = pij.values, (pij.values * piu).sum(axis=1)
    lower = (covariant_oneform(nab, pij) - piv[:, :, None] * piv[:, None, :]
             + 0.5 * frame.gv * pi2[:, None, None])
    mixed = lower @ frame.ginv
    return CharacteristicTensor(lower, mixed, np.einsum("...ii->...", mixed), pi2, frame.gv)


def characteristic_tensor(spec: ManifoldSpec, pi: OneFormData, point) -> CharacteristicTensor:
    return _row(Evaluation(spec, pi, np.asarray(point)[None]).read("ct"))


def _require_rank(ell: int, minimum: int, what: str):
    if ell < minimum:
        raise RankTooSmall(f"{what} needs horizontal rank >= {minimum}, got {ell}")


def _diagonal(T: np.ndarray, axis1: int, axis2: int) -> np.ndarray:
    """Writable view of a C-contiguous T where two axes agree."""
    shape, strides = list(T.shape), list(T.strides)
    strides[axis1] += strides[axis2]
    del shape[axis2], strides[axis2]
    return np.ndarray(shape, T.dtype, T, 0, strides)


def delta_g(A=None, g=None, B=None, K=None, base=None, J=None) -> np.ndarray:
    """base + (g_ik B_j^h - g_jk B_i^h) + delta_j^h A_ik - delta_i^h A_jk
    + delta_j^h J_ik + delta_k^h K_ij in that order, with A, g, B, J, K
    (..., ell, ell) and base (..., ell, ell, ell, ell) on one leading shape;
    absent terms (g goes with B) are left out.

    The pattern every tensor below is assembled from; linear in (A, B, J, K), so
    a sum of such terms is one call on the summed coefficients.  Built (from zeros
    without base and B) on copies with the leading axes flattened last, as
    :func:`~srclab.manifold.permuted_sum` makes them, each step looping over the
    points; returned as a new C-contiguous array, points first, no argument written."""
    copies = []
    for x, axes in ((A, 2), (g, 2), (B, 2), (K, 2), (base, 4), (J, 2)):
        if x is not None:
            lead, ell = x.shape[:-axes], x.shape[-1]
            x = x.reshape(-1, *(ell,) * axes).transpose(_points_last(axes + 1, None)).copy()
        copies.append(x)
    (A, g, B, K, base, J), n = copies, math.prod(lead)
    if B is not None:
        t = g[:, None, :, None] * B[None, :, None, :]
        # g_ik B_j^h - g_jk B_i^h, then base (a + b is b + a, bit for bit)
        out = t - t.swapaxes(0, 1) if base is None else t - t.swapaxes(0, 1) + base
    else:
        out = np.zeros((ell,) * 4 + (n,)) if base is None else base
    if A is not None:
        _diagonal(out, 1, 3)[...] += A[:, None]
        _diagonal(out, 0, 3)[...] -= A[None]
    if J is not None:
        _diagonal(out, 1, 3)[...] += J[:, None]
    if K is not None:
        _diagonal(out, 2, 3)[...] += K[:, :, None]
    return np.ascontiguousarray(out.reshape(ell ** 4, n).T).reshape(lead + (ell,) * 4)


def s_tensor(bundle: CurvatureBundle, spec: ManifoldSpec, point) -> np.ndarray:
    """The curvature/Ricci/scalar combination invariant under the transformation.

    S^h_ijk = curv - (1/(ell-2)) {delta_j^h ric_ik - delta_i^h ric_jk
              + g_ik ric_j^h - g_jk ric_i^h}
              + scalar/((ell-1)(ell-2)) (g_ik delta_j^h - g_jk delta_i^h)
    """
    ell = spec.ell
    _require_rank(ell, 3, "s_tensor")
    gv, ric = bundle.g, bundle.ricci
    A = (ric - _scalar(bundle.scalar, 2) / (ell - 1) * gv) / (ell - 2)
    return bundle.curv - delta_g(A, gv, ric @ bundle.ginv / (ell - 2))


def conformal_tensor(bundle: CurvatureBundle, spec: ManifoldSpec, point) -> np.ndarray:
    """Weyl-type conformal tensor; consumes both Ricci-type contractions."""
    ell = spec.ell
    _require_rank(ell, 3, "conformal_tensor")
    gv = bundle.g
    ric2 = bundle.second_contraction()
    A = (bundle.ricci - ric2 / ell - _scalar(bundle.scalar, 2) / (2 * (ell - 1)) * gv) / (ell - 2)
    return bundle.curv - delta_g(A, gv, A @ bundle.ginv, ric2 / -ell)


def projective_tensor(bundle: CurvatureBundle, spec: ManifoldSpec, point) -> np.ndarray:
    """W^h_ijk = curv - (1/(ell-1))(delta_j^h ric_ik - delta_i^h ric_jk)."""
    return delta_g(bundle.ricci / (1 - spec.ell), base=bundle.curv)


def curvature_relation_terms(ct: CharacteristicTensor, spec: ManifoldSpec, point) -> np.ndarray:
    """delta_j^h pi_ik - delta_i^h pi_jk + pi_j^h g_ik - pi_i^h g_jk.

    Added to the torsion-free curvature this yields the transformed one.
    """
    return delta_g(ct.pi_lower, base=ct.gpi)


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
    alpha_g = _scalar(ct.alpha, 2) * ct.g
    return delta_g(-(ct.pi_lower + 2 / (ell - 2) * alpha_g) / ell,
                   K=((ell - 2) * ct.pi_lower + alpha_g) / -ell, base=ct.gpi * (-1 / ell))


def projective_difference_formula(ct: CharacteristicTensor, spec: ManifoldSpec,
                                  point) -> np.ndarray:
    """Closed form for the projective-tensor change under the transformation.

    (1/(ell-1))(delta_j^h pi_ik - delta_i^h pi_jk)
    + (g_ik pi_j^h - g_jk pi_i^h)
    - alpha/(ell-1) (delta_j^h g_ik - delta_i^h g_jk).
    """
    A = (ct.pi_lower - _scalar(ct.alpha, 2) * ct.g) / (spec.ell - 1)
    return delta_g(A, base=ct.gpi)


def flatness_characteristic_form(bundle: CurvatureBundle) -> np.ndarray:
    """pi_ik = (1/(2-ell)) (ric_ik - scalar g_ik / (2(ell-1))): the one-form's
    characteristic tensor forced by a flat transformed connection."""
    ell = bundle.g.shape[-1]
    _require_rank(ell, 3, "flatness_characteristic_form")
    return (bundle.ricci - _scalar(bundle.scalar, 2) / (2 * (ell - 1)) * bundle.g) / (2 - ell)


TENSORS = {
    "g": "frame.gv", "ginv": "frame.ginv", "E": "frame.Ev", "Omega": "brackets.Om",
    "M": "brackets.Mc", "Lambda": "brackets.Lam", "coeff": "nab", "Gamma": "D",
    "torsion": "T_D", "K": "Kb.curv", "R": "Rb.curv", "ricci-K": "Kb.ricci", "ricci-R": "Rb.ricci",
    "scalar-K": "Kb.scalar", "scalar-R": "Rb.scalar", "S": "S_nab", "Sbar": "S_D", "C": "C_nab",
    "Cbar": "C_D", "W": "W_nab", "Wbar": "W_D", "pi-char": "ct.pi_lower", "alpha": "ct.alpha"}


# Each layer of the transformed connection D and the Koszul layer it equals when pi = 0
TWINS = {"D": "nab", "D_g": "nab_g", "T_D": "T_nab", "rawR": "rawK", "Rb": "Kb",
         "DT_D": "DT_nab", "W_D": "W_nab", "S_D": "S_nab", "C_D": "C_nab"}


class Evaluation:
    """Every tensor of a spec and one-form (absent: the zero one-form) on a stack
    of points (leading axis p), one layer per attribute, built on first use: the frame
    layers of :mod:`~srclab.manifold`, ``B`` and ``piu`` (the Koszul sum and pi^h), ``nab``
    and ``D`` (the Koszul and the transformed coefficients), their gradients ``nab_g``, ``D_g``.
    ``ev[name]`` is an ``srclab eval`` tensor, read through :data:`TENSORS` (name ->
    layer path).  A layer's rows where a layer it reads (:meth:`graph`) failed are
    meaningless; :meth:`read` raises such a point's error instead.  With ``pi_zero`` (pi
    absent, or each component the constant 0) D adds delta_i^k pi_j - g_ij pi^k = 0 to
    nabla, so each D-side layer equals its Koszul twin (:data:`TWINS`) value for value (a
    zero's sign aside): it is that twin, and the Koszul side is built once."""

    def __init__(self, spec: ManifoldSpec, pi: OneFormData | None, points):
        self.spec, self.ell, self.points = spec, spec.ell, np.asarray(points, dtype=float)
        if pi is None:
            pi = OneFormData.zero(spec.ell, spec.n)
        elif pi.ell != spec.ell:
            raise DimensionMismatch(f"one-form needs {spec.ell} components, got {pi.ell}")
        elif pi.n != spec.n:
            raise DimensionMismatch("one-form fields live on the wrong R^n")
        # each component the constant 0, tested with no Python-level call a pass
        self.pi, self.pi_zero = pi, ({*map(type, pi.exprs)} == {Const}
                                     and not any(map(attrgetter("value"), pi.exprs)))

    def __getitem__(self, name: str):
        return self.read(TENSORS[name])

    @classmethod
    @cache
    def graph(cls, pi_zero=False) -> dict[str, tuple[tuple[str, ...], frozenset[str]]]:
        """Per layer: the other layers its builder's code names, in that order (with
        ``pi_zero`` a D-side layer's twin alone), and every layer it reads, itself included."""
        code = {name: value.func.__code__.co_names for klass in cls.__mro__
                for name, value in vars(klass).items() if isinstance(value, cached_property)}
        inputs = {layer: (TWINS[layer],) if pi_zero and layer in TWINS
                  else tuple(w for w in names if w in code and w != layer)
                  for layer, names in code.items()}

        def closure(name):
            return frozenset({name}.union(*map(closure, inputs[name])))

        return {name: (inputs[name], closure(name)) for name in inputs}

    @classmethod
    def reads(cls, paths, pi_zero=False) -> tuple[str, ...]:
        """The layers whose errors void what the attribute paths (such as "Kb.curv") name
        in :meth:`graph` of ``pi_zero``, first first: the frame, then pij if any reads it."""
        pi = any("pij" in cls.graph(pi_zero)[path.partition(".")[0]][1] for path in paths)
        return ("frame", "pij")[:1 + pi]

    def read(self, path: str):
        """The layer at an attribute path such as "Kb.curv", after raising the error of the
        first point where a layer it reads (:meth:`reads` of this ``pi_zero``) failed."""
        for layer in self.reads([path], self.pi_zero):
            if errors := getattr(self, layer).errors:
                raise errors[min(errors)]
        return attrgetter(path)(self)

    sweep = cached_property(lambda ev: ev.spec._jet_program.sweep(ev.points))
    frame = cached_property(lambda ev: frame_values(ev.spec, ev.sweep))
    brackets = cached_property(lambda ev: structure_constants(ev.spec, ev.sweep, ev.frame))
    frame_g = cached_property(lambda ev: frame_derivatives(ev.frame, ev.brackets))
    pij = cached_property(lambda ev: ev.pi.batch(ev.points, ev.frame.Ev[:, :, :ev.ell]))
    B = cached_property(lambda ev: koszul_sum(ev.brackets.fdg,
                                              contract(ev.brackets.Om, ev.frame.gv)))
    nab = cached_property(lambda ev: 0.5 * contract(ev.B, ev.frame.ginv))
    nab_g = cached_property(lambda ev: koszul_grads(ev.frame, ev.brackets, ev.frame_g, ev.B))
    piu = cached_property(lambda ev: contract(ev.frame.ginv, ev.pij.values))
    D = cached_property(lambda ev: getattr(ev, TWINS["D"]) if ev.pi_zero
                        else semi(ev.frame, ev.nab, ev.pij, ev.piu))
    D_g = cached_property(lambda ev: getattr(ev, TWINS["D_g"]) if ev.pi_zero
                          else semi_grads(ev.frame, ev.brackets, ev.frame_g, ev.nab_g, ev.pij,
                                          ev.piu))
    T_nab = cached_property(lambda ev: torsion_tensor(ev.nab, ev.brackets.Om))
    T_D = cached_property(lambda ev: getattr(ev, TWINS["T_D"]) if ev.pi_zero
                          else torsion_tensor(ev.D, ev.brackets.Om))
    rawK = cached_property(lambda ev: curvature_raw(ev.nab, ev.nab_g, ev.brackets))
    rawR = cached_property(lambda ev: getattr(ev, TWINS["rawR"]) if ev.pi_zero
                           else curvature_raw(ev.D, ev.D_g, ev.brackets))
    Kb = cached_property(lambda ev: curvature_bundle(ev.frame, ev.rawK))
    Rb = cached_property(lambda ev: getattr(ev, TWINS["Rb"]) if ev.pi_zero
                         else curvature_bundle(ev.frame, ev.rawR))
    ct = cached_property(lambda ev: characteristic(ev.frame, ev.nab, ev.pij, ev.piu))
    DT_nab = cached_property(lambda ev: covariant_T(ev.nab, ev.nab_g, ev.T_nab, ev.frame_g.Om_g))
    DT_D = cached_property(lambda ev: getattr(ev, TWINS["DT_D"]) if ev.pi_zero
                           else covariant_T(ev.D, ev.D_g, ev.T_D, ev.frame_g.Om_g))
    W_nab = cached_property(lambda ev: projective_tensor(ev.Kb, ev.spec, ev.points))
    W_D = cached_property(lambda ev: getattr(ev, TWINS["W_D"]) if ev.pi_zero
                          else projective_tensor(ev.Rb, ev.spec, ev.points))
    S_nab = cached_property(lambda ev: s_tensor(ev.Kb, ev.spec, ev.points))
    S_D = cached_property(lambda ev: getattr(ev, TWINS["S_D"]) if ev.pi_zero
                          else s_tensor(ev.Rb, ev.spec, ev.points))
    C_nab = cached_property(lambda ev: conformal_tensor(ev.Kb, ev.spec, ev.points))
    C_D = cached_property(lambda ev: getattr(ev, TWINS["C_D"]) if ev.pi_zero
                          else conformal_tensor(ev.Rb, ev.spec, ev.points))
