"""Residual-checked identity suite.

Every identity the engine is built around is run as a numbered check
(C01..C18) over seeded sample points; residuals are normalized per point by
max(1, largest operand sup-norm) and aggregated by max, so adding points can
only raise residuals (a failing check never flips to passing).

Checks that are only claimed under a hypothesis (an involutive horizontal
bundle, a vanishing characteristic trace, a flat transformed connection, a
left-invariant graded frame) evaluate their assertion at the qualifying
sample points and pass vacuously when no point qualifies; the record then
shows points_evaluated == 0.  Skips are reserved for rank obstructions
(RankTooSmall on ell = 2).

Check C13 verifies the tabulated closed form for the conformal-tensor change
under the semi-symmetric transformation.  Direct evaluation shows the actual
change vanishes identically, so C13 fails whenever the one-form is nonzero;
the check is kept verbatim so reports state the discrepancy rather than hide
it (see C12/C15 for the consistent invariance statements).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .connections import (OneFormData, covariant_derivative_T, koszul_connection,
                          oneform_derivative, semi_connection, torsion)
from .curvature import (CurvatureBundle, characteristic_tensor,
                        conformal_difference_formula, conformal_tensor,
                        curvature_components_raw, curvature_relation_terms,
                        flatness_characteristic_form, projective_difference_formula,
                        projective_tensor, s_tensor, schouten_curvature)
from .errors import RankTooSmall, SrclabError
from .manifold import ManifoldSpec, _frame_at, sample_points, with_frame_data

QUALIFIER_TOL = 1e-12     # hypothesis detection (alpha = 0, proportionality, M = 0)
HYPOTHESIS_REL = 1e-9     # "R vanishes" / "R equals K" qualifiers


@dataclass(frozen=True)
class SuiteConfig:
    points: int = 20
    seed: int = 0
    tol: float | None = None            # overrides every check tolerance when set
    flags: frozenset[str] = frozenset()


@dataclass(frozen=True)
class CheckSpec:
    id: str
    description: str
    paper_ref: str
    required_rank: int = 2
    needs_pi: bool = False
    tolerance: float = 1e-9


@dataclass(frozen=True)
class CheckRecord:
    id: str
    description: str
    paper_ref: str
    max_abs_residual: float
    max_rel_residual: float
    points_evaluated: int
    tolerance: float
    passed: bool
    skipped_reason: str | None = None

    @property
    def skipped(self) -> bool:
        return self.skipped_reason is not None


@dataclass(frozen=True)
class Report:
    manifold: str
    seed: int
    points: int
    checks: tuple[CheckRecord, ...]
    warnings: tuple[str, ...]
    jet_order: int = 2

    def passed(self) -> bool:
        return all(r.passed or r.skipped for r in self.checks)

    def record(self, check_id: str) -> CheckRecord:
        for r in self.checks:
            if r.id == check_id:
                return r
        raise KeyError(check_id)

    def to_json_dict(self, timestamp: str) -> dict:
        return {
            "schema_version": 1,
            "manifold": self.manifold,
            "seed": self.seed,
            "points": self.points,
            "jet_order": self.jet_order,
            "checks": [
                {
                    "id": r.id,
                    "description": r.description,
                    "paper_ref": r.paper_ref,
                    "max_abs_residual": r.max_abs_residual,
                    "max_rel_residual": r.max_rel_residual,
                    "tolerance": r.tolerance,
                    "pass": bool(r.passed),
                    "skipped_reason": r.skipped_reason,
                }
                for r in self.checks
            ],
            "warnings": list(self.warnings),
            "timestamp": timestamp,
        }


def _res(diff, *operands):
    """(abs, denom): sup-norm of the residual and the normalization."""
    a = float(np.abs(diff).max()) if np.ndim(diff) else abs(float(diff))
    denom = 1.0
    for op in operands:
        m = float(np.abs(op).max()) if np.ndim(op) else abs(float(op))
        denom = max(denom, m)
    return a, denom


class _PointEval:
    """Lazy per-point evaluation shared by all checks."""

    def __init__(self, spec, pi, nab, D, point):
        self.spec = spec
        self.pi = pi
        self.nab = nab
        self.D = D
        self.point = point
        self.ell = spec.ell

    @cached_property
    def data(self):
        return _frame_at(self.spec, self.point)

    @cached_property
    def co_nab(self):
        return self.nab.coefficients(self.point)

    @cached_property
    def co_D(self):
        return self.D.coefficients(self.point)

    @cached_property
    def Kb(self) -> CurvatureBundle:
        return schouten_curvature(self.nab, self.point)

    @cached_property
    def Rb(self) -> CurvatureBundle:
        return schouten_curvature(self.D, self.point)

    @cached_property
    def rawK(self):
        return curvature_components_raw(self.nab, self.point)

    @cached_property
    def rawR(self):
        return curvature_components_raw(self.D, self.point)

    @cached_property
    def ct(self):
        return characteristic_tensor(self.spec, self.pi, self.point)

    @cached_property
    def piv(self):
        return self.pi.values(self.point)

    @cached_property
    def pi_norm2(self):
        return float(self.piv @ (self.data.ginv @ self.piv))

    @cached_property
    def S_nab(self):
        return s_tensor(self.Kb, self.spec, self.point)

    @cached_property
    def S_D(self):
        return s_tensor(self.Rb, self.spec, self.point)

    @cached_property
    def C_nab(self):
        return conformal_tensor(self.Kb, self.spec, self.point)

    @cached_property
    def C_D(self):
        return conformal_tensor(self.Rb, self.spec, self.point)

    @cached_property
    def W_nab(self):
        return projective_tensor(self.Kb, self.spec, self.point)

    @cached_property
    def W_D(self):
        return projective_tensor(self.Rb, self.spec, self.point)

    @cached_property
    def torsion_D(self):
        return torsion(self.D, self.point)

    @cached_property
    def DT_D(self):
        return covariant_derivative_T(self.D, self.point)

    @cached_property
    def DT_nab(self):
        return covariant_derivative_T(self.nab, self.point)

    @cached_property
    def dpi_D(self):
        return oneform_derivative(self.D, self.point)


# --------------------------------------------------------------------------
# The check table
# --------------------------------------------------------------------------

def _c01(pe):
    d = pe.data
    resid = (d.fdg - np.einsum("kie,ej->kij", pe.co_nab, d.gv)
             - np.einsum("kje,ei->kij", pe.co_nab, d.gv))
    return _res(resid, d.fdg, pe.co_nab, d.gv)


def _c02(pe):
    resid = pe.co_nab - pe.co_nab.transpose(1, 0, 2) - pe.data.Om
    return _res(resid, pe.co_nab, pe.data.Om)


def _c03(pe):
    d = pe.data
    resid = (d.fdg - np.einsum("kie,ej->kij", pe.co_D, d.gv)
             - np.einsum("kje,ei->kij", pe.co_D, d.gv))
    return _res(resid, d.fdg, pe.co_D, d.gv)


def _c04(pe):
    eye = np.eye(pe.ell)
    want = np.einsum("ik,j->ijk", eye, pe.piv) - np.einsum("jk,i->ijk", eye, pe.piv)
    return _res(pe.torsion_D - want, pe.torsion_D, pe.piv)


def _c05(pe):
    rk = pe.rawK + pe.rawK.transpose(1, 0, 2, 3)
    rr = pe.rawR + pe.rawR.transpose(1, 0, 2, 3)
    a1, d1 = _res(rk, pe.rawK)
    a2, d2 = _res(rr, pe.rawR)
    return max(a1, a2), max(d1, d2)


def _c06(pe):
    cv = pe.Kb.curv
    lw = pe.Kb.lowered
    cyc = cv + cv.transpose(1, 2, 0, 3) + cv.transpose(2, 0, 1, 3)
    cycl = lw + lw.transpose(1, 2, 0, 3) + lw.transpose(2, 0, 1, 3)
    a1, d1 = _res(cyc, cv)
    a2, d2 = _res(cycl, lw)
    return max(a1, a2), max(d1, d2)


def _c07(pe):
    ric = pe.Kb.ricci
    ric2 = pe.Kb.second_contraction()
    a1, d1 = _res(ric2 + ric2.T, ric2, ric)
    a2, d2 = _res(ric2 - (ric - ric.T), ric2, ric)
    return max(a1, a2), max(d1, d2)


def _c08(pe):
    if float(np.abs(pe.data.Mc).max(initial=0.0)) > QUALIFIER_TOL:
        return None                      # vertical bracket part present
    lw = pe.Kb.lowered
    return _res(lw + lw.transpose(0, 1, 3, 2), lw)


def _c09(pe):
    want = curvature_relation_terms(pe.ct, pe.spec, pe.point)
    return _res(pe.Rb.curv - pe.Kb.curv - want, pe.Rb.curv, pe.Kb.curv, want)


def _c10(pe):
    want = (pe.ell - 2) * pe.ct.pi_lower + pe.ct.alpha * pe.data.gv
    return _res(pe.Rb.ricci - pe.Kb.ricci - want, pe.Rb.ricci, pe.Kb.ricci, want)


def _c11(pe):
    diff = pe.Rb.scalar - pe.Kb.scalar - 2 * (pe.ell - 1) * pe.ct.alpha
    return _res(diff, pe.Rb.scalar, pe.Kb.scalar, pe.ct.alpha)


def _c12(pe):
    return _res(pe.S_D - pe.S_nab, pe.S_D, pe.S_nab)


def _c13(pe):
    want = conformal_difference_formula(pe.ct, pe.spec, pe.point)
    return _res(pe.C_D - pe.C_nab - want, pe.C_D, pe.C_nab, want)


def _c14(pe):
    want = projective_difference_formula(pe.ct, pe.spec, pe.point)
    return _res(pe.W_D - pe.W_nab - want, pe.W_D, pe.W_nab, want)


def _c15(pe):
    if abs(pe.ct.alpha) > QUALIFIER_TOL:
        return None
    return _res(pe.C_D - pe.C_nab, pe.C_D, pe.C_nab)


def _c16(pe):
    prop = pe.ct.pi_lower - (pe.ct.alpha / pe.ell) * pe.data.gv
    if float(np.abs(prop).max()) > QUALIFIER_TOL:
        return None
    return _res(pe.W_D - pe.W_nab, pe.W_D, pe.W_nab)


def _c17(pe):
    parts = []
    a_rk, d_rk = _res(pe.Rb.curv - pe.Kb.curv, pe.Rb.curv, pe.Kb.curv)
    if a_rk / d_rk <= HYPOTHESIS_REL:                   # equal curvature tensors
        parts.append((abs(pe.ct.alpha), 1.0))
    if pe.ell >= 3:
        a_r, d_r = _res(pe.Rb.curv, pe.Rb.curv)
        if a_r / d_r <= HYPOTHESIS_REL:                 # flat transformed connection
            parts.append(_res(pe.S_nab, pe.S_nab))
            want = flatness_characteristic_form(pe.Kb, pe.spec, pe.point)
            parts.append(_res(pe.ct.pi_lower - want, pe.ct.pi_lower, want))
    if not parts:
        return None
    return max(p[0] for p in parts), max(p[1] for p in parts)


def _c18(pe):
    eye = np.eye(pe.ell)
    want = (np.einsum("ik,jh->ijkh", pe.dpi_D, eye)
            - np.einsum("ij,kh->ijkh", pe.dpi_D, eye))
    parts = [_res(pe.DT_D - want, pe.DT_D, want)]
    a_r, d_r = _res(pe.Rb.curv, pe.Rb.curv)
    a_t, d_t = _res(pe.DT_D, pe.DT_D)
    if a_r / d_r <= HYPOTHESIS_REL and a_t / d_t <= HYPOTHESIS_REL:
        # flat + parallel torsion: characteristic tensor and constant curvature
        p2 = pe.pi_norm2
        parts.append(_res(pe.ct.pi_lower + 0.5 * pe.data.gv * p2,
                          pe.ct.pi_lower, pe.data.gv))
        const_form = p2 * (np.einsum("ik,jh->ijkh", pe.data.gv, eye)
                           - np.einsum("jk,ih->ijkh", pe.data.gv, eye))
        parts.append(_res(pe.Kb.curv - const_form, pe.Kb.curv, const_form))
        parts.append(_res(pe.W_nab, pe.W_nab))
    return max(p[0] for p in parts), max(p[1] for p in parts)


def _c18_flagged(pe):
    # left-invariant graded frame expectation: flat, parallel-torsion Koszul connection
    a1, d1 = _res(pe.Kb.curv, pe.Kb.curv)
    a2, d2 = _res(pe.DT_nab, pe.DT_nab)
    return max(a1, a2), max(d1, d2)


@dataclass(frozen=True)
class _Check:
    meta: CheckSpec
    fn: object


CHECKS: tuple[_Check, ...] = (
    _Check(CheckSpec(
        "C01", "metric compatibility of the torsion-free horizontal connection",
        "e_k(g_ij) = {_ki^e} g_ej + {_kj^e} g_ie"), _c01),
    _Check(CheckSpec(
        "C02", "vanishing torsion of the horizontal connection",
        "{_ij^k} - {_ji^k} = Omega_ij^k", tolerance=1e-10), _c02),
    _Check(CheckSpec(
        "C03", "metric compatibility of the semi-symmetric connection",
        "e_k(g_ij) = Gamma_ki^e g_ej + Gamma_kj^e g_ie", needs_pi=True), _c03),
    _Check(CheckSpec(
        "C04", "semi-symmetric form of the transformed torsion",
        "T_ij^k = delta_i^k pi_j - delta_j^k pi_i (corrected reading of the "
        "defining display, forced by the transformation rule)",
        needs_pi=True, tolerance=1e-10), _c04),
    _Check(CheckSpec(
        "C05", "curvature antisymmetry in the first index pair, recomputed unmirrored",
        "K^h_ijk = -K^h_jik and R^h_ijk = -R^h_jik", tolerance=1e-10), _c05),
    _Check(CheckSpec(
        "C06", "first Bianchi identity of the horizontal connection, mixed and lowered",
        "K^h_ijk + K^h_jki + K^h_kij = 0;  K(X,Y,Z,W) + K(Y,Z,X,W) + K(Z,X,Y,W) = 0"),
        _c06),
    _Check(CheckSpec(
        "C07", "third-slot trace: antisymmetry and contraction identity",
        "K^e_kie = K^e_kei - K^e_iek;  K^e_kie + K^e_ike = 0"), _c07),
    _Check(CheckSpec(
        "C08", "pair antisymmetry of the lowered curvature on involutive horizontal bundles",
        "K(X,Y,Z,W) = -K(X,Y,W,Z) when the vertical bracket part M vanishes"), _c08),
    _Check(CheckSpec(
        "C09", "curvature change under the semi-symmetric transformation",
        "R^h_ijk = K^h_ijk + delta_j^h pi_ik - delta_i^h pi_jk + pi_j^h g_ik - pi_i^h g_jk",
        needs_pi=True), _c09),
    _Check(CheckSpec(
        "C10", "Ricci-trace change under the transformation",
        "R^e_iek = K^e_iek + (ell-2) pi_ik + alpha g_ik", needs_pi=True), _c10),
    _Check(CheckSpec(
        "C11", "scalar-curvature change under the transformation",
        "R = K + 2(ell-1) alpha", needs_pi=True), _c11),
    _Check(CheckSpec(
        "C12", "invariance of the S-tensor under the transformation",
        "S^h_ijk built from either connection agrees (curv - Ricci/scalar combination)",
        required_rank=3, needs_pi=True), _c12),
    _Check(CheckSpec(
        "C13", "tabulated closed form for the conformal-tensor change "
        "(inconsistent with the definitional displays: the measured change is zero, "
        "so this check fails whenever the one-form is nonzero)",
        "Cbar - C = -(1/ell)(delta_j^h pi_ik - delta_i^h pi_jk + g_ik pi_j^h - g_jk pi_i^h) "
        "- 2 alpha/(ell(ell-2)) (delta_j^h g_ik - delta_i^h g_jk) "
        "- ((ell-2)/ell) delta_k^h pi_ij - (alpha/ell) delta_k^h g_ij",
        required_rank=3, needs_pi=True), _c13),
    _Check(CheckSpec(
        "C14", "closed form for the projective-tensor change",
        "Wbar - W = (1/(ell-1))(delta_j^h pi_ik - delta_i^h pi_jk) "
        "+ (g_ik pi_j^h - g_jk pi_i^h) - alpha/(ell-1)(delta_j^h g_ik - delta_i^h g_jk)",
        needs_pi=True), _c14),
    _Check(CheckSpec(
        "C15", "equal conformal tensors where the characteristic trace vanishes",
        "alpha = 0  =>  Cbar = C", required_rank=3, needs_pi=True), _c15),
    _Check(CheckSpec(
        "C16", "equal projective tensors where the characteristic tensor is "
        "metric-proportional",
        "pi_ik = (alpha/ell) g_ik  =>  Wbar = W", needs_pi=True), _c16),
    _Check(CheckSpec(
        "C17", "flatness consequences: equal curvatures force alpha = 0; a flat "
        "transformed connection forces S = 0 and pins the characteristic tensor",
        "R^h_ijk = K^h_ijk => alpha = 0;  R^h_ijk = 0 => S^h_ijk = 0 and "
        "pi_ik = (1/(2-ell))(K^e_iek - K g_ik / (2(ell-1)))",
        needs_pi=True, tolerance=1e-8), _c17),
    _Check(CheckSpec(
        "C18", "parallel torsion and group-manifold consequences",
        "(D_i T)_jk^h = (D_i pi_k) delta_j^h - (D_i pi_j) delta_k^h;  flat D with "
        "parallel torsion => pi_ij = -(1/2) g_ij pi_e pi^e, "
        "K^h_ijk = pi_e pi^e (delta_j^h g_ik - delta_i^h g_jk), W = 0;  "
        "on flagged left-invariant graded frames K = 0 and (nabla T) = 0",
        needs_pi=True), _c18),
)

CHECK_IDS = tuple(c.meta.id for c in CHECKS)


class _Outcome:
    __slots__ = ("max_abs", "max_rel", "count", "errors")

    def __init__(self):
        self.max_abs = 0.0
        self.max_rel = 0.0
        self.count = 0
        self.errors: list[str] = []

    def update(self, abs_res, denom):
        self.max_abs = max(self.max_abs, abs_res)
        self.max_rel = max(self.max_rel, abs_res / denom)
        self.count += 1


def run_suite(spec: ManifoldSpec, pi: OneFormData | None = None,
              config: SuiteConfig | None = None) -> Report:
    """Run every check at seeded sample points and aggregate a Report.

    With ``pi`` absent the pi-dependent checks run with the zero one-form.
    Evaluation errors mark the affected check failed (with the error in the
    report warnings) and never abort the suite.
    """
    config = config or SuiteConfig()
    pi_data = pi if pi is not None else OneFormData.zero(spec.ell, spec.n)
    nab = koszul_connection(spec)
    D = semi_connection(spec, pi_data)
    pts = sample_points(spec, config.points, config.seed)

    skipped: dict[str, str] = {}
    for check in CHECKS:
        if spec.ell < check.meta.required_rank:
            skipped[check.meta.id] = "RankTooSmall"
    outcomes = {check.meta.id: _Outcome() for check in CHECKS}
    warnings: list[str] = []

    flagged_carnot = "carnot" in config.flags
    for point in with_frame_data(spec, pts):
        pe = _PointEval(spec, pi_data, nab, D, point)
        point_warn = None
        for check in CHECKS:
            if check.meta.id in skipped:
                continue
            out = outcomes[check.meta.id]
            try:
                result = check.fn(pe)
                if check.meta.id == "C18" and flagged_carnot:
                    extra = _c18_flagged(pe)
                    result = ((max(result[0], extra[0]), max(result[1], extra[1]))
                              if result else extra)
            except (SrclabError, np.linalg.LinAlgError) as exc:
                out.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            if result is not None:
                out.update(*result)
        try:
            point_warn = pe.data.warnings
        except (SrclabError, np.linalg.LinAlgError):
            point_warn = ()
        for w in point_warn:
            if w not in warnings:
                warnings.append(w)

    records = []
    for check in CHECKS:
        meta = check.meta
        tol = config.tol if config.tol is not None else meta.tolerance
        if meta.id in skipped:
            records.append(CheckRecord(meta.id, meta.description, meta.paper_ref,
                                       0.0, 0.0, 0, tol, False, skipped[meta.id]))
            continue
        out = outcomes[meta.id]
        if out.errors:
            warnings.append(f"{meta.id}: {out.errors[0]}")
            records.append(CheckRecord(meta.id, meta.description, meta.paper_ref,
                                       float("inf"), float("inf"), out.count, tol, False))
            continue
        records.append(CheckRecord(meta.id, meta.description, meta.paper_ref,
                                   out.max_abs, out.max_rel, out.count, tol,
                                   out.max_rel <= tol))
    return Report(spec.name, config.seed, config.points, tuple(records), tuple(warnings))


# --------------------------------------------------------------------------
# Standalone structured checks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupManifoldResult:
    verdict: str              # "holds at samples" | "fails" | "inconclusive"
    evidence: dict


def check_group_manifold(spec: ManifoldSpec, pi: OneFormData | None = None,
                         config: SuiteConfig | None = None,
                         tolerance: float = 1e-10) -> GroupManifoldResult:
    """Vanishing curvature and parallel torsion for the designated connection.

    pi absent designates the Koszul connection, otherwise the transformed one.
    Numerical zero at every sample is evidence, not proof, hence the verdict
    wording "holds at samples".
    """
    config = config or SuiteConfig()
    conn = (koszul_connection(spec) if pi is None
            else semi_connection(spec, pi))
    pts = sample_points(spec, config.points, config.seed)
    max_curv = 0.0
    max_dt = 0.0
    errors: list[str] = []
    for point in with_frame_data(spec, pts):
        try:
            bundle = schouten_curvature(conn, point)
            dt = covariant_derivative_T(conn, point)
        except (SrclabError, np.linalg.LinAlgError) as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
            continue
        max_curv = max(max_curv, float(np.abs(bundle.curv).max()))
        max_dt = max(max_dt, float(np.abs(dt).max()))
    evidence = {"max_curvature": max_curv, "max_torsion_derivative": max_dt,
                "points": config.points, "errors": errors}
    if errors:
        return GroupManifoldResult("inconclusive", evidence)
    if max(max_curv, max_dt) <= tolerance:
        return GroupManifoldResult("holds at samples", evidence)
    return GroupManifoldResult("fails", evidence)


@dataclass(frozen=True)
class FlatnessResult:
    per_point: tuple[tuple[bool, bool, bool], ...]   # (R_zero, S_zero, pi_matches)
    implication_holds: bool


def check_flatness_criterion(spec: ManifoldSpec, pi: OneFormData | None = None,
                             config: SuiteConfig | None = None,
                             tolerance: float = 1e-9) -> FlatnessResult:
    """Per point: is R zero, is S zero, does pi_ik match the forced form;
    the verdict asserts R_zero => (S_zero and pi_matches) at every sample."""
    if spec.ell < 3:
        raise RankTooSmall(f"flatness criterion needs rank >= 3, got {spec.ell}")
    config = config or SuiteConfig()
    pi_data = pi if pi is not None else OneFormData.zero(spec.ell, spec.n)
    nab = koszul_connection(spec)
    D = semi_connection(spec, pi_data)
    rows = []
    ok = True
    for point in with_frame_data(spec, sample_points(spec, config.points, config.seed)):
        Rb = schouten_curvature(D, point)
        Kb = schouten_curvature(nab, point)
        ct = characteristic_tensor(spec, pi_data, point)
        r_zero = float(np.abs(Rb.curv).max()) <= tolerance
        s_zero = float(np.abs(s_tensor(Kb, spec, point)).max()) \
            <= tolerance * max(1.0, float(np.abs(Kb.curv).max()))
        want = flatness_characteristic_form(Kb, spec, point)
        pi_match = float(np.abs(ct.pi_lower - want).max()) \
            <= tolerance * max(1.0, float(np.abs(want).max()))
        rows.append((r_zero, s_zero, pi_match))
        if r_zero and not (s_zero and pi_match):
            ok = False
    return FlatnessResult(tuple(rows), ok)
