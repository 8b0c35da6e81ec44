"""Residual-checked identity suite.

Every identity the engine is built around is run as a numbered check
(C01..C18) over seeded sample points; residuals are normalized per point by
max(1, largest operand sup-norm) and aggregated by max, so adding points can
only raise residuals (a failing check never flips to passing).

The sample points are evaluated FRAME_CHUNK at a time: one batched pass
(:class:`_Pass`) computes every tensor the checks read with a leading point
axis, each check turns it into per-point (abs, denom) arrays and, if it is
conditional, a mask of the qualifying points, and :class:`_Outcome` reduces
them over the points.  A point where a layer a check reads failed (its
frame data, or the one-form for the checks that read it) or where the
check's values are not finite counts as an error for that check only.

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

import numpy as np

from .connections import ConnectionField, OneFormData, koszul_connection, semi_connection
from .curvature import (characteristic, conformal_difference_formula, conformal_tensor,
                        curvature_bundle, curvature_raw, curvature_relation_terms, delta_g,
                        delta_k, flatness_characteristic_form, projective_difference_formula,
                        projective_tensor, s_tensor)
from .errors import RankTooSmall, ValidationError
from .manifold import FRAME_CHUNK, ManifoldSpec, _frame_data, contract, sample_points

QUALIFIER_TOL = 1e-12     # hypothesis detection (alpha = 0, proportionality, M = 0)
HYPOTHESIS_REL = 1e-9     # "R vanishes" / "R equals K" qualifiers


@dataclass(frozen=True)
class SuiteConfig:
    points: int = 20
    seed: int = 0
    tol: float | None = None            # overrides every check tolerance when set
    flags: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.points < 1:
            raise ValidationError(f"need at least 1 sample point, got {self.points}")


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


def _sup(x) -> np.ndarray:
    """Per-point sup-norm of a stack, or the magnitude of per-point scalars."""
    return np.abs(x).reshape(len(x), -1).max(axis=1)


def _res(diff, *operands):
    """Per point (abs, denom): sup-norm of the residual and the normalization,
    max(1, largest operand sup-norm).  A non-finite value anywhere makes one
    of the two non-finite, which fails the point."""
    P = len(diff)
    ops = np.concatenate([np.reshape(x, (P, -1)) for x in operands], axis=1)
    return _sup(diff), np.maximum(np.abs(ops).max(axis=1), 1.0)


def _rel(result) -> np.ndarray:
    """abs / denom of a result, NaN where either is not finite, so no
    hypothesis on it holds."""
    a, d = result
    return np.where(np.isfinite(a + d), a / d, np.nan)


def _gate(result, mask):
    """A result that counts only where ``mask`` holds: (0, 1) elsewhere,
    which no max over results notices."""
    return np.where(mask, result[0], 0.0), np.where(mask, result[1], 1.0)


def _worst(*parts):
    """Pointwise max of (abs, denom) results; NaN and inf propagate."""
    return np.maximum.reduce([a for a, _ in parts]), np.maximum.reduce([d for _, d in parts])


def _messages(errors) -> dict[int, str]:
    return {i: f"{type(exc).__name__}: {exc}" for i, exc in errors.items()}


class _Pass:
    """Every tensor the checks read, on one chunk of sample points (leading
    axis p), computed in one batched pass."""

    def __init__(self, spec: ManifoldSpec, nab: ConnectionField, D: ConnectionField,
                 points: np.ndarray, carnot: bool):
        self.spec, self.ell, self.points, self.carnot = spec, spec.ell, points, carnot
        self.frame = frame = _frame_data(spec, points)
        self.pij = pij = D.oneform.batch(points)
        self.errors = {"frame": _messages(frame.errors), "pi": _messages(pij.errors)}
        self.nab, self.D = nab.batch(frame), D.batch(frame, pij)
        self.rawK, self.rawR = curvature_raw(self.nab), curvature_raw(self.D)
        self.Kb = curvature_bundle(self.nab, self.rawK)
        self.Rb = curvature_bundle(self.D, self.rawR)
        self.ct = characteristic(frame, pij)
        self.W_nab = projective_tensor(self.Kb, spec, points)
        self.W_D = projective_tensor(self.Rb, spec, points)
        self.DT_D = self.D.covariant_T()
        if self.ell >= 3:
            self.S_nab = s_tensor(self.Kb, spec, points)
            self.C_nab = conformal_tensor(self.Kb, spec, points)
            self.C_D = conformal_tensor(self.Rb, spec, points)

    def failures(self, reads) -> dict[int, str]:
        """The error message of each point where a layer in ``reads`` failed;
        where several did, the first in ``reads``."""
        out: dict[int, str] = {}
        for layer in reversed(reads):
            out.update(self.errors[layer])
        return out


def _passes(spec: ManifoldSpec, pi: OneFormData | None, config: SuiteConfig):
    """The batched passes over the config's sample points; ``pi`` absent
    means the zero one-form."""
    pi = pi if pi is not None else OneFormData.zero(spec.ell, spec.n)
    nab, D = koszul_connection(spec), semi_connection(spec, pi)
    points = sample_points(spec, config.points, config.seed)
    for start in range(0, len(points), FRAME_CHUNK):
        yield _Pass(spec, nab, D, points[start:start + FRAME_CHUNK], "carnot" in config.flags)


def _quiet():
    """Silence numpy's floating-point warnings: the checks report non-finite
    values at their points themselves."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


# --------------------------------------------------------------------------
# The check table
# --------------------------------------------------------------------------

FRAME, FRAME_PI, PI_FRAME = ("frame",), ("frame", "pi"), ("pi", "frame")


def _metricity(ev, co):
    """e_k(g_ij) - co[k,i,e] g_ej - co[k,j,e] g_ie."""
    f = ev.frame
    t = contract(co, f.gv)
    return _res(f.fdg - t - t.transpose(0, 1, 3, 2), f.fdg, co, f.gv)


def _c01(ev):
    return _metricity(ev, ev.nab.jets.values)


def _c02(ev):
    return _res(ev.nab.torsion(), ev.nab.jets.values, ev.frame.Om)


def _c03(ev):
    return _metricity(ev, ev.D.jets.values)


def _c04(ev):
    piv = ev.pij.values
    t = np.eye(ev.ell)[:, None, :] * piv[:, None, :, None]       # delta_i^k pi_j
    want = t - t.transpose(0, 2, 1, 3)
    tor = ev.D.torsion()
    return _res(tor - want, tor, piv)


def _c05(ev):
    rawK, rawR = ev.rawK, ev.rawR
    return _worst(_res(rawK + rawK.transpose(0, 2, 1, 3, 4), rawK),
                  _res(rawR + rawR.transpose(0, 2, 1, 3, 4), rawR))


def _c06(ev):
    lw = ev.Kb.lowered
    cycl = lw + lw.transpose(0, 2, 3, 1, 4) + lw.transpose(0, 3, 1, 2, 4)
    return _worst(_res(ev.Kb.bianchi_residual, ev.Kb.curv), _res(cycl, lw))


def _c07(ev):
    ric = ev.Kb.ricci
    ric2 = ev.Kb.second_contraction()
    return _worst(_res(ric2 + ric2.transpose(0, 2, 1), ric2, ric),
                  _res(ric2 - (ric - ric.transpose(0, 2, 1)), ric2, ric))


def _c08(ev):
    lw = ev.Kb.lowered
    involutive = ~(_sup(ev.frame.Mc) > QUALIFIER_TOL)       # no vertical bracket part
    return (*_res(lw + lw.transpose(0, 1, 2, 4, 3), lw), involutive)


def _c09(ev):
    want = curvature_relation_terms(ev.ct, ev.spec, ev.points)
    return _res(ev.Rb.curv - ev.Kb.curv - want, ev.Rb.curv, ev.Kb.curv, want)


def _c10(ev):
    want = (ev.ell - 2) * ev.ct.pi_lower + ev.ct.alpha[:, None, None] * ev.frame.gv
    return _res(ev.Rb.ricci - ev.Kb.ricci - want, ev.Rb.ricci, ev.Kb.ricci, want)


def _c11(ev):
    diff = ev.Rb.scalar - ev.Kb.scalar - 2 * (ev.ell - 1) * ev.ct.alpha
    return _res(diff, ev.Rb.scalar, ev.Kb.scalar, ev.ct.alpha)


def _c12(ev):
    S_D = s_tensor(ev.Rb, ev.spec, ev.points)
    return _res(S_D - ev.S_nab, S_D, ev.S_nab)


def _c13(ev):
    want = conformal_difference_formula(ev.ct, ev.spec, ev.points)
    return _res(ev.C_D - ev.C_nab - want, ev.C_D, ev.C_nab, want)


def _c14(ev):
    want = projective_difference_formula(ev.ct, ev.spec, ev.points)
    return _res(ev.W_D - ev.W_nab - want, ev.W_D, ev.W_nab, want)


def _c15(ev):
    return (*_res(ev.C_D - ev.C_nab, ev.C_D, ev.C_nab),
            ~(np.abs(ev.ct.alpha) > QUALIFIER_TOL))


def _c16(ev):
    prop = ev.ct.pi_lower - (ev.ct.alpha / ev.ell)[:, None, None] * ev.frame.gv
    return (*_res(ev.W_D - ev.W_nab, ev.W_D, ev.W_nab), ~(_sup(prop) > QUALIFIER_TOL))


def _c17(ev):
    R, K, ct = ev.Rb.curv, ev.Kb.curv, ev.ct
    rk = _res(R - K, R, K)
    undecided = np.isnan(_rel(rk))                 # the hypotheses cannot be decided
    equal = _rel(rk) <= HYPOTHESIS_REL             # equal curvature tensors
    parts = [_gate((np.abs(ct.alpha), np.ones(len(R))), equal)]
    qualifies = undecided | equal
    if ev.ell >= 3:
        flat = _rel(_res(R, R)) <= HYPOTHESIS_REL  # flat transformed connection
        want = flatness_characteristic_form(ev.Kb, ev.spec, ev.points)
        parts += [_gate(_res(ev.S_nab, ev.S_nab), flat),
                  _gate(_res(ct.pi_lower - want, ct.pi_lower, want), flat)]
        qualifies = qualifies | flat
    abs_res, denom = _worst(*parts)
    return np.where(undecided, rk[0], abs_res), np.where(undecided, rk[1], denom), qualifies


def _c18(ev):
    gv, K, DT = ev.frame.gv, ev.Kb.curv, ev.DT_D
    t = delta_k(ev.D.oneform_derivative())                 # (D_i pi_j) delta_k^h
    want = t.transpose(0, 1, 3, 2, 4) - t
    parts = [_res(DT - want, DT, want)]
    # flat + parallel torsion: characteristic tensor and constant curvature
    flat_parallel = ((_rel(_res(ev.Rb.curv, ev.Rb.curv)) <= HYPOTHESIS_REL)
                     & (_rel(_res(DT, DT)) <= HYPOTHESIS_REL))
    piv = ev.pij.values
    p2 = (piv * contract(ev.frame.ginv, piv)).sum(axis=1)
    const_form = p2[:, None, None, None, None] * delta_g(gv)
    parts += [_gate(r, flat_parallel) for r in (
        _res(ev.ct.pi_lower + 0.5 * gv * p2[:, None, None], ev.ct.pi_lower, gv),
        _res(K - const_form, K, const_form),
        _res(ev.W_nab, ev.W_nab))]
    if ev.carnot:       # expected there: a flat, parallel-torsion Koszul connection
        DT_nab = ev.nab.covariant_T()
        parts += [_res(K, K), _res(DT_nab, DT_nab)]
    return _worst(*parts)


@dataclass(frozen=True)
class _Check:
    meta: CheckSpec
    fn: object
    reads: tuple[str, ...] = FRAME      # layers whose errors fail the check, first first


CHECKS: tuple[_Check, ...] = (
    _Check(CheckSpec(
        "C01", "metric compatibility of the torsion-free horizontal connection",
        "e_k(g_ij) = {_ki^e} g_ej + {_kj^e} g_ie"), _c01),
    _Check(CheckSpec(
        "C02", "vanishing torsion of the horizontal connection",
        "{_ij^k} - {_ji^k} = Omega_ij^k", tolerance=1e-10), _c02),
    _Check(CheckSpec(
        "C03", "metric compatibility of the semi-symmetric connection",
        "e_k(g_ij) = Gamma_ki^e g_ej + Gamma_kj^e g_ie", needs_pi=True), _c03, FRAME_PI),
    _Check(CheckSpec(
        "C04", "semi-symmetric form of the transformed torsion",
        "T_ij^k = delta_i^k pi_j - delta_j^k pi_i (corrected reading of the "
        "defining display, forced by the transformation rule)",
        needs_pi=True, tolerance=1e-10), _c04, PI_FRAME),
    _Check(CheckSpec(
        "C05", "curvature antisymmetry in the first index pair, recomputed unmirrored",
        "K^h_ijk = -K^h_jik and R^h_ijk = -R^h_jik", tolerance=1e-10), _c05, FRAME_PI),
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
        needs_pi=True), _c09, FRAME_PI),
    _Check(CheckSpec(
        "C10", "Ricci-trace change under the transformation",
        "R^e_iek = K^e_iek + (ell-2) pi_ik + alpha g_ik", needs_pi=True), _c10, FRAME_PI),
    _Check(CheckSpec(
        "C11", "scalar-curvature change under the transformation",
        "R = K + 2(ell-1) alpha", needs_pi=True), _c11, FRAME_PI),
    _Check(CheckSpec(
        "C12", "invariance of the S-tensor under the transformation",
        "S^h_ijk built from either connection agrees (curv - Ricci/scalar combination)",
        required_rank=3, needs_pi=True), _c12, FRAME_PI),
    _Check(CheckSpec(
        "C13", "tabulated closed form for the conformal-tensor change "
        "(inconsistent with the definitional displays: the measured change is zero, "
        "so this check fails whenever the one-form is nonzero)",
        "Cbar - C = -(1/ell)(delta_j^h pi_ik - delta_i^h pi_jk + g_ik pi_j^h - g_jk pi_i^h) "
        "- 2 alpha/(ell(ell-2)) (delta_j^h g_ik - delta_i^h g_jk) "
        "- ((ell-2)/ell) delta_k^h pi_ij - (alpha/ell) delta_k^h g_ij",
        required_rank=3, needs_pi=True), _c13, FRAME_PI),
    _Check(CheckSpec(
        "C14", "closed form for the projective-tensor change",
        "Wbar - W = (1/(ell-1))(delta_j^h pi_ik - delta_i^h pi_jk) "
        "+ (g_ik pi_j^h - g_jk pi_i^h) - alpha/(ell-1)(delta_j^h g_ik - delta_i^h g_jk)",
        needs_pi=True), _c14, FRAME_PI),
    _Check(CheckSpec(
        "C15", "equal conformal tensors where the characteristic trace vanishes",
        "alpha = 0  =>  Cbar = C", required_rank=3, needs_pi=True), _c15, FRAME_PI),
    _Check(CheckSpec(
        "C16", "equal projective tensors where the characteristic tensor is "
        "metric-proportional",
        "pi_ik = (alpha/ell) g_ik  =>  Wbar = W", needs_pi=True), _c16, FRAME_PI),
    _Check(CheckSpec(
        "C17", "flatness consequences: equal curvatures force alpha = 0; a flat "
        "transformed connection forces S = 0 and pins the characteristic tensor",
        "R^h_ijk = K^h_ijk => alpha = 0;  R^h_ijk = 0 => S^h_ijk = 0 and "
        "pi_ik = (1/(2-ell))(K^e_iek - K g_ik / (2(ell-1)))",
        needs_pi=True, tolerance=1e-8), _c17, FRAME_PI),
    _Check(CheckSpec(
        "C18", "parallel torsion and group-manifold consequences",
        "(D_i T)_jk^h = (D_i pi_k) delta_j^h - (D_i pi_j) delta_k^h;  flat D with "
        "parallel torsion => pi_ij = -(1/2) g_ij pi_e pi^e, "
        "K^h_ijk = pi_e pi^e (delta_j^h g_ik - delta_i^h g_jk), W = 0;  "
        "on flagged left-invariant graded frames K = 0 and (nabla T) = 0",
        needs_pi=True), _c18, FRAME_PI),
)

CHECK_IDS = tuple(c.meta.id for c in CHECKS)


class _Outcome:
    __slots__ = ("max_abs", "max_rel", "count", "error")

    def __init__(self):
        self.max_abs = 0.0
        self.max_rel = 0.0
        self.count = 0
        self.error: str | None = None       # the first, in point order

    def update(self, result, failed: dict[int, str], points):
        """Fold in one pass: per-point (abs, denom[, qualifies]) and the error
        message of each point where a layer the check reads failed.  A
        non-finite residual or operand scale is an error at its point."""
        abs_res, denom, *qualifies = result
        evaluated = qualifies[0].copy() if qualifies else np.ones(len(points), dtype=bool)
        if failed:
            evaluated[list(failed)] = False
        good = evaluated & np.isfinite(abs_res + denom)
        if self.error is None and (failed or good.sum() != evaluated.sum()):
            i = min([*failed, *np.flatnonzero(evaluated & ~good).tolist()])
            self.error = failed.get(i) or \
                f"non-finite residual or operand scale at {points[i].tolist()}"
        if good.any():
            self.count += int(good.sum())
            self.max_abs = max(self.max_abs, float(abs_res[good].max()))
            self.max_rel = max(self.max_rel, float((abs_res[good] / denom[good]).max()))


def run_suite(spec: ManifoldSpec, pi: OneFormData | None = None,
              config: SuiteConfig | None = None) -> Report:
    """Run every check at seeded sample points and aggregate a Report.

    With ``pi`` absent the pi-dependent checks run with the zero one-form.
    Evaluation errors and non-finite residuals mark the affected check
    failed (with the first one in the report warnings) and never abort the
    suite.
    """
    config = config or SuiteConfig()
    skipped = {c.meta.id: "RankTooSmall" for c in CHECKS if spec.ell < c.meta.required_rank}
    outcomes = {check.meta.id: _Outcome() for check in CHECKS}
    warnings: list[str] = []

    with _quiet():
        for ev in _passes(spec, pi, config):
            for check in CHECKS:
                if check.meta.id not in skipped:
                    outcomes[check.meta.id].update(check.fn(ev), ev.failures(check.reads),
                                                   ev.points)
            for w in ev.frame.warnings.values():
                if w not in warnings:
                    warnings.append(w)

    records = []
    for check in CHECKS:
        meta, out = check.meta, outcomes[check.meta.id]
        tol = config.tol if config.tol is not None else meta.tolerance
        if meta.id in skipped:
            fields = (0.0, 0.0, 0, tol, False, skipped[meta.id])
        elif out.error is not None:
            warnings.append(f"{meta.id}: {out.error}")
            fields = (float("inf"), float("inf"), out.count, tol, False)
        else:
            fields = (out.max_abs, out.max_rel, out.count, tol, out.max_rel <= tol)
        records.append(CheckRecord(meta.id, meta.description, meta.paper_ref, *fields))
    return Report(spec.name, config.seed, config.points, tuple(records), tuple(warnings))


# --------------------------------------------------------------------------
# Standalone structured checks: views over the suite's batched passes
# --------------------------------------------------------------------------

def _point_errors(ev: _Pass, reads, finite, what: str):
    """The messages of the points of a pass that fail, in point order (the
    error of a layer in ``reads``, else ``what`` not being finite), and the
    mask of the points that do not."""
    failed = ev.failures(reads)
    bad = sorted({*failed, *np.flatnonzero(~finite).tolist()})
    good = np.ones(len(ev.points), dtype=bool)
    good[bad] = False
    return [failed.get(i) or f"DomainError: {what} not finite at {ev.points[i].tolist()}"
            for i in bad], good


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
    wording "holds at samples".  An evaluation error or a non-finite value
    at a sample makes the verdict "inconclusive".
    """
    config = config or SuiteConfig()
    reads = FRAME if pi is None else FRAME_PI
    max_curv = max_dt = 0.0
    errors: list[str] = []
    with _quiet():
        for ev in _passes(spec, pi, config):
            curv, dt = (ev.Kb.curv, ev.nab.covariant_T()) if pi is None else (ev.Rb.curv, ev.DT_D)
            size_c, size_d = _sup(curv), _sup(dt)
            messages, good = _point_errors(ev, reads, np.isfinite(size_c + size_d),
                                           "curvature or torsion derivative")
            errors += messages
            if good.any():
                max_curv = max(max_curv, float(size_c[good].max()))
                max_dt = max(max_dt, float(size_d[good].max()))
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
    errors: tuple[str, ...] = ()                     # points left out of per_point


def check_flatness_criterion(spec: ManifoldSpec, pi: OneFormData | None = None,
                             config: SuiteConfig | None = None,
                             tolerance: float = 1e-9) -> FlatnessResult:
    """Per point: is R zero, is S zero, does pi_ik match the forced form;
    the verdict asserts R_zero => (S_zero and pi_matches) at every sample.

    A point where the frame or the one-form fails, or where a tensor read is
    not finite, gives an error (in ``check_group_manifold``'s form) instead
    of a row, and any error makes the verdict False.
    """
    if spec.ell < 3:
        raise RankTooSmall(f"flatness criterion needs rank >= 3, got {spec.ell}")
    config = config or SuiteConfig()
    rows: list[tuple[bool, bool, bool]] = []
    errors: list[str] = []
    with _quiet():
        for ev in _passes(spec, pi, config):
            want = flatness_characteristic_form(ev.Kb, spec, ev.points)
            r, s, k = _sup(ev.Rb.curv), _sup(ev.S_nab), _sup(ev.Kb.curv)
            d, w = _sup(ev.ct.pi_lower - want), _sup(want)
            messages, good = _point_errors(ev, FRAME_PI, np.isfinite(r + s + k + d + w),
                                           "curvature or characteristic tensor")
            errors += messages
            rows += [(bool(r[i] <= tolerance), bool(s[i] <= tolerance * max(1.0, k[i])),
                      bool(d[i] <= tolerance * max(1.0, w[i]))) for i in np.flatnonzero(good)]
    holds = not errors and all(s and m for r, s, m in rows if r)
    return FlatnessResult(tuple(rows), holds, tuple(errors))
