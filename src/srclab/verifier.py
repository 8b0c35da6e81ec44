"""Residual-checked identity suite.

Every identity the engine is built around is run as a numbered check
(C01..C18) over seeded sample points; residuals are normalized per point by
max(1, largest operand sup-norm) and aggregated by max, so adding points can
only raise residuals (a failing check never flips to passing).

A :class:`_Pass` is the :class:`~srclab.curvature.Evaluation` of one pass: it
builds each tensor the checks read, with a leading point axis, and its
per-point sup-norm once (without a one-form a D-side tensor shares its twin's;
C06's and C08's residuals are built points-last, so theirs reduce along the
points); the curvature-change formulas share the block g_ik pi_j^h - g_jk pi_i^h.
:func:`run_suite` drops each tensor after its last reader (:func:`_plan`, a
liveness plan as in Appel, *Modern Compiler Implementation in ML*, ch. 10), so
that 200 points fit one pass.  Each pass is sized by the spec's per-point
footprint: PASS_ENTRIES // entries_per_point(n, ell) points, and never fewer
than FRAME_CHUNK.  The checks' rows form one (checks, points) table,
reduced once per pass by :class:`_Table`, which also gives each check's worst
point.  A point where a layer a check reads failed (its frame data, or the
one-form for the checks that read it) or where the check's values are not
finite counts as an error for that check.

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

The first batched pass in a process (never the import) fixes glibc's malloc
thresholds for the rest of the process and all of its allocations, so each
pass reuses the heap pages the last one freed (_keep_freed_heap).
"""
from __future__ import annotations

import ctypes
import os
from collections.abc import Collection
from dataclasses import dataclass
from functools import cache, cached_property, partial, reduce
from numbers import Integral, Real
from operator import attrgetter

import numpy as np

from .connections import OneFormData, covariant_oneform
from .curvature import (TWINS, Evaluation, conformal_difference_formula, curvature_relation_terms,
                        delta_g, flatness_characteristic_form, projective_difference_formula)
from .errors import RankTooSmall, ValidationError
from .manifold import ManifoldSpec, contract, permuted_sum, sample_points

QUALIFIER_TOL = 1e-12     # hypothesis detection (alpha = 0, proportionality, M = 0)
HYPOTHESIS_REL = 1e-9     # "R vanishes" / "R equals K" qualifiers
GROUP_TOL = 1e-10         # check_group_manifold: largest curvature and torsion derivative
FLATNESS_TOL = 1e-9       # check_flatness_criterion: "zero" and "matches" per point
SUP_ALONG_POINTS = 32     # _Pass.sup: blocks of up to this many entries reduce along the points
FRAME_CHUNK = 64          # fewest points per batched pass; see PASS_ENTRIES


def entries_per_point(n: int, ell: int) -> int:
    """Estimated float64 entries one sample point adds to a suite pass's traced
    peak: 12 ell^4 for the ell^4 tensors live at once under the suite's pass
    plan, n^3 for the frame jets' gradients.  The traced per-point peak is
    0.8x to 1.6x of it, 2.3 to 27 KB from (n, ell) = (3, 2) to (10, 4)."""
    return 12 * ell ** 4 + n ** 3


# a pass's budget in entries_per_point units (up to 1.5x, the split's rounding):
# heisenberg2 (n = 5, ell = 4), the catalog's largest footprint, runs 200 points in one
PASS_ENTRIES = 200 * entries_per_point(5, 4)

FLAGS = frozenset({"carnot"})   # the SuiteConfig flags: "carnot" runs C18's Carnot assertions


@dataclass(frozen=True)
class SuiteConfig:
    points: int = 20
    seed: int = 0
    tol: float | None = None            # overrides every check tolerance when set
    flags: frozenset[str] = frozenset()

    def __post_init__(self):
        for name in ("points", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValidationError(f"{name} needs an integer, got {value!r}")
            object.__setattr__(self, name, int(value))      # a report serializes an int
        if self.tol is not None and (isinstance(self.tol, bool) or not isinstance(self.tol, Real)):
            raise ValidationError(f"tol needs a real number or None, got {self.tol!r}")
        if isinstance(self.flags, str) or not isinstance(self.flags, Collection) or not all(
                isinstance(flag, str) and flag in FLAGS for flag in self.flags):
            raise ValidationError(f"flags needs a collection of {sorted(FLAGS)}, "
                                  f"got {self.flags!r}")
        if self.points < 1:
            raise ValidationError(f"need at least 1 sample point, got {self.points}")
        if self.seed < 0:
            raise ValidationError(f"need a seed >= 0, got {self.seed}")
        if self.tol is not None and not 0 <= self.tol < np.inf:
            raise ValidationError(f"need a finite tolerance >= 0, got {self.tol}")


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
    worst_point: tuple[float, ...] | None = None     # where max_rel_residual occurred

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
            "jet_order": 2,             # the order of the jets every tensor is built from
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
    return tuple(np.maximum.reduce(np.array(parts), axis=0))


class _Pass(Evaluation):
    """An Evaluation plus what the checks add: sup-norms, residuals, failures, shared changes."""

    def __init__(self, spec: ManifoldSpec, pi: OneFormData | None, points, carnot: bool):
        super().__init__(spec, pi, points)
        self.carnot, self._sups = carnot, {}

    def sup(self, x) -> np.ndarray:
        """Per-point sup-norm of a stack (or magnitude of per-point scalars); a
        tensor named by its attribute path, such as "Kb.curv", gets it once, and
        with ``pi_zero`` a D-side path ("Rb.curv") shares it with its twin's."""
        key = value = x
        if isinstance(x, str):
            layer, dot, rest = x.partition(".")
            key = (TWINS.get(layer, layer) if self.pi_zero else layer) + dot + rest
            if key in self._sups:
                return self._sups[key]
            value = attrgetter(x)(self)
        flat = value.reshape(len(value), -1)
        size = (np.maximum.reduce(np.abs(flat.T, order="C"), axis=0)
                if flat.shape[1] <= SUP_ALONG_POINTS else np.maximum.reduce(np.abs(flat), axis=1))
        if isinstance(x, str):
            self._sups[key] = size
        return size

    def res(self, diff, *operands):
        """Per point (abs, denom): sup-norm of the residual and max(1, largest
        operand sup-norm); a non-finite value anywhere fails the point."""
        return self.sup(diff), reduce(np.maximum, map(self.sup, operands), 1.0)

    def failures(self, reads) -> dict[int, str]:
        """Per point where a layer in ``reads`` failed, the first such layer's message."""
        out: dict[int, str] = {}
        for layer in reversed(reads):
            out.update({i: f"{type(exc).__name__}: {exc}"
                        for i, exc in getattr(self, layer).errors.items()})
        return out

    dK = cached_property(lambda ev: ev.Rb.curv - ev.Kb.curv)    # each read by two checks
    dW = cached_property(lambda ev: ev.W_D - ev.W_nab)
    dC = cached_property(lambda ev: ev.C_D - ev.C_nab)


M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3      # mallopt parameters of glibc's <malloc.h>
MMAP_THRESHOLD = 32 << 20   # glibc's 64-bit cap on its dynamic one; trim at twice it, its own ratio


@cache
def _keep_freed_heap() -> bool:
    """Fix glibc's mmap and trim thresholds once per process, so what a pass
    frees stays in the heap for the next; glibc's dynamic rule trims it each pass.
    Either one alone turns that rule off and faults more, so the trim is set
    only once the mmap threshold is accepted.  True if both; False without glibc."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (AttributeError, ValueError, OSError):   # no confstr (not Unix), or no such name
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD))


def _passes(spec: ManifoldSpec, pi: OneFormData | None, config: SuiteConfig):
    """The passes over the config's sample points, round(P / size) of
    near-equal size (no small remainder), where size is the spec's
    PASS_ENTRIES // entries_per_point(n, ell) points, and at least
    FRAME_CHUNK; ``pi`` absent means the zero one-form."""
    _keep_freed_heap()
    points = sample_points(spec, config.points, config.seed)
    size = max(FRAME_CHUNK, PASS_ENTRIES // entries_per_point(spec.n, spec.ell))
    for chunk in np.array_split(points, max(1, round(len(points) / size))):
        yield _Pass(spec, pi, chunk, "carnot" in config.flags)


def _quiet():
    """Silence numpy's floating-point warnings: the checks report non-finite
    values at their points themselves."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


# --------------------------------------------------------------------------
# The check table
# --------------------------------------------------------------------------

def _metricity(ev, conn: str):
    """e_k(g_ij) - co[k,i,e] g_ej - co[k,j,e] g_ie for the coefficients co of ``conn``."""
    t = contract(getattr(ev, conn), ev.frame.gv)
    return ev.res(ev.brackets.fdg - t - t.transpose(0, 1, 3, 2), "brackets.fdg", conn, "frame.gv")


_c01, _c03 = partial(_metricity, conn="nab"), partial(_metricity, conn="D")


def _c02(ev):
    return ev.res("T_nab", "nab", "brackets.Om")


def _c04(ev):
    t = np.eye(ev.ell)[:, None, :] * ev.pij.values[:, None, :, None]       # delta_i^k pi_j
    return ev.res(ev.T_D - (t - t.transpose(0, 2, 1, 3)), "T_D", "pij.values")


def _c05(ev):
    rawK, rawR = ev.rawK, ev.rawR
    K = ev.res(rawK + rawK.transpose(0, 2, 1, 3, 4), "rawK")
    return K if rawR is rawK else _worst(K, ev.res(rawR + rawR.transpose(0, 2, 1, 3, 4), "rawR"))


def _c06(ev):
    """The first Bianchi sum T_ijk + T_kij + T_jki of K, mixed and lowered."""
    return _worst(*(ev.res(permuted_sum((1, T, ()), (1, T, (2, 3, 1)), (1, T, (3, 1, 2)),
                                        points_last=True), path)
                    for T, path in ((ev.Kb.curv, "Kb.curv"), (ev.Kb.lowered, "Kb.lowered"))))


def _c07(ev):
    ric, ric2 = ev.Kb.ricci, ev.Kb.second_contraction()
    return _worst(ev.res(ric2 + ric2.transpose(0, 2, 1), ric2, "Kb.ricci"),
                  ev.res(ric2 - (ric - ric.transpose(0, 2, 1)), ric2, "Kb.ricci"))


def _c08(ev):
    lw = ev.Kb.lowered
    involutive = ~(ev.sup("brackets.Mc") > QUALIFIER_TOL)       # no vertical bracket part
    pair = permuted_sum((1, lw, ()), (1, lw, (1, 2, 4, 3)), points_last=True)
    return (*ev.res(pair, "Kb.lowered"), involutive)


def _c09(ev):
    want = curvature_relation_terms(ev.ct, ev.spec, ev.points)
    return ev.res(ev.dK - want, "Rb.curv", "Kb.curv", want)


def _c10(ev):
    want = (ev.ell - 2) * ev.ct.pi_lower + ev.ct.alpha[:, None, None] * ev.frame.gv
    return ev.res(ev.Rb.ricci - ev.Kb.ricci - want, "Rb.ricci", "Kb.ricci", want)


def _c11(ev):
    diff = ev.Rb.scalar - ev.Kb.scalar - 2 * (ev.ell - 1) * ev.ct.alpha
    return ev.res(diff, "Rb.scalar", "Kb.scalar", "ct.alpha")


def _c12(ev):
    return ev.res(ev.S_D - ev.S_nab, "S_D", "S_nab")


def _c13(ev):
    want = conformal_difference_formula(ev.ct, ev.spec, ev.points)
    return ev.res(ev.dC - want, "C_D", "C_nab", want)


def _c14(ev):
    want = projective_difference_formula(ev.ct, ev.spec, ev.points)
    return ev.res(ev.dW - want, "W_D", "W_nab", want)


def _c15(ev):
    return (*ev.res("dC", "C_D", "C_nab"), ~(ev.sup("ct.alpha") > QUALIFIER_TOL))


def _c16(ev):
    prop = ev.ct.pi_lower - (ev.ct.alpha / ev.ell)[:, None, None] * ev.frame.gv
    return (*ev.res("dW", "W_D", "W_nab"), ~(ev.sup(prop) > QUALIFIER_TOL))


def _c17(ev):
    rk = ev.res("dK", "Rb.curv", "Kb.curv")
    undecided = np.isnan(_rel(rk))                 # the hypotheses cannot be decided
    equal = _rel(rk) <= HYPOTHESIS_REL             # equal curvature tensors
    parts = [_gate((ev.sup("ct.alpha"), np.ones(len(ev.points))), equal)]
    qualifies = undecided | equal
    if ev.ell >= 3:
        flat = _rel(ev.res("Rb.curv", "Rb.curv")) <= HYPOTHESIS_REL   # flat transformed connection
        want = flatness_characteristic_form(ev.Kb)
        parts += [_gate(ev.res("S_nab", "S_nab"), flat),
                  _gate(ev.res(ev.ct.pi_lower - want, "ct.pi_lower", want), flat)]
        qualifies = qualifies | flat
    abs_res, denom = _worst(*parts)
    return np.where(undecided, rk[0], abs_res), np.where(undecided, rk[1], denom), qualifies


def _c18(ev):
    # DT - (D_i pi_k) delta_j^h + (D_i pi_j) delta_k^h: D pi (A below) has its delta part's entries
    Dpi = covariant_oneform(ev.D, ev.pij)
    parts = [ev.res(delta_g(J=-Dpi, K=Dpi, base=ev.DT_D), "DT_D", Dpi)]
    # flat + parallel torsion: characteristic tensor and constant curvature
    flat_parallel = ((_rel(ev.res("Rb.curv", "Rb.curv")) <= HYPOTHESIS_REL)
                     & (_rel(ev.res("DT_D", "DT_D")) <= HYPOTHESIS_REL))
    A = ev.ct.pi2[:, None, None] * ev.frame.gv     # pi_e pi^e g
    parts += [_gate(r, flat_parallel) for r in (
        ev.res(ev.ct.pi_lower + 0.5 * A, "ct.pi_lower", "frame.gv"),
        ev.res(delta_g(-A, base=ev.Kb.curv), "Kb.curv", A), ev.res("W_nab", "W_nab"))]
    if ev.carnot:       # expected there: a flat, parallel-torsion Koszul connection
        parts += [ev.res("Kb.curv", "Kb.curv"), ev.res("DT_nab", "DT_nab")]
    return _worst(*parts)


@dataclass(frozen=True)
class CheckSpec:
    id: str
    description: str
    paper_ref: str
    fn: object          # _Pass -> per point (abs, denom[, qualifies])
    layers: str         # pass layers read, "x:cond" if only when cond holds
    reads: tuple[str, ...] = ()     # layers whose errors fail the check, first first
    required_rank: int = 2
    tolerance: float = 1e-9

    def __post_init__(self):        # reads by default: what _Pass.reads gives for ``layers``
        words = [word.partition(":")[0] for word in self.layers.split()]
        object.__setattr__(self, "reads", self.reads or _Pass.reads(words))


CHECKS: tuple[CheckSpec, ...] = (
    CheckSpec(
        "C01", "metric compatibility of the torsion-free horizontal connection",
        "e_k(g_ij) = {_ki^e} g_ej + {_kj^e} g_ie", _c01, "nab brackets frame"),
    CheckSpec(
        "C02", "vanishing torsion of the horizontal connection",
        "{_ij^k} - {_ji^k} = Omega_ij^k", _c02, "T_nab nab brackets", tolerance=1e-10),
    CheckSpec(
        "C03", "metric compatibility of the semi-symmetric connection",
        "e_k(g_ij) = Gamma_ki^e g_ej + Gamma_kj^e g_ie", _c03, "D brackets frame"),
    CheckSpec(
        "C04", "semi-symmetric form of the transformed torsion",
        "T_ij^k = delta_i^k pi_j - delta_j^k pi_i (corrected reading of the "
        "defining display, forced by the transformation rule)",
        _c04, "T_D pij", reads=("pij", "frame"), tolerance=1e-10),
    CheckSpec(
        "C05", "curvature antisymmetry in the first index pair, recomputed unmirrored",
        "K^h_ijk = -K^h_jik and R^h_ijk = -R^h_jik", _c05, "rawK rawR", tolerance=1e-10),
    CheckSpec(
        "C06", "first Bianchi identity of the horizontal connection, mixed and lowered",
        "K^h_ijk + K^h_jki + K^h_kij = 0;  K(X,Y,Z,W) + K(Y,Z,X,W) + K(Z,X,Y,W) = 0",
        _c06, "Kb"),
    CheckSpec(
        "C07", "third-slot trace: antisymmetry and contraction identity",
        "K^e_kie = K^e_kei - K^e_iek;  K^e_kie + K^e_ike = 0", _c07, "Kb"),
    CheckSpec(
        "C08", "pair antisymmetry of the lowered curvature on involutive horizontal bundles",
        "K(X,Y,Z,W) = -K(X,Y,W,Z) when the vertical bracket part M vanishes", _c08,
        "Kb brackets"),
    CheckSpec(
        "C09", "curvature change under the semi-symmetric transformation",
        "R^h_ijk = K^h_ijk + delta_j^h pi_ik - delta_i^h pi_jk + pi_j^h g_ik - pi_i^h g_jk",
        _c09, "ct dK Rb Kb"),
    CheckSpec(
        "C10", "Ricci-trace change under the transformation",
        "R^e_iek = K^e_iek + (ell-2) pi_ik + alpha g_ik", _c10, "ct Rb Kb"),
    CheckSpec(
        "C11", "scalar-curvature change under the transformation",
        "R = K + 2(ell-1) alpha", _c11, "Rb Kb ct"),
    CheckSpec(
        "C12", "invariance of the S-tensor under the transformation",
        "S^h_ijk built from either connection agrees (curv - Ricci/scalar combination)",
        _c12, "S_D S_nab", required_rank=3),
    CheckSpec(
        "C13", "tabulated closed form for the conformal-tensor change "
        "(inconsistent with the definitional displays: the measured change is zero, "
        "so this check fails whenever the one-form is nonzero)",
        "Cbar - C = -(1/ell)(delta_j^h pi_ik - delta_i^h pi_jk + g_ik pi_j^h - g_jk pi_i^h) "
        "- 2 alpha/(ell(ell-2)) (delta_j^h g_ik - delta_i^h g_jk) "
        "- ((ell-2)/ell) delta_k^h pi_ij - (alpha/ell) delta_k^h g_ij",
        _c13, "ct dC C_D C_nab", required_rank=3),
    CheckSpec(
        "C14", "closed form for the projective-tensor change",
        "Wbar - W = (1/(ell-1))(delta_j^h pi_ik - delta_i^h pi_jk) "
        "+ (g_ik pi_j^h - g_jk pi_i^h) - alpha/(ell-1)(delta_j^h g_ik - delta_i^h g_jk)",
        _c14, "ct dW W_D W_nab"),
    CheckSpec(
        "C15", "equal conformal tensors where the characteristic trace vanishes",
        "alpha = 0  =>  Cbar = C", _c15, "dC C_D C_nab ct", required_rank=3),
    CheckSpec(
        "C16", "equal projective tensors where the characteristic tensor is "
        "metric-proportional",
        "pi_ik = (alpha/ell) g_ik  =>  Wbar = W", _c16, "ct dW W_D W_nab"),
    CheckSpec(
        "C17", "flatness consequences: equal curvatures force alpha = 0; a flat "
        "transformed connection forces S = 0 and pins the characteristic tensor",
        "R^h_ijk = K^h_ijk => alpha = 0;  R^h_ijk = 0 => S^h_ijk = 0 and "
        "pi_ik = (1/(2-ell))(K^e_iek - K g_ik / (2(ell-1)))",
        _c17, "dK Rb Kb ct S_nab:rank3", tolerance=1e-8),
    CheckSpec(
        "C18", "parallel torsion and group-manifold consequences",
        "(D_i T)_jk^h = (D_i pi_k) delta_j^h - (D_i pi_j) delta_k^h;  flat D with "
        "parallel torsion => pi_ij = -(1/2) g_ij pi_e pi^e, "
        "K^h_ijk = pi_e pi^e (delta_j^h g_ik - delta_i^h g_jk), W = 0;  "
        "on flagged left-invariant graded frames K = 0 and (nabla T) = 0",
        _c18, "Rb Kb ct DT_D DT_nab:carnot W_nab D pij"),
)

CHECK_IDS = tuple(c.id for c in CHECKS)
# the suite's run order (reports keep CHECKS order): C18 right after C05, so that the
# connections, their nabla T and the raw curvatures go before S, C and W are built
RUN_ORDER = ("C01", "C02", "C03", "C04", "C05", "C18", "C06", "C07", "C08", "C09", "C10",
             "C11", "C17", "C12", "C14", "C16", "C13", "C15")


@cache
def _plan(ell: int, carnot: bool, pi_zero: bool) -> tuple:
    """A suite pass's liveness plan: its steps in run order (the checks rank ``ell``
    allows, each after building the layers its table entry lists, in order, each after
    its inputs in :meth:`_Pass.graph` of ``pi_zero``), each with the layers it is the
    last reader of, to drop after it (a build reads its inputs); never the frame or the
    one-form, whose errors the fold reads."""
    holds, steps = {"rank3": ell >= 3, "carnot": carnot, "": True}, []

    def build(layer):
        if all(step != layer for step, _ in steps):
            for name in (inputs := _Pass.graph(pi_zero)[layer][0]):
                build(name)
            steps.append((layer, inputs))

    build("frame_g")        # the frame layers first: the frame jets go before any other is built
    for check in sorted((c for c in CHECKS if ell >= c.required_rank),
                        key=lambda c: RUN_ORDER.index(c.id)):
        reads = [name for name, _, cond in (word.partition(":") for word in check.layers.split())
                 if holds[cond]]
        for name in reads:
            build(name)
        steps.append((check, reads))
    last = {name: i for i, (_, reads) in enumerate(steps) for name in reads
            if name not in ("frame", "pij")}
    return tuple((step, [name for name, j in last.items() if j == i])
                 for i, (step, _) in enumerate(steps))


class _Table:
    """Per check over the passes: largest residuals, worst point, points evaluated, first error."""

    def __init__(self, checks, n: int):
        self.reads = [c.reads for c in checks]
        self.max_abs, self.max_rel = np.zeros(len(checks)), np.full(len(checks), -1.0)
        self.count, self.worst = np.zeros(len(checks), dtype=int), np.zeros((len(checks), n))
        self.error: list[str | None] = [None] * len(checks)

    def fold(self, ev: _Pass, rows) -> None:
        """Fold in one pass's (checks, points) table of (abs, denom[, qualifies]) rows."""
        abs_res, denom = np.array([r[:2] for r in rows]).swapaxes(0, 1)
        failures = {reads: ev.failures(reads) for reads in set(self.reads)}
        failed = np.zeros((len(rows), len(ev.points)), dtype=bool)
        for mask, reads in zip(failed, self.reads):
            mask[list(failures[reads])] = True
        everywhere = np.ones(len(ev.points), dtype=bool)
        evaluated = ~failed & np.array([r[2] if len(r) > 2 else everywhere for r in rows])
        finite = np.isfinite(abs_res + denom)
        good, bad = evaluated & finite, failed | evaluated & ~finite
        rel = np.where(good, abs_res / denom, -1.0)          # -1: not evaluated there
        better = (best := rel.max(axis=1)) > self.max_rel     # ties keep the earlier point
        self.max_rel[better] = best[better]
        self.worst[better] = ev.points[rel.argmax(axis=1)[better]]
        self.max_abs = np.maximum(self.max_abs, np.where(good, abs_res, 0.0).max(axis=1))
        self.count += good.sum(axis=1)
        for c in np.flatnonzero(bad.any(axis=1)):
            i = int(bad[c].argmax())
            self.error[c] = self.error[c] or failures[self.reads[c]].get(i) or \
                f"non-finite residual or operand scale at {ev.points[i].tolist()}"


def run_suite(spec: ManifoldSpec, pi: OneFormData | None = None,
              config: SuiteConfig | None = None) -> Report:
    """Run every check at seeded sample points and aggregate a Report.

    With ``pi`` absent the pi-dependent checks run with the zero one-form.
    Evaluation errors and non-finite residuals mark the affected check
    failed (with the first one in the report warnings) and never abort the
    suite.
    """
    config = config or SuiteConfig()
    active = [check for check in CHECKS if spec.ell >= check.required_rank]
    table, warnings = _Table(active, spec.n), []
    with _quiet():
        for ev in _passes(spec, pi, config):
            rows = {}
            for step, drops in _plan(spec.ell, "carnot" in config.flags, ev.pi_zero):
                if isinstance(step, str):
                    getattr(ev, step)
                else:
                    rows[step.id] = step.fn(ev)
                for name in drops:
                    del vars(ev)[name]
            table.fold(ev, [rows[check.id] for check in active])
            warnings.extend(w for w in ev.frame.warnings.values() if w not in warnings)

    records, rows = [], iter(range(len(active)))
    for check in CHECKS:
        tol = config.tol if config.tol is not None else check.tolerance
        if spec.ell < check.required_rank:
            fields = (0.0, 0.0, 0, tol, False, "RankTooSmall")
        elif table.error[c := next(rows)] is not None:
            warnings.append(f"{check.id}: {table.error[c]}")
            fields = (float("inf"), float("inf"), int(table.count[c]), tol, False)
        else:
            max_rel = max(float(table.max_rel[c]), 0.0)
            fields = (float(table.max_abs[c]), max_rel, int(table.count[c]), tol, max_rel <= tol)
        records.append(CheckRecord(check.id, check.description, check.paper_ref, *fields,
                                   worst_point=tuple(table.worst[c]) if fields[2] else None))
    return Report(spec.name, config.seed, config.points, tuple(records), tuple(warnings))


# --------------------------------------------------------------------------
# Standalone structured checks: views over the suite's batched passes
# --------------------------------------------------------------------------

def _sample(passes, paths, what: str, measure):
    """Over the ``passes``, the sup-norms of what ``measure(ev)`` lists, stacked, at the points
    where their sum is finite and no layer the attribute ``paths`` read failed; for every
    other point, in point order, the failed layer's message, else ``what`` not finite."""
    kept, errors = [], []
    with _quiet():
        for ev in passes:
            values = np.array([ev.sup(x) for x in measure(ev)])
            failed = ev.failures(_Pass.reads(paths))
            bad = sorted({*failed, *np.flatnonzero(~np.isfinite(sum(values))).tolist()})
            errors += [failed.get(i) or f"DomainError: {what} not finite at {ev.points[i].tolist()}"
                       for i in bad]
            kept.append(np.delete(values, bad, axis=1))
    return np.concatenate(kept, axis=1), errors


@dataclass(frozen=True)
class GroupManifoldResult:
    verdict: str              # "holds at samples" | "fails" | "inconclusive"
    evidence: dict


def check_group_manifold(spec: ManifoldSpec, pi: OneFormData | None = None,
                         config: SuiteConfig | None = None) -> GroupManifoldResult:
    """Vanishing curvature and parallel torsion for the designated connection.

    pi absent designates the Koszul connection, otherwise the transformed one.
    Numerical zero at every sample is evidence, not proof, hence the verdict
    wording "holds at samples".  An evaluation error or a non-finite value
    at a sample makes the verdict "inconclusive".  Of ``config`` only
    ``points`` and ``seed`` are read.
    """
    config = config or SuiteConfig()
    paths = ("Kb.curv", "DT_nab") if pi is None else ("Rb.curv", "DT_D")
    sizes, errors = _sample(_passes(spec, pi, config), paths,
                            "curvature or torsion derivative", lambda ev: paths)
    max_curv, max_dt = map(float, sizes.max(axis=1, initial=0.0))
    evidence = {"max_curvature": max_curv, "max_torsion_derivative": max_dt,
                "points": config.points, "errors": errors}
    verdict = "holds at samples" if max(max_curv, max_dt) <= GROUP_TOL else "fails"
    return GroupManifoldResult("inconclusive" if errors else verdict, evidence)


@dataclass(frozen=True)
class FlatnessResult:
    per_point: tuple[tuple[bool, bool, bool], ...]   # (R_zero, S_zero, pi_matches)
    implication_holds: bool
    errors: tuple[str, ...] = ()                     # points left out of per_point


def check_flatness_criterion(spec: ManifoldSpec, pi: OneFormData | None = None,
                             config: SuiteConfig | None = None) -> FlatnessResult:
    """Per point: is R zero, is S zero, does pi_ik match the forced form;
    the verdict asserts R_zero => (S_zero and pi_matches) at every sample.

    A point where the frame or the one-form fails, or where a tensor read is
    not finite, gives an error (in ``check_group_manifold``'s form) instead
    of a row, and any error makes the verdict False.  Of ``config`` only
    ``points`` and ``seed`` are read.
    """
    if spec.ell < 3:
        raise RankTooSmall(f"flatness criterion needs rank >= 3, got {spec.ell}")

    def measure(ev):
        want = flatness_characteristic_form(ev.Kb)
        return "Rb.curv", "S_nab", "Kb.curv", ev.ct.pi_lower - want, want

    (r, s, k, d, w), errors = _sample(
        _passes(spec, pi, config or SuiteConfig()), ("Rb", "S_nab", "Kb", "ct"),
        "curvature or characteristic tensor", measure)
    rows = tuple(zip((r <= FLATNESS_TOL).tolist(),
                     (s <= FLATNESS_TOL * np.maximum(1.0, k)).tolist(),
                     (d <= FLATNESS_TOL * np.maximum(1.0, w)).tolist()))
    holds = not errors and all(s and m for r, s, m in rows if r)
    return FlatnessResult(rows, holds, tuple(errors))
