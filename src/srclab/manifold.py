"""Sub-Riemannian structure (M, V0, g): frames, metric, brackets, projections.

Index conventions used throughout the package:

* frame index a runs over all n frame fields, horizontal ones first
  (i, j, k, h < ell horizontal; vertical offsets b = a - ell);
* ``E[m, a]`` is the m-th coordinate component of frame field a, so the
  columns of E are the frame fields evaluated at the point;
* derivative axes come last: for any tensor T, ``T_g[..., r]`` holds the
  coordinate derivative d T / d x_r;
* ``Omega[i, j, k]``: horizontal part of [e_i, e_j] in the frame,
  ``Mcoef[i, j, b]``: vertical part, ``Lambda[b, k, h]``: horizontal part
  of [e_{ell+b}, e_k].

The projection onto V0 splits along the user-supplied frame (coefficients
in the frame after inverting E), not metric-orthogonally; the engine never
builds an ambient metric.

Frame data is computed for a stack of points at once: each spec compiles
its frame and metric expressions once (:class:`~srclab.jets.JetProgram`),
and :func:`_frame_data` turns the jets at a (P, n) point array into a
:class:`FrameData` whose arrays carry a leading point axis (frame matrices,
inverses, Gram matrices, structure constants and their derivatives, and on
first use the Koszul coefficient jets), recording an error per point rather
than failing the stack.  The sample loops evaluate FRAME_CHUNK points per
stack; a single point is a stack of one.  Contractions are stacked matrix
products (:func:`contract`).  Brackets exist only as these structure
constants.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import (DimensionMismatch, DomainError, MetricNotSPD, SingularFrame,
                     SrclabError, ValidationError)
from .jets import Expression, JetProgram, coordinate_indices

DEFAULT_BOX = (-1.0, 1.0)
SINGULAR_DET_FACTOR = 1e-12
CONDITION_WARN = 1e8
CONDITION_FAIL = 1e12
FRAME_CHUNK = 64          # points per batched pass; bounds its transient memory


@dataclass(frozen=True)
class VectorFieldSpec:
    """Coordinate components X^k of a vector field, as expressions."""

    components: tuple[Expression, ...]

    @property
    def n(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class ManifoldSpec:
    """Immutable description of (M, V0, g) on a single global chart.

    ``hframe`` spans the horizontal bundle V0 (rank ell), ``vframe`` a
    transverse complement, ``metric`` is the ell x ell horizontal Gram in
    the hframe, ``oneform`` optional horizontal coframe components of pi.
    """

    name: str
    coords: tuple[str, ...]
    ell: int
    hframe: tuple[VectorFieldSpec, ...]
    vframe: tuple[VectorFieldSpec, ...]
    metric: tuple[tuple[Expression, ...], ...]
    oneform: tuple[Expression, ...] | None = None
    box: tuple[tuple[float, float], ...] | None = None

    @property
    def n(self) -> int:
        return len(self.coords)

    def __post_init__(self):
        n, ell = self.n, self.ell
        if not 2 <= ell < n:
            raise ValidationError(f"need 2 <= hdim < dim, got hdim={ell}, dim={n}")
        if len(set(self.coords)) != n:
            raise ValidationError("coordinate names must be distinct")
        for c in self.coords:
            if not c.isidentifier():
                raise ValidationError(f"coordinate name {c!r} is not an identifier")
            if c[0] == "d" and c[1:] in self.coords:
                raise ValidationError(
                    f"coordinate {c!r} is ambiguous with the frame token d{c[1:]}")
        if len(self.hframe) != ell:
            raise ValidationError(f"expected {ell} horizontal fields, got {len(self.hframe)}")
        if len(self.vframe) != n - ell:
            raise ValidationError(f"expected {n - ell} vertical fields, got {len(self.vframe)}")
        for vf in self.hframe + self.vframe:
            if vf.n != n:
                raise ValidationError("vector field component count must equal dim")
        if len(self.metric) != ell or any(len(row) != ell for row in self.metric):
            raise ValidationError("metric must be an hdim x hdim array")
        for i in range(ell):
            for j in range(i):
                if self.metric[i][j] != self.metric[j][i]:
                    raise ValidationError(f"metric entry ({i},{j}) is not symmetric")
        if self.oneform is not None and len(self.oneform) != ell:
            raise ValidationError("oneform needs hdim components")
        if self.box is not None:
            if len(self.box) != n:
                raise ValidationError("sampling box needs one (lo, hi) pair per coordinate")
            for lo, hi in self.box:
                if not lo < hi:
                    raise ValidationError("sampling box bounds must satisfy lo < hi")
        for expr in self._all_expressions():
            bad = {k for k in coordinate_indices(expr) if k >= n}
            if bad:
                raise ValidationError(f"expression uses coordinate index {max(bad)} >= dim {n}")

    def _all_expressions(self):
        for vf in self.hframe + self.vframe:
            yield from vf.components
        for row in self.metric:
            yield from row
        if self.oneform is not None:
            yield from self.oneform

    @cached_property
    def _jet_program(self) -> JetProgram:
        """Frame components, field by field, then the metric row by row (its
        mirrored entries share one op); Hessians for the horizontal fields and
        the metric only."""
        frame = [c for vf in self.hframe + self.vframe for c in vf.components]
        metric = [e for row in self.metric for e in row]
        hessians = [*range(self.ell * self.n), *range(len(frame), len(frame) + len(metric))]
        return JetProgram(frame + metric, self.n, hessians)

    def sample_box(self) -> np.ndarray:
        if self.box is None:
            return np.array([DEFAULT_BOX] * self.n)
        return np.asarray(self.box, dtype=float)


def sample_points(spec: ManifoldSpec, count: int, seed: int) -> np.ndarray:
    """Seeded uniform samples; a longer run extends a shorter one point-for-point."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(count, spec.n))
    box = spec.sample_box()
    return box[:, 0] + u * (box[:, 1] - box[:, 0])


# --------------------------------------------------------------------------
# Frame data on a stack of points
# --------------------------------------------------------------------------

def contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[p, *A, *B] = sum_e a[p, *A, e] b[p, e, *B] as one stacked matrix
    product: a's last axis against b's first axis after the point axis."""
    P, k = a.shape[0], a.shape[-1]
    out = np.matmul(a.reshape(P, -1, k), b.reshape(P, k, -1))
    return out.reshape(a.shape[:-1] + b.shape[2:])


@dataclass(frozen=True)
class FrameSnapshot:
    """Pointwise frame data: frame matrix, Gram, structure constants."""

    point: np.ndarray
    E: np.ndarray            # (n, n) columns e_1..e_ell, e_{ell+1}..e_n
    Einv: np.ndarray
    g: np.ndarray            # (ell, ell)
    ginv: np.ndarray
    Omega: np.ndarray        # (ell, ell, ell), antisymmetric in (i, j)
    Mcoef: np.ndarray        # (ell, ell, n-ell), antisymmetric in (i, j)
    Lambda: np.ndarray       # (n-ell, ell, ell)


class CoefficientJets(NamedTuple):
    values: np.ndarray   # (..., ell, ell, ell): coeff[i, j, k] along e_k of D_{e_i} e_j
    grads: np.ndarray    # (..., ell, ell, ell, n): coordinate derivatives


@dataclass(frozen=True)
class FramePointData:
    """One point's row of a FrameData: the snapshot plus the first
    derivatives the connections need."""

    point: np.ndarray
    Ev: np.ndarray
    Einv: np.ndarray
    gv: np.ndarray
    gg: np.ndarray
    ginv: np.ndarray
    ginv_g: np.ndarray
    Om: np.ndarray
    Om_g: np.ndarray
    Mc: np.ndarray
    Lam: np.ndarray
    fdg: np.ndarray          # fdg[k, i, j] = e_k(g_ij), k horizontal
    fdg_g: np.ndarray

    def snapshot(self) -> FrameSnapshot:
        return FrameSnapshot(self.point, self.Ev, self.Einv, self.gv, self.ginv,
                             self.Om, self.Mc, self.Lam)


@dataclass(frozen=True, eq=False)
class FrameData(FramePointData):
    """Frame data at a stack of points: every array of FramePointData with a
    leading point axis p.  Rows of points in ``errors`` hold meaningless
    values; ``warnings`` maps a usable point to its condition-number warning."""

    errors: dict[int, SrclabError]
    warnings: dict[int, str]

    def check(self, i: int) -> None:
        """Raise the error that rules out point ``i``, if any."""
        if i in self.errors:
            raise self.errors[i]

    def at(self, i: int) -> FramePointData:
        """Point ``i``'s row; its error is raised."""
        self.check(i)
        return FramePointData(*(getattr(self, f.name)[i] for f in fields(FramePointData)))

    @cached_property
    def koszul(self) -> CoefficientJets:
        """Koszul coefficients and their derivatives (see ``connections``),
        computed on first use and shared by every connection and one-form
        derivative on these points."""
        fdg, fdg_g, gv, gg, Om, Om_g = self.fdg, self.fdg_g, self.gv, self.gg, self.Om, self.Om_g
        OG = contract(Om, gv)                              # Omega_ij^e g_ek
        OG_g = (contract(Om_g.transpose(0, 1, 2, 4, 3), gv).transpose(0, 1, 2, 4, 3)
                + contract(Om, gg))
        B = (fdg + fdg.transpose(0, 2, 1, 3) - fdg.transpose(0, 3, 2, 1)
             + OG - OG.transpose(0, 1, 3, 2) - OG.transpose(0, 3, 1, 2))
        B_g = (fdg_g + fdg_g.transpose(0, 2, 1, 3, 4) - fdg_g.transpose(0, 3, 2, 1, 4)
               + OG_g - OG_g.transpose(0, 1, 3, 2, 4) - OG_g.transpose(0, 3, 1, 2, 4))
        values = 0.5 * contract(B, self.ginv)
        grads = 0.5 * (contract(B_g.transpose(0, 1, 2, 4, 3), self.ginv).transpose(0, 1, 2, 4, 3)
                       + contract(B, self.ginv_g))
        return CoefficientJets(values, grads)


def _mirror_pair_antisym(arr, arr_g=None):
    """Overwrite the (j, i) slices of the last two axes of ``arr`` (of the
    two before the last of ``arr_g``) with the exact negation of (i, j),
    i < j, and zero the diagonal."""
    d = list(range(arr.shape[-1]))
    iu, ju = map(list, zip(*combinations(d, 2)))
    arr[..., d, d] = 0.0
    arr[..., ju, iu] = -arr[..., iu, ju]
    if arr_g is not None:
        arr_g[..., d, d, :] = 0.0
        arr_g[..., ju, iu, :] = -arr_g[..., iu, ju, :]


def _cholesky_fails(g: np.ndarray) -> np.ndarray:
    """Mask of the Gram matrices in a stack that Cholesky rejects."""
    try:
        np.linalg.cholesky(g)
        return np.zeros(len(g), dtype=bool)
    except np.linalg.LinAlgError:
        if len(g) == 1:
            return np.ones(1, dtype=bool)
        return np.concatenate([_cholesky_fails(gi[None]) for gi in g])


def _frame_data(spec: ManifoldSpec, points) -> FrameData:
    """Frame data at every row of a (P, n) point array, in one batched pass.

    A point is ruled out by the first of these that applies: frame
    expression, determinant, condition number, metric expression, Cholesky.
    """
    pts = np.asarray(points, dtype=float)
    n, ell = spec.n, spec.ell
    if pts.ndim != 2 or pts.shape[1] != n:
        raise DimensionMismatch(f"point must have {n} coordinates")
    P, nf = len(pts), n * n
    jets = spec._jet_program.run(pts)
    errors: dict[int, SrclabError] = {}
    bad = np.zeros(P, dtype=bool)

    def rule_out(mask, make_error):
        if mask.any():
            for i in np.flatnonzero(mask & ~bad):
                errors[int(i)] = make_error(i)
            bad[mask] = True

    def usable(stack):
        """The stack with ruled-out points set to the identity, so LAPACK
        sees only valid matrices."""
        return np.where(bad[:, None, None], np.eye(stack.shape[-1]), stack) \
            if bad.any() else stack

    failing = np.zeros((2, P), dtype=bool)         # frame, metric expression errors
    for i, (k, _) in jets.errors.items():
        failing[int(k >= nf), i] = True

    def expression_error(i):
        return DomainError(jets.errors[i][1])

    # rows of ruled-out points may overflow or turn NaN; they are never read
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # program output a*n + m is component m of frame field a: Ev[p, m, a] = E[m, a],
        # G[p, a, m, r] = d_r E[m, a], H[p, a, m, q, r] (horizontal a only)
        Ev = np.ascontiguousarray(jets.values[:, :nf].reshape(P, n, n).transpose(0, 2, 1))
        G = jets.grads[:, :nf].reshape(P, n, n, n)
        H = jets.hessians[:, :ell * n].reshape(P, ell, n, n, n)
        rule_out(failing[0], expression_error)
        col_scale = np.prod(np.maximum(np.linalg.norm(usable(Ev), axis=1), 1e-300), axis=-1)
        det = np.linalg.det(usable(Ev))
        rule_out(~(np.abs(det) > SINGULAR_DET_FACTOR * col_scale), lambda i: SingularFrame(
            f"frame determinant {det[i]:.3e} below threshold at {pts[i].tolist()}"))
        cond = np.linalg.cond(usable(Ev))
        rule_out(cond > CONDITION_FAIL, lambda i: SingularFrame(
            f"frame condition number {cond[i]:.3e} at {pts[i].tolist()}"))
        Einv = np.linalg.inv(usable(Ev))

        gv = jets.values[:, nf:].reshape(P, ell, ell)
        gg = jets.grads[:, nf:].reshape(P, ell, ell, n)
        gh = jets.hessians[:, ell * n:].reshape(P, ell, ell, n, n)
        rule_out(failing[1], expression_error)
        not_finite = ~np.isfinite(gv).all(axis=(1, 2))          # an entry overflowed
        rule_out(not_finite | _cholesky_fails(usable(gv)), lambda i: MetricNotSPD(
            f"Gram matrix not positive definite at {pts[i].tolist()}"))
        ginv = np.linalg.inv(usable(gv))
        ginv_g = -(ginv[:, None] @ gg.transpose(0, 3, 1, 2) @ ginv[:, None]).transpose(0, 2, 3, 1)

        # structure constants of every frame pair: E c[a, b] = [e_a, e_b], where
        # J[p, b, m, a] = e_a(E[m, b]) and [e_a, e_b]^m = J[b, m, a] - J[a, m, b]
        Eh = Ev[:, :, :ell]
        J = contract(G, Ev)
        br = J.transpose(0, 3, 1, 2) - J.transpose(0, 1, 3, 2)           # br[p, a, b, m]
        c = contract(br, Einv.transpose(0, 2, 1))                         # c[p, a, b, s]
        Om = c[:, :ell, :ell, :ell].copy()
        Mc = c[:, :ell, :ell, ell:].copy()
        Lam = np.ascontiguousarray(c[:, ell:, :ell, :ell])
        # their horizontal derivatives: E d_r c = d_r br - (d_r E) c, H symmetric in (q, r)
        Gh_t = G[:, :ell].transpose(0, 2, 1, 3)                          # [p, q, a, r]
        J_g = contract(H, Eh).transpose(0, 1, 2, 4, 3) + contract(G[:, :ell], Gh_t)
        br_g = J_g.transpose(0, 3, 1, 2, 4) - J_g.transpose(0, 1, 3, 2, 4)  # [p, a, b, m, r]
        rhs = br_g - contract(c[:, :ell, :ell], G)
        Om_g = contract(rhs.transpose(0, 1, 2, 4, 3),
                        Einv[:, :ell].transpose(0, 2, 1)).transpose(0, 1, 2, 4, 3)
        _mirror_pair_antisym(Om.transpose(0, 3, 1, 2), Om_g.transpose(0, 3, 1, 2, 4))
        _mirror_pair_antisym(Mc.transpose(0, 3, 1, 2))

        fdg = contract(gg, Eh).transpose(0, 3, 1, 2)
        fdg_g = (contract(gg, Gh_t)
                 + contract(gh, Eh).transpose(0, 1, 2, 4, 3)).transpose(0, 3, 1, 2, 4)

    warnings = {i: f"frame condition number {cond[i]:.3e} at {pts[i].tolist()}"
                for i in map(int, np.flatnonzero(cond > CONDITION_WARN)) if i not in errors}
    return FrameData(pts, Ev, Einv, gv, gg, ginv, ginv_g, Om, Om_g, Mc, Lam, fdg, fdg_g,
                     errors, warnings)


def one_point(spec: ManifoldSpec, point) -> np.ndarray:
    """A point as a (1, n) stack, after checking its coordinate count."""
    p = np.asarray(point, dtype=float)
    if p.shape != (spec.n,):
        raise DimensionMismatch(f"point must have {spec.n} coordinates")
    return p[None]


def _frame_at(spec: ManifoldSpec, point) -> FramePointData:
    """Frame data at one point: a stack of one."""
    return _frame_data(spec, one_point(spec, point)).at(0)


def snapshot(spec: ManifoldSpec, point) -> FrameSnapshot:
    """Frame matrix, Gram and structure constants at one point.

    Omega/Mcoef come from solving E c = [e_i, e_j](point) (first ell entries
    horizontal), Lambda from the solves for [e_alpha, e_k].
    """
    return _frame_at(spec, point).snapshot()


def project_h(spec: ManifoldSpec, point, v) -> np.ndarray:
    """Horizontal coefficients of v in the frame splitting (along V1)."""
    data = _frame_at(spec, point)
    vv = np.asarray(v, dtype=float)
    if vv.shape != (spec.n,):
        raise DimensionMismatch(f"vector must have {spec.n} components")
    return (data.Einv @ vv)[: spec.ell]
