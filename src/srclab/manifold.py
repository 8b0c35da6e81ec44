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

Frame data is computed in batches: each spec compiles its frame and metric
expressions once (:class:`~srclab.jets.JetProgram`), and :func:`_frame_data`
turns the jets at a (P, n) point array into frame matrices, inverses, Gram
matrices and structure constants with a leading point axis, recording an
error per point rather than failing the batch.  The per-point layers read
one point at a time from the spec's memo, which the sample loops fill
FRAME_CHUNK points per batch (:func:`with_frame_data`); a point missing
from it is computed as a batch of one.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (DimensionMismatch, DomainError, MetricNotSPD, SingularFrame,
                     SrclabError, ValidationError)
from .jets import (Expression, JetProgram, ScalarField, VectorField, coordinate_indices,
                   directional_derivative)

DEFAULT_BOX = (-1.0, 1.0)
SINGULAR_DET_FACTOR = 1e-12
CONDITION_WARN = 1e8
CONDITION_FAIL = 1e12
FRAME_CHUNK = 64          # points per batched frame pass; bounds its transient memory
MEMO_LIMIT = 8192         # per-point frame data entries a spec keeps


@dataclass(frozen=True)
class VectorFieldSpec:
    """Coordinate components X^k of a vector field, as expressions."""

    components: tuple[Expression, ...]

    @property
    def n(self) -> int:
        return len(self.components)

    def as_field(self) -> VectorField:
        return VectorField.from_expressions(self.components, self.n)


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
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

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

    def frame_fields(self) -> tuple[VectorField, ...]:
        return tuple(vf.as_field() for vf in self.hframe + self.vframe)

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


class _BracketComponent(ScalarField):
    def __init__(self, Xf, Yf, k):
        self.n = Xf.n
        self._xy = directional_derivative(Yf.components[k], Xf)
        self._yx = directional_derivative(Xf.components[k], Yf)
        self.max_order = min(self._xy.max_order, self._yx.max_order)

    def jet(self, point, order):
        return self._xy.jet(point, order) - self._yx.jet(point, order)


def lie_bracket(X, Y) -> VectorField:
    """[X, Y]^k = X(Y^k) - Y(X^k), assembled from directional derivatives.

    Accepts VectorFieldSpec or any evaluable VectorField, so brackets nest
    (each nesting consumes one jet order).
    """
    Xf = X.as_field() if isinstance(X, VectorFieldSpec) else X
    Yf = Y.as_field() if isinstance(Y, VectorFieldSpec) else Y
    if Xf.n != Yf.n:
        raise DimensionMismatch("bracket operands live on different R^n")
    return VectorField(tuple(_BracketComponent(Xf, Yf, k) for k in range(Xf.n)))


# --------------------------------------------------------------------------
# Pointwise frame data
# --------------------------------------------------------------------------

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


@dataclass(frozen=True)
class FramePointData:
    """FrameSnapshot plus first derivatives of everything the connections need."""

    point: np.ndarray
    Ev: np.ndarray
    Einv: np.ndarray
    cond: float
    gv: np.ndarray
    gg: np.ndarray
    ginv: np.ndarray
    ginv_g: np.ndarray
    Om: np.ndarray
    Om_g: np.ndarray
    Mc: np.ndarray
    Mc_g: np.ndarray
    Lam: np.ndarray
    fdg: np.ndarray          # fdg[k, i, j] = e_k(g_ij), k horizontal
    fdg_g: np.ndarray
    warnings: tuple[str, ...]

    def snapshot(self) -> FrameSnapshot:
        return FrameSnapshot(self.point, self.Ev, self.Einv, self.gv, self.ginv,
                             self.Om, self.Mc, self.Lam)


def _mirror_pair_antisym(arr, arr_g, ell):
    """Overwrite (j, i) slices with the exact negation of (i, j), zero the diagonal."""
    for i in range(ell):
        arr[..., i, i] = 0.0
        if arr_g is not None:
            arr_g[..., i, i, :] = 0.0
        for j in range(i + 1, ell):
            arr[..., j, i] = -arr[..., i, j]
            if arr_g is not None:
                arr_g[..., j, i, :] = -arr_g[..., i, j, :]


def _cholesky_fails(g: np.ndarray) -> np.ndarray:
    """Mask of the Gram matrices in a stack that Cholesky rejects."""
    try:
        np.linalg.cholesky(g)
        return np.zeros(len(g), dtype=bool)
    except np.linalg.LinAlgError:
        if len(g) == 1:
            return np.ones(1, dtype=bool)
        return np.concatenate([_cholesky_fails(gi[None]) for gi in g])


def _frame_data(spec: ManifoldSpec, points) -> list[FramePointData | SrclabError]:
    """Frame data at every row of a (P, n) point array, in one batched pass.

    Each entry is the point's FramePointData or the error that rules it out,
    tested in this order: frame expression, determinant, condition number,
    metric expression, Cholesky.
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
                errors[i] = make_error(i)
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

    # E[p, m, a]: program output a*n + m is component m of frame field a
    Ev = np.ascontiguousarray(jets.values[:, :nf].reshape(P, n, n).transpose(0, 2, 1))
    Eg = jets.grads[:, :nf].reshape(P, n, n, n).transpose(0, 2, 1, 3)
    Eh = jets.hessians[:, :ell * n].reshape(P, ell, n, n, n).transpose(0, 2, 1, 3, 4)
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
    ginv_g = -np.einsum("pia,pabr,pbj->pijr", ginv, gg, ginv)

    # horizontal-horizontal brackets and their derivatives
    Eh_v, Eh_g = Ev[:, :, :ell], Eg[:, :, :ell, :]
    br = np.einsum("pqa,pmbq->pmab", Eh_v, Eh_g) - np.einsum("pqb,pmaq->pmab", Eh_v, Eh_g)
    br_g = (np.einsum("pqar,pmbq->pmabr", Eh_g, Eh_g)
            + np.einsum("pqa,pmbqr->pmabr", Eh_v, Eh)
            - np.einsum("pqbr,pmaq->pmabr", Eh_g, Eh_g)
            - np.einsum("pqb,pmaqr->pmabr", Eh_v, Eh))
    c = np.einsum("pmq,pqab->pmab", Einv, br)
    c_g = np.einsum("pmq,pqabr->pmabr", Einv,
                    br_g - np.einsum("pmqr,pqab->pmabr", Eg, c))
    Om = np.ascontiguousarray(c[:, :ell].transpose(0, 2, 3, 1))
    Om_g = np.ascontiguousarray(c_g[:, :ell].transpose(0, 2, 3, 1, 4))
    Mc = np.ascontiguousarray(c[:, ell:].transpose(0, 2, 3, 1))
    Mc_g = np.ascontiguousarray(c_g[:, ell:].transpose(0, 2, 3, 1, 4))
    _mirror_pair_antisym(Om.transpose(0, 3, 1, 2), Om_g.transpose(0, 3, 1, 2, 4), ell)
    _mirror_pair_antisym(Mc.transpose(0, 3, 1, 2), Mc_g.transpose(0, 3, 1, 2, 4), ell)

    # vertical-horizontal brackets: Lambda only needs values
    brv = np.einsum("pqb,pmkq->pmbk", Ev[:, :, ell:], Eh_g) \
        - np.einsum("pqk,pmbq->pmbk", Eh_v, Eg[:, :, ell:, :])
    cv = np.einsum("pmq,pqbk->pmbk", Einv, brv)
    Lam = np.ascontiguousarray(cv[:, :ell].transpose(0, 2, 3, 1))

    fdg = np.einsum("pmk,pijm->pkij", Eh_v, gg)
    fdg_g = np.einsum("pmkr,pijm->pkijr", Eh_g, gg) + np.einsum("pmk,pijmr->pkijr", Eh_v, gh)

    out: list[FramePointData | SrclabError] = []
    for i, p in enumerate(pts):
        if i in errors:
            out.append(errors[i])
            continue
        warn = ((f"frame condition number {cond[i]:.3e} at {p.tolist()}",)
                if cond[i] > CONDITION_WARN else ())
        out.append(FramePointData(p, Ev[i], Einv[i], float(cond[i]), gv[i], gg[i],
                                  ginv[i], ginv_g[i], Om[i], Om_g[i], Mc[i], Mc_g[i],
                                  Lam[i], fdg[i], fdg_g[i], warn))
    return out


def _remember(spec: ManifoldSpec, points, results) -> None:
    if len(spec._cache) + len(results) > MEMO_LIMIT:
        spec._cache.clear()
    for p, res in zip(points, results):
        spec._cache[p.tobytes()] = res


def _frame_at(spec: ManifoldSpec, point) -> FramePointData:
    """Frame data at one point: the memo entry, or a batch of one."""
    p = np.asarray(point, dtype=float)
    if p.shape != (spec.n,):
        raise DimensionMismatch(f"point must have {spec.n} coordinates")
    hit = spec._cache.get(p.tobytes())
    if hit is None:
        [hit] = _frame_data(spec, p[None])
        _remember(spec, [p], [hit])
    if isinstance(hit, SrclabError):
        raise copy.copy(hit)        # raised copies keep tracebacks out of the memo
    return hit


def with_frame_data(spec: ManifoldSpec, points):
    """Yield the rows of ``points`` after batching the frame data the memo
    lacks for them, FRAME_CHUNK points per pass, so the per-point layers
    find it there."""
    pts = np.asarray(points, dtype=float)
    for start in range(0, len(pts), FRAME_CHUNK):
        chunk = pts[start:start + FRAME_CHUNK]
        missing = chunk[[p.tobytes() not in spec._cache for p in chunk]]
        if len(missing):
            _remember(spec, missing, _frame_data(spec, missing))
        yield from chunk


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
