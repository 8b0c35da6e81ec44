"""Sub-Riemannian structure (M, V0, g): frames, metric, brackets, projections.

Index conventions used throughout the package:

* frame index a runs over all n frame fields, horizontal ones first
  (i, j, k, h < ell horizontal; vertical offsets b = a - ell);
* ``E[m, a]`` is the m-th coordinate component of frame field a, so the
  columns of E are the frame fields evaluated at the point;
* derivative axes come last and run along the horizontal frame: for any
  tensor T, ``T_g[..., q]`` holds the frame derivative e_q(T), q < ell
  (the paper's formulas differentiate only along the frame);
* ``Omega[i, j, k]``: horizontal part of [e_i, e_j] in the frame,
  ``Mcoef[i, j, b]``: vertical part, ``Lambda[b, k, h]``: horizontal part
  of [e_{ell+b}, e_k].

The projection onto V0 splits along the user-supplied frame (coefficients
in the frame after inverting E), not metric-orthogonally; the engine never
builds an ambient metric.

Frame data is computed for a stack of points at once: each spec compiles
its frame and its metric expressions once, into two programs
(:class:`~srclab.jets.JetProgram`), evaluates the frame at a (P, n) point
array and runs both programs seeded with that frame, so their jets are
derivatives along the frame fields (Hessians along the horizontal ones
only).  :func:`_frame_data` turns them
into a :class:`FrameData` whose arrays carry a leading point axis (frame
matrices, inverses, Gram matrices, structure constants and their
derivatives), recording an error per point rather than failing the stack,
and drops each run's jets once what it reads of them exists.  The sample
loops size each stack by the spec's per-point footprint:
PASS_ENTRIES // entries_per_point(n, ell) points, and never fewer than
FRAME_CHUNK; a single point is a stack of one.  Contractions are stacked
matrix products (:func:`contract`).  Brackets exist only as these structure
constants.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, fields
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import (DimensionMismatch, DomainError, MetricNotSPD, SingularFrame,
                     SrclabError, ValidationError)
from .jets import Expression, JetProgram, ValueTable

DEFAULT_BOX = (-1.0, 1.0)
SINGULAR_DET_FACTOR = 1e-12
CONDITION_WARN = 1e8
CONDITION_FAIL = 1e12
FRAME_CHUNK = 64          # fewest points per batched pass; see PASS_ENTRIES


def entries_per_point(n: int, ell: int) -> int:
    """Estimated float64 entries one sample point adds to a suite pass's traced
    peak: 12 ell^4 for the ell^4 tensors live at once under the suite's pass
    plan, n^3 for the frame jets' gradients.  The traced per-point peak is
    0.7x to 1.5x of it, 2.6 to 24 KB from (n, ell) = (3, 2) to (10, 4)."""
    return 12 * ell ** 4 + n ** 3


# a pass's budget in entries_per_point units (up to 1.5x, the split's rounding):
# heisenberg2 (n = 5, ell = 4), the catalog's largest footprint, runs 200 points in one
PASS_ENTRIES = 200 * entries_per_point(5, 4)


@dataclass(frozen=True)
class VectorFieldSpec:
    """Coordinate components X^k of a vector field, as expressions."""

    components: tuple[Expression, ...]

    @property
    def n(self) -> int:
        return len(self.components)


def check_coordinates(coords: tuple[str, ...], line: int | None = None) -> None:
    """Raise at ``line`` unless the names are distinct identifiers, none a frame token d<name>."""
    if len(set(coords)) != len(coords):
        raise ValidationError("coordinate names must be distinct", line)
    for c in coords:
        if not c.isidentifier():
            raise ValidationError(f"coordinate name {c!r} is not an identifier", line)
        if c[0] == "d" and c[1:] in coords:
            raise ValidationError(
                f"coordinate {c!r} is ambiguous with the frame token d{c[1:]}", line)


@dataclass(frozen=True)
class ManifoldSpec:
    """Immutable description of (M, V0, g) on a single global chart.

    ``hframe`` spans the horizontal bundle V0 (rank ell), ``vframe`` a
    transverse complement, ``metric`` is the ell x ell horizontal Gram in
    the hframe, ``oneform`` optional horizontal coframe components of pi.

    Construction checks the structure, then assembles the spec's jet programs
    (:meth:`_compile`) from ``numbering``: the :class:`~srclab.jets.ValueTable`
    a parse filled and the node numbers of the frame components, metric
    entries and one-form components in that order.  A spec built in Python
    passes none; its expressions enter a new table, where indices are checked.
    """

    name: str
    coords: tuple[str, ...]
    ell: int
    hframe: tuple[VectorFieldSpec, ...]
    vframe: tuple[VectorFieldSpec, ...]
    metric: tuple[tuple[Expression, ...], ...]
    oneform: tuple[Expression, ...] | None = None
    numbering: InitVar[tuple[ValueTable, list[int]] | None] = None

    @property
    def n(self) -> int:
        return len(self.coords)

    def __post_init__(self, numbering):
        n, ell = self.n, self.ell
        if not 2 <= ell < n:
            raise ValidationError(f"need 2 <= hdim < dim, got hdim={ell}, dim={n}")
        check_coordinates(self.coords)
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
        self._compile(numbering)

    def __getstate__(self):
        """The fields alone: loading compiles the programs again (:meth:`__setstate__`)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._compile()

    def _all_expressions(self):
        for vf in self.hframe + self.vframe:
            yield from vf.components
        for row in self.metric:
            yield from row
        if self.oneform is not None:
            yield from self.oneform

    def _compile(self, numbering=None) -> None:
        """Without ``numbering``, enter the expressions into a new table and check
        its coordinate indices (0..n-1; a parse resolves only such), then store
        the programs: ``_jet_programs``, the frame components field by field and
        apart the metric row by row (its mirrored entries share one op), with
        Hessians for the horizontal fields and the metric only, along the first
        ell vectors of a basis; and ``_oneform_program``, None without one."""
        n, ell = self.n, self.ell
        if numbering is None:
            table = ValueTable()
            numbering = table, table.enter(self._all_expressions())
            indices = [x for code, x, _ in table.ops if code == "coord"]
            lo, hi = min(indices, default=0), max(indices, default=0)
            if lo < 0:
                raise ValidationError(f"expression uses coordinate index {lo} < 0")
            if hi >= n:
                raise ValidationError(f"expression uses coordinate index {hi} >= dim {n}")
        table, outputs = numbering
        frame, metric, oneform = (outputs[:n * n], outputs[n * n:n * n + ell * ell],
                                  outputs[n * n + ell * ell:])
        self.__dict__.update(
            _jet_programs=(table.program(frame, n, range(ell * n), hdim=ell),
                           table.program(metric, n, range(ell * ell), hdim=ell)),
            _oneform_program=None if self.oneform is None else table.program(oneform, n))


def sample_points(spec: ManifoldSpec, count: int, seed: int) -> np.ndarray:
    """Seeded uniform samples in DEFAULT_BOX on every coordinate; a longer run
    extends a shorter one point-for-point."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(count, spec.n))
    lo, hi = DEFAULT_BOX
    return lo + u * (hi - lo)


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
    grads: np.ndarray    # (..., ell, ell, ell, ell): grads[..., q] = e_q(values)


@dataclass(frozen=True, eq=False)
class FrameData:
    """Frame data at a stack of points (leading axis p): the snapshot arrays and
    the first derivatives the connections need.  Rows of points in ``errors`` are
    meaningless (``Ev`` is the identity where the frame fails, a finite basis
    everywhere); ``warnings`` maps a usable point to its condition-number warning."""

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
    fdg: np.ndarray          # fdg[p, k, i, j] = e_k(g_ij), k horizontal
    fdg_g: np.ndarray        # every *_g: e_q of the field before it, on a last axis q < ell
    errors: dict[int, SrclabError]
    warnings: dict[int, str]


@cache
def _pair_slots(m: int):
    """Flat slots i * m + j, i < j, of an m x m block, and their mirrors j * m + i."""
    i, j = np.triu_indices(m, 1)
    return i * m + j, j * m + i


def _mirror_pair_antisym(*arrays):
    """In each array, overwrite the (j, i) slices of axes 1 and 2 with the
    exact negation of (i, j), i < j, and zero the diagonal; those two axes
    must merge into one without a copy, as they do in a C-order block."""
    for arr in arrays:
        P, m = arr.shape[:2]
        flat = arr.reshape(P, m * m, *arr.shape[3:], copy=False)   # a view, written through
        upper, lower = _pair_slots(m)
        flat[:, ::m + 1] = 0.0                                     # the diagonal
        flat[:, lower] = -flat[:, upper]


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
    """Frame data at every row of a (P, n) point array, in one batched pass: the
    frame matrix from a values-only run of the frame program, everything else
    from the frame's, then the metric's program seeded with it (frame derivatives).

    A point is ruled out by the first of these that applies: frame
    expression, determinant, condition number, metric expression, Cholesky.
    """
    pts = np.asarray(points, dtype=float)
    n, ell = spec.n, spec.ell
    if pts.ndim != 2 or pts.shape[1] != n:
        raise DimensionMismatch(f"point must have {n} coordinates")
    P, (frame_program, metric_program) = len(pts), spec._jet_programs
    # program output a*n + m is component m of frame field a: E[p, m, a] = E[m, a]
    E = np.ascontiguousarray(frame_program.values(pts).reshape(P, n, n).transpose(0, 2, 1))
    jets = frame_program.run(pts, basis=E)
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

    def rule_out_expressions(run):
        if run.errors:
            rule_out(np.isin(np.arange(P), list(run.errors)),
                     lambda i: DomainError(run.errors[i][1]))

    # rows of ruled-out points may overflow or turn NaN; they are never read
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rule_out_expressions(jets)
        # column and Frobenius norms as np.linalg.norm computes them, without its overhead
        Eu = usable(E)
        col_scale = np.prod(np.maximum(np.sqrt((Eu * Eu).sum(axis=1)), 1e-300), axis=-1)
        det = np.linalg.det(Eu)
        rule_out(~(np.abs(det) > SINGULAR_DET_FACTOR * col_scale), lambda i: SingularFrame(
            f"frame determinant {det[i]:.3e} below threshold at {pts[i].tolist()}"))
        cond = np.ones(P)       # the SVD only where cond <= |E|_F^n / |det E| may warn
        frobenius = np.sqrt((E * E).sum(axis=(1, 2)))
        svd = ~bad & ~(frobenius ** n < 0.5 * CONDITION_WARN * np.abs(det))
        if svd.any():
            cond[svd] = np.linalg.cond(E[svd])
        rule_out(cond > CONDITION_FAIL, lambda i: SingularFrame(
            f"frame condition number {cond[i]:.3e} at {pts[i].tolist()}"))
        Ev = usable(E)
        Einv = np.linalg.inv(Ev)

        # J[p, b, m, a] = e_a(E[m, b]), kept only where a frame pair reads it:
        # Jh for horizontal b, Jc along horizontal a; for horizontal b,
        # Hf[p, b, m, q, a] is the Hessian of E[m, b] on (e_q, e_a), q, a < ell
        J = jets.grads.reshape(P, n, n, n)
        Jh, Jc = J[:, :ell].copy(), J[..., :ell].copy()
        Hf = jets.hessians.reshape(P, ell, n, ell, ell)
        del jets, J
        # structure constants c[p, a, b, s] of the pairs read, e_a with a horizontal e_b:
        # E c[a, b] = [e_a, e_b] = br[a, b], where br[a, b, m] = J[b, m, a] - J[a, m, b]
        c = contract(Jh.transpose(0, 3, 1, 2) - Jc.transpose(0, 1, 3, 2), Einv.transpose(0, 2, 1))
        cH = c[:, :ell].copy()                  # horizontal pairs: Omega and M, mirrored once
        _mirror_pair_antisym(cH)
        Om, Mc = cH[..., :ell].copy(), cH[..., ell:].copy()
        Lam = np.ascontiguousarray(c[:, ell:, :, :ell])
        del c
        # their horizontal derivatives: E e_q(c) = e_q(br) - e_q(E) c, where
        # e_q(e_a(f)) = Hess f(e_q, e_a) + sum_d Kt[d, q, a] e_d(f) and Kt[p, d, q, a]
        # are the frame components of e_q applied to the components of e_a
        Kt = contract(Einv, Jc[:, :ell].transpose(0, 2, 3, 1))
        Hf += contract(Jh, Kt)                  # now Hf[p, b, m, q, a] = e_q(J[b, m, a])
        rhs = Hf.transpose(0, 4, 1, 2, 3) - Hf.transpose(0, 1, 4, 2, 3)   # e_q(br)[p, a, b, m, q]
        del Jh, Hf
        rhs -= contract(cH, Jc)
        del Jc, cH
        Om_g = contract(rhs.transpose(0, 1, 2, 4, 3),
                        Einv[:, :ell].transpose(0, 2, 1)).transpose(0, 1, 2, 4, 3)
        del rhs
        _mirror_pair_antisym(Om_g)

        gjets = metric_program.run(pts, basis=E)
        gv = gjets.values.reshape(P, ell, ell)
        dg = gjets.grads.reshape(P, ell, ell, n)                 # e_d(g_ij), every frame field
        gg = dg[..., :ell].copy()
        rule_out_expressions(gjets)
        not_finite = ~np.isfinite(gv).all(axis=(1, 2))          # an entry overflowed
        rule_out(not_finite | _cholesky_fails(usable(gv)), lambda i: MetricNotSPD(
            f"Gram matrix not positive definite at {pts[i].tolist()}"))
        ginv = np.linalg.inv(usable(gv))
        ginv_g = -(ginv[:, None] @ gg.transpose(0, 3, 1, 2) @ ginv[:, None]).transpose(0, 2, 3, 1)
        fdg = gg.transpose(0, 3, 1, 2)
        fdg_g = contract(dg, Kt)
        fdg_g += gjets.hessians.reshape(P, ell, ell, ell, ell)
        fdg_g = fdg_g.transpose(0, 4, 1, 2, 3)

    warnings = {i: f"frame condition number {cond[i]:.3e} at {pts[i].tolist()}"
                for i in map(int, np.flatnonzero(cond > CONDITION_WARN)) if i not in errors}
    return FrameData(Ev, Einv, gv, gg, ginv, ginv_g, Om, Om_g, Mc, Lam, fdg, fdg_g,
                     errors, warnings)


def snapshot(spec: ManifoldSpec, point) -> FrameSnapshot:
    """Frame matrix, Gram and structure constants at one point; its error is raised.

    Omega/Mcoef come from solving E c = [e_i, e_j](point) (first ell entries
    horizontal), Lambda from the solves for [e_alpha, e_k].
    """
    f = _frame_data(spec, np.asarray(point)[None])
    if f.errors:
        raise f.errors[0]
    return FrameSnapshot(np.asarray(point, dtype=float), f.Ev[0], f.Einv[0], f.gv[0],
                         f.ginv[0], f.Om[0], f.Mc[0], f.Lam[0])
