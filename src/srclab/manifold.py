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

Frame data is computed for a stack of points at once, in layers of an
:class:`~srclab.curvature.Evaluation` whose arrays carry a leading point
axis, so a tensor builds only those it reads.  Each spec compiles its frame
components and metric entries once, into one program
(:class:`~srclab.jets.JetProgram`).  Its values sweep at a (P, n) point array
gives the frame, the metric and their inverses, with an error per point
rather than a failed stack (:func:`frame_values`); its derivative sweep,
seeded with that frame, the identity at a ruled-out point (derivatives along
the frame fields, Hessians along the horizontal ones), the structure
constants and the metric's frame derivatives (:func:`structure_constants`),
and with the Hessians the frame derivatives of both (:func:`frame_derivatives`).
A single point is a stack of one.  Contractions are stacked
matrix products (:func:`contract`), sums of permuted stacks run along the
points (:func:`permuted_sum`); brackets exist only as these structure constants.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field, fields
from collections import namedtuple
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, MetricNotSPD, SingularFrame, SrclabError, ValidationError
from .jets import Expression, ValueSweep, ValueTable

DEFAULT_BOX = (-1.0, 1.0)
SINGULAR_DET_FACTOR = 1e-12
CONDITION_WARN = 1e8
CONDITION_FAIL = 1e12


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
    the hframe.

    The parser checks a parsed spec and construction a spec built in Python, each once.
    A parse passes ``numbering`` (the :class:`~srclab.jets.ValueTable` it filled, the node
    numbers of the frame components and metric entries), and construction only assembles
    the jet program (:meth:`_compile`).  Without it, construction checks the shapes, the
    trees as they enter a new table (:meth:`~srclab.jets.ValueTable.enter`) and symmetry.
    """

    name: str
    coords: tuple[str, ...]
    ell: int
    hframe: tuple[VectorFieldSpec, ...]
    vframe: tuple[VectorFieldSpec, ...]
    metric: tuple[tuple[Expression, ...], ...]
    numbering: InitVar[tuple[ValueTable, list[int]] | None] = field(default=None, kw_only=True)

    @property
    def n(self) -> int:
        return len(self.coords)

    def __post_init__(self, numbering):
        if numbering is not None:       # the parser has made every check below, each at its line
            return self._compile(numbering)
        n, ell = self.n, self.ell
        if not 2 <= ell < n:
            raise ValidationError(f"need 2 <= hdim < dim, got hdim={ell}, dim={n}")
        check_coordinates(self.coords)
        if len(self.hframe) != ell:
            raise ValidationError(f"expected {ell} horizontal fields, got {len(self.hframe)}")
        if len(self.vframe) != n - ell:
            raise ValidationError(f"expected {n - ell} vertical fields, got {len(self.vframe)}")
        for vf in self.hframe + self.vframe:
            if not isinstance(vf, VectorFieldSpec):
                raise ValidationError(f"frame field {vf!r} is not a VectorFieldSpec")
            if vf.n != n:
                raise ValidationError("vector field component count must equal dim")
        if len(self.metric) != ell or any(len(row) != ell for row in self.metric):
            raise ValidationError("metric must be an hdim x hdim array")
        self._compile()
        for i in range(ell):
            for j in range(i):
                if self.metric[i][j] != self.metric[j][i]:
                    raise ValidationError(f"metric entry ({i},{j}) is not symmetric")

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

    def _compile(self, numbering=None) -> None:
        """Without ``numbering``, enter the expressions into a new table (which
        admits only what a parse could read), then store the program
        ``_jet_program``: the frame components field by field, then the metric
        row by row (its mirrored entries share one op), with Hessians for the
        horizontal fields and the metric only, along the first ell vectors of a
        basis."""
        n, ell = self.n, self.ell
        if numbering is None:
            table = ValueTable()
            numbering = table, table.enter(self._all_expressions(), n)
        table, outputs = numbering
        m = n * n + ell * ell                   # the frame components, then the metric entries
        self.__dict__["_jet_program"] = table.program(
            outputs, n, [*range(ell * n), *range(n * n, m)], hdim=ell)


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
    P, k = a.shape[0] or 1, a.shape[-1]      # no points: one stack of no rows (-1 is then 0)
    out = np.matmul(a.reshape(P, -1, k), b.reshape(P, k, -1))
    return out.reshape(a.shape[:-1] + b.shape[2:])


@cache
def _points_last(ndim: int, axes: tuple[int, ...] | None) -> tuple[int, ...]:
    """The transpose putting the point axis last (axes None), or showing that copy as x's."""
    return ((*range(1, ndim), 0) if axes is None
            else (ndim - 1, *(a - 1 for a in axes), *range(len(axes), ndim - 1)))


def permuted_sum(*terms, points_last=False) -> np.ndarray:
    """sign * x.transpose(0, *axes, ...) summed over two or more (sign, x, axes) ``terms`` in
    their order, sign 1 or -1, ``axes`` reordering the axes after the point axis it names.  Each
    distinct x is copied once with the point axis last, every add runs along the points, and the
    sum is copied back points-first and C-contiguous (``points_last``: its points-first view)."""
    last, views = {}, []
    for sign, x, axes in terms:
        if id(x) not in last:   # a points-last x is not copied
            last[id(x)] = np.ascontiguousarray(x.transpose(_points_last(x.ndim, None)))
        views.append(last[id(x)].transpose(_points_last(x.ndim, axes)))
    acc = views[0] if terms[0][0] > 0 else -views[0]
    out = (np.empty(acc.shape[1:] + acc.shape[:1]).transpose(_points_last(acc.ndim, ()))
           if len(acc) > 1 else None)     # the sum points last; one point: plain ufuncs
    for (sign, _, _), t in zip(terms[1:], views[1:]):
        acc = (np.add if sign > 0 else np.subtract)(acc, t, out=out)
    del last, views                                         # the copies go before the copy back
    return np.ascontiguousarray(acc) if out is None else out if points_last else (
        np.ascontiguousarray(out.reshape(len(acc), -1)).reshape(acc.shape))


# pointwise frame data: E (n, n), columns e_1..e_ell, e_{ell+1}..e_n; g (ell, ell); Omega
# (ell, ell, ell) and Mcoef (ell, ell, n-ell), antisymmetric in (i, j); Lambda (n-ell, ell, ell)
FrameSnapshot = namedtuple("FrameSnapshot", "point E Einv g ginv Omega Mcoef Lambda")


class CoefficientJets(NamedTuple):
    values: np.ndarray   # (..., ell, ell, ell): coeff[i, j, k] along e_k of D_{e_i} e_j
    grads: np.ndarray    # (..., ell, ell, ell, ell): grads[..., q] = e_q(values)


# the frame (Ev, the identity where it fails; it seeds the derivative sweep), the metric and
# their inverses at P points: rows of points in ``errors`` are meaningless; ``warnings``
# maps a usable point to its condition-number warning
FrameValues = namedtuple("FrameValues", "Ev Einv gv ginv errors warnings")
# structure constants of the pairs e_a, e_b with b horizontal: Om and Mc, the parts of
# the horizontal pairs cH, and Lam; the metric's horizontal frame derivatives
# gg[p, i, j, k] = e_k(g_ij) and fdg[p, k, i, j]; the jets the frame derivatives take
Brackets = namedtuple("Brackets", "Om Mc Lam cH gg fdg jets")
# the horizontal frame derivatives of Om, fdg and ginv, each e_q on a last axis q < ell
FrameDerivatives = namedtuple("FrameDerivatives", "Om_g fdg_g ginv_g")


@cache
def _pair_slots(m: int):
    """Flat slots i * m + j, i < j, of an m x m block, and their mirrors j * m + i."""
    i, j = np.triu_indices(m, 1)
    return i * m + j, j * m + i


def _mirror_pair_antisym(arr):
    """Overwrite the (j, i) slices of axes 1 and 2 with the exact negation of
    (i, j), i < j, and zero the diagonal; those two axes must merge into one
    without a copy, as they do in a C-order block."""
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


# rows of ruled-out points may overflow or turn NaN; they are never read
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def frame_values(spec: ManifoldSpec, sweep: ValueSweep) -> FrameValues:
    """The frame matrix, the Gram matrix and their inverses from the values
    sweep of the spec's program.

    A point is ruled out by the first of these that applies: frame
    expression, determinant, condition number, metric expression, Cholesky.
    Their bookkeeping runs only for points ruled out or warned.
    """
    pts, ell = sweep.points, spec.ell
    (P, n), nn = pts.shape, pts.shape[1] ** 2
    # program output a*n + m is component m of frame field a: E[p, m, a] = E[m, a]
    E = np.ascontiguousarray(sweep.values[:, :nn].reshape(P, n, n).transpose(0, 2, 1))
    errors: dict[int, SrclabError] = {}
    bad = np.zeros(P, dtype=bool)

    def rule_out(mask, make_error):
        if mask.any():
            for i in np.flatnonzero(mask & ~bad):
                errors[int(i)] = make_error(i)
            bad[mask] = True

    def rule_out_domain(metric: bool):          # the sweep's errors a frame (metric) output owns
        for i, (owner, message) in sorted(sweep.errors.items()):
            if (owner >= nn) == metric and not bad[i]:
                errors[i], bad[i] = DomainError(message), True

    def usable(stack):
        """The stack with ruled-out points set to the identity, so LAPACK
        sees only valid matrices."""
        return np.where(bad[:, None, None], np.eye(stack.shape[-1]), stack) if errors else stack

    rule_out_domain(False)
    # column and Frobenius norms as np.linalg.norm computes them, without its overhead
    Eu = usable(E)
    col_scale = np.multiply.reduce(np.maximum(np.sqrt((Eu * Eu).sum(axis=1)), 1e-300), axis=-1)
    det = np.linalg.det(Eu)
    rule_out(~(np.abs(det) > SINGULAR_DET_FACTOR * col_scale), lambda i: SingularFrame(
        f"frame determinant {det[i]:.3e} below threshold at {pts[i].tolist()}"))
    frobenius = np.sqrt((E * E).sum(axis=(1, 2)))
    svd = ~bad & ~(frobenius ** n < 0.5 * CONDITION_WARN * np.abs(det))
    warned = ()             # cond is 1 wherever cond <= |E|_F^n / |det E| cannot warn
    if svd.any():
        cond = np.ones(P)
        cond[svd] = np.linalg.cond(E[svd])
        rule_out(cond > CONDITION_FAIL, lambda i: SingularFrame(
            f"frame condition number {cond[i]:.3e} at {pts[i].tolist()}"))
        warned = np.flatnonzero(cond > CONDITION_WARN)
    Ev = usable(E)
    Einv = np.linalg.inv(Ev)

    gv = sweep.values[:, nn:].reshape(P, ell, ell).copy(order="K")   # the sweep's values can go
    rule_out_domain(True)
    not_finite = ~np.isfinite(gv).all(axis=(1, 2))          # an entry overflowed
    rule_out(not_finite | _cholesky_fails(usable(gv)), lambda i: MetricNotSPD(
        f"Gram matrix not positive definite at {pts[i].tolist()}"))
    ginv = np.linalg.inv(usable(gv))
    warnings = {i: f"frame condition number {cond[i]:.3e} at {pts[i].tolist()}"
                for i in map(int, warned) if i not in errors}
    return FrameValues(Ev, Einv, gv, ginv, errors, warnings)


def structure_constants(spec: ManifoldSpec, sweep: ValueSweep, frame: FrameValues) -> Brackets:
    """From the derivative sweep seeded with the frame ``Ev``, J[p, b, m, a] = e_a(E[m, b]),
    the structure constants c[p, a, b, s] of the pairs e_a, e_b with b horizontal:
    E c[a, b] = [e_a, e_b] = br[a, b], where br[a, b, m] = J[b, m, a] - J[a, m, b].
    ``jets`` keeps for the frame derivatives, which empty it, J for horizontal b
    and along horizontal a, the Hessians Hf[p, b, m, q, a] of E[m, b] on (e_q, e_a)
    for horizontal b, q, a, dg[p, i, j, d] = e_d(g_ij) and its Hessians."""
    (P, n), ell = frame.Ev.shape[:2], spec.ell
    jets = spec._jet_program.derivatives(sweep, basis=frame.Ev)
    J, H = jets.grads[:, :n * n].reshape(P, n, n, n), jets.hessians
    Jh, Jc = J[:, :ell].copy(), J[..., :ell].copy()
    dg = jets.grads[:, n * n:].reshape(P, ell, ell, n).copy(order="K")
    del jets, J                             # the gradients not read
    c = contract(Jh.transpose(0, 3, 1, 2) - Jc.transpose(0, 1, 3, 2), frame.Einv.transpose(0, 2, 1))
    cH = c[:, :ell].copy()                  # horizontal pairs: Omega and M, mirrored once
    _mirror_pair_antisym(cH)
    gg = dg[..., :ell].copy()
    return Brackets(cH[..., :ell], cH[..., ell:], np.ascontiguousarray(c[:, ell:, :, :ell]), cH,
                    gg, gg.transpose(0, 3, 1, 2),
                    [Jh, Jc, H[:, :ell * n].reshape(P, ell, n, ell, ell), dg,
                     H[:, ell * n:].reshape(P, ell, ell, ell, ell)])


def frame_derivatives(frame: FrameValues, br: Brackets) -> FrameDerivatives:
    """Om_g, fdg_g and ginv_g, emptying ``br.jets``: E e_q(c) = e_q(br) - e_q(E) c,
    where e_q(e_a(f)) = Hess f(e_q, e_a) + sum_d Kt[d, q, a] e_d(f) and Kt[p, d, q, a]
    are the frame components of e_q applied to the components of e_a."""
    Jh, Jc, Hf, dg, gH = br.jets
    br.jets.clear()
    Einv, ginv, gg, ell = frame.Einv, frame.ginv, br.gg, Jh.shape[1]
    Kt = contract(Einv, Jc[:, :ell].transpose(0, 2, 3, 1))
    Hf += contract(Jh, Kt)                  # now Hf[p, b, m, q, a] = e_q(J[b, m, a])
    rhs = Hf.transpose(0, 4, 1, 2, 3) - Hf.transpose(0, 1, 4, 2, 3)   # e_q(br)[p, a, b, m, q]
    del Jh, Hf
    fdg_g = contract(dg, Kt)
    fdg_g += gH
    del dg, gH
    rhs -= contract(br.cH, Jc)
    del Jc
    Om_g = contract(rhs.transpose(0, 1, 2, 4, 3),
                    Einv[:, :ell].transpose(0, 2, 1)).transpose(0, 1, 2, 4, 3)
    del rhs
    _mirror_pair_antisym(Om_g)
    ginv_g = -(ginv[:, None] @ gg.transpose(0, 3, 1, 2) @ ginv[:, None]).transpose(0, 2, 3, 1)
    return FrameDerivatives(Om_g, fdg_g.transpose(0, 4, 1, 2, 3), ginv_g)


def snapshot(spec: ManifoldSpec, point) -> FrameSnapshot:
    """Frame matrix, Gram and structure constants at one point; its error is raised.

    Omega/Mcoef come from solving E c = [e_i, e_j](point) (first ell entries
    horizontal), Lambda from the solves for [e_alpha, e_k].
    """
    from .curvature import Evaluation       # the layer stack is built on this module
    ev = Evaluation(spec, None, np.asarray(point)[None])
    f, b = ev.read("frame"), ev.brackets
    return FrameSnapshot(np.asarray(point, dtype=float), f.Ev[0], f.Einv[0], f.gv[0],
                         f.ginv[0], b.Om[0], b.Mc[0], b.Lam[0])
