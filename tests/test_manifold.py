import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from sympy import Rational as Q

from jet_reference import jet_eval
from oracles import _bracket, _to_array, sym_manifold

from srclab.catalog import builtin, catalog_names
from srclab.connections import OneFormData
from srclab.curvature import TENSORS, Evaluation
from srclab.errors import (DimensionMismatch, DomainError, MetricNotSPD, SingularFrame,
                           ValidationError)
from srclab.jets import Call, Const, Coord, Mul, Pow
from srclab.manifold import ManifoldSpec, VectorFieldSpec, permuted_sum, sample_points
from srclab.parser import parse_manifold

RNG_SEED = 1234


def spec_of(name):
    return builtin(name).spec


def frame_at(spec, points):
    """The frame layers (frame values, brackets) of an Evaluation of a stack of
    points, after raising the error of the first point where the frame fails."""
    ev = Evaluation(spec, None, np.asarray(points, dtype=float).reshape(-1, spec.n))
    return ev.read("frame"), ev.brackets


def rebuilt_brackets(spec, points):
    """[e_i, e_j] in coordinates, br[p, i, j, m], from an Evaluation's frame, Omega and M."""
    f, b = frame_at(spec, points)
    E, ell = f.Ev, spec.ell
    return (np.einsum("pma,pija->pijm", E[:, :, :ell], b.Om)
            + np.einsum("pmb,pijb->pijm", E[:, :, ell:], b.Mc))


def test_heisenberg1_snapshot():
    spec = spec_of("heisenberg1")
    f, b = frame_at(spec, sample_points(spec, 5, RNG_SEED))
    assert abs(b.Om).max() <= 1e-15
    assert abs(b.Mc[:, 0, 1, 0] - 1.0).max() <= 1e-14
    assert abs(b.Mc[:, 1, 0, 0] + 1.0).max() <= 1e-14
    assert abs(b.Lam).max() <= 1e-15
    assert np.allclose(f.gv, np.eye(2))
    assert np.allclose(f.Ev @ f.Einv, np.eye(3), atol=1e-12)


def test_heisenberg2_structure_constants():
    spec = spec_of("heisenberg2")
    _, b = frame_at(spec, sample_points(spec, 1, RNG_SEED))
    M = b.Mc[0]
    assert abs(M[0, 1, 0] - 1.0) <= 1e-14
    assert abs(M[2, 3, 0] - 1.0) <= 1e-14
    zeroed = M.copy()
    for i, j in ((0, 1), (1, 0), (2, 3), (3, 2)):
        zeroed[i, j, 0] = 0.0
    assert abs(zeroed).max() <= 1e-14
    assert abs(b.Om).max() <= 1e-14
    assert abs(b.Lam).max() <= 1e-14


def test_free_step2_structure_constants():
    spec = spec_of("free-step2-l3")
    _, b = frame_at(spec, sample_points(spec, 1, RNG_SEED))
    want = np.zeros((3, 3, 3))
    want[0, 1, 0] = want[0, 2, 1] = want[1, 2, 2] = 1.0
    want -= want.transpose(1, 0, 2)
    assert abs(b.Mc[0] - want).max() <= 1e-13
    assert abs(b.Om).max() <= 1e-13
    assert abs(b.Lam).max() <= 1e-13


def test_flat3_all_structure_constants_vanish():
    _, b = frame_at(spec_of("flat3"), [0.2, -0.4, 0.9])
    assert abs(b.Om).max() == 0.0
    assert abs(b.Mc).max() == 0.0
    assert abs(b.Lam).max() == 0.0


def test_involutive_has_horizontal_bracket_but_no_vertical():
    _, b = frame_at(spec_of("involutive-l3"), [0.3, -0.2, 0.5, 0.1])
    assert abs(b.Mc).max() <= 1e-15
    assert abs(b.Om[0, 0, 2, 1] - 1.0) <= 1e-14   # [e1, e3] = e2


def test_bracket_examples():
    # heisenberg1: [X1, X2] = Z = dz, [X1, X1] = 0; flat3: [dx, dy] = 0
    p = [0.5, -0.1, 0.7]
    f, b = frame_at(spec_of("heisenberg1"), p)
    E, Om, Mc = f.Ev[0], b.Om[0], b.Mc[0]
    assert np.allclose(E[:, :2] @ Om[0, 1] + E[:, 2:] @ Mc[0, 1], [0.0, 0.0, 1.0])
    assert abs(Om[0, 0]).max() == 0.0 and abs(Mc[0, 0]).max() == 0.0
    _, flat = frame_at(spec_of("flat3"), p)
    assert abs(flat.Om).max() == 0.0 and abs(flat.Mc).max() == 0.0


@pytest.mark.parametrize("name", ["curved-metric-l3", "involutive-l3", "heisenberg2"])
def test_jacobi_identity(name):
    """Brackets rebuilt from an Evaluation's Omega and M satisfy the Jacobi
    identity on horizontal triples: [V, Z] = DZ V - DV Z for V = [X, Y], with
    DZ from jets and DV Z a central difference (step 1e-5) of V along Z."""
    spec = spec_of(name)
    ell, points = spec.ell, sample_points(spec, 5, RNG_SEED)
    fields = [vf.components for vf in spec.hframe]
    # e_k at each point, Z[p, k, m], and its Jacobian DZ[p, k, m, q]
    Z = np.array([[[jet_eval(c, p, 0).value for c in z] for z in fields] for p in points])
    DZ = np.array([[[jet_eval(c, p, 1).grad for c in z] for z in fields] for p in points])
    V = rebuilt_brackets(spec, points)                                       # [p, i, j, m]
    shifted = np.concatenate([points[:, None] + 1e-5 * Z, points[:, None] - 1e-5 * Z])
    plus, minus = rebuilt_brackets(spec, shifted).reshape(2, len(points), ell, *V.shape[1:])
    DV = (plus - minus) / 2e-5                                               # [p, k, i, j, m]

    def nested(i, j, k):                    # [[e_i, e_j], e_k] at every point
        return np.einsum("pmq,pq->pm", DZ[:, k], V[:, i, j]) - DV[:, k, i, j]

    rng = np.random.default_rng(RNG_SEED)
    triples = [tuple(rng.integers(0, ell, 3)) for _ in range(4)]
    for (i, j, k) in triples:
        total = nested(i, j, k) + nested(j, k, i) + nested(k, i, j)
        scale = np.maximum(1.0, abs(V[:, i, j]).max(axis=1))
        assert (abs(total).max(axis=1) <= 1e-9 * scale).all()


@pytest.mark.parametrize("name", catalog_names())
def test_snapshot_reconstructs_brackets(name):
    spec, sym = spec_of(name), sym_manifold(name)
    points = sample_points(spec, 20, RNG_SEED)
    for p, rebuilt in zip(points, rebuilt_brackets(spec, points)):
        subs = dict(zip(sym.coords, (Q(float(x)) for x in p)))      # exact binary values
        for i in range(spec.ell):
            for j in range(i + 1, spec.ell):
                direct = _to_array(_bracket(sym.coords, sym.hframe[i], sym.hframe[j]), subs)
                assert abs(rebuilt[i, j] - direct).max() <= 1e-10 * max(1.0, abs(direct).max())


def test_project_h_examples_and_linearity():
    """Horizontal coefficients of v in the frame splitting (along V1), read
    from the inverse frame of an Evaluation of the point."""
    spec = spec_of("heisenberg1")

    def project_h(p, v):
        return (Evaluation(spec, None, np.asarray(p)[None]).frame.Einv[0] @ v)[:spec.ell]

    origin = np.zeros(3)
    assert np.allclose(project_h(origin, [0.0, 0.0, 1.0]), [0.0, 0.0])
    p = np.array([0.4, 1.2, -0.3])
    E = frame_at(spec, p)[0].Ev[0]
    assert np.allclose(project_h(p, E[:, 0]), [1.0, 0.0], atol=1e-13)
    assert np.allclose(project_h(p, E[:, 2]), [0.0, 0.0], atol=1e-13)
    u, v = np.array([0.3, -1.0, 2.0]), np.array([1.5, 0.2, -0.7])
    lin = project_h(p, 2.0 * u - 3.0 * v)
    assert np.allclose(lin, 2.0 * project_h(p, u) - 3.0 * project_h(p, v),
                       atol=1e-12)
    # projecting the horizontal reconstruction returns the same coefficients
    coeffs = project_h(p, u)
    rebuilt = E[:, : spec.ell] @ coeffs
    assert np.allclose(project_h(p, rebuilt), coeffs, atol=1e-12)


def test_singular_frame_raises():
    # first frame field degenerates at x = 0
    text = """\
manifold degenerate
dim 3
hdim 2
coords x y z
hframe
  X1 = x dx
  X2 = dy
vframe
  Z = dz
metric identity
"""
    spec = parse_manifold(text)
    with pytest.raises(SingularFrame):
        frame_at(spec, [0.0, 0.2, 0.3])
    frame_at(spec, [0.5, 0.2, 0.3])
    # in one batch the singular point is marked alone
    batch = Evaluation(spec, None, np.array([[0.0, 0.2, 0.3], [0.5, 0.2, 0.3]])).frame
    assert isinstance(batch.errors[0], SingularFrame)
    assert list(batch.errors) == [0]


def test_batch_errors_per_point_in_precedence_order():
    """Frame expression, then determinant, then condition number, then metric
    expression, then Cholesky: each point reports the first that applies."""
    text = """\
manifold precedence
dim 3
hdim 2
coords x y z
hframe
  X1 = x*sqrt(y) dx
  X2 = dy
vframe
  Z = dz
metric rows
  x + sqrt(z), 0
  0, 1
"""
    spec = parse_manifold(text)
    want = [
        ((0, -1, -1), DomainError("sqrt of negative value -1.0")),
        ((0, 1, -1), SingularFrame(
            "frame determinant 0.000e+00 below threshold at [0.0, 1.0, -1.0]")),
        ((1e-13, 1, -1), SingularFrame(
            "frame condition number 1.000e+13 at [1e-13, 1.0, -1.0]")),
        ((-1, 1, -0.25), DomainError("sqrt of negative value -0.25")),
        ((-1, 1, 0.25), MetricNotSPD(
            "Gram matrix not positive definite at [-1.0, 1.0, 0.25]")),
        ((1, 1, 0.25), None),
    ]
    points = np.array([p for p, _ in want], dtype=float)
    batch = Evaluation(spec, None, points).frame
    for i, (p, err) in enumerate(want):
        if err is None:
            assert i not in batch.errors
            continue
        got = batch.errors[i]
        assert (type(got), str(got)) == (type(err), str(err)), p
        with pytest.raises(type(err), match=re.escape(str(err))):
            frame_at(spec, p)
    # good points have neither errors nor warnings, and a point that only warns
    # (condition number between CONDITION_WARN and CONDITION_FAIL) is not ruled out,
    # each at one point and on a stack
    good = np.array([(1, 1, 0.25), (0.5, 2, 1)], dtype=float)
    for stack in (good[:1], good):
        frame = Evaluation(spec, None, stack).frame
        assert (frame.errors, frame.warnings) == ({}, {})
    warns = np.array([(1e-10, 1, 0.25)])
    warning = "frame condition number 1.000e+10 at [1e-10, 1.0, 0.25]"
    for stack, errors in ((warns, {}), (np.concatenate([points, warns]), batch.errors)):
        frame = Evaluation(spec, None, stack).frame
        assert frame.warnings == {len(stack) - 1: warning}
        assert frame.errors.keys() == errors.keys()


def test_metric_not_spd_raises():
    text = """\
manifold indefinite
dim 3
hdim 2
coords x y z
hframe
  X1 = dx
  X2 = dy
vframe
  Z = dz
metric rows
  x, 0
  0, 1
"""
    spec = parse_manifold(text)
    with pytest.raises(MetricNotSPD):
        frame_at(spec, [-0.5, 0.0, 0.0])
    frame_at(spec, [0.5, 0.0, 0.0])
    overflowing = parse_manifold(text.replace("  x, 0", "  exp(1000*x), 0"))
    with pytest.raises(MetricNotSPD):
        frame_at(overflowing, [0.9, 0.0, 0.0])


def test_manifold_validation():
    c1 = Const(1.0)
    c0 = Const(0.0)
    frame2 = (VectorFieldSpec((c1, c0, c0)), VectorFieldSpec((c0, c1, c0)))
    vert = (VectorFieldSpec((c0, c0, c1)),)
    eye = ((c1, c0), (c0, c1))
    with pytest.raises(ValidationError):
        ManifoldSpec("bad", ("x", "y", "z"), 3, frame2 + vert, (), eye)  # ell = n
    with pytest.raises(ValidationError):
        ManifoldSpec("bad", ("x", "x", "z"), 2, frame2, vert, eye)      # dup coords
    with pytest.raises(ValidationError):
        ManifoldSpec("bad", ("x", "y", "z"), 2, frame2, vert,
                     ((c1, Coord(0)), (c0, c1)))                        # asymmetric
    with pytest.raises(DimensionMismatch):
        ManifoldSpec("bad", ("x", "y", "z"), 2, frame2, vert,
                     ((Coord(5), c0), (c0, c1)))                        # bad index
    with pytest.raises(ValidationError):
        ManifoldSpec("bad", ("x", "y", "dx"), 2, frame2, vert, eye)     # d-ambiguity


@pytest.mark.parametrize("place", ["frame", "metric"])
@pytest.mark.parametrize("index,message", [
    (-1, "coordinate index -1 out of range for dimension 3"),
    (3, "coordinate index 3 out of range for dimension 3"),
    (1.5, "coordinate index 1.5 out of range for dimension 3")])
def test_coordinate_index_outside_the_chart_fails_at_construction(place, index, message):
    """A coordinate index that is not an int in 0..n-1, anywhere in a spec built in
    Python, is a DimensionMismatch when the spec is made, not an error at evaluation."""
    c1, c0, bad = Const(1.0), Const(0.0), Mul(Coord(index), Coord(0))
    frame2 = (VectorFieldSpec((c1, c0, bad if place == "frame" else c0)),
              VectorFieldSpec((c0, c1, c0)))
    vert = (VectorFieldSpec((c0, c0, c1)),)
    metric = ((Mul(c1, bad) if place == "metric" else c1, c0), (c0, c1))
    with pytest.raises(DimensionMismatch) as excinfo:
        ManifoldSpec("bad", ("x", "y", "z"), 2, frame2, vert, metric)
    assert str(excinfo.value) == message


_C1, _C0 = Const(1.0), Const(0.0)
_FLAT3 = dict(name="bad", coords=("x", "y", "z"), ell=2,
              hframe=(VectorFieldSpec((_C1, _C0, _C0)), VectorFieldSpec((_C0, _C1, _C0))),
              vframe=(VectorFieldSpec((_C0, _C0, _C1)),), metric=((_C1, _C0), (_C0, _C1)))


@pytest.mark.parametrize("change,message", [
    ({"ell": 1}, "need 2 <= hdim < dim, got hdim=1, dim=3"),
    ({"hframe": _FLAT3["hframe"][:1]}, "expected 2 horizontal fields, got 1"),
    ({"vframe": _FLAT3["vframe"] * 2}, "expected 1 vertical fields, got 2"),
    ({"vframe": (VectorFieldSpec((_C0, _C1)),)}, "vector field component count must equal dim"),
    ({"metric": ((_C1, _C0), (_C0,))}, "metric must be an hdim x hdim array"),
    ({"metric": ((_C1, _C0), (_C0, _C1), (_C0, _C0))}, "metric must be an hdim x hdim array"),
    ({"metric": ((_C1, _C0), (Coord(0), _C1))}, "metric entry (1,0) is not symmetric"),
    ({"metric": ((Call("tan", Coord(0)), _C0), (_C0, _C1))},
     "Call.fn 'tan' is not a function of FUNCTIONS"),
    ({"metric": ((Const("a"), _C0), (_C0, _C1))}, "Const.value 'a' does not read back as a float"),
    ({"metric": ((Const(10 ** 400), _C0), (_C0, _C1))},
     "Const.value an int of 1329 bits does not read back as a float"),
    ({"metric": ((Const(float("nan")), _C0), (_C0, _C1))},
     "Const.value nan does not read back as a float"),
    ({"metric": ((Pow(Coord(0), 2.5), _C0), (_C0, _C1))},
     "Pow.exponent 2.5 does not read back as an int exponent"),
    ({"metric": ((Pow(Coord(0), 2 ** 60), _C0), (_C0, _C1))},
     "Pow.exponent 1152921504606846976 does not read back as an int exponent")])
def test_malformed_specs_built_in_python_raise_validation_errors(change, message):
    """Each structural check of a spec built in Python, and each grammar rule a metric
    entry breaks, raises ValidationError with its message."""
    with pytest.raises(ValidationError) as excinfo:
        ManifoldSpec(**{**_FLAT3, **change})
    assert excinfo.value.message == message


def test_sample_points_prefix_stable_and_boxed():
    spec = spec_of("heisenberg2")
    a = sample_points(spec, 10, 7)
    b = sample_points(spec, 25, 7)
    assert (a == b[:10]).all()
    assert (np.abs(b) <= 1.0).all()


def test_gram_matrix_spd_on_catalog():
    for name in catalog_names():
        spec = spec_of(name)
        g = frame_at(spec, sample_points(spec, 10, RNG_SEED))[0].gv
        assert np.linalg.eigvalsh(g).min() > 0
        assert np.allclose(g, g.transpose(0, 2, 1))


def test_frame_matrix_columns_are_frame_fields():
    spec = spec_of("heisenberg2")
    p = sample_points(spec, 1, 5)[0]
    E = frame_at(spec, p)[0].Ev[0]
    for a, vf in enumerate(spec.hframe + spec.vframe):
        assert np.allclose(E[:, a], [jet_eval(c, p, 0).value for c in vf.components])


def test_mul_expression_frame_component():
    vf = VectorFieldSpec((Mul(Const(2.0), Coord(1)), Const(1.0)))
    assert [jet_eval(c, [0.0, 3.0], 0).value for c in vf.components] == [6.0, 1.0]


@pytest.mark.parametrize("name", catalog_names())
def test_pickled_spec_rebuilds_its_program(name):
    """A spec survives pickle: its state is the fields alone, loading compiles
    the one frame and metric program again, op for op, and an Evaluation of
    the loaded spec gives every tensor of the original's bit for bit."""
    entry = builtin(name)
    spec = entry.spec
    assert "_jet_program" not in spec.__getstate__()
    loaded = pickle.loads(pickle.dumps(spec))
    assert loaded == spec and loaded._jet_program is not spec._jet_program
    assert loaded._jet_program.ops == spec._jet_program.ops
    points = sample_points(spec, 5, RNG_SEED)
    pi = entry.oneform(entry.pi_variants[-1].name)
    want, got = Evaluation(spec, pi, points), Evaluation(loaded, pi, points)
    for tensor in TENSORS:
        if spec.ell >= 3 or tensor not in ("S", "Sbar", "C", "Cbar"):
            assert np.asarray(got[tensor]).tobytes() == np.asarray(want[tensor]).tobytes(), tensor


H1 = builtin("heisenberg1").spec
PYTHON_BUILT = [
    (lambda: replace(H1, hframe=(VectorFieldSpec((1.0, Const(0.0), Const(0.0))), H1.hframe[1])),
     "expected an expression, got 1.0"),
    (lambda: replace(H1, metric=((1.0, Const(0.0)), (Const(0.0), Const(1.0)))),
     "expected an expression, got 1.0"),
    (lambda: replace(H1, metric=((Const(1.0), 0.0), (Const(0.0), Const(1.0)))),
     "expected an expression, got 0.0"),
    (lambda: OneFormData((1.0, 0.0), 3), "expected an expression, got 1.0"),
    (lambda: replace(H1, hframe=((Const(1.0), Const(0.0), Const(0.0)), H1.hframe[1])),
     "frame field (Const(value=1.0), Const(value=0.0), Const(value=0.0)) "
     "is not a VectorFieldSpec"),
]


@pytest.mark.parametrize("case", range(len(PYTHON_BUILT)))
def test_python_built_input_of_the_wrong_type_is_a_validation_error(case):
    """A float where a spec or a one-form holds an expression, and a tuple
    where a spec holds a frame field, raise a ValidationError naming it."""
    build, message = PYTHON_BUILT[case]
    with pytest.raises(ValidationError) as excinfo:
        build()
    assert (excinfo.value.message, excinfo.value.line) == (message, None)


def _permuted_sum_entries(terms):
    """permuted_sum's documented sum entry by entry, in its order of operations:
    the first term (negated when its sign is -1), then + or - each next term."""
    views = [(sign, x.transpose(0, *axes, *range(len(axes) + 1, x.ndim)))
             for sign, x, axes in terms]
    out = np.empty(views[0][1].shape)
    for index in np.ndindex(*out.shape):
        sign, t = views[0]
        v = t[index] if sign > 0 else -t[index]
        for sign, t in views[1:]:
            v = v + t[index] if sign > 0 else v - t[index]
        out[index] = v
    return out


def _special_entries(rng, shape):
    """Random entries with -0.0, +0.0, +-inf and NaN among them, read-only."""
    x = rng.standard_normal(shape)
    for value, share in ((-0.0, 0.2), (0.0, 0.1), (np.inf, 0.03), (-np.inf, 0.03),
                         (np.nan, 0.03)):
        x[rng.random(shape) < share] = value
    x.flags.writeable = False
    return x


@pytest.mark.parametrize("lead", [1, 5])
def test_permuted_sum_is_its_formula_bit_for_bit(lead):
    """Sums of signed, axis-permuted stacks of ranks 3 to 5 (one operand in
    several terms, a partial permutation, a negated first term, an operand
    laid out points-last, one read through a transposed view) on 1 and 5
    points: the same values and signs, zeros, infinities and NaN included,
    as the entry-by-entry sum; a new C-contiguous points-first array, or with
    points_last its view of a sum whose point axis runs innermost; no input
    written."""
    rng = np.random.default_rng(lead)
    x3, y3 = (_special_entries(rng, (lead, 3, 3, 3)) for _ in range(2))
    x4, y4 = (_special_entries(rng, (lead, 2, 3, 2, 3)) for _ in range(2))
    x5 = _special_entries(rng, (lead, 2, 2, 2, 2, 2))
    wide = _special_entries(rng, (lead, 3, 3, 3)).transpose(0, 3, 1, 2)
    last = np.moveaxis(np.ascontiguousarray(np.moveaxis(y3, 0, -1)), -1, 0)
    last.flags.writeable = False
    cases = [
        ((1, x3, ()), (1, x3, (2, 1)), (-1, x3, (3, 2, 1)),
         (1, y3, ()), (-1, y3, (1, 3, 2)), (-1, y3, (3, 1, 2))),
        ((-1, x4, (3, 2, 1, 4)), (1, y4, (3, 4, 1, 2)), (-1, x4, (1, 4, 3, 2))),
        ((1, x5, (4, 1, 2, 3)), (-1, x5, (1, 4, 2, 3)), (-1, x5, (2, 1))),
        ((1, wide, (2, 1)), (1, last, ()), (-1, wide, ()), (1, x3, (3, 1, 2))),
    ]
    for case, terms in enumerate(cases):
        inputs = [x for _, x, _ in terms]
        before = [x.copy() for x in inputs]
        with np.errstate(invalid="ignore"):
            want = _permuted_sum_entries(terms)
        for points_last in (False, True):
            with np.errstate(invalid="ignore"):
                got = permuted_sum(*terms, points_last=points_last)
            assert got.shape == want.shape, case
            assert got.flags.c_contiguous if not points_last or lead == 1 else (
                np.moveaxis(got, 0, -1).flags.c_contiguous), case
            assert np.array_equal(got, want, equal_nan=True), case
            assert np.array_equal(np.signbit(got), np.signbit(want)), case
            assert not any(np.shares_memory(got, x) for x in inputs), case
        assert all(not x.flags.writeable and x.tobytes() == y.tobytes()
                   for x, y in zip(inputs, before)), case
