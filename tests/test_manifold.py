import re

import numpy as np
import pytest

from srclab.catalog import builtin, catalog_names
from srclab.errors import DomainError, MetricNotSPD, SingularFrame, ValidationError
from srclab.jets import Const, Coord, Mul
from srclab.manifold import (FramePointData, ManifoldSpec, VectorFieldSpec, _frame_data,
                             lie_bracket, project_h, sample_points, snapshot)
from srclab.parser import parse_manifold

RNG_SEED = 1234


def spec_of(name):
    return builtin(name).spec


def test_heisenberg1_snapshot():
    spec = spec_of("heisenberg1")
    for p in sample_points(spec, 5, RNG_SEED):
        snap = snapshot(spec, p)
        assert abs(snap.Omega).max() <= 1e-15
        assert abs(snap.Mcoef[0, 1, 0] - 1.0) <= 1e-14
        assert abs(snap.Mcoef[1, 0, 0] + 1.0) <= 1e-14
        assert abs(snap.Lambda).max() <= 1e-15
        assert np.allclose(snap.g, np.eye(2))
        assert np.allclose(snap.E @ snap.Einv, np.eye(3), atol=1e-12)


def test_heisenberg2_structure_constants():
    spec = spec_of("heisenberg2")
    snap = snapshot(spec, sample_points(spec, 1, RNG_SEED)[0])
    M = snap.Mcoef
    assert abs(M[0, 1, 0] - 1.0) <= 1e-14
    assert abs(M[2, 3, 0] - 1.0) <= 1e-14
    zeroed = M.copy()
    for i, j in ((0, 1), (1, 0), (2, 3), (3, 2)):
        zeroed[i, j, 0] = 0.0
    assert abs(zeroed).max() <= 1e-14
    assert abs(snap.Omega).max() <= 1e-14
    assert abs(snap.Lambda).max() <= 1e-14


def test_free_step2_structure_constants():
    spec = spec_of("free-step2-l3")
    snap = snapshot(spec, sample_points(spec, 1, RNG_SEED)[0])
    want = np.zeros((3, 3, 3))
    want[0, 1, 0] = want[0, 2, 1] = want[1, 2, 2] = 1.0
    want -= want.transpose(1, 0, 2)
    assert abs(snap.Mcoef - want).max() <= 1e-13
    assert abs(snap.Omega).max() <= 1e-13
    assert abs(snap.Lambda).max() <= 1e-13


def test_flat3_all_structure_constants_vanish():
    spec = spec_of("flat3")
    snap = snapshot(spec, np.array([0.2, -0.4, 0.9]))
    assert abs(snap.Omega).max() == 0.0
    assert abs(snap.Mcoef).max() == 0.0
    assert abs(snap.Lambda).max() == 0.0


def test_involutive_has_horizontal_bracket_but_no_vertical():
    spec = spec_of("involutive-l3")
    snap = snapshot(spec, np.array([0.3, -0.2, 0.5, 0.1]))
    assert abs(snap.Mcoef).max() <= 1e-15
    assert abs(snap.Omega[0, 2, 1] - 1.0) <= 1e-14   # [e1, e3] = e2


def test_bracket_examples():
    spec = spec_of("heisenberg1")
    X1, X2 = spec.hframe
    p = np.array([0.5, -0.1, 0.7])
    assert np.allclose(lie_bracket(X1, X2).values(p), [0.0, 0.0, 1.0])
    assert abs(lie_bracket(X1, X1).values(p)).max() == 0.0
    dx = VectorFieldSpec((Const(1.0), Const(0.0), Const(0.0)))
    dy = VectorFieldSpec((Const(0.0), Const(1.0), Const(0.0)))
    assert abs(lie_bracket(dx, dy).values(p)).max() == 0.0


@pytest.mark.parametrize("name", ["curved-metric-l3", "involutive-l3", "heisenberg2"])
def test_jacobi_identity(name):
    spec = spec_of(name)
    fields = spec.hframe + spec.vframe
    rng = np.random.default_rng(RNG_SEED)
    triples = [tuple(rng.integers(0, len(fields), 3)) for _ in range(4)]
    for p in sample_points(spec, 5, RNG_SEED):
        for (a, b, c) in triples:
            X, Y, Z = fields[a], fields[b], fields[c]
            total = (lie_bracket(lie_bracket(X, Y), Z).values(p)
                     + lie_bracket(lie_bracket(Y, Z), X).values(p)
                     + lie_bracket(lie_bracket(Z, X), Y).values(p))
            scale = max(1.0, abs(lie_bracket(X, Y).values(p)).max())
            assert abs(total).max() <= 1e-9 * scale


@pytest.mark.parametrize("name", catalog_names())
def test_snapshot_reconstructs_brackets(name):
    spec = spec_of(name)
    for p in sample_points(spec, 20, RNG_SEED):
        snap = snapshot(spec, p)
        for i in range(spec.ell):
            for j in range(i + 1, spec.ell):
                direct = lie_bracket(spec.hframe[i], spec.hframe[j]).values(p)
                rebuilt = (snap.E[:, : spec.ell] @ snap.Omega[i, j]
                           + snap.E[:, spec.ell:] @ snap.Mcoef[i, j])
                assert abs(rebuilt - direct).max() <= 1e-10 * max(1.0, abs(direct).max())


def test_project_h_examples_and_linearity():
    spec = spec_of("heisenberg1")
    origin = np.zeros(3)
    assert np.allclose(project_h(spec, origin, [0.0, 0.0, 1.0]), [0.0, 0.0])
    p = np.array([0.4, 1.2, -0.3])
    snap = snapshot(spec, p)
    assert np.allclose(project_h(spec, p, snap.E[:, 0]), [1.0, 0.0], atol=1e-13)
    assert np.allclose(project_h(spec, p, snap.E[:, 2]), [0.0, 0.0], atol=1e-13)
    u, v = np.array([0.3, -1.0, 2.0]), np.array([1.5, 0.2, -0.7])
    lin = project_h(spec, p, 2.0 * u - 3.0 * v)
    assert np.allclose(lin, 2.0 * project_h(spec, p, u) - 3.0 * project_h(spec, p, v),
                       atol=1e-12)
    # projecting the horizontal reconstruction returns the same coefficients
    coeffs = project_h(spec, p, u)
    rebuilt = snap.E[:, : spec.ell] @ coeffs
    assert np.allclose(project_h(spec, p, rebuilt), coeffs, atol=1e-12)


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
        snapshot(spec, np.array([0.0, 0.2, 0.3]))
    snapshot(spec, np.array([0.5, 0.2, 0.3]))
    # in one batch the singular point is marked alone
    bad, good = _frame_data(spec, np.array([[0.0, 0.2, 0.3], [0.5, 0.2, 0.3]]))
    assert isinstance(bad, SingularFrame)
    assert isinstance(good, FramePointData)


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
    for got, (p, err) in zip(_frame_data(spec, points), want):
        if err is None:
            assert isinstance(got, FramePointData)
            continue
        assert (type(got), str(got)) == (type(err), str(err)), p
        with pytest.raises(type(err), match=re.escape(str(err))):
            snapshot(spec, np.array(p, dtype=float))


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
        snapshot(spec, np.array([-0.5, 0.0, 0.0]))
    snapshot(spec, np.array([0.5, 0.0, 0.0]))
    overflowing = parse_manifold(text.replace("  x, 0", "  exp(1000*x), 0"))
    with pytest.raises(MetricNotSPD):
        snapshot(overflowing, np.array([0.9, 0.0, 0.0]))


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
    with pytest.raises(ValidationError):
        ManifoldSpec("bad", ("x", "y", "z"), 2, frame2, vert,
                     ((Coord(5), c0), (c0, c1)))                        # bad index
    with pytest.raises(ValidationError):
        ManifoldSpec("bad", ("x", "y", "dx"), 2, frame2, vert, eye)     # d-ambiguity


def test_sample_points_prefix_stable_and_boxed():
    spec = spec_of("heisenberg2")
    a = sample_points(spec, 10, 7)
    b = sample_points(spec, 25, 7)
    assert (a == b[:10]).all()
    assert (np.abs(b) <= 1.0).all()
    boxed = ManifoldSpec("boxed", spec.coords, spec.ell, spec.hframe, spec.vframe,
                         spec.metric, box=(((0.5, 1.0),) * 5))
    pts = sample_points(boxed, 50, 3)
    assert (pts >= 0.5).all() and (pts <= 1.0).all()


def test_gram_matrix_spd_on_catalog():
    for name in catalog_names():
        spec = spec_of(name)
        for p in sample_points(spec, 10, RNG_SEED):
            snap = snapshot(spec, p)
            eigs = np.linalg.eigvalsh(snap.g)
            assert eigs.min() > 0
            assert np.allclose(snap.g, snap.g.T)


def test_frame_matrix_columns_are_frame_fields():
    spec = spec_of("heisenberg2")
    p = sample_points(spec, 1, 5)[0]
    snap = snapshot(spec, p)
    for a, vf in enumerate(spec.hframe + spec.vframe):
        assert np.allclose(snap.E[:, a], vf.as_field().values(p))


def test_mul_expression_frame_component():
    vf = VectorFieldSpec((Mul(Const(2.0), Coord(1)), Const(1.0)))
    assert vf.as_field().values(np.array([0.0, 3.0])).tolist() == [6.0, 1.0]
