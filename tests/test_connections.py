import numpy as np
import pytest

from jet_reference import jet_eval

from srclab.catalog import builtin, catalog_names
from srclab.connections import (OneFormData, covariant_oneform, semi, semi_connection,
                                torsion_tensor)
from srclab.curvature import Evaluation
from srclab.errors import DimensionMismatch
from srclab.jets import Const, Coord, Mul
from srclab.manifold import sample_points
from srclab.parser import parse_manifold

RNG_SEED = 77

DIAGNOSTIC = """\
manifold diagnostic
dim 3
hdim 2
coords x y z
hframe
  X1 = dx
  X2 = dy
vframe
  Z = dz
metric rows
  1 + x^2, 0
  0, 1
"""


def at(spec, pi, point):
    """An Evaluation at one point."""
    return Evaluation(spec, pi, np.asarray(point, dtype=float)[None])


def sup(x):
    """Per point, the largest magnitude of a stack (leading point axis)."""
    return np.abs(x).reshape(len(x), -1).max(axis=1)


def metricity_residual(ev, co):
    """Per point of ``ev``, e_k(g_ij) - co[k,i,e] g_ej - co[k,j,e] g_ei relative to
    max(1, |e(g)|, |co|), for coefficients ``co`` on its points."""
    fdg, gv = ev.brackets.fdg, ev.frame.gv
    resid = fdg - np.einsum("pkie,pej->pkij", co, gv) - np.einsum("pkje,pei->pkij", co, gv)
    return sup(resid) / np.maximum(1.0, np.maximum(sup(fdg), sup(co)))


def test_koszul_diagnostic_coefficient():
    spec = parse_manifold(DIAGNOSTIC)
    xs = np.array([0.0, 0.4, -0.8])
    co = Evaluation(spec, None, [[x, 0.1, 0.2] for x in xs]).read("nab")
    want = np.zeros((3, 2, 2, 2))
    want[:, 0, 0, 0] = xs / (1 + xs * xs)
    assert abs(co - want).max() <= 1e-15


def test_koszul_flat_and_heisenberg_vanish():
    for name in ("flat3", "heisenberg1", "heisenberg2", "free-step2-l3"):
        spec = builtin(name).spec
        ev = Evaluation(spec, None, sample_points(spec, 5, RNG_SEED))
        assert abs(ev.read("nab")).max() <= 1e-14


@pytest.mark.parametrize("name", catalog_names())
def test_metricity_and_torsion_invariants(name):
    spec = builtin(name).spec
    ev = Evaluation(spec, None, sample_points(spec, 20, RNG_SEED))
    assert (metricity_residual(ev, ev.read("nab")) <= 1e-9).all()
    assert abs(ev.T_nab).max() <= 1e-10


@pytest.mark.parametrize("name", ["heisenberg2", "curved-metric-l3", "involutive-l3"])
def test_semi_connection_metricity_and_torsion(name):
    entry = builtin(name)
    spec = entry.spec
    pi = entry.oneform(entry.pi_variants[1].name)
    ev = Evaluation(spec, pi, sample_points(spec, 20, RNG_SEED))
    eye = np.eye(spec.ell)
    assert (metricity_residual(ev, ev.read("D")) <= 1e-9).all()
    piv = ev.pij.values
    want = np.einsum("ik,pj->pijk", eye, piv) - np.einsum("jk,pi->pijk", eye, piv)
    assert abs(ev.T_D - want).max() <= 1e-10


def test_semi_connection_heisenberg2_hand_values():
    spec = builtin("heisenberg2").spec
    pi = OneFormData.constant([1.0, 0.0, 0.0, 0.0], 5)
    ev = at(spec, pi, [0.3, 0.1, -0.2, 0.5, 0.9])
    G = ev.read("D")[0]
    assert G[1, 0, 1] == 1.0      # delta_2^2 pi_1 - g_21 pi^2
    assert G[0, 0, 0] == 0.0      # pi_1 - pi^1
    assert G[2, 2, 0] == -1.0     # -g_33 pi^1
    T = ev.T_D[0]
    assert T[1, 0, 1] == 1.0
    assert T[0, 1, 1] == -1.0


def test_semi_connection_with_zero_pi_is_koszul():
    """semi() itself, not the Evaluation (whose D is nab on the zero one-form),
    returns the Koszul coefficients for pi = 0, with a vanishing torsion."""
    spec = builtin("curved-metric-l3").spec
    pi0 = OneFormData.zero(spec.ell, spec.n)
    p = sample_points(spec, 1, RNG_SEED)[0]
    ev = at(spec, pi0, p)
    D = semi(ev.frame, ev.nab, ev.pij, ev.piu)
    assert (D[0] == ev.nab[0]).all()
    assert abs(torsion_tensor(D, ev.brackets.Om)[0]).max() <= 1e-15


def nabla_oneform(spec, pi, point):
    """Koszul covariant derivative of pi: e_i(pi_j) - {_ij^k} pi_k."""
    ev = at(spec, pi, point)
    return covariant_oneform(ev.nab, ev.pij)[0]


def test_nabla_oneform_examples():
    h2 = builtin("heisenberg2").spec
    const = OneFormData.constant([1.0, 0.0, 0.0, 0.0], 5)
    p = np.array([0.2, -0.4, 0.6, 0.1, 0.3])
    assert abs(nabla_oneform(h2, const, p)).max() == 0.0

    flat = builtin("flat3").spec
    pix = OneFormData((Coord(0), Const(0.0)), 3)
    out = nabla_oneform(flat, pix, np.array([0.7, -0.1, 0.4]))
    want = np.zeros((2, 2))
    want[0, 0] = 1.0
    assert abs(out - want).max() == 0.0

    diag = parse_manifold(DIAGNOSTIC)
    pic = OneFormData.constant([1.0, 0.0], 3)
    x = 0.4
    out = nabla_oneform(diag, pic, np.array([x, 0.0, 0.0]))
    assert abs(out[0, 0] + x / (1 + x * x)) <= 1e-15
    assert abs(out[1, 1]) <= 1e-15


def test_covariant_torsion_derivative():
    # torsion-free connection: identically zero
    for name in ("heisenberg1", "heisenberg2", "free-step2-l3"):
        spec = builtin(name).spec
        for p in sample_points(spec, 10, RNG_SEED):
            assert abs(at(spec, None, p).DT_nab[0]).max() <= 1e-13

    # transformed connection: matches the one-form derivative combination
    entry = builtin("heisenberg2")
    spec = entry.spec
    pi = entry.oneform("trig")
    eye = np.eye(4)
    for p in sample_points(spec, 10, RNG_SEED):
        ev = at(spec, pi, p)
        dt = ev.DT_D[0]
        dpi = covariant_oneform(ev.D, ev.pij)[0]
        want = (np.einsum("ik,jh->ijkh", dpi, eye)
                - np.einsum("ij,kh->ijkh", dpi, eye))
        assert abs(dt - want).max() <= 1e-12 * max(1.0, abs(dt).max())

    p = sample_points(spec, 1, RNG_SEED)[0]
    assert abs(at(spec, OneFormData.zero(4, 5), p).DT_D[0]).max() <= 1e-14


def test_uniqueness_probe():
    """Perturbing any single coefficient breaks metricity or torsion."""
    for name in ("curved-metric-l3", "heisenberg2"):
        spec = builtin(name).spec
        ev = at(spec, None, sample_points(spec, 1, RNG_SEED)[0])
        fdg, gv, Om = ev.brackets.fdg[0], ev.frame.gv[0], ev.brackets.Om[0]
        co = ev.read("nab")[0]
        ell = spec.ell
        for i in range(ell):
            for j in range(ell):
                for k in range(ell):
                    bad = co.copy()
                    bad[i, j, k] += 1e-3
                    met = (fdg - np.einsum("kie,ej->kij", bad, gv)
                           - np.einsum("kje,ei->kij", bad, gv))
                    tor = bad - bad.transpose(1, 0, 2) - Om
                    assert max(abs(met).max(), abs(tor).max()) > 1e-4


def test_coefficient_fields_match_tensor_path():
    """The coefficients' frame derivatives against a central difference (step
    1e-5) of the coefficients, as functions of the point, along each
    horizontal field: one Evaluation of the points, one of the shifted points."""
    entry = builtin("curved-metric-l3")
    spec = entry.spec
    points = sample_points(spec, 3, RNG_SEED)
    steps = 1e-5 * np.array([[[jet_eval(c, p, 0).value for c in vf.components]
                              for vf in spec.hframe] for p in points])     # [p, i]: 1e-5 e_i
    shifted = np.concatenate([points[:, None] + steps, points[:, None] - steps])
    rows = len(points) * spec.ell                                        # one per [p, i]
    for pi, layer in ((None, "nab"), (entry.oneform("trig"), "D")):
        dco = np.moveaxis(getattr(Evaluation(spec, pi, points), layer + "_g"), -1, 1)
        dco = dco.reshape(rows, -1)                                      # row [p, i]: e_i(co)
        plus, minus = Evaluation(spec, pi, shifted.reshape(-1, spec.n)).read(layer).reshape(
            2, rows, -1)
        central = (plus - minus) / 2e-5
        assert (sup(dco - central) <= 1e-8 * np.maximum(1.0, sup(dco))).all()


def test_raised_oneform_invariant():
    """The semi-symmetric coefficients differ from the Koszul ones by
    delta_i^k pi_j - g_ij pi^k; lowering k with g gives g_ih pi_j - g_ij pi_h."""
    entry = builtin("curved-metric-l3")
    spec = entry.spec
    pi = entry.oneform("linear")
    ev = Evaluation(spec, pi, sample_points(spec, 10, RNG_SEED))
    g, piv = ev.frame.gv, ev.pij.values
    lowered = np.einsum("pijk,pkh->pijh", ev.read("D") - ev.read("nab"), g)
    want = np.einsum("pih,pj->pijh", g, piv) - np.einsum("pij,ph->pijh", g, piv)
    assert abs(lowered - want).max() <= 1e-12


def test_semi_connection_dimension_checks():
    spec = builtin("heisenberg2").spec
    with pytest.raises(DimensionMismatch):
        semi_connection(spec, OneFormData.constant([1.0, 0.0], 5))
    with pytest.raises(DimensionMismatch):
        semi_connection(spec, OneFormData.constant([1.0, 0.0, 0.0, 0.0], 3))
    with pytest.raises(DimensionMismatch):
        Evaluation(spec, OneFormData.constant([1.0, 0.0], 5), np.zeros((1, 5)))


@pytest.mark.parametrize("index", [3, -1, 1.5])
def test_python_built_oneform_outside_its_chart_fails_at_construction(index):
    """A one-form built in Python compiles when it is made: a coordinate
    index that is not an int in 0..n-1 is a DimensionMismatch there, before any batch."""
    with pytest.raises(DimensionMismatch,
                       match=f"coordinate index {index} out of range for dimension 3"):
        OneFormData((Coord(0), Mul(Coord(index), Coord(1))), 3)


def test_oneform_components_are_expression_and_dimension_records():
    """OneFormData.components, the form the benchmark's inputs read: one
    (expr, n) record per component, in order."""
    pi = OneFormData.from_expressions((Coord(0), Mul(Coord(1), Coord(2))), 3)
    assert pi.components == ((Coord(0), 3), (Mul(Coord(1), Coord(2)), 3))
    assert [c.expr for c in pi.components] == list(pi.exprs)
    assert {c.n for c in pi.components} == {3}
