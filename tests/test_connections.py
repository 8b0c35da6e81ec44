import numpy as np
import pytest

from jet_reference import jet_eval

from srclab.catalog import builtin, catalog_names
from srclab.connections import (OneFormData, covariant_oneform, frame_derivative,
                                koszul_connection, semi, semi_connection, torsion,
                                torsion_tensor)
from srclab.curvature import Evaluation
from srclab.errors import DimensionMismatch
from srclab.jets import Coord, Mul
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


def metricity_residual(spec, conn, point):
    ev = at(spec, None, point)
    fdg, gv = ev.brackets.fdg[0], ev.frame.gv[0]
    co = conn.coefficients(point)
    resid = fdg - np.einsum("kie,ej->kij", co, gv) - np.einsum("kje,ei->kij", co, gv)
    return abs(resid).max() / max(1.0, abs(fdg).max(), abs(co).max())


def test_koszul_diagnostic_coefficient():
    spec = parse_manifold(DIAGNOSTIC)
    conn = koszul_connection(spec)
    for x in (0.0, 0.4, -0.8):
        co = conn.coefficients(np.array([x, 0.1, 0.2]))
        want = np.zeros((2, 2, 2))
        want[0, 0, 0] = x / (1 + x * x)
        assert abs(co - want).max() <= 1e-15


def test_koszul_flat_and_heisenberg_vanish():
    for name in ("flat3", "heisenberg1", "heisenberg2", "free-step2-l3"):
        spec = builtin(name).spec
        conn = koszul_connection(spec)
        for p in sample_points(spec, 5, RNG_SEED):
            assert abs(conn.coefficients(p)).max() <= 1e-14


@pytest.mark.parametrize("name", catalog_names())
def test_metricity_and_torsion_invariants(name):
    spec = builtin(name).spec
    conn = koszul_connection(spec)
    for p in sample_points(spec, 20, RNG_SEED):
        assert metricity_residual(spec, conn, p) <= 1e-9
        assert abs(torsion(conn, p)).max() <= 1e-10


@pytest.mark.parametrize("name", ["heisenberg2", "curved-metric-l3", "involutive-l3"])
def test_semi_connection_metricity_and_torsion(name):
    entry = builtin(name)
    spec = entry.spec
    pi = entry.oneform(entry.pi_variants[1].name)
    D = semi_connection(spec, pi)
    eye = np.eye(spec.ell)
    for p in sample_points(spec, 20, RNG_SEED):
        assert metricity_residual(spec, D, p) <= 1e-9
        piv = at(spec, pi, p).pij.values[0]
        want = np.einsum("ik,j->ijk", eye, piv) - np.einsum("jk,i->ijk", eye, piv)
        assert abs(torsion(D, p) - want).max() <= 1e-10


def test_semi_connection_heisenberg2_hand_values():
    spec = builtin("heisenberg2").spec
    pi = OneFormData.constant([1.0, 0.0, 0.0, 0.0], 5)
    D = semi_connection(spec, pi)
    p = np.array([0.3, 0.1, -0.2, 0.5, 0.9])
    G = D.coefficients(p)
    assert G[1, 0, 1] == 1.0      # delta_2^2 pi_1 - g_21 pi^2
    assert G[0, 0, 0] == 0.0      # pi_1 - pi^1
    assert G[2, 2, 0] == -1.0     # -g_33 pi^1
    T = torsion(D, p)
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
    from srclab.jets import Const, Coord
    pix = OneFormData.from_expressions((Coord(0), Const(0.0)), 3)
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
        conn = koszul_connection(spec)
        p = sample_points(spec, 1, RNG_SEED)[0]
        ev = at(spec, None, p)
        fdg, gv, Om = ev.brackets.fdg[0], ev.frame.gv[0], ev.brackets.Om[0]
        co = conn.coefficients(p)
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
    horizontal field."""
    entry = builtin("curved-metric-l3")
    spec = entry.spec
    for conn, layer in ((koszul_connection(spec), "nab_g"),
                        (semi_connection(spec, entry.oneform("trig")), "D_g")):
        for p in sample_points(spec, 3, RNG_SEED):
            dco = frame_derivative(getattr(at(spec, conn.oneform, p), layer))[0]
            for i, vf in enumerate(spec.hframe):
                step = 1e-5 * np.array([jet_eval(c, p, 0).value for c in vf.components])
                central = (conn.coefficients(p + step) - conn.coefficients(p - step)) / 2e-5
                assert abs(dco[i] - central).max() <= 1e-8 * max(1.0, abs(dco[i]).max())


def test_raised_oneform_invariant():
    """The semi-symmetric coefficients differ from the Koszul ones by
    delta_i^k pi_j - g_ij pi^k; lowering k with g gives g_ih pi_j - g_ij pi_h."""
    entry = builtin("curved-metric-l3")
    spec = entry.spec
    pi = entry.oneform("linear")
    nab, D = koszul_connection(spec), semi_connection(spec, pi)
    for p in sample_points(spec, 10, RNG_SEED):
        ev = at(spec, pi, p)
        g, piv = ev.frame.gv[0], ev.pij.values[0]
        lowered = np.einsum("ijk,kh->ijh", D.coefficients(p) - nab.coefficients(p), g)
        want = np.einsum("ih,j->ijh", g, piv) - np.einsum("ij,h->ijh", g, piv)
        assert abs(lowered - want).max() <= 1e-12


def test_semi_connection_dimension_checks():
    spec = builtin("heisenberg2").spec
    with pytest.raises(DimensionMismatch):
        semi_connection(spec, OneFormData.constant([1.0, 0.0], 5))
    with pytest.raises(DimensionMismatch):
        semi_connection(spec, OneFormData.constant([1.0, 0.0, 0.0, 0.0], 3))
    with pytest.raises(DimensionMismatch):
        Evaluation(spec, OneFormData.constant([1.0, 0.0], 5), np.zeros((1, 5)))


@pytest.mark.parametrize("index", [3, -1])
def test_python_built_oneform_outside_its_chart_fails_at_construction(index):
    """A one-form built in Python compiles when it is made: a coordinate
    index outside 0..n-1 is a DimensionMismatch there, before any batch."""
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
