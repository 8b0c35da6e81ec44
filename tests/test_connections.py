import numpy as np
import pytest

from srclab.catalog import builtin, catalog_names
from srclab.connections import (OneFormData, covariant_derivative_T,
                                koszul_connection, nabla_oneform,
                                oneform_derivative, semi_connection, torsion)
from srclab.errors import DimensionMismatch, OrderExhausted
from srclab.jets import directional_derivative
from srclab.manifold import _frame_at, sample_points
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


def metricity_residual(spec, conn, point):
    data = _frame_at(spec, point)
    co = conn.coefficients(point)
    resid = (data.fdg - np.einsum("kie,ej->kij", co, data.gv)
             - np.einsum("kje,ei->kij", co, data.gv))
    return abs(resid).max() / max(1.0, abs(data.fdg).max(), abs(co).max())


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
        piv = pi.values(p)
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
    spec = builtin("curved-metric-l3").spec
    pi0 = OneFormData.zero(spec.ell, spec.n)
    D = semi_connection(spec, pi0)
    nab = koszul_connection(spec)
    p = sample_points(spec, 1, RNG_SEED)[0]
    assert (D.coefficients(p) == nab.coefficients(p)).all()
    assert abs(torsion(D, p)).max() <= 1e-15


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
        nab = koszul_connection(spec)
        for p in sample_points(spec, 10, RNG_SEED):
            assert abs(covariant_derivative_T(nab, p)).max() <= 1e-13

    # transformed connection: matches the one-form derivative combination
    entry = builtin("heisenberg2")
    spec = entry.spec
    pi = entry.oneform("trig")
    D = semi_connection(spec, pi)
    eye = np.eye(4)
    for p in sample_points(spec, 10, RNG_SEED):
        dt = covariant_derivative_T(D, p)
        dpi = oneform_derivative(D, p)
        want = (np.einsum("ik,jh->ijkh", dpi, eye)
                - np.einsum("ij,kh->ijkh", dpi, eye))
        assert abs(dt - want).max() <= 1e-12 * max(1.0, abs(dt).max())

    pi0 = OneFormData.zero(4, 5)
    D0 = semi_connection(spec, pi0)
    p = sample_points(spec, 1, RNG_SEED)[0]
    assert abs(covariant_derivative_T(D0, p)).max() <= 1e-14


def test_uniqueness_probe():
    """Perturbing any single coefficient breaks metricity or torsion."""
    for name in ("curved-metric-l3", "heisenberg2"):
        spec = builtin(name).spec
        conn = koszul_connection(spec)
        p = sample_points(spec, 1, RNG_SEED)[0]
        data = _frame_at(spec, p)
        co = conn.coefficients(p)
        ell = spec.ell
        for i in range(ell):
            for j in range(ell):
                for k in range(ell):
                    bad = co.copy()
                    bad[i, j, k] += 1e-3
                    met = (data.fdg - np.einsum("kie,ej->kij", bad, data.gv)
                           - np.einsum("kje,ei->kij", bad, data.gv))
                    tor = bad - bad.transpose(1, 0, 2) - data.Om
                    assert max(abs(met).max(), abs(tor).max()) > 1e-4


def test_coefficient_fields_match_tensor_path():
    entry = builtin("curved-metric-l3")
    spec = entry.spec
    conn = koszul_connection(spec)
    p = sample_points(spec, 1, RNG_SEED)[0]
    co = conn.coefficients(p)
    dco = conn.frame_derivatives(p)
    for i in range(spec.ell):
        f = conn.coeff[0][i][i]
        jet = f.jet(p, 1)
        assert jet.value == co[0, i, i]
        dd = directional_derivative(f, spec.hframe[1].as_field())
        assert abs(dd.jet(p, 0).value - dco[1, 0, i, i]) <= 1e-14
        with pytest.raises(OrderExhausted):
            f.jet(p, 2)


def test_raised_oneform_invariant():
    entry = builtin("curved-metric-l3")
    spec = entry.spec
    pi = entry.oneform("linear")
    raised = pi.raised(spec)
    for p in sample_points(spec, 10, RNG_SEED):
        data = _frame_at(spec, p)
        piu = np.array([f.jet(p, 0).value for f in raised])
        assert abs(data.gv @ piu - pi.values(p)).max() <= 1e-12


def test_semi_connection_dimension_checks():
    spec = builtin("heisenberg2").spec
    with pytest.raises(DimensionMismatch):
        semi_connection(spec, OneFormData.constant([1.0, 0.0], 5))
    with pytest.raises(DimensionMismatch):
        semi_connection(spec, OneFormData.constant([1.0, 0.0, 0.0, 0.0], 3))
    with pytest.raises(DimensionMismatch):
        oneform_derivative(koszul_connection(spec), np.zeros(5))
