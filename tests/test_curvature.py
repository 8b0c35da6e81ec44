import numpy as np
import pytest
from sympy import Rational as Q

from oracles import oracle_eval
from srclab.catalog import builtin
from srclab.connections import OneFormData, koszul_connection, semi_connection
from srclab.curvature import (characteristic_tensor, conformal_difference_formula,
                              conformal_tensor, curvature_components_raw,
                              curvature_relation_terms, flatness_characteristic_form,
                              projective_difference_formula, projective_tensor,
                              s_tensor, schouten_curvature)
from srclab.errors import RankTooSmall
from srclab.manifold import sample_points, snapshot

RNG_SEED = 99
RATIONAL_POINTS = {
    3: (Q(1, 3), Q(-2, 7), Q(1, 5)),
    4: (Q(1, 3), Q(-2, 7), Q(1, 5), Q(2, 9)),
    5: (Q(1, 3), Q(-2, 7), Q(1, 5), Q(2, 9), Q(-1, 4)),
    6: (Q(1, 3), Q(-2, 7), Q(1, 5), Q(2, 9), Q(-1, 4), Q(3, 8)),
}


def bundles_at(name, variant, point):
    entry = builtin(name)
    spec = entry.spec
    pi = entry.oneform(variant) if variant else OneFormData.zero(spec.ell, spec.n)
    nab = koszul_connection(spec)
    D = semi_connection(spec, pi)
    return (spec, pi, schouten_curvature(nab, point),
            schouten_curvature(D, point))


def test_carnot_curvature_vanishes():
    for name in ("heisenberg1", "heisenberg2", "free-step2-l3"):
        spec = builtin(name).spec
        nab = koszul_connection(spec)
        for p in sample_points(spec, 10, RNG_SEED):
            assert abs(schouten_curvature(nab, p).curv).max() <= 1e-14


def test_heisenberg2_semi_curvature_hand_values():
    spec = builtin("heisenberg2").spec
    pi = OneFormData.constant([1.0, 0.0, 0.0, 0.0], 5)
    D = semi_connection(spec, pi)
    p = sample_points(spec, 1, RNG_SEED)[0]
    Rb = schouten_curvature(D, p)
    assert abs(Rb.curv[2, 3, 2, 3] - 1.0) <= 1e-14         # R^4_343 = 1
    assert abs(Rb.scalar - 6.0) <= 1e-13
    ct = characteristic_tensor(spec, pi, p)
    assert abs(ct.alpha - 1.0) <= 1e-14
    want = 0.5 * np.eye(4)
    want[0, 0] = -0.5
    assert abs(ct.pi_lower - want).max() <= 1e-14


def test_flat_spec_zero_pi_all_zero():
    spec, _, Kb, Rb = bundles_at("flat3", None,
                                 np.array([0.3, -0.6, 0.2]))
    assert abs(Kb.curv).max() == 0.0
    assert abs(Rb.curv).max() == 0.0


def test_characteristic_tensor_invariants():
    entry = builtin("curved-metric-l3")
    spec = entry.spec
    pi = entry.oneform("linear")
    for p in sample_points(spec, 10, RNG_SEED):
        snap = snapshot(spec, p)
        ct = characteristic_tensor(spec, pi, p)
        assert abs(ct.pi_mixed - ct.pi_lower @ snap.ginv).max() <= 1e-12
        assert abs(ct.alpha - np.trace(ct.pi_mixed)) <= 1e-12
    pi0 = OneFormData.zero(spec.ell, spec.n)
    ct0 = characteristic_tensor(spec, pi0, sample_points(spec, 1, RNG_SEED)[0])
    assert abs(ct0.pi_lower).max() == 0.0 and ct0.alpha == 0.0


def test_curvature_antisymmetry_unmirrored():
    entry = builtin("involutive-l3")
    spec = entry.spec
    conn = koszul_connection(spec)
    D = semi_connection(spec, entry.oneform("trig"))
    for p in sample_points(spec, 10, RNG_SEED):
        for c in (conn, D):
            raw = curvature_components_raw(c, p)
            assert abs(raw + raw.transpose(1, 0, 2, 3)).max() <= 1e-10 * \
                max(1.0, abs(raw).max())
            assert (schouten_curvature(c, p).curv
                    + schouten_curvature(c, p).curv.transpose(1, 0, 2, 3) == 0).all()


@pytest.mark.parametrize("name,variant", [
    ("heisenberg2", "const"),
    ("involutive-l3", "linear"),
    ("curved-metric-l3", "const"),
    ("free-step2-l3", "alpha-zero"),
    ("heisenberg1", "trig"),
    ("flat3", "linear"),
])
def test_against_symbolic_oracle(name, variant):
    entry = builtin(name)
    spec = entry.spec
    point = RATIONAL_POINTS[spec.n]
    p = np.array([float(q) for q in point])
    oracle = oracle_eval(name, variant, point)
    pi = entry.oneform(variant)
    nab = koszul_connection(spec)
    D = semi_connection(spec, pi)
    Kb = schouten_curvature(nab, p)
    Rb = schouten_curvature(D, p)
    ct = characteristic_tensor(spec, pi, p)

    def close(got, want):
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        assert abs(got - want).max() <= 1e-12 * max(1.0, abs(want).max())

    snap = snapshot(spec, p)
    close(snap.Omega, oracle["Om"])
    close(snap.Mcoef, oracle["Mc"])
    close(snap.Lambda, oracle["Lam"])
    close(nab.coefficients(p), oracle["coeff"])
    close(D.coefficients(p), oracle["Gamma"])
    close(Kb.curv, oracle["K"])
    close(Rb.curv, oracle["R"])
    close(Kb.ricci, oracle["ricK"])
    close(Rb.ricci, oracle["ricR"])
    close(Kb.second_contraction(), oracle["ric2K"])
    close(Rb.second_contraction(), oracle["ric2R"])
    close(Kb.scalar, oracle["scalK"])
    close(Rb.scalar, oracle["scalR"])
    close(ct.pi_lower, oracle["plo"])
    close(ct.alpha, oracle["alpha"])
    close(projective_tensor(Kb, spec, p), oracle["W"])
    close(projective_tensor(Rb, spec, p), oracle["Wbar"])
    if spec.ell >= 3:                   # S and C divide by ell - 2
        close(s_tensor(Kb, spec, p), oracle["S"])
        close(s_tensor(Rb, spec, p), oracle["Sbar"])
        close(conformal_tensor(Kb, spec, p), oracle["C"])
        close(conformal_tensor(Rb, spec, p), oracle["Cbar"])


@pytest.mark.parametrize("name,variant", [
    ("heisenberg2", "trig"),
    ("curved-metric-l3", "linear"),
    ("involutive-l3", "const"),
])
def test_curvature_and_trace_relations(name, variant):
    entry = builtin(name)
    spec = entry.spec
    pi = entry.oneform(variant)
    ell = spec.ell
    for p in sample_points(spec, 20, RNG_SEED):
        spec_, pi_, Kb, Rb = bundles_at(name, variant, p)
        ct = characteristic_tensor(spec, pi, p)
        snap = snapshot(spec, p)
        scale = max(1.0, abs(Rb.curv).max(), abs(Kb.curv).max())
        rel = Rb.curv - Kb.curv - curvature_relation_terms(ct, spec, p)
        assert abs(rel).max() <= 1e-9 * scale
        ric = Rb.ricci - Kb.ricci - (ell - 2) * ct.pi_lower - ct.alpha * snap.g
        assert abs(ric).max() <= 1e-9 * scale
        assert abs(Rb.scalar - Kb.scalar - 2 * (ell - 1) * ct.alpha) <= 1e-9 * scale


def test_s_tensor_invariance_and_rank_guard():
    entry = builtin("curved-metric-l3")
    spec = entry.spec
    for variant in ("const", "linear", "trig"):
        pi = entry.oneform(variant)
        for p in sample_points(spec, 10, RNG_SEED):
            _, _, Kb, Rb = bundles_at("curved-metric-l3", variant, p)
            S = s_tensor(Kb, spec, p)
            Sbar = s_tensor(Rb, spec, p)
            assert abs(Sbar - S).max() <= 1e-10 * max(1.0, abs(S).max())

    h1 = builtin("heisenberg1").spec
    Kb1 = schouten_curvature(koszul_connection(h1), np.array([0.1, 0.2, 0.3]))
    with pytest.raises(RankTooSmall):
        s_tensor(Kb1, h1, np.array([0.1, 0.2, 0.3]))
    with pytest.raises(RankTooSmall):
        conformal_tensor(Kb1, h1, np.array([0.1, 0.2, 0.3]))
    # projective tensor stays available at rank 2
    projective_tensor(Kb1, h1, np.array([0.1, 0.2, 0.3]))


def test_projective_difference_formula_holds():
    for name, variant in (("heisenberg2", "const"), ("involutive-l3", "trig"),
                          ("flat3", "linear")):
        entry = builtin(name)
        spec = entry.spec
        pi = entry.oneform(variant)
        for p in sample_points(spec, 10, RNG_SEED):
            _, _, Kb, Rb = bundles_at(name, variant, p)
            W = projective_tensor(Kb, spec, p)
            Wbar = projective_tensor(Rb, spec, p)
            ct = characteristic_tensor(spec, pi, p)
            want = projective_difference_formula(ct, spec, p)
            assert abs(Wbar - W - want).max() <= 1e-9 * max(1.0, abs(W).max(),
                                                            abs(want).max())


def test_conformal_difference_is_zero_not_the_tabulated_form():
    """The direct conformal difference vanishes; the tabulated closed form
    does not, which is exactly what check C13 reports."""
    entry = builtin("heisenberg2")
    spec = entry.spec
    pi = entry.oneform("const")
    p = sample_points(spec, 1, RNG_SEED)[0]
    _, _, Kb, Rb = bundles_at("heisenberg2", "const", p)
    C = conformal_tensor(Kb, spec, p)
    Cbar = conformal_tensor(Rb, spec, p)
    assert abs(Cbar - C).max() <= 1e-12
    ct = characteristic_tensor(spec, pi, p)
    formula = conformal_difference_formula(ct, spec, p)
    assert abs(formula).max() > 0.2       # -1/4 at component (1,2,1,2) among others
    assert abs(formula[0, 1, 0, 1] + 0.25) <= 1e-14


def test_first_bianchi_and_lowered_identities():
    for name in ("curved-metric-l3", "involutive-l3"):
        spec = builtin(name).spec
        nab = koszul_connection(spec)
        for p in sample_points(spec, 10, RNG_SEED):
            Kb = schouten_curvature(nab, p)
            scale = max(1.0, abs(Kb.curv).max())
            assert Kb.bianchi_residual <= 1e-9 * scale
            lw = Kb.lowered
            cyc = lw + lw.transpose(1, 2, 0, 3) + lw.transpose(2, 0, 1, 3)
            assert abs(cyc).max() <= 1e-9 * scale
            ric = Kb.ricci
            ric2 = Kb.second_contraction()
            assert abs(ric2 + ric2.T).max() <= 1e-9 * scale
            assert abs(ric2 - (ric - ric.T)).max() <= 1e-9 * scale


def test_involutive_pair_antisymmetry():
    spec = builtin("involutive-l3").spec
    nab = koszul_connection(spec)
    for p in sample_points(spec, 10, RNG_SEED):
        snap = snapshot(spec, p)
        assert abs(snap.Mcoef).max() <= 1e-14
        lw = schouten_curvature(nab, p).lowered
        assert abs(lw + lw.transpose(0, 1, 3, 2)).max() <= 1e-9 * \
            max(1.0, abs(lw).max())


def test_curved_entry_exercises_every_structure_constant():
    """The non-involutive curved entry has Omega, M and Lambda all nonzero,
    so every term of the curvature formula is live, and its S-tensor does not
    vanish (no pair symmetry at rank 3)."""
    spec = builtin("curved-metric-l3").spec
    p = sample_points(spec, 1, RNG_SEED)[0]
    snap = snapshot(spec, p)
    assert abs(snap.Omega).max() > 0.01
    assert abs(snap.Mcoef).max() > 0.01
    assert abs(snap.Lambda).max() > 0.5
    Kb = schouten_curvature(koszul_connection(spec), p)
    assert abs(s_tensor(Kb, spec, p)).max() > 0.01


def test_flatness_characteristic_form_zero_case():
    spec = builtin("free-step2-l3").spec
    nab = koszul_connection(spec)
    p = sample_points(spec, 1, RNG_SEED)[0]
    Kb = schouten_curvature(nab, p)
    assert abs(flatness_characteristic_form(Kb, spec, p)).max() <= 1e-14
