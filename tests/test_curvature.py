from itertools import product

import numpy as np
import pytest
from sympy import Rational as Q

from oracles import oracle_eval, spec_oracle
from srclab.catalog import builtin, catalog_names
from srclab.connections import OneFormData
from srclab.curvature import (TENSORS, Evaluation, conformal_difference_formula,
                              conformal_tensor, delta_g, curvature_relation_terms,
                              flatness_characteristic_form, projective_difference_formula,
                              projective_tensor, s_tensor)
from srclab.errors import RankTooSmall
from srclab.jets import Add, Call, Const, Coord, Div, Mul, Neg, Pow
from srclab.manifold import ManifoldSpec, VectorFieldSpec, sample_points
from srclab.parser import parse_document, parse_scalar_expression

RNG_SEED = 99
RATIONAL_POINTS = {
    3: (Q(1, 3), Q(-2, 7), Q(1, 5)),
    4: (Q(1, 3), Q(-2, 7), Q(1, 5), Q(2, 9)),
    5: (Q(1, 3), Q(-2, 7), Q(1, 5), Q(2, 9), Q(-1, 4)),
    6: (Q(1, 3), Q(-2, 7), Q(1, 5), Q(2, 9), Q(-1, 4), Q(3, 8)),
}


def sup(x):
    """Per point, the largest magnitude of a stack (leading point axis)."""
    return np.abs(x).reshape(len(x), -1).max(axis=1)


def evaluation(name, variant, points):
    """An Evaluation of a catalog entry with a one-form variant (None: the zero one-form)."""
    entry = builtin(name)
    return Evaluation(entry.spec, entry.oneform(variant) if variant else None, points)


def test_carnot_curvature_vanishes():
    for name in ("heisenberg1", "heisenberg2", "free-step2-l3"):
        spec = builtin(name).spec
        ev = Evaluation(spec, None, sample_points(spec, 10, RNG_SEED))
        assert abs(ev.read("Kb.curv")).max() <= 1e-14


def test_heisenberg2_semi_curvature_hand_values():
    spec = builtin("heisenberg2").spec
    pi = OneFormData.constant([1.0, 0.0, 0.0, 0.0], 5)
    ev = Evaluation(spec, pi, sample_points(spec, 1, RNG_SEED))
    Rb = ev.read("Rb")
    assert abs(Rb.curv[0, 2, 3, 2, 3] - 1.0) <= 1e-14      # R^4_343 = 1
    assert abs(Rb.scalar[0] - 6.0) <= 1e-13
    ct = ev.ct
    assert abs(ct.alpha[0] - 1.0) <= 1e-14
    want = 0.5 * np.eye(4)
    want[0, 0] = -0.5
    assert abs(ct.pi_lower[0] - want).max() <= 1e-14


def test_flat_spec_zero_pi_all_zero():
    ev = evaluation("flat3", None, [[0.3, -0.6, 0.2]])
    assert abs(ev.read("Kb.curv")).max() == 0.0
    assert abs(ev.read("Rb.curv")).max() == 0.0


def test_characteristic_tensor_invariants():
    entry = builtin("curved-metric-l3")
    spec = entry.spec
    ev = Evaluation(spec, entry.oneform("linear"), sample_points(spec, 10, RNG_SEED))
    ct = ev.read("ct")
    assert abs(ct.pi_mixed - ct.pi_lower @ ev.frame.ginv).max() <= 1e-12
    assert abs(ct.alpha - np.trace(ct.pi_mixed, axis1=1, axis2=2)).max() <= 1e-12
    pi0 = OneFormData.zero(spec.ell, spec.n)
    ct0 = Evaluation(spec, pi0, sample_points(spec, 1, RNG_SEED)).read("ct")
    assert abs(ct0.pi_lower).max() == 0.0 and ct0.alpha[0] == 0.0


def test_curvature_antisymmetry_unmirrored():
    entry = builtin("involutive-l3")
    spec = entry.spec
    ev = Evaluation(spec, entry.oneform("trig"), sample_points(spec, 10, RNG_SEED))
    for raw, curv in ((ev.rawK, ev.Kb.curv), (ev.rawR, ev.Rb.curv)):
        assert (sup(raw + raw.transpose(0, 2, 1, 3, 4)) <= 1e-10 * np.maximum(1.0, sup(raw))).all()
        assert (curv + curv.transpose(0, 2, 1, 3, 4) == 0).all()


# `srclab eval` tensor -> oracle_eval key; the oracle gives S, Sbar, C and Cbar at ell >= 3
ORACLE_KEYS = {"Omega": "Om", "M": "Mc", "Lambda": "Lam", "coeff": "coeff", "Gamma": "Gamma",
               "K": "K", "R": "R", "ricci-K": "ricK", "ricci-R": "ricR", "scalar-K": "scalK",
               "scalar-R": "scalR", "pi-char": "plo", "alpha": "alpha", "W": "W", "Wbar": "Wbar",
               "S": "S", "Sbar": "Sbar", "C": "C", "Cbar": "Cbar"}


def assert_matches_oracle(spec, pi, point, oracle):
    """Every tensor the oracle gives, within 1e-12 relative, from one Evaluation
    at the rational point: the `srclab eval` tensors and both second contractions."""
    ev = Evaluation(spec, pi, np.array([[float(q) for q in point]]))
    pairs = [(ev[name][0], oracle[key]) for name, key in ORACLE_KEYS.items() if key in oracle]
    pairs += [(ev.Kb.second_contraction()[0], oracle["ric2K"]),
              (ev.Rb.second_contraction()[0], oracle["ric2R"])]
    assert len(pairs) == len(oracle)
    for got, want in pairs:
        want = np.asarray(want, dtype=float)
        assert abs(got - want).max() <= 1e-12 * max(1.0, abs(want).max())


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
    point = RATIONAL_POINTS[entry.spec.n]
    assert_matches_oracle(entry.spec, entry.oneform(variant), point,
                          oracle_eval(name, variant, point))


def test_symbolic_oracle_of_a_spec_outside_the_catalog():
    """The oracle is built from any spec: one made in Python, whose frame has a
    quotient, a power and a library call, and whose one-form has a log; its
    Omega, M, Lambda, K and R are all nonzero at the point."""
    x, y, z, one, zero = Coord(0), Coord(1), Coord(2), Const(1.0), Const(0.0)
    spec = ManifoldSpec(
        "outside", ("x", "y", "z"), 2,
        (VectorFieldSpec((one, Div(z, Const(4.0)), Neg(Div(y, Const(2.0))))),
         VectorFieldSpec((zero, Add(one, Pow(x, 2)), Add(Div(x, Const(2.0)), Call("sin", x))))),
        (VectorFieldSpec((zero, zero, one)),),
        ((Add(one, Pow(x, 2)), zero), (zero, one)))
    pi = OneFormData((Call("log", Add(Const(2.0), Mul(x, y))), Div(one, Add(Const(3.0), y))), 3)
    point = RATIONAL_POINTS[3]
    assert_matches_oracle(spec, pi, point, spec_oracle(spec, pi, point))


@pytest.mark.parametrize("name,variant", [
    ("heisenberg2", "trig"),
    ("curved-metric-l3", "linear"),
    ("involutive-l3", "const"),
])
def test_curvature_and_trace_relations(name, variant):
    entry = builtin(name)
    spec = entry.spec
    ell = spec.ell
    ev = Evaluation(spec, entry.oneform(variant), sample_points(spec, 20, RNG_SEED))
    Kb, Rb, ct = ev.read("Kb"), ev.read("Rb"), ev.read("ct")
    scale = np.maximum(1.0, np.maximum(sup(Rb.curv), sup(Kb.curv)))
    rel = Rb.curv - Kb.curv - curvature_relation_terms(ct, spec, ev.points)
    assert (sup(rel) <= 1e-9 * scale).all()
    ric = Rb.ricci - Kb.ricci - (ell - 2) * ct.pi_lower - ct.alpha[:, None, None] * ev.frame.gv
    assert (sup(ric) <= 1e-9 * scale).all()
    assert (abs(Rb.scalar - Kb.scalar - 2 * (ell - 1) * ct.alpha) <= 1e-9 * scale).all()


def test_s_tensor_invariance_and_rank_guard():
    entry = builtin("curved-metric-l3")
    spec = entry.spec
    for variant in ("const", "linear", "trig"):
        ev = evaluation("curved-metric-l3", variant, sample_points(spec, 10, RNG_SEED))
        S = s_tensor(ev.Kb, spec, ev.points)
        Sbar = s_tensor(ev.Rb, spec, ev.points)
        assert (sup(Sbar - S) <= 1e-10 * np.maximum(1.0, sup(S))).all()

    h1 = builtin("heisenberg1").spec
    ev1 = Evaluation(h1, None, [[0.1, 0.2, 0.3]])
    with pytest.raises(RankTooSmall):
        s_tensor(ev1.Kb, h1, ev1.points)
    with pytest.raises(RankTooSmall):
        conformal_tensor(ev1.Kb, h1, ev1.points)
    # projective tensor stays available at rank 2
    projective_tensor(ev1.Kb, h1, ev1.points)


def test_projective_difference_formula_holds():
    for name, variant in (("heisenberg2", "const"), ("involutive-l3", "trig"),
                          ("flat3", "linear")):
        spec = builtin(name).spec
        ev = evaluation(name, variant, sample_points(spec, 10, RNG_SEED))
        W = projective_tensor(ev.Kb, spec, ev.points)
        Wbar = projective_tensor(ev.Rb, spec, ev.points)
        want = projective_difference_formula(ev.ct, spec, ev.points)
        assert (sup(Wbar - W - want) <= 1e-9 * np.maximum(1.0, np.maximum(sup(W), sup(want)))).all()


def test_conformal_difference_is_zero_not_the_tabulated_form():
    """The direct conformal difference vanishes; the tabulated closed form
    does not, which is exactly what check C13 reports."""
    spec = builtin("heisenberg2").spec
    ev = evaluation("heisenberg2", "const", sample_points(spec, 1, RNG_SEED))
    C = conformal_tensor(ev.Kb, spec, ev.points)[0]
    Cbar = conformal_tensor(ev.Rb, spec, ev.points)[0]
    assert abs(Cbar - C).max() <= 1e-12
    formula = conformal_difference_formula(ev.ct, spec, ev.points)[0]
    assert abs(formula).max() > 0.2       # -1/4 at component (1,2,1,2) among others
    assert abs(formula[0, 1, 0, 1] + 0.25) <= 1e-14


def test_first_bianchi_and_lowered_identities():
    for name in ("curved-metric-l3", "involutive-l3"):
        spec = builtin(name).spec
        Kb = Evaluation(spec, None, sample_points(spec, 10, RNG_SEED)).read("Kb")
        scale = np.maximum(1.0, sup(Kb.curv))
        for cv in (Kb.curv, Kb.lowered):
            cyc = cv + cv.transpose(0, 2, 3, 1, 4) + cv.transpose(0, 3, 1, 2, 4)
            assert (sup(cyc) <= 1e-9 * scale).all()
        ric = Kb.ricci
        ric2 = Kb.second_contraction()
        assert (sup(ric2 + ric2.transpose(0, 2, 1)) <= 1e-9 * scale).all()
        assert (sup(ric2 - (ric - ric.transpose(0, 2, 1))) <= 1e-9 * scale).all()


def test_involutive_pair_antisymmetry():
    spec = builtin("involutive-l3").spec
    ev = Evaluation(spec, None, sample_points(spec, 10, RNG_SEED))
    assert abs(ev.read("brackets").Mc).max() <= 1e-14
    lw = ev.Kb.lowered
    assert (sup(lw + lw.transpose(0, 1, 2, 4, 3)) <= 1e-9 * np.maximum(1.0, sup(lw))).all()


def test_curved_entry_exercises_every_structure_constant():
    """The non-involutive curved entry has Omega, M and Lambda all nonzero,
    so every term of the curvature formula is live, and its S-tensor does not
    vanish (no pair symmetry at rank 3)."""
    spec = builtin("curved-metric-l3").spec
    ev = Evaluation(spec, None, sample_points(spec, 1, RNG_SEED))
    br = ev.read("brackets")
    assert abs(br.Om).max() > 0.01
    assert abs(br.Mc).max() > 0.01
    assert abs(br.Lam).max() > 0.5
    assert abs(s_tensor(ev.Kb, spec, ev.points)).max() > 0.01


def test_flatness_characteristic_form_zero_case():
    spec = builtin("free-step2-l3").spec
    Kb = Evaluation(spec, None, sample_points(spec, 1, RNG_SEED)).read("Kb")
    assert abs(flatness_characteristic_form(Kb)).max() <= 1e-14


def _delta_g_entries(A, g, B, K, base, J, lead, ell):
    """delta_g's documented sum entry by entry, in its order of operations:
    base + (g_ik B_j^h - g_jk B_i^h), then + delta_j^h A_ik, - delta_i^h A_jk,
    + delta_j^h J_ik, + delta_k^h K_ij; from 0.0 when there is neither base nor B."""
    out = np.empty(lead + (ell,) * 4)
    for p in np.ndindex(*lead):
        for i, j, k, h in np.ndindex(*(ell,) * 4):
            v = 0.0 if base is None else base[p + (i, j, k, h)]
            if B is not None:
                gB = g[p + (i, k)] * B[p + (j, h)] - g[p + (j, k)] * B[p + (i, h)]
                v = gB if base is None else v + gB
            if A is not None and j == h:
                v = v + A[p + (i, k)]
            if A is not None and i == h:
                v = v - A[p + (j, k)]
            if J is not None and j == h:
                v = v + J[p + (i, k)]
            if K is not None and k == h:
                v = v + K[p + (i, j)]
            out[p + (i, j, k, h)] = v
    return out


def _signed_entries(rng, shape):
    """Random entries, a fifth of them -0.0 and a tenth +0.0, read-only."""
    x = rng.standard_normal(shape)
    x[rng.random(shape) < 0.2] = -0.0
    x[rng.random(shape) < 0.1] = 0.0
    x.flags.writeable = False
    return x


@pytest.mark.parametrize("ell", range(2, 7))
def test_delta_g_is_its_formula_bit_for_bit(ell):
    """Every combination of A, B (with g), K, base and J, on leading shapes (),
    (1,) and (5,): the same bits, signs of zeros included, as the
    entry-by-entry sum; a new C-contiguous array, no input written."""
    rng = np.random.default_rng(ell)
    for lead, given in product([(), (1,), (5,)], product((False, True), repeat=5)):
        if not any(given):
            continue
        on_A, on_B, on_K, on_base, on_J = given
        A, g, B, K, J = (_signed_entries(rng, lead + (ell, ell)) if on else None
                         for on in (on_A, on_B, on_B, on_K, on_J))
        base = _signed_entries(rng, lead + (ell,) * 4) if on_base else None
        inputs = [x for x in (A, g, B, K, base, J) if x is not None]
        before = [x.copy() for x in inputs]
        got = delta_g(A, g, B, K, base, J)
        want = _delta_g_entries(A, g, B, K, base, J, lead, ell)
        case = (lead, given)
        assert got.shape == want.shape and got.flags.c_contiguous, case
        assert np.array_equal(got, want), case
        assert np.array_equal(np.signbit(got), np.signbit(want)), case
        assert not any(np.shares_memory(got, x) for x in inputs), case
        assert all(np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))
                   for x, y in zip(inputs, before)), case


def _rank_spec(ell: int):
    """A rank-ell spec with one vertical direction, a bracket into it and a
    non-constant metric, and a one-form, for the traces at ranks 2 to 6."""
    xs = [f"x{i + 1}" for i in range(ell)]
    hframe = [f"  X{i + 1} = d{x} + ({xs[(i + 1) % ell]}/2) dw" for i, x in enumerate(xs)]
    rows = [", ".join(f"1 + {x}^2" if i == j else ("0.25" if abs(i - j) == 1 else "0")
                      for j in range(ell)) for i, x in enumerate(xs)]
    text = "\n".join([f"manifold rank{ell}", f"dim {ell + 1}", f"hdim {ell}",
                      "coords " + " ".join(xs) + " w", "hframe", *hframe, "vframe", "  W = dw",
                      "metric rows", *(f"  {row}" for row in rows)]) + "\n"
    spec = parse_document(text).spec
    exprs = tuple(parse_scalar_expression(f"sin({x})", spec.coords) for x in xs)
    return spec, OneFormData(exprs, spec.n)


@pytest.mark.parametrize("ell", range(2, 7))
def test_einsum_traces_are_np_trace_bit_for_bit(ell):
    """The Ricci trace, the second contraction and alpha, as evaluated, have
    the bits np.trace gives over the same axes (signs of zeros included)."""
    spec, pi = _rank_spec(ell)
    ev = Evaluation(spec, pi, sample_points(spec, 6, RNG_SEED))
    pairs = [(ev.ct.alpha, np.trace(ev.ct.pi_mixed, axis1=1, axis2=2))]
    for b in (ev.Kb, ev.Rb):
        pairs += [(b.ricci, np.trace(b.curv, axis1=2, axis2=4)),
                  (b.second_contraction(), np.trace(b.curv, axis1=-2, axis2=-1))]
    assert np.abs(ev.Kb.ricci).max() > 0.01 and np.abs(ev.ct.alpha).max() > 0.01
    for got, want in pairs:
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("name", catalog_names())
def test_zero_point_stacks_give_empty_tensors(name):
    """Every tensor of an Evaluation of no points is an empty array of its
    one-point shape; S and C and their bars at rank 2 raise RankTooSmall."""
    entry = builtin(name)
    spec, pi = entry.spec, entry.oneform(entry.pi_variants[-1].name)
    empty = Evaluation(spec, pi, np.zeros((0, spec.n)))
    one = Evaluation(spec, pi, sample_points(spec, 1, RNG_SEED))
    for tensor in TENSORS:
        if spec.ell < 3 and tensor in ("S", "Sbar", "C", "Cbar"):
            with pytest.raises(RankTooSmall):
                empty[tensor]
            continue
        got = np.asarray(empty[tensor])
        assert got.shape == (0,) + np.shape(one[tensor])[1:], tensor


# per tensor of values, the layers a one-point request for it must not build
VALUE_LEVEL = dict.fromkeys(("Omega", "M", "Lambda", "coeff", "Gamma", "torsion", "pi-char",
                             "alpha"), {"frame_g", "nab_g", "D_g"})
VALUE_LEVEL.update(dict.fromkeys(("g", "ginv", "E"), {"brackets", "frame_g", "nab_g", "D_g"}))


@pytest.mark.parametrize("tensor", VALUE_LEVEL)
def test_tensors_of_values_skip_the_derivative_layers(tensor):
    """A one-point request for a tensor of values builds no Hessian-derived
    frame layer and no connection gradient; one for the frame or the metric
    runs no derivative sweep either."""
    for name in ("heisenberg2", "curved-metric-l3"):
        entry = builtin(name)
        ev = Evaluation(entry.spec, entry.oneform("trig"), sample_points(entry.spec, 1, RNG_SEED))
        ev[tensor]
        assert not VALUE_LEVEL[tensor] & set(vars(ev)), (name, sorted(vars(ev)))
