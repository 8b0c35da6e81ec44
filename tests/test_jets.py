import copy
import dataclasses
import math
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from jet_reference import Jet, jet_eval

from srclab.catalog import builtin, catalog_names
from srclab.errors import DimensionMismatch, DomainError, ValidationError
from srclab.jets import (Add, Call, Const, Coord, Div, Expression, JetProgram, Mul, Neg, Pow,
                         Sub, FUNCTIONS, _operands, fd_crosscheck)
from srclab.parser import parse_document, parse_scalar_expression


def jets_close(a: Jet, b: Jet, ulps: int = 4) -> bool:
    def close(x, y):
        scale = max(abs(x), abs(y), 1.0)
        return abs(x - y) <= ulps * math.ulp(scale)

    if not close(a.value, b.value):
        return False
    if a.order >= 1 and not all(close(x, y) for x, y in zip(a.grad, b.grad)):
        return False
    if a.order >= 2 and not all(close(x, y) for x, y in
                                zip(a.hess.ravel(), b.hess.ravel())):
        return False
    return True


def test_polynomial_product_jet():
    j = jet_eval(Mul(Coord(0), Coord(1)), [2.0, 3.0], 2)
    assert j.value == 6.0
    assert j.grad.tolist() == [3.0, 2.0]
    assert j.hess.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_constant_jet():
    j = jet_eval(Const(5.0), [0.7, -0.3], 2)
    assert j.value == 5.0
    assert not j.grad.any()
    assert not j.hess.any()


def test_sin_exp_against_finite_differences():
    expr = Mul(Call("sin", Coord(0)), Call("exp", Coord(1)))
    p = np.array([0.3, 0.1])
    j = jet_eval(expr, p, 2)
    h = 1e-5

    def f(q):
        return math.sin(q[0]) * math.exp(q[1])

    for a in range(2):
        e = np.zeros(2)
        e[a] = h
        fd = (f(p + e) - f(p - e)) / (2 * h)
        assert abs(j.grad[a] - fd) <= 1e-6 * max(1.0, abs(fd))
        fd2 = (f(p + e) - 2 * f(p) + f(p - e)) / h**2
        assert abs(j.hess[a, a] - fd2) <= 1e-5 * max(1.0, abs(fd2))
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    fdxy = (f(p + ex + ey) - f(p + ex - ey) - f(p - ex + ey) + f(p - ex - ey)) / (4 * h**2)
    assert abs(j.hess[0, 1] - fdxy) <= 1e-5


def test_hessian_symmetric_exactly():
    expr = Mul(Call("exp", Mul(Coord(0), Coord(1))), Add(Coord(0), Pow(Coord(1), 3)))
    j = jet_eval(expr, [0.4, -0.9], 2)
    assert (j.hess == j.hess.T).all()


def test_domain_errors():
    with pytest.raises(DomainError):
        jet_eval(Div(Const(1.0), Coord(0)), [0.0], 0)
    with pytest.raises(DomainError):
        jet_eval(Call("log", Coord(0)), [-1.0], 0)
    with pytest.raises(DomainError):
        jet_eval(Call("sqrt", Coord(0)), [-1.0], 0)
    with pytest.raises(DomainError):
        jet_eval(Call("sqrt", Coord(0)), [0.0], 1)
    assert jet_eval(Call("sqrt", Coord(0)), [0.0], 0).value == 0.0
    with pytest.raises(DomainError):
        jet_eval(Pow(Coord(0), -2), [0.0], 0)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        jet_eval(Coord(3), [1.0, 2.0], 0)
    a = Jet.constant(1.0, 2, 1)
    b = Jet.constant(1.0, 3, 1)
    with pytest.raises(DimensionMismatch):
        a + b
    with pytest.raises(DimensionMismatch):
        a * Jet.constant(1.0, 2, 2)


def directional(expr, direction_exprs, point):
    """X(f) and its gradient from order-2 jets of f and order-1 jets of X."""
    f = jet_eval(expr, point, 2)
    comps = [jet_eval(c, point, 1) for c in direction_exprs]
    vals = np.array([c.value for c in comps])
    grad = np.stack([c.grad for c in comps]).T @ f.grad + f.hess @ vals
    return float(vals @ f.grad), grad


def test_directional_derivative_polynomial():
    value, grad = directional(Pow(Coord(0), 2), [Const(1.0)], [3.0])
    assert value == 6.0
    assert grad.tolist() == [2.0]


def test_directional_derivative_heisenberg_vertical_coordinate():
    # z along X1 = dx - (y/2) dz is -y/2
    X1 = [Const(1.0), Const(0.0), Neg(Div(Coord(1), Const(2.0)))]
    p = [0.9, 4.0, -1.2]
    value, grad = directional(Coord(2), X1, p)
    assert value == -2.0
    assert grad.tolist() == [0.0, -0.5, 0.0]
    assert fd_crosscheck(Coord(2), p, X1, 1e-5) <= 1e-9


def test_directional_derivative_of_constant_is_zero():
    value, grad = directional(Const(7.5), [Coord(1), Coord(0)], [0.3, -0.8])
    assert value == 0.0
    assert not grad.any()


def test_fd_crosscheck_examples():
    poly = Add(Mul(Coord(0), Coord(1)), Pow(Coord(0), 3))
    v = [Const(1.0), Const(2.0)]
    assert fd_crosscheck(poly, [0.3, -0.4], v, 1e-5) <= 1e-9
    assert fd_crosscheck(Const(3.0), [0.1, 0.1], v, 1e-5) == 0.0
    assert fd_crosscheck(Call("sin", Coord(0)), [0.7], [Const(1.0)], 1e-5) <= 1e-8
    with pytest.raises(DomainError):
        fd_crosscheck(poly, [0.3, -0.4], v, 0.0)


# -- property tests ---------------------------------------------------------

def _exprs(n: int, partial: bool = False):
    """Random expressions on R^n (constant ones for n = 0); ``partial`` adds the
    operations with a restricted domain (division, negative powers, exp/log/sqrt)."""
    atoms = st.one_of(
        st.integers(-3, 3).map(lambda v: Const(float(v))),
        st.fractions(-2, 2).map(lambda v: Const(float(v))),
        *([st.integers(0, n - 1).map(Coord)] if n else []),
    )
    functions = ["sin", "cos"] + (["exp", "log", "sqrt"] if partial else [])

    def extend(children):
        ops = [
            st.tuples(children, children).map(lambda t: Add(*t)),
            st.tuples(children, children).map(lambda t: Sub(*t)),
            st.tuples(children, children).map(lambda t: Mul(*t)),
            children.map(Neg),
            st.tuples(children, st.integers(-3 if partial else 0, 3)).map(lambda t: Pow(*t)),
            st.tuples(st.sampled_from(functions), children).map(lambda t: Call(*t)),
        ]
        if partial:
            ops.append(st.tuples(children, children).map(lambda t: Div(*t)))
        return st.one_of(*ops)

    return st.recursive(atoms, extend, max_leaves=12)


points2 = st.tuples(st.floats(-1, 1), st.floats(-1, 1))


@given(_exprs(2), _exprs(2), st.fractions(-3, 3), st.fractions(-3, 3), points2)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_linearity(e1, e2, a, b, point):
    combo = Add(Mul(Const(float(a)), e1), Mul(Const(float(b)), e2))
    j = jet_eval(combo, point, 2)
    manual = (jet_eval(e1, point, 2) * float(a)) + (jet_eval(e2, point, 2) * float(b))
    assert jets_close(j, manual)


@given(_exprs(2), _exprs(2), points2)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_leibniz(e1, e2, point):
    j = jet_eval(Mul(e1, e2), point, 2)
    manual = jet_eval(e1, point, 2) * jet_eval(e2, point, 2)
    assert jets_close(j, manual)


@given(_exprs(3), st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)),
       st.lists(_exprs(0, partial=True), max_size=4))
@example(Coord(0), (0.0, 0.0, 0.0),
         [Pow(Neg(Const(0.0)), 3), Pow(Neg(Const(0.0)), 1), Div(Const(5.0), Const(3.0))])
@example(Coord(0), (0.0, 0.0, 0.0),
         [Mul(Const(1e200), Const(1e200)), Call("exp", Const(1000.0)),
          Pow(Mul(Const(-1e200), Const(1e200)), 3)])
@settings(max_examples=150, deadline=None, derandomize=True)
def test_order_slices_agree_exactly(expr, point, constants):
    """Every order gives the same value; and a constant tree compiles to the
    reference value bit for bit (signed zeros too: (-0)^3 is -0.0, as swept), or
    to ops where that raises."""
    j2 = jet_eval(expr, point, 2)
    j1 = jet_eval(expr, point, 1)
    j0 = jet_eval(expr, point, 0)
    assert j2.value == j1.value == j0.value
    assert (j2.grad == j1.grad).all()
    assert j1.hess is None and j0.grad is None
    for constant in constants:
        try:
            want = jet_eval(constant, [], 2).value.hex()
        except DomainError:
            want = None                     # fails at every point: compiled to ops
        except (FloatingPointError, OverflowError, ZeroDivisionError):
            # a call or power out of range, kept as ops (a product to inf folds);
            # or the reference's f' or f'' out of range
            continue
        program = JetProgram([constant], 1)
        got = None if program.ops else float(program.sweep(np.zeros((1, 1))).values[0, 0]).hex()
        assert got == want, constant


def test_chain_consistency_every_catalog_expression():
    """Every expression bundled with the catalog cross-checks against a
    central difference (step 1e-5) at random points, relative <= 1e-6."""
    from srclab.catalog import builtin, catalog_names
    from srclab.manifold import sample_points
    from srclab.parser import parse_scalar_expression

    worst = 0.0
    for name in catalog_names():
        entry = builtin(name)
        spec = entry.spec
        exprs = [e for vf in spec.hframe + spec.vframe for e in vf.components]
        exprs += [e for row in spec.metric for e in row]
        for variant in entry.pi_variants:
            exprs += [parse_scalar_expression(t, spec.coords)
                      for t in variant.expressions]
        directions = [vf.components for vf in spec.hframe + spec.vframe]
        pts = sample_points(spec, 100, 2024)
        for expr in exprs:
            for idx, p in enumerate(pts):
                worst = max(worst, fd_crosscheck(expr, p,
                                                 directions[idx % len(directions)],
                                                 1e-5))
    assert worst <= 1e-6


# -- compiled programs against the reference evaluator ----------------------

JET_TOL = 1e-14          # relative to max(1, |reference|), fixed before measuring


def _free_step2_rank4_text(seed: int) -> str:
    """A rank-4 free step-2 manifold (dim 10): X_i = dx_i + sum_b f_ib dz_b with
    polynomial-plus-trig f_ib, metric L L^T + I, a trig-plus-polynomial one-form."""
    rng = random.Random(seed)
    xs = [f"x{i}" for i in range(1, 5)]
    zs = [f"z{i}{j}" for i in range(1, 5) for j in range(i + 1, 5)]
    coords = xs + zs

    def poly(degrees):
        terms = ["*".join([repr(rng.randint(1, 16) / 32)]
                          + [rng.choice(coords) for _ in range(d)]) for d in degrees]
        return "".join(f" {rng.choice('+-')} {t}" for t in terms).lstrip(" +")

    lines = ["manifold free-step2-r4", "dim 10", "hdim 4", "coords " + " ".join(coords),
             "hframe"]
    for x in xs:
        coeffs = [f"({poly((1, 1, 2, 2, 3))} + 0.25*{rng.choice(('sin', 'cos'))}"
                  f"({rng.choice(coords)})) d{z}" for z in zs]
        lines.append(f"  X{x[1:]} = d{x} + " + " + ".join(coeffs))
    lines += ["vframe"] + [f"  Z{z[1:]} = d{z}" for z in zs]
    L = {(i, k): poly((0, 1, 2)) for i in range(4) for k in range(i + 1)}
    g = {(i, j): " + ".join(f"({L[i, k]})*({L[j, k]})" for k in range(j + 1))
         + (" + 1" if i == j else "") for i in range(4) for j in range(i + 1)}
    rows = [[g[max(i, j), min(i, j)] for j in range(4)] for i in range(4)]
    lines += ["metric rows"] + ["  " + ", ".join(row) for row in rows]
    lines.append("oneform " + ", ".join(f"sin({rng.choice(xs)}) + {poly((1, 2))}"
                                         for _ in range(4)))
    return "\n".join(lines) + "\n"


def _spec_expressions(spec):
    exprs = [e for vf in spec.hframe + spec.vframe for e in vf.components]
    return exprs + [e for row in spec.metric for e in row]


def _compiled_cases():
    from srclab.catalog import builtin, catalog_names
    from srclab.parser import parse_document, parse_scalar_expression

    for name in catalog_names():
        entry = builtin(name)
        exprs = _spec_expressions(entry.spec)
        for variant in entry.pi_variants:
            exprs += [parse_scalar_expression(t, entry.spec.coords)
                      for t in variant.expressions]
        yield name, entry.spec, exprs
    doc = parse_document(_free_step2_rank4_text(11))
    yield doc.spec.name, doc.spec, _spec_expressions(doc.spec) + list(doc.oneform.exprs)


COMPILED_CASES = list(_compiled_cases())


@pytest.mark.parametrize("name,spec,exprs", COMPILED_CASES,
                         ids=[case[0] for case in COMPILED_CASES])
def test_compiled_program_matches_jet_eval(name, spec, exprs):
    from srclab.manifold import sample_points

    program = JetProgram(exprs, spec.n, hessians=range(len(exprs)))
    points = sample_points(spec, 200, 31)
    batch = program.run(points)
    assert batch.errors == {}
    for i, p in enumerate(points):
        for k, expr in enumerate(exprs):
            ref = jet_eval(expr, p, 2)
            for got, want in ((batch.values[i, k], ref.value), (batch.grads[i, k], ref.grad),
                              (batch.hessians[i, k], ref.hess)):
                scale = max(1.0, float(np.abs(want).max()))
                assert np.abs(got - want).max() <= JET_TOL * scale, (name, k, i)
    nodes = 0
    stack = list(exprs)
    while stack:
        nodes += 1
        stack.extend(_operands(stack.pop()))
    assert len(program.ops) < nodes         # shared subtrees and folded constants


BASIS_SPECS = [(name, builtin(name).spec) for name in catalog_names()] + [
    (f"rank4-seed{seed}", parse_document(_free_step2_rank4_text(seed)).spec) for seed in (11, 12)]


@pytest.mark.parametrize("name,spec", BASIS_SPECS, ids=[name for name, _ in BASIS_SPECS])
def test_basis_seeded_run_is_the_basis_contraction(name, spec):
    """Seeded with a basis B, a spec's frame and metric program yields the
    basis-free run's values, G B and B_h^T H B_h (B_h its first hdim = ell
    vectors) to JET_TOL per expression; seeded with the identity, it yields
    the basis-free run's values, gradients and errors bit for bit and the
    leading hdim x hdim block of its Hessians, and a program compiled
    without hdim yields the basis-free run bit for bit."""
    from srclab.manifold import sample_points

    points = sample_points(spec, 40, 5)
    B = np.random.default_rng(2).normal(size=(len(points), spec.n, spec.n))
    Bh = B[:, None, :, :spec.ell]
    eye = np.broadcast_to(np.eye(spec.n), B.shape)
    program = spec._jet_program
    free, seeded = program.run(points), program.run(points, basis=B)
    assert np.array_equal(seeded.values, free.values) and seeded.errors == free.errors
    for got, want in ((seeded.grads, free.grads @ B),
                      (seeded.hessians, Bh.transpose(0, 1, 3, 2) @ free.hessians @ Bh)):
        err, size = (np.abs(a).reshape(len(points), a.shape[1], -1).max(axis=-1)
                     for a in (got - want, want))
        assert (err <= JET_TOL * np.maximum(1.0, size)).all(), name
    unit = program.run(points, basis=eye)
    assert all(np.array_equal(a, b) for a, b in zip(unit[:2], free[:2]))
    assert unit.errors == free.errors
    assert np.array_equal(unit.hessians, free.hessians[..., :spec.ell, :spec.ell])
    exprs = _spec_expressions(spec)
    full = JetProgram(exprs, spec.n, hessians=range(len(exprs)))
    got, want = full.run(points, basis=eye), full.run(points)
    assert all(np.array_equal(a, b) for a, b in zip(got[:3], want[:3]))
    assert got.errors == want.errors


def test_values_are_the_run_values():
    """The sweep's outputs, sweep(points).values, are run(points).values bit
    for bit, for the frame and metric program of a spec."""
    from srclab.manifold import sample_points

    spec = parse_document(_free_step2_rank4_text(11)).spec
    points = sample_points(spec, 30, 4)
    program = spec._jet_program
    assert np.array_equal(program.sweep(points).values, program.run(points).values)


def test_compiled_program_hessians_only_where_asked():
    x, y = Coord(0), Coord(1)
    exprs = [Mul(x, y), Call("sin", x), Const(2.0), Mul(x, y)]
    program = JetProgram(exprs, 2, hessians=[3, 2])
    batch = program.run(np.array([[0.5, -0.25], [0.1, 0.2]]))
    assert batch.hessians.shape == (2, 2, 2, 2)
    assert batch.hessians[:, 0].tolist() == [[[0.0, 1.0], [1.0, 0.0]]] * 2
    assert not batch.hessians[:, 1].any()
    assert batch.values[:, 2].tolist() == [2.0, 2.0]
    assert len(program.ops) == 4            # x, y, x*y (shared), sin x


def test_compiled_program_rejects_what_jet_eval_rejects():
    with pytest.raises(DimensionMismatch):
        JetProgram([Coord(3)], 2)
    with pytest.raises(ValidationError):
        JetProgram([Call("tan", Coord(0))], 1)
    with pytest.raises(DimensionMismatch):
        JetProgram([Coord(0)], 2).run(np.zeros((3, 3)))
    with pytest.raises(DimensionMismatch):              # one basis per point
        JetProgram([Coord(0)], 2).run(np.zeros((3, 2)), basis=np.zeros((2, 2, 2)))
    with pytest.raises(DimensionMismatch):              # fewer vectors than hdim
        JetProgram([Coord(0)], 2, hdim=2).run(np.zeros((3, 2)), basis=np.zeros((3, 2, 1)))


@pytest.mark.parametrize("hessians", [(), (0,)])
def test_run_on_a_zero_width_basis(hessians):
    """A basis of no vectors gives the values, gradients of width 0 and
    0 x 0 Hessians, with or without an output asking for one."""
    points = np.array([[0.5, -0.25], [0.1, 0.2], [2.0, 3.0]])
    run = JetProgram([Mul(Coord(0), Coord(1))], 2, hessians=hessians).run(
        points, basis=np.zeros((3, 2, 0)))
    assert run.values[:, 0].tolist() == [-0.125, 0.020000000000000004, 6.0]
    assert run.grads.shape == (3, 1, 0) and run.hessians.shape == (3, len(hessians), 0, 0)
    assert run.errors == {}


dyadic2 = st.tuples(*[st.integers(-16, 16).map(lambda k: k / 16)] * 2)


@given(_exprs(2, partial=True), st.lists(dyadic2, min_size=1, max_size=6))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_compiled_domain_errors_match_jet_eval(expr, points):
    want = {}
    for i, p in enumerate(points):
        try:
            jet_eval(expr, p, 2)
        except DomainError as exc:
            want[i] = (0, str(exc))
        except (FloatingPointError, OverflowError):
            assume(False)
    assert JetProgram([expr], 2).run(np.array(points)).errors == want


def test_equal_trees_built_apart_compare_and_hash_equal():
    def build(k):
        return Add(Mul(Const(0.5), Pow(Coord(k), 2)), Call("sin", Neg(Coord(1))))

    a, b = build(0), build(0)
    assert a is not b and a == b and hash(a) == hash(b)
    assert build(0) != build(2) and Add(Coord(0), Coord(1)) != Sub(Coord(0), Coord(1))
    assert Const(1) == Const(1.0) and hash(Const(1)) == hash(Const(1.0))
    assert Const(0.0) == Const(-0.0) and Const(1.0) != Coord(1)
    deep_a, deep_b = Coord(0), Coord(0)
    for k in range(5000):                # a sum 5,000 levels deep, far past the recursion limit
        deep_a, deep_b = Add(deep_a, Const(k)), Add(deep_b, Const(k))
    assert deep_a == deep_b and hash(deep_a) == hash(deep_b)
    assert deep_a != Add(deep_b.left, Const(-1.0)) and deep_a != Mul(deep_b.left, Const(4999))


def test_nodes_keep_the_dataclass_surface():
    node = Add(left=Coord(0), right=Const(2.0))
    assert node == Add(Coord(0), Const(2.0))
    assert repr(node) == "Add(left=Coord(index=0), right=Const(value=2.0))"
    assert [f.name for f in dataclasses.fields(Call)] == ["fn", "arg"]
    moved = dataclasses.replace(node, right=Coord(1))
    assert moved == Add(Coord(0), Coord(1)) and hash(moved) == hash(Add(Coord(0), Coord(1)))
    assert dataclasses.replace(Pow(Coord(0), 2), exponent=3) == Pow(Coord(0), 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.left = Coord(1)


def test_overflowing_constants_compile_to_ops():
    """A constant subtree beyond float range is kept as ops instead of being
    folded, so the program compiles and its values are not finite."""
    for text in ("2^1100*x", "exp(1000)*x", "sin(1e200*1e200)*x"):
        program = JetProgram([parse_scalar_expression(text, ("x",))], 1)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(program.run(np.ones((1, 1))).values).any(), text


def test_folded_constants_are_the_swept_values():
    """A constant the parser folds is the value the values sweep gives the same
    function of a coordinate at that argument, bit for bit, signed zeros
    included: each library function at seeded arguments in [-3, 3] (log and
    sqrt at |c| + 0.01), and x^k for k in -3..5, with +-0.0 as a base for k >= 0."""
    c = np.random.default_rng(3).uniform(-3.0, 3.0, 300)
    cases = [(f"{fn}({{}})", abs(c) + 0.01 if fn in ("log", "sqrt") else c) for fn in FUNCTIONS]
    cases += [(f"({{}})^{k}", np.append(c, [0.0, -0.0]) if k >= 0 else c) for k in range(-3, 6)]
    for text, args in cases:
        swept = JetProgram([parse_scalar_expression(text.format("x"), ("x",))], 1).sweep(
            args[:, None]).values[:, 0]
        for a, want in zip(args.tolist(), swept):
            constant = text.format(repr(a))
            program = JetProgram([parse_scalar_expression(constant, ("x",))], 1)
            assert not program.ops, constant
            got = program.sweep(np.zeros((1, 1))).values[0, 0]
            assert float(got).hex() == float(want).hex(), constant


def test_domain_errors_quote_overflowing_operands():
    """An operand that overflows on the way is quoted as the batched run has it."""
    program = JetProgram([parse_scalar_expression("log(-exp(x))", ("x",))], 1)
    assert program.run([[800.0]]).errors == {0: (0, "log of non-positive value -inf")}


def test_deep_trees_print_pickle_and_copy_without_recursing():
    """repr, pickle and copy walk a 5,000-level sum without recursing; repr is
    the dataclass text, a loaded tree equals and hashes like the original,
    and a copy of a frozen node is the node itself."""
    small = Add(Mul(Const(0.5), Pow(Coord(0), 2)), Call("sin", Neg(Coord(1))))
    assert repr(small) == ("Add(left=Mul(left=Const(value=0.5), right=Pow(base=Coord(index=0), "
                           "exponent=2)), right=Call(fn='sin', arg=Neg(arg=Coord(index=1))))")
    shared = Mul(small, small)
    loaded = pickle.loads(pickle.dumps(shared))
    assert loaded == shared and loaded.left is loaded.right
    deep = Coord(0)
    for k in range(5000):
        deep = Add(deep, Const(k))
    text = repr(deep)
    assert text.startswith("Add(left=Add(left=") and text.endswith("right=Const(value=4999))")
    loaded = pickle.loads(pickle.dumps(deep))
    assert loaded == deep and hash(loaded) == hash(deep)
    assert copy.copy(deep) is deep and copy.deepcopy(deep) is deep


PICKLED_SOURCE = """\
manifold pickled
dim 3
hdim 2
coords x y z
hframe
  X = dx + (sin(x) + x*y) dz
  Y = dy - (sin(x)*cos(y)) dz
vframe
  Z = dz
metric rows
  1 + sin(x)^2, x*y/4
  x*y/4, 1 + cos(y)^2
oneform sin(x), log(2 + y)
"""

_PROGRAM_OVER = """
def program_over(*docs):
    exprs = [e for d in docs for s in [d.spec]
             for e in [c for vf in s.hframe + s.vframe for c in vf.components]
             + [e for row in s.metric for e in row] + list(d.oneform.exprs)]
    return JetProgram(exprs, 3)
"""


def test_pickled_spec_rehashes_under_another_hash_seed(tmp_path):
    """A document (its spec and one-form) pickled under one PYTHONHASHSEED and
    loaded under another equals and hashes like a fresh parse there, and one
    program over the loaded and a fresh copy shares their subtrees exactly as
    one over two fresh parses."""
    namespace: dict = {"JetProgram": JetProgram}
    exec(_PROGRAM_OVER, namespace)
    want = repr(namespace["program_over"](parse_document(PICKLED_SOURCE),
                                          parse_document(PICKLED_SOURCE)).ops)
    root = Path(__file__).resolve().parents[1]
    (tmp_path / "source.txt").write_text(PICKLED_SOURCE, encoding="utf-8")
    prelude = ("import pickle, sys\nfrom pathlib import Path\n"
               "from srclab.jets import JetProgram\nfrom srclab.parser import parse_document\n"
               f"here = Path({str(tmp_path)!r})\n"
               "source = (here / 'source.txt').read_text(encoding='utf-8')\n" + _PROGRAM_OVER)
    dump = "(here / 'doc.pickle').write_bytes(pickle.dumps(parse_document(source)))\n"
    load = ("doc, fresh = pickle.loads((here / 'doc.pickle').read_bytes()), parse_document(source)\n"
            "assert doc == fresh and hash(doc) == hash(fresh)\n"
            "print(repr(program_over(doc, fresh).ops))\n")
    outputs = []
    for seed, body in (("1", dump), ("2", load)):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                          env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", prelude + body], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.strip())
    assert outputs[1] == want


def _unshared(node):
    """A copy of ``node`` in which no two places share a node object."""
    return dataclasses.replace(node, **{f.name: _unshared(getattr(node, f.name))
                                        for f in dataclasses.fields(node)
                                        if isinstance(getattr(node, f.name), Expression)})


# terms out of coordinate order, and two on dy: the program still runs the
# components in coordinate order, so the log op comes first
OUT_OF_ORDER_SOURCE = """\
manifold out-of-order
dim 3
hdim 2
coords x y z
hframe
  X1 = (1/z) dy + log(x) dx + x dy
  X2 = dy
vframe
  Z = dz
metric identity
"""

SHARED_CASES = {"pickled": PICKLED_SOURCE, "free-step2-r4": _free_step2_rank4_text(11),
                "out-of-order": OUT_OF_ORDER_SOURCE, "pi-file": PICKLED_SOURCE}


@pytest.mark.parametrize("name", [*catalog_names(), *SHARED_CASES])
def test_shared_subtrees_compile_like_separate_copies(name, tmp_path):
    """The parser makes equal subtrees one node and the value table numbers
    each node once; copies that share nothing compile to the same ops.  The
    "pi-file" case adds a one-form read as ``srclab --pi file:`` reads it."""
    from srclab.cli import _load_pi

    source = SHARED_CASES.get(name) or builtin(name).source
    spec = parse_document(source).spec
    if "metric rows" in source:
        assert spec.metric[0][1] is spec.metric[1][0]
    frame = [c for vf in spec.hframe + spec.vframe for c in vf.components]
    metric = [e for row in spec.metric for e in row]
    cases = [(spec._jet_program, frame + metric,
              [*range(spec.ell * spec.n), *range(len(frame), len(frame) + len(metric))])]
    if name == "pi-file":
        path = tmp_path / "pi.txt"
        path.write_text("sin(x)*y + x*y/4\n  # a comment\n log(2 + y) - x*y/4\n",
                        encoding="utf-8")
        pi = _load_pi(f"file:{path}", spec, None)
        cases.append((pi._jet_program, list(pi.exprs), ()))
    for program, exprs, hessians in cases:
        copies = [_unshared(e) for e in exprs]
        assert copies == exprs and not any(a is b for a, b in zip(copies, exprs))
        assert JetProgram(copies, spec.n, hessians).ops == program.ops


def test_out_of_order_terms_fail_in_component_order():
    """Where two ops of the frame program fail at one point, the error names
    the one that comes first in component order, not in the order the terms
    were read, with the owner and message the tree compiler gave."""
    from srclab.curvature import Evaluation

    spec = parse_document(OUT_OF_ORDER_SOURCE).spec
    frame_program = spec._jet_program
    assert [op[:4] for op in frame_program.ops] == [
        ("coord", 0, None, 0), ("call", 0, "log", 0), ("coord", 2, None, 1),
        ("recip", 2, None, 1), ("add", 3, 0, 1)]
    points = [[0.0, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 1.0], [-1.0, 0.0, 0.0]]
    assert frame_program.run(points).errors == {
        0: (0, "log of non-positive value 0.0"), 1: (1, "division by zero"),
        2: (0, "log of non-positive value 0.0"), 3: (0, "log of non-positive value -1.0")}
    with pytest.raises(DomainError, match="log of non-positive value 0.0"):
        Evaluation(spec, None, points[:1]).read("frame")


def test_signed_zero_constants_keep_their_sign():
    """0.0 == -0.0, yet x*0 and -0*x are two ops: each output is its own
    expression's arithmetic, as the reference evaluator has it, within one
    program, across the programs of one document, and for trees built in
    Python."""
    program = JetProgram([parse_scalar_expression(t, ("x",)) for t in ("x*0", "-0*x")], 1)
    want = [jet_eval(parse_scalar_expression(t, ("x",)), [1.0], 0).value for t in ("x*0", "-0*x")]
    assert np.signbit(program.sweep([[1.0]]).values[0]).tolist() == np.signbit(want).tolist() == [
        False, True]
    built = JetProgram([Mul(Const(0.0), Coord(0)), Mul(Const(-0.0), Coord(0))], 1)
    assert np.signbit(built.sweep([[1.0]]).values[0]).tolist() == [False, True]
    spec = parse_document(_PRE_SIGNED).spec
    metric = spec._jet_program.sweep([[1.0, 0.0, 0.0]]).values[0, spec.n * spec.n:]
    assert np.signbit(metric).tolist() == [False, True, True, False]


_PRE_SIGNED = """\
manifold signed
dim 3
hdim 2
coords x y z
hframe
  X1 = dx + (x*0) dz
  X2 = dy
vframe
  Z = dz
metric rows
  1, -0*x
  -0*x, 1
"""


def test_python_built_spec_compiles_like_its_parsed_text(tmp_path):
    """One compiler for both entry points: a spec and a one-form built in
    Python and the parse of their serialized document have the same programs,
    op for op.  One parse path: the document's one-form, a ``--pi file:``
    holding its expressions among comments and indentation, and
    ``parse_oneform`` of them compile the same ops."""
    from srclab.cli import _load_pi
    from srclab.connections import OneFormData
    from srclab.manifold import ManifoldSpec, VectorFieldSpec
    from srclab.parser import SpecDocument, parse_oneform, serialize_document

    x, y, one, zero = Coord(0), Coord(1), Const(1.0), Const(0.0)
    spec = ManifoldSpec(
        "built", ("x", "y", "z"), 2,
        (VectorFieldSpec((one, zero, Neg(Div(y, Const(2.0))))),
         VectorFieldSpec((zero, one, Add(Div(x, Const(2.0)), Mul(Call("sin", x), Pow(y, 2)))))),
        (VectorFieldSpec((zero, zero, one)),),
        ((Add(one, Pow(Call("cos", y), 2)), Mul(x, y)), (Mul(x, y), Add(one, Pow(x, 2)))))
    pi = OneFormData((Call("sin", x), Call("log", Add(Const(2.0), Sub(y, Mul(x, Const(0.25)))))), 3)
    text = serialize_document(SpecDocument(spec, ("X1", "X2"), ("Z",), pi))
    doc = parse_document(text)
    assert doc.spec == spec and doc.spec.metric[0][1] is doc.spec.metric[1][0]
    assert spec.metric[0][1] is not spec.metric[1][0]
    assert doc.spec._jet_program.ops == spec._jet_program.ops and len(spec._jet_program.ops) > 0
    texts = text.splitlines()[-1].removeprefix("oneform ").split(", ")
    path = tmp_path / "pi.txt"
    path.write_text(f"# pi\n  {texts[0]}  # first\n\n\t{texts[1]}#second\n", encoding="utf-8")
    read = [doc.oneform, _load_pi(f"file:{path}", spec, None),
            parse_oneform([(t, 1, 0) for t in texts], spec.coords)]
    assert all(r == pi for r in read) and len(pi._jet_program.ops) > 0
    assert all(r._jet_program.ops == pi._jet_program.ops for r in read)


_ZERO_POWERS = """\
manifold zero-powers
dim 3
hdim 2
coords x y z
hframe
  X1 = dx + (x*y^0 - z^2*x^0) dz
  X2 = dy + (sin(y)^0*x) dz
vframe
  Z = dz
metric rows
  1 + x^2*z^0, 0
  0, 2 + y^0*z
"""


def test_zero_powers_in_the_frame_and_the_metric():
    """An x^0 factor in a frame component and in a metric entry is a pow op of
    exponent 0 in the spec's program: its run gives the reference jets'
    values, gradients and Hessians, and the values, gradients and Hessians of
    the same spec with each x^0 factor written as 1."""
    from srclab.manifold import sample_points
    from srclab.parser import parse_document

    spec = parse_document(_ZERO_POWERS).spec
    program, n, ell = spec._jet_program, spec.n, spec.ell
    owners = [op[3] for op in program.ops if op[0] == "pow" and op[2] == 0]
    assert min(owners) < n * n <= max(owners)           # in the frame and in the metric
    ones = parse_document(re.sub(r"(sin\(y\)|[xyz])\^0", "1", _ZERO_POWERS)).spec._jet_program
    points = sample_points(spec, 20, 3)
    got, want = program.run(points), ones.run(points)
    assert got.errors == {} and all(np.array_equal(a, b) for a, b in zip(got[:3], want[:3]))
    exprs, hessians = _spec_expressions(spec), [*range(ell * n), *range(n * n, n * n + ell * ell)]
    for i, p in enumerate(points):
        for k, expr in enumerate(exprs):
            ref = jet_eval(expr, p, 2)
            assert got.values[i, k] == ref.value and np.array_equal(got.grads[i, k], ref.grad)
            if k in hessians:
                assert np.array_equal(got.hessians[i, hessians.index(k)], ref.hess), (i, k)


def test_public_views_raise_the_domain_error_of_their_point():
    """jet_eval and fd_crosscheck outside the domain raise the DomainError of
    the point they evaluate; the direction's, then the function's."""
    from srclab.jets import jet_eval as package_jet_eval

    log_x = Call("log", Coord(0))
    with pytest.raises(DomainError, match="^log of non-positive value -1.0$"):
        package_jet_eval(log_x, [-1.0, 0.0], 2)
    with pytest.raises(DomainError, match="^log of non-positive value -0.5$"):
        fd_crosscheck(log_x, [-0.5, 0.0], [Const(1.0), Const(0.0)], 1e-5)
    with pytest.raises(DomainError, match="^sqrt of negative value -2.0$"):
        fd_crosscheck(Coord(0), [0.5, -2.0], [Call("sqrt", Coord(1)), Const(0.0)], 1e-5)


def test_equal_hashes_do_not_make_unequal_constants_equal():
    """hash(-1.0) == hash(-2.0) in CPython, so the two constants hash alike,
    yet they compare unequal on their values."""
    assert hash(Const(-1.0)) == hash(Const(-2.0))
    assert Const(-1.0) != Const(-2.0) and not Const(-1.0) == Const(-2.0)


def test_constant_zero_to_a_negative_power_is_kept_as_an_op():
    """0^-2 has no value to fold: the table keeps the op, and the program
    fails at every point with the folding arithmetic's message."""
    expr = parse_scalar_expression("x + 0^-2", ("x", "y"))
    run = JetProgram([expr], 2).run(np.array([[0.5, 0.0], [-1.0, 2.0]]))
    assert {i: message for i, (_, message) in run.errors.items()} == {
        0: "zero raised to a negative power", 1: "zero raised to a negative power"}
