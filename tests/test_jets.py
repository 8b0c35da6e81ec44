import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from srclab.errors import DimensionMismatch, DomainError
from srclab.jets import (Add, Call, Const, Coord, Div, Jet, JetProgram, Mul, Neg, Pow,
                         Sub, _operands, fd_crosscheck, jet_eval)


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
    """Random expressions on R^n; ``partial`` adds the operations with a
    restricted domain (division, negative powers, exp/log/sqrt)."""
    atoms = st.one_of(
        st.integers(-3, 3).map(lambda v: Const(float(v))),
        st.fractions(-2, 2).map(lambda v: Const(float(v))),
        st.integers(0, n - 1).map(Coord),
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
@settings(max_examples=150, deadline=None)
def test_linearity(e1, e2, a, b, point):
    combo = Add(Mul(Const(float(a)), e1), Mul(Const(float(b)), e2))
    j = jet_eval(combo, point, 2)
    manual = (jet_eval(e1, point, 2) * float(a)) + (jet_eval(e2, point, 2) * float(b))
    assert jets_close(j, manual)


@given(_exprs(2), _exprs(2), points2)
@settings(max_examples=150, deadline=None)
def test_leibniz(e1, e2, point):
    j = jet_eval(Mul(e1, e2), point, 2)
    manual = jet_eval(e1, point, 2) * jet_eval(e2, point, 2)
    assert jets_close(j, manual)


@given(_exprs(3), st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)))
@settings(max_examples=150, deadline=None)
def test_order_slices_agree_exactly(expr, point):
    j2 = jet_eval(expr, point, 2)
    j1 = jet_eval(expr, point, 1)
    j0 = jet_eval(expr, point, 0)
    assert j2.value == j1.value == j0.value
    assert (j2.grad == j1.grad).all()
    assert j1.hess is None and j0.grad is None


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
    from srclab.parser import parse_manifold, parse_scalar_expression

    for name in catalog_names():
        entry = builtin(name)
        exprs = _spec_expressions(entry.spec)
        for variant in entry.pi_variants:
            exprs += [parse_scalar_expression(t, entry.spec.coords)
                      for t in variant.expressions]
        yield name, entry.spec, exprs
    spec = parse_manifold(_free_step2_rank4_text(11))
    yield spec.name, spec, _spec_expressions(spec) + list(spec.oneform)


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
    with pytest.raises(KeyError):
        JetProgram([Call("tan", Coord(0))], 1)
    with pytest.raises(DimensionMismatch):
        JetProgram([Coord(0)], 2).run(np.zeros((3, 3)))


dyadic2 = st.tuples(*[st.integers(-16, 16).map(lambda k: k / 16)] * 2)


@given(_exprs(2, partial=True), st.lists(dyadic2, min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_compiled_domain_errors_match_jet_eval(expr, points):
    want = {}
    for i, p in enumerate(points):
        try:
            jet_eval(expr, p, 2)
        except DomainError as exc:
            want[i] = (0, str(exc))
        except OverflowError:
            assume(False)
    assert JetProgram([expr], 2).run(np.array(points)).errors == want
