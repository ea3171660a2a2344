import math

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from dynsys import expr as E
from exprgen import central_difference, random_expr


# --- parsing ---------------------------------------------------------------


def test_parse_power_production():
    e = E.parse("x1^2", 1)
    assert e.root == E.Pow(E.Var(1), E.Num(2.0))


def test_parse_three_node_sum():
    e = E.parse("sin(x1)*x2 + t", 2)
    assert e.root == E.Add(E.Mul(E.Call("sin", E.Var(1)), E.Var(2)), E.TimeVar())


def test_parse_arity_violation():
    with pytest.raises(E.ArityError):
        E.parse("x3", 2)


def test_parse_syntax_error_carries_offset():
    with pytest.raises(E.ParseError) as exc:
        E.parse("1 + * 2", 1)
    assert exc.value.offset == 4


def test_parse_unknown_identifier():
    with pytest.raises(E.ParseError):
        E.parse("foo(x1)", 1)
    with pytest.raises(E.ParseError):
        E.parse("y1 + 2", 2)


def test_parse_unary_minus_and_power():
    # the grammar makes '-' bind inside the power: -x1^2 == (-x1)^2
    e = E.parse("-x1^2", 1)
    assert e.root == E.Pow(E.Neg(E.Var(1)), E.Num(2.0))


def test_parse_unbalanced_parens():
    with pytest.raises(E.ParseError):
        E.parse("(x1 + 2", 1)


# --- evaluation ------------------------------------------------------------


def test_eval_square():
    assert E.evaluate(E.parse("x1^2", 1), [3.0]) == 9.0


def test_eval_exp_against_stdlib():
    got = E.evaluate(E.parse("exp(x1)", 1), [1.0])
    assert abs(got - math.exp(1.0)) <= 1e-12


def test_eval_log_domain_violation():
    with pytest.raises(E.DomainError):
        E.evaluate(E.parse("log(x1)", 1), [-1.0])


def test_eval_division_by_zero():
    with pytest.raises(E.DomainError):
        E.evaluate(E.parse("1/x1", 1), [0.0])


def test_parse_non_finite_literal():
    with pytest.raises(E.ParseError) as info:
        E.parse("x1^1e999", 1)
    assert info.value.offset == 3


def test_eval_infinite_exponent():
    with pytest.raises(E.DomainError):
        E.evaluate(E.parse("x1^x2", 2), [2.0, math.inf])


def test_eval_sqrt_negative():
    with pytest.raises(E.DomainError):
        E.evaluate(E.parse("sqrt(x1)", 1), [-4.0])


def test_eval_fractional_power_needs_positive_base():
    e = E.parse("x1^0.5", 1)
    assert E.evaluate(e, [4.0]) == 2.0
    with pytest.raises(E.DomainError):
        E.evaluate(e, [-4.0])


def test_eval_integer_power_negative_base_ok():
    assert E.evaluate(E.parse("x1^3", 1), [-2.0]) == -8.0


def test_eval_overflow_reported():
    with pytest.raises(E.DomainError):
        E.evaluate(E.parse("exp(x1)", 1), [1000.0])


def test_eval_time_variable():
    assert E.evaluate(E.parse("x1 + t", 1), [1.0], t=2.5) == 3.5


def test_evaluate_many_matches_scalar():
    e = E.parse("sin(x1)*x2 + t", 2)
    pts = np.array([[0.3, 1.0], [1.1, -2.0], [2.0, 0.5]])
    batch = E.evaluate_many(e, pts, t=0.25)
    for row, got in zip(pts, batch):
        assert got == pytest.approx(E.evaluate(e, row, t=0.25), abs=1e-15)


def test_evaluate_many_masks_instead_of_raising():
    vals = E.evaluate_many(E.parse("log(x1)", 1), np.array([-1.0, 1.0]))
    assert np.isnan(vals[0]) and vals[1] == 0.0


# --- differentiation -------------------------------------------------------


def test_power_rule():
    d = E.differentiate(E.parse("x1^2", 1), 1)
    assert d == E.parse("2*x1", 1)


def test_product_rule_with_chain():
    d = E.differentiate(E.parse("sin(x1)*x2", 2), 1)
    assert d == E.parse("cos(x1)*x2", 2)


def test_derivative_against_central_difference():
    e = E.parse("exp(2*x1)", 1)
    sym = E.evaluate(E.differentiate(e, 1), [0.0])
    fd = central_difference(e, 1, [0.0], h=1e-5)
    assert abs(sym - 2.0) < 1e-12
    assert abs(sym - fd) < 1e-9


def test_differentiate_bad_var():
    with pytest.raises(E.ArityError):
        E.differentiate(E.parse("x1", 1), 2)


def test_general_power_derivative():
    # x1^x1 at 2: d/dx = x^x (log x + 1)
    e = E.parse("x1^x1", 1)
    sym = E.evaluate(E.differentiate(e, 1), [2.0])
    assert sym == pytest.approx(4.0 * (math.log(2.0) + 1.0), rel=1e-12)


def test_fd_agreement_randomized_suite():
    # >= 100 (expression, point) pairs against the finite-difference oracle
    rng = np.random.default_rng(20240817)
    checked = 0
    attempts = 0
    while checked < 110 and attempts < 5000:
        attempts += 1
        e = random_expr(rng, arity=2, depth=3)
        p = [float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5))]
        var = int(rng.integers(1, 3))
        try:
            sym = E.evaluate(E.differentiate(e, var), p)
            fd = central_difference(e, var, p, h=1e-5)
        except E.DomainError:
            continue
        if max(abs(sym), abs(fd)) > 1e6:
            continue
        rel = abs(sym - fd) / max(1.0, abs(sym), abs(fd))
        assert rel < 1e-5, f"{E.to_string(e)} at {p}: sym={sym} fd={fd}"
        checked += 1
    assert checked >= 100


# --- jacobian --------------------------------------------------------------


def test_jacobian_scalar_linear():
    f = E.parse_vector(["2*x1"], 1)
    jac = E.jacobian(f)
    assert jac == ((E.parse("2", 1),),)


def test_jacobian_rotation():
    f = E.parse_vector(["x2", "-x1"], 2)
    jac = E.jacobian(f)
    vals = [[E.evaluate(jac[i][j], [0.7, -1.3]) for j in range(2)] for i in range(2)]
    assert vals == [[0.0, 1.0], [-1.0, 0.0]]


def test_jacobian_vector_product_against_fd():
    rng = np.random.default_rng(7)
    coeffs = rng.uniform(-2, 2, size=(2, 3, 3)).round(3)
    comps = []
    for i in range(2):
        terms = [
            f"{coeffs[i][a][b]}*x1^{a}*x2^{b}"
            for a in range(3)
            for b in range(3)
        ]
        comps.append(" + ".join(terms))
    f = E.parse_vector(comps, 2)
    jac = E.jacobian(f)
    h = 1e-6
    for _ in range(100):
        x = rng.uniform(-2, 2, size=2)
        v = rng.uniform(-1, 1, size=2)
        jmat = np.array([[E.evaluate(jac[i][j], x) for j in range(2)] for i in range(2)])
        jv = jmat @ v
        fw = np.array(E.evaluate_vector(f, x + h * v))
        bw = np.array(E.evaluate_vector(f, x - h * v))
        fd = (fw - bw) / (2 * h)
        rel = np.linalg.norm(jv - fd) / max(1.0, np.linalg.norm(jv), np.linalg.norm(fd))
        assert rel < 1e-6


# --- printing and composition ----------------------------------------------

_leaves = st.one_of(
    st.builds(E.Num, st.floats(min_value=-50, max_value=50, allow_nan=False)),
    st.builds(E.Var, st.integers(1, 3)),
    st.just(E.TimeVar()),
)


def _compound(children):
    return st.one_of(
        st.builds(E.Add, children, children),
        st.builds(E.Sub, children, children),
        st.builds(E.Mul, children, children),
        st.builds(E.Div, children, children),
        st.builds(E.Pow, children, children),
        st.builds(E.Neg, children.filter(lambda n: not isinstance(n, E.Num))),
        st.builds(E.Call, st.sampled_from(E.FUNCTIONS), children),
    )


_asts = st.recursive(_leaves, _compound, max_leaves=25)


@hypothesis.given(_asts)
def test_parse_print_roundtrip(ast):
    e = E.Expr(ast, 3)
    assert E.parse(E.to_string(e), 3) == e


@hypothesis.given(_asts, _asts, st.floats(min_value=-3, max_value=3, allow_nan=False))
@hypothesis.settings(max_examples=150)
def test_differentiate_is_linear(a1, a2, scale):
    combo = E.Expr(E.Add(E.Mul(E.Num(scale), a1), a2), 3)
    e1, e2 = E.Expr(a1, 3), E.Expr(a2, 3)
    d_combo = E.differentiate(combo, 1)
    d1, d2 = E.differentiate(e1, 1), E.differentiate(e2, 1)
    p = [0.7, -0.4, 1.2]
    try:
        lhs = E.evaluate(d_combo, p)
        rhs = scale * E.evaluate(d1, p) + E.evaluate(d2, p)
    except E.DomainError:
        hypothesis.assume(False)
    hypothesis.assume(max(abs(lhs), abs(rhs)) < 1e12)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_substitute_composition():
    outer = E.parse("2*x1", 1)
    inner = E.parse("x1 + 1", 1)
    comp = E.substitute(outer, [inner])
    for x in (-2.0, 0.0, 3.5):
        assert E.evaluate(comp, [x]) == 2 * (x + 1)


def test_compose_vector_maps():
    f = E.parse_vector(["x1 + x2", "x1 - x2"], 2)
    g = E.parse_vector(["x1^2", "2*x2"], 2)
    gf = E.compose(g, f)
    x = [1.5, -0.5]
    fx = E.evaluate_vector(f, x)
    assert E.evaluate_vector(gf, x) == E.evaluate_vector(g, fx)


def test_identity_map():
    ident = E.identity_map(3)
    assert E.evaluate_vector(ident, [1.0, 2.0, 3.0]) == [1.0, 2.0, 3.0]
