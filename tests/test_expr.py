import copy
import gc
import math
import pickle
import struct
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from dynsys import calculus
from dynsys import expr as E
from exprgen import (central_difference, random_expr, reference_eval, reference_eval_many,
                     reference_parse, reference_to_string)

# random ASTs over x1..x3 and t

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


def test_parse_interns_equal_expressions():
    assert E.parse("x1*x1+sin(x1)", 1).root is E.parse(" x1 * x1 + sin(x1) ", 1).root


def _parse_outcome(parser, src: str):
    try:
        return parser(src, 3)
    except E.ExprError as exc:
        return type(exc), str(exc)


_TOKENS = st.sampled_from(["x1", "x2", "x4", "x0", "t", "2", "0.5", "1e3", "sin", "log", "foo",
                           "(", ")", "+", "-", "*", "/", "^", " "])
_PRINTED = _asts.map(lambda ast: calculus.to_string(E.Expr(ast, 3)))


@hypothesis.given(st.one_of(
    st.lists(_TOKENS, max_size=24).map("".join),
    _PRINTED,
    st.tuples(_PRINTED, st.integers(0, 200)).map(lambda pair: pair[0][:pair[1]]),
))
@hypothesis.settings(max_examples=500)
def test_parser_matches_recursive_descent(src):
    # the same node (nodes are interned) or the same error, byte offset included
    got = _parse_outcome(lambda text, arity: E.parse(text, arity).root, src)
    want = _parse_outcome(reference_parse, src)
    if isinstance(want, E.Node):
        assert got is want
    else:
        assert got == want


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


def test_eval_negative_base_huge_even_exponent():
    assert E.evaluate(E.parse("(0 - 0.5)^x1", 1), [4e9]) == 0.0


def test_eval_negative_base_huge_exponent_overflows():
    with pytest.raises(E.DomainError) as info:
        E.evaluate(E.parse("(0 - 2)^x1", 1), [3e9])
    assert str(info.value) == "overflow in (0 - 2)^x1"


@pytest.mark.parametrize("base", [-2.0, -1.5, -0.5, -1.0])
@pytest.mark.parametrize("exponent", [3.0, 30.0, -7.0, 1021.0, 2.0**31 - 1])
def test_eval_negative_base_integer_exponent_is_float_pow(base, exponent):
    e = E.parse("x1^x2", 2)
    try:
        expected = base ** exponent
    except OverflowError:
        with pytest.raises(E.DomainError):
            E.evaluate(e, [base, exponent])
        return
    assert _bits(E.evaluate(e, [base, exponent])) == _bits(expected)


# --- the compiled evaluator against the tree walker ---------------------------


def _bits(v):
    return struct.pack("<d", v)


def _outcome(fn, *args):
    """A value's bits, or the type and text of what was raised."""
    try:
        result = fn(*args)
    except Exception as exc:  # any failure must match the walker's exactly
        return type(exc), str(exc)
    if isinstance(result, list):
        return [_bits(v) for v in result]
    return _bits(result)


def _reference_vector(roots, point, t):
    return [reference_eval(root, point, float(t)) for root in roots]


# values that reach log <= 0, division by zero, overflow and negative bases
_specials = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 2.0, -2.5, 0.5, 1e-300, 710.0, -710.0, 1e200, -1e200, 1e308]
)
_coords = st.one_of(_specials, st.floats(min_value=-60, max_value=60, allow_nan=False))


@hypothesis.given(st.lists(_asts, min_size=1, max_size=4), st.lists(_coords, min_size=3, max_size=3),
                  _coords)
@hypothesis.settings(max_examples=400, deadline=None)
def test_compiled_matches_reference_walker(asts, point, t):
    exprs = [E.Expr(a, 3) for a in asts]
    for e in exprs:
        assert _outcome(E.evaluate, e, point, t) == _outcome(reference_eval, e.root, point, float(t))
    field = E.VectorExpr(exprs)
    assert _outcome(E.evaluate_vector, field, point, t) == _outcome(_reference_vector, asts, point, t)


@pytest.mark.parametrize("base", [-2.0, -0.0, 0.0, 1e200])
@pytest.mark.parametrize("k", [0.0, 2.0, 3.0, -1.0, -2.0, 0.5, -0.5])
def test_powers_match_the_reference_walker(base, k):
    # the exponent k as a constant, whose tests are settled when the code is
    # emitted, and as a variable and the time, whose tests run
    for expo in (E.Num(k), E.Var(2), E.TimeVar()):
        e = E.Expr(E.Pow(E.Var(1), expo), 2)
        point = [base, k]
        assert _outcome(E.evaluate, e, point, k) == _outcome(reference_eval, e.root, point, k)
        assert (_outcome(E.evaluate_vector, E.VectorExpr((e, e)), point, k)
                == _outcome(_reference_vector, (e.root, e.root), point, k))


@pytest.mark.parametrize("src, point, message", [
    ("log(x1 - x2) + x1", [1.0, 1.0], "log of a non-positive number in log(x1 - x2)"),
    ("x2 + 1/(x1 - x2)", [2.0, 2.0], "division by zero in 1 / (x1 - x2)"),
    ("(x1 - 1)/0 + log(x1)", [-1.0, 0.0], "division by zero in (x1 - 1) / 0"),
    ("exp(x1) * x2", [710.0, 1.0], "overflow in exp(x1)"),
    ("x1 * x1 * x2", [1e200, 1.0], "non-finite result in x1 * x1"),
    ("x1^x2 + x1", [-2.0, 0.5], "negative base with non-integer exponent in x1^x2"),
    ("x2 + x1^(0 - 1)", [0.0, 1.0], "zero base with negative exponent in x1^(0 - 1)"),
    ("sqrt(x1) * sqrt(x1)", [-1.0, 0.0], "sqrt of a negative number in sqrt(x1)"),
])
def test_compiled_domain_errors_match_reference(src, point, message):
    e = E.parse(src, 2)
    expected = (E.DomainError, message)
    assert _outcome(reference_eval, e.root, point, 0.0) == expected
    assert _outcome(E.evaluate, e, point) == expected
    assert _outcome(E.evaluate_vector, E.VectorExpr((e, e)), point) == expected


def test_compiled_jacobian_shares_subexpressions_exactly():
    # Jacobian entries share subtrees; evaluating them as one vector must
    # still give each entry's walker value bit for bit
    rng = np.random.default_rng(11)
    for _ in range(40):
        field = E.VectorExpr(tuple(random_expr(rng, arity=2, depth=3) for _ in range(2)))
        entries = [entry for row in E.jacobian(field) for entry in row]
        point = [float(v) for v in rng.uniform(-1.5, 1.5, size=2)]
        got = _outcome(E.evaluate_vector, E.VectorExpr(tuple(entries)), point, 0.3)
        assert got == _outcome(_reference_vector, [e.root for e in entries], point, 0.3)


def test_expressions_of_one_shape_share_code_but_not_constants_or_culprits():
    two, three = E.parse("log(x1 - 2)", 1), E.parse("log(x1 - 3)", 1)
    assert two._compiled.__code__ is three._compiled.__code__
    assert two._compiled is not three._compiled
    assert E.evaluate(two, [5.0]) == math.log(3.0)
    assert E.evaluate(three, [5.0]) == math.log(2.0)
    with pytest.raises(E.DomainError) as low:
        E.evaluate(two, [1.0])
    with pytest.raises(E.DomainError) as high:
        E.evaluate(three, [2.5])
    assert str(low.value) == "log of a non-positive number in log(x1 - 2)"
    assert str(high.value) == "log of a non-positive number in log(x1 - 3)"
    # the vector form keys its code on the same source text
    pair = E.parse_vector(["x1 - 2", "x1 / 2"], 1)
    other = E.parse_vector(["x1 - 7", "x1 / 7"], 1)
    assert pair._compiled.__code__ is other._compiled.__code__
    assert E.evaluate_vector(pair, [1.0]) == [-1.0, 0.5]
    assert E.evaluate_vector(other, [1.0]) == [-6.0, 1 / 7]


def test_evaluate_many_matches_scalar():
    e = E.parse("sin(x1)*x2 + t", 2)
    pts = np.array([[0.3, 1.0], [1.1, -2.0], [2.0, 0.5]])
    batch = E.evaluate_many(e, pts, t=0.25)
    for row, got in zip(pts, batch):
        assert got == pytest.approx(E.evaluate(e, row, t=0.25), abs=1e-15)


def _same_bits(got, want):
    return (got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


_seeded = st.integers(0, 2**32 - 1).map(
    lambda seed: random_expr(np.random.default_rng(seed), arity=3, depth=4).root)


@hypothesis.given(st.one_of(_asts, _seeded), st.lists(_coords, min_size=3, max_size=30), _coords)
@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.example(E.Num(2.5), [1.0, 2.0, 3.0], 0.0)  # a constant root
@hypothesis.example(E.Call("sin", E.Add(E.Num(1.0), E.Num(2.0))), [1.0, 2.0, 3.0], 0.0)
@hypothesis.example(E.Div(E.Var(1), E.Num(0.0)), [0.0, -1.0, 1.0], 0.0)
@hypothesis.example(E.Sub(E.Num(-0.0), E.Mul(E.TimeVar(), E.Num(0.0))), [1.0, 2.0, 3.0], -0.0)
@hypothesis.example(E.Pow(E.Var(2), E.Num(2.0)), [1.1, -2.3, 0.7, 4.1, 9.9, -0.3], 0.0)
def test_evaluate_many_matches_the_all_array_walk(root, coords, t):
    # a constant kept as a float must give the bits its np.full array gave
    e = E.Expr(root, 3)
    pts = np.array(coords[: len(coords) // 3 * 3]).reshape(-1, 3)
    assert _same_bits(E.evaluate_many(e, pts, t), reference_eval_many(e, pts, t))


@pytest.mark.parametrize("src", ["x1^2", "x1^0.5", "x1^(0 - 1)", "2^x1", "(x1 + 1)^2 * 3 - 1 / x1"])
def test_constant_powers_match_the_all_array_walk(src):
    # np.power with a float exponent takes other loops, which round some
    # squares and roots differently on some CPUs: the exponent stays an array
    e = E.parse(src, 1)
    pts = np.random.default_rng(5).uniform(-3.0, 3.0, size=(4096, 1))
    assert _same_bits(E.evaluate_many(e, pts), reference_eval_many(e, pts, 0.0))


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
        assert rel < 1e-5, f"{calculus.to_string(e)} at {p}: sym={sym} fd={fd}"
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


@hypothesis.given(_asts)
@hypothesis.example(E.Mul(E.Var(1), E.Num(-0.0)))  # prints as "x1 * -0"
def test_parse_print_roundtrip(ast):
    e = E.Expr(ast, 3)
    assert E.parse(calculus.to_string(e), 3) == e


@hypothesis.given(_asts)
def test_printer_matches_recursive_reference(ast):
    assert calculus.to_string(E.Expr(ast, 3)) == reference_to_string(ast)


def test_print_deep_tree_and_culprit():
    e = E.parse("sqrt(" + " + ".join(["0.001*x1"] * 3000) + " - 4)", 1)
    text = calculus.to_string(e)
    assert text == "sqrt(" + " + ".join(["0.001 * x1"] * 3000) + " - 4)"
    with pytest.raises(E.DomainError) as info:
        E.evaluate(e, [1.0])
    assert str(info.value) == "sqrt of a negative number in " + text


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
    gf = calculus.compose(g, f)
    x = [1.5, -0.5]
    fx = E.evaluate_vector(f, x)
    assert E.evaluate_vector(gf, x) == E.evaluate_vector(g, fx)


def test_identity_map():
    ident = calculus.identity_map(3)
    assert E.evaluate_vector(ident, [1.0, 2.0, 3.0]) == [1.0, 2.0, 3.0]


# --- interning and depth -------------------------------------------------------


def _composite(copies: int) -> E.Expr:
    """g = x1*x1 + sin(x1) substituted into itself: ``copies`` + 1 copies of g."""
    g = E.parse("x1*x1 + sin(x1)", 1)
    e = g
    for _ in range(copies):
        e = E.substitute(e, [g])
    return e


def test_derivative_of_a_composite_is_linear_in_its_distinct_nodes():
    # walked as a tree, the derivative of the 9-fold composite had 49,206
    # distinct node objects; memoized per node it has 76
    e = _composite(8)
    assert len(e._order) == 28
    assert len(E.differentiate(e, 1)._order) == 76


DEEP = 10_000


@pytest.fixture
def default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


def _run_every_walker(e: E.Expr, x: float) -> None:
    d = E.differentiate(e, 1)
    shifted = E.substitute(d, [E.parse("x1 + 0.5", 1)])
    scalar = E.evaluate(shifted, [x - 0.5])
    batch = E.evaluate_many(shifted, np.array([x - 0.5, x]))
    assert batch[0] == pytest.approx(scalar, rel=1e-12)
    assert hash(shifted) == hash(E.Expr(shifted.root, 1))


@pytest.mark.parametrize("src", [
    "(" * DEEP + "x1" + ")" * DEEP,
    "-" * DEEP + "x1",
    "sin(" * DEEP + "x1" + ")" * DEEP,
], ids=["parentheses", "unary-minus", "sin"])
def test_deep_expressions_need_no_recursion(src, default_recursion_limit):
    e = E.parse(src, 1)
    text = calculus.to_string(e)
    assert E.parse(text, 1).root is e.root
    _run_every_walker(e, 0.3)


def test_composite_of_41_copies(default_recursion_limit):
    # 3^41 tree nodes, 124 distinct ones
    e = _composite(40)
    assert len(e._order) == 124
    _run_every_walker(e, 0.01)


@pytest.mark.parametrize("src, root_text", [
    ("sin(" * DEEP + "x1" + ")" * DEEP, "Call(func='sin', arg=" * DEEP + "Var(index=1)" + ")" * DEEP),
    ("-" * DEEP + "x1", "Neg(arg=" * DEEP + "Var(index=1)" + ")" * DEEP),
], ids=["sin", "unary-minus"])
def test_deep_expressions_repr_pickle_and_copy(src, root_text, default_recursion_limit):
    e = E.parse(src, 1)
    assert repr(e) == f"Expr(root={root_text}, arity=1)"
    for clone in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e), copy.copy(e)):
        assert type(clone) is E.Expr and clone.root is e.root and clone == e
    assert pickle.loads(pickle.dumps(e.root)) is e.root
    assert copy.deepcopy(e.root) is e.root and copy.copy(e.root) is e.root


def test_pickled_composite_is_one_entry_per_distinct_node(default_recursion_limit):
    e = _composite(40)  # 3^41 tree nodes, 124 distinct ones
    data = pickle.dumps(e)
    assert len(data) < 50 * len(e._order)
    assert pickle.loads(data).root is e.root
    assert copy.deepcopy(e).root is e.root


def test_unpickled_nodes_are_interned_and_keep_their_constants():
    # a node that died since it was pickled is built again, and interned
    data = pickle.dumps(E.parse("x1 * -0 + 3 ^ sin(t) / 2", 1).root)
    gc.collect()
    again = pickle.loads(data)
    assert again is E.parse("x1 * -0 + 3 ^ sin(t) / 2", 1).root
    for value in (-0.0, 0.0, math.nan, 1, 1.0, -math.inf):
        node = E.Num(value)
        clone = pickle.loads(pickle.dumps(node))
        # a constant is kept as its float: an int one is the float's node
        assert clone is node and repr(clone.value) == repr(float(value))


def test_dead_nodes_leave_the_intern_table():
    e = E.differentiate(_composite(30), 1)
    probe = weakref.ref(e.root)
    size = len(E._nodes)
    del e
    gc.collect()
    assert probe() is None
    assert len(E._nodes) < size - 100


def test_interning_is_race_free():
    # eight threads build the same nodes at once, among them nodes that die
    # as soon as they are built, so keys are freed and taken again
    barrier = threading.Barrier(8)

    def build(_):
        barrier.wait()
        out = []
        for i in range(1000):
            E.Neg(E.Num(float(i % 50)))
            out.append(E.Add(E.Var(1 + i % 3), E.Num(float(i % 50))))
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            results = list(pool.map(build, range(8)))
    finally:
        sys.setswitchinterval(interval)
    for nodes in zip(*results):
        assert all(node is nodes[0] for node in nodes)
        assert E._nodes[(E.Add, nodes[0].left, nodes[0].right)]() is nodes[0]
