"""Seeded random expression generator shared by the expr and acceptance suites,
and the recursive parser, evaluator and printer that the iterative and
compiled ones are checked against."""

import math

import numpy as np

from dynsys import calculus
from dynsys import expr as E

_FUNCS = ("sin", "cos", "exp", "tanh", "sqrt", "log")


def random_node(rng: np.random.Generator, arity: int, depth: int) -> E.Node:
    if depth <= 0:
        kind = rng.integers(0, 3)
        if kind == 0:
            return E.Num(round(float(rng.uniform(0.3, 2.5)), 3))
        if kind == 1 or arity == 0:
            return E.TimeVar() if arity == 0 else E.Var(int(rng.integers(1, arity + 1)))
        return E.Var(int(rng.integers(1, arity + 1)))
    pick = rng.integers(0, 8)
    if pick == 0:
        return E.Add(random_node(rng, arity, depth - 1), random_node(rng, arity, depth - 1))
    if pick == 1:
        return E.Sub(random_node(rng, arity, depth - 1), random_node(rng, arity, depth - 1))
    if pick == 2:
        return E.Mul(random_node(rng, arity, depth - 1), random_node(rng, arity, depth - 1))
    if pick == 3:
        # keep denominators away from zero so finite differences stay sane
        shifted = E.Add(E.Num(round(float(rng.uniform(1.2, 3.0)), 3)),
                        E.Pow(random_node(rng, arity, 0), E.Num(2.0)))
        return E.Div(random_node(rng, arity, depth - 1), shifted)
    if pick == 4:
        return E.Pow(random_node(rng, arity, depth - 1), E.Num(float(rng.integers(2, 4))))
    if pick == 5:
        return E.Neg(random_node(rng, arity, depth - 1))
    func = _FUNCS[int(rng.integers(0, len(_FUNCS)))]
    arg = random_node(rng, arity, depth - 1)
    if func in ("sqrt", "log"):
        arg = E.Add(E.Num(round(float(rng.uniform(1.5, 3.0)), 3)), E.Pow(arg, E.Num(2.0)))
    return E.Call(func, arg)


def random_expr(rng: np.random.Generator, arity: int = 1, depth: int = 3) -> E.Expr:
    return E.Expr(random_node(rng, arity, depth), arity)


def central_difference(e: E.Expr, var: int, point, t: float = 0.0, h: float = 1e-5) -> float:
    """Independent derivative oracle: second-order central difference."""
    hi = list(point)
    lo = list(point)
    hi[var - 1] += h
    lo[var - 1] -= h
    return (E.evaluate(e, hi, t) - E.evaluate(e, lo, t)) / (2.0 * h)


def _finite(v: float, node: E.Node) -> float:
    if not math.isfinite(v):
        raise E.DomainError("non-finite result", calculus._fmt_node(node))
    return v


def _call_value(func: str, a: float, node: E.Node) -> float:
    if func == "sin":
        return math.sin(a)
    if func == "cos":
        return math.cos(a)
    if func == "tanh":
        return math.tanh(a)
    if func == "exp":
        try:
            return math.exp(a)
        except OverflowError:
            raise E.DomainError("overflow", calculus._fmt_node(node)) from None
    if func == "log":
        if a <= 0.0:
            raise E.DomainError("log of a non-positive number", calculus._fmt_node(node))
        return math.log(a)
    if func == "sqrt":
        if a < 0.0:
            raise E.DomainError("sqrt of a negative number", calculus._fmt_node(node))
        return math.sqrt(a)
    raise ValueError(f"unknown function {func!r}")


def _pow_value(b: float, x: float, node: E.Node) -> float:
    # a negative base needs an integer-valued exponent
    if b < 0.0 and not float(x).is_integer():
        raise E.DomainError("negative base with non-integer exponent", node)
    if b == 0.0 and x < 0:
        raise E.DomainError("zero base with negative exponent", node)
    try:
        v = b ** x
    except OverflowError:
        raise E.DomainError("overflow", node) from None
    if not math.isfinite(v):
        raise E.DomainError("non-finite result", node)
    return v


def reference_eval(node: E.Node, point, t: float) -> float:
    """Oracle for :func:`dynsys.expr.evaluate`: a recursive walk with the same
    domain checks, computing every occurrence of a subexpression anew."""
    match node:
        case E.Num(value=v):
            return v
        case E.Var(index=i):
            return float(point[i - 1])
        case E.TimeVar():
            return t
        case E.Neg(arg=a):
            return -reference_eval(a, point, t)
        case E.Add(left=l, right=r):
            return _finite(reference_eval(l, point, t) + reference_eval(r, point, t), node)
        case E.Sub(left=l, right=r):
            return _finite(reference_eval(l, point, t) - reference_eval(r, point, t), node)
        case E.Mul(left=l, right=r):
            return _finite(reference_eval(l, point, t) * reference_eval(r, point, t), node)
        case E.Div(left=l, right=r):
            den = reference_eval(r, point, t)
            if den == 0.0:
                raise E.DomainError("division by zero", calculus._fmt_node(node))
            return _finite(reference_eval(l, point, t) / den, node)
        case E.Pow(base=b, exponent=x):
            return _pow_value(reference_eval(b, point, t), reference_eval(x, point, t), node)
        case E.Call(func=f, arg=a):
            return _call_value(f, reference_eval(a, point, t), node)
    raise TypeError(f"unknown node {node!r}")


def reference_eval_many(e: E.Expr, pts: np.ndarray, t: float) -> np.ndarray:
    """Oracle for :func:`dynsys.expr.evaluate_many`: its numpy walk as it was
    when every constant was an array (``np.full``) of its value."""
    vals = {}
    with np.errstate(all="ignore"):
        for node in e._order:
            match node:
                case E.Var(index=i):
                    val = pts[:, i - 1]
                case E.Num(value=v):
                    val = np.full(pts.shape[0], v)
                case E.Mul(left=l, right=r):
                    val = vals[l] * vals[r]
                case E.Add(left=l, right=r):
                    val = vals[l] + vals[r]
                case E.Sub(left=l, right=r):
                    val = vals[l] - vals[r]
                case E.Div(left=l, right=r):
                    val = vals[l] / vals[r]
                case E.Pow(base=b, exponent=x):
                    val = np.power(vals[b], vals[x])
                case E.Call(func=f, arg=a):
                    val = getattr(np, f)(vals[a])
                case E.Neg(arg=a):
                    val = -vals[a]
                case E.TimeVar():
                    val = np.broadcast_to(np.asarray(t, dtype=float), (pts.shape[0],)).copy()
            vals[node] = val
    return vals[e.root]


def reference_to_string(node: E.Node) -> str:
    """Oracle for :func:`dynsys.expr.to_string`: the recursive printer."""

    def fmt(child: E.Node, required: int) -> str:
        text = reference_to_string(child)
        return f"({text})" if calculus._level(child) < required else text

    match node:
        case E.Num(value=v):
            return calculus._fmt_number(v)
        case E.Var(index=i):
            return f"x{i}"
        case E.TimeVar():
            return "t"
        case E.Neg(arg=a):
            return "-" + fmt(a, calculus._LEVEL_ATOM)
        case E.Add(left=l, right=r):
            return f"{fmt(l, calculus._LEVEL_EXPR)} + {fmt(r, calculus._LEVEL_TERM)}"
        case E.Sub(left=l, right=r):
            return f"{fmt(l, calculus._LEVEL_EXPR)} - {fmt(r, calculus._LEVEL_TERM)}"
        case E.Mul(left=l, right=r):
            return f"{fmt(l, calculus._LEVEL_TERM)} * {fmt(r, calculus._LEVEL_FACTOR)}"
        case E.Div(left=l, right=r):
            return f"{fmt(l, calculus._LEVEL_TERM)} / {fmt(r, calculus._LEVEL_FACTOR)}"
        case E.Pow(base=b, exponent=x):
            return f"{fmt(b, calculus._LEVEL_ATOM)}^{fmt(x, calculus._LEVEL_ATOM)}"
        case E.Call(func=f, arg=a):
            return f"{f}({fmt(a, calculus._LEVEL_EXPR)})"
    raise TypeError(f"unknown node {node!r}")


class _ReferenceParser:
    """Oracle for :func:`dynsys.expr.parse`: the recursive-descent parser of
    the grammar in the module docstring, one method per production."""

    def __init__(self, tokens, arity: int):
        self.tokens = tokens
        self.pos = 0
        self.arity = arity

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.take()
        if tok[0] != kind:
            raise E.ParseError(f"expected {kind!r}", tok[2])
        return tok

    def parse(self) -> E.Node:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise E.ParseError("unexpected trailing input", tok[2])
        return node

    def expr(self) -> E.Node:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            node = E.Add(node, rhs) if op == "+" else E.Sub(node, rhs)
        return node

    def term(self) -> E.Node:
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            rhs = self.factor()
            node = E.Mul(node, rhs) if op == "*" else E.Div(node, rhs)
        return node

    def factor(self) -> E.Node:
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            return E.Pow(base, self.atom())
        return base

    def atom(self) -> E.Node:
        kind, value, off = self.take()
        if kind == "num":
            return E.Num(value)
        if kind == "-":
            inner = self.atom()
            if isinstance(inner, E.Num):
                return E.Num(-inner.value)
            return E.Neg(inner)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "name":
            if value == "t":
                return E.TimeVar()
            m = E._VAR_RE.match(value)
            if m:
                idx = int(m.group(1))
                if idx < 1:
                    raise E.ParseError("variable indices start at x1", off)
                if idx > self.arity:
                    raise E.ArityError(f"expression references {value} but arity is {self.arity}")
                return E.Var(idx)
            if value in E.FUNCTIONS:
                self.expect("(")
                node = self.expr()
                self.expect(")")
                return E.Call(value, node)
            raise E.ParseError(f"unknown identifier {value!r}", off)
        raise E.ParseError("expected a number, variable, function or '('", off)


def reference_parse(src: str, arity: int) -> E.Node:
    return _ReferenceParser(E._tokenize(src), arity).parse()
