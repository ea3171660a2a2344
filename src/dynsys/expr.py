"""Smooth scalar expressions: a small closed-form DSL with exact derivatives.

Grammar (whitespace insensitive)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' atom)?
    atom   := NUMBER | 't' | 'x' DIGITS | FUNC '(' expr ')' | '(' expr ')' | '-' atom
    FUNC   := 'sin' | 'cos' | 'exp' | 'log' | 'sqrt' | 'tanh'

Variables are 1-indexed (``x1``, ``x2``, ...) up to a declared arity; ``t``
is the time variable.  Every value here is immutable after construction, so
parsing, evaluation and differentiation are safe for concurrent callers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "tanh")


class ExprError(Exception):
    """Base class for expression DSL errors."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class ArityError(ExprError):
    """A variable index exceeds the declared arity (or arities disagree)."""


class DomainError(ExprError):
    """Evaluation left the domain of definition: log of a non-positive
    number, division by zero, overflow to a non-finite value, ..."""

    def __init__(self, message: str, culprit: str = ""):
        super().__init__(f"{message} in {culprit}" if culprit else message)
        self.culprit = culprit


# --- AST ------------------------------------------------------------------


class Node:
    __slots__ = ()


@dataclass(frozen=True)
class Num(Node):
    value: float


@dataclass(frozen=True)
class Var(Node):
    index: int  # 1-based


@dataclass(frozen=True)
class TimeVar(Node):
    pass


@dataclass(frozen=True)
class Neg(Node):
    arg: Node


@dataclass(frozen=True)
class Add(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Sub(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Mul(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Div(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exponent: Node


@dataclass(frozen=True)
class Call(Node):
    func: str
    arg: Node


def _max_var(node: Node) -> int:
    match node:
        case Var(index=i):
            return i
        case Neg(arg=a) | Call(arg=a):
            return _max_var(a)
        case Add(left=l, right=r) | Sub(left=l, right=r) | Mul(left=l, right=r) | Div(left=l, right=r):
            return max(_max_var(l), _max_var(r))
        case Pow(base=l, exponent=r):
            return max(_max_var(l), _max_var(r))
        case _:
            return 0


@dataclass(frozen=True)
class Expr:
    """An expression tree together with its declared arity."""

    root: Node
    arity: int

    def __post_init__(self):
        used = _max_var(self.root)
        if used > self.arity:
            raise ArityError(f"expression references x{used} but arity is {self.arity}")

    def __str__(self) -> str:
        return to_string(self)


@dataclass(frozen=True)
class VectorExpr:
    """Expressions of common arity: a map R^n -> R^m or an n-dim vector field."""

    components: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("vector expression needs at least one component")
        arities = {c.arity for c in self.components}
        if len(arities) != 1:
            raise ArityError(f"components disagree on arity: {sorted(arities)}")

    @property
    def arity(self) -> int:
        return self.components[0].arity

    @property
    def size(self) -> int:
        return len(self.components)


# --- parsing --------------------------------------------------------------

_NUM_RE = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_VAR_RE = re.compile(r"x(\d+)\Z")


def _tokenize(src: str) -> list[tuple[str, object, int]]:
    out: list[tuple[str, object, int]] = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            m = _NUM_RE.match(src, i)
            value = float(m.group())
            if not math.isfinite(value):
                raise ParseError(f"number {m.group()} is not finite", i)
            out.append(("num", value, i))
            i = m.end()
        elif c.isalpha() or c == "_":
            m = _NAME_RE.match(src, i)
            out.append(("name", m.group(), i))
            i = m.end()
        elif c in "+-*/^()":
            out.append((c, c, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    out.append(("end", "", n))
    return out


class _Parser:
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
            raise ParseError(f"expected {kind!r}", tok[2])
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("unexpected trailing input", tok[2])
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            rhs = self.factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def factor(self) -> Node:
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            return Pow(base, self.atom())
        return base

    def atom(self) -> Node:
        kind, value, off = self.take()
        if kind == "num":
            return Num(value)
        if kind == "-":
            inner = self.atom()
            # fold so that "-3" and the printer's negative literals agree
            if isinstance(inner, Num):
                return Num(-inner.value)
            return Neg(inner)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "name":
            if value == "t":
                return TimeVar()
            m = _VAR_RE.match(value)
            if m:
                idx = int(m.group(1))
                if idx < 1:
                    raise ParseError("variable indices start at x1", off)
                if idx > self.arity:
                    raise ArityError(f"expression references {value} but arity is {self.arity}")
                return Var(idx)
            if value in FUNCTIONS:
                self.expect("(")
                node = self.expr()
                self.expect(")")
                return Call(value, node)
            raise ParseError(f"unknown identifier {value!r}", off)
        raise ParseError("expected a number, variable, function or '('", off)


def parse(src: str, arity: int) -> Expr:
    """Parse ``src`` against the grammar with variables x1..x{arity}."""
    if arity < 0:
        raise ArityError("arity must be non-negative")
    return Expr(_Parser(_tokenize(src), arity).parse(), arity)


def parse_vector(sources: Sequence[str], arity: int) -> VectorExpr:
    return VectorExpr(tuple(parse(s, arity) for s in sources))


# --- printing -------------------------------------------------------------

_LEVEL_EXPR, _LEVEL_TERM, _LEVEL_FACTOR, _LEVEL_ATOM = 0, 1, 2, 3


def _level(node: Node) -> int:
    match node:
        case Add() | Sub():
            return _LEVEL_EXPR
        case Mul() | Div():
            return _LEVEL_TERM
        case Pow():
            return _LEVEL_FACTOR
        case _:
            return _LEVEL_ATOM


def _fmt_number(v: float) -> str:
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _fmt(node: Node, required: int) -> str:
    text = _fmt_node(node)
    if _level(node) < required:
        return f"({text})"
    return text


def _fmt_node(node: Node) -> str:
    match node:
        case Num(value=v):
            return _fmt_number(v)
        case Var(index=i):
            return f"x{i}"
        case TimeVar():
            return "t"
        case Neg(arg=a):
            return "-" + _fmt(a, _LEVEL_ATOM)
        case Add(left=l, right=r):
            return f"{_fmt(l, _LEVEL_EXPR)} + {_fmt(r, _LEVEL_TERM)}"
        case Sub(left=l, right=r):
            return f"{_fmt(l, _LEVEL_EXPR)} - {_fmt(r, _LEVEL_TERM)}"
        case Mul(left=l, right=r):
            return f"{_fmt(l, _LEVEL_TERM)} * {_fmt(r, _LEVEL_FACTOR)}"
        case Div(left=l, right=r):
            return f"{_fmt(l, _LEVEL_TERM)} / {_fmt(r, _LEVEL_FACTOR)}"
        case Pow(base=b, exponent=x):
            return f"{_fmt(b, _LEVEL_ATOM)}^{_fmt(x, _LEVEL_ATOM)}"
        case Call(func=f, arg=a):
            return f"{f}({_fmt(a, _LEVEL_EXPR)})"
    raise TypeError(f"unknown node {node!r}")


def to_string(e: Expr) -> str:
    """Render so that ``parse(to_string(e), e.arity)`` reproduces the AST."""
    return _fmt_node(e.root)


# --- evaluation -----------------------------------------------------------


def _finite(v: float, node: Node) -> float:
    if not math.isfinite(v):
        raise DomainError("non-finite result", _fmt_node(node))
    return v


def _pow_value(b: float, x: float, node: Node) -> float:
    # a real exponent (or an integer one of 2^31 or more) needs a positive base
    if b < 0.0 and not (float(x).is_integer() and abs(x) < 2**31):
        raise DomainError("negative base with non-integer exponent", _fmt_node(node))
    if b == 0.0 and x < 0:
        raise DomainError("zero base with negative exponent", _fmt_node(node))
    try:
        return _finite(b ** x, node)
    except OverflowError:
        raise DomainError("overflow", _fmt_node(node)) from None


def _call_value(func: str, a: float, node: Node) -> float:
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
            raise DomainError("overflow", _fmt_node(node)) from None
    if func == "log":
        if a <= 0.0:
            raise DomainError("log of a non-positive number", _fmt_node(node))
        return math.log(a)
    if func == "sqrt":
        if a < 0.0:
            raise DomainError("sqrt of a negative number", _fmt_node(node))
        return math.sqrt(a)
    raise ValueError(f"unknown function {func!r}")


def _eval(node: Node, point, t: float) -> float:
    match node:
        case Num(value=v):
            return v
        case Var(index=i):
            return float(point[i - 1])
        case TimeVar():
            return t
        case Neg(arg=a):
            return -_eval(a, point, t)
        case Add(left=l, right=r):
            return _finite(_eval(l, point, t) + _eval(r, point, t), node)
        case Sub(left=l, right=r):
            return _finite(_eval(l, point, t) - _eval(r, point, t), node)
        case Mul(left=l, right=r):
            return _finite(_eval(l, point, t) * _eval(r, point, t), node)
        case Div(left=l, right=r):
            den = _eval(r, point, t)
            if den == 0.0:
                raise DomainError("division by zero", _fmt_node(node))
            return _finite(_eval(l, point, t) / den, node)
        case Pow(base=b, exponent=x):
            return _pow_value(_eval(b, point, t), _eval(x, point, t), node)
        case Call(func=f, arg=a):
            return _call_value(f, _eval(a, point, t), node)
    raise TypeError(f"unknown node {node!r}")


def evaluate(e: Expr, point: Sequence[float], t: float = 0.0) -> float:
    """Evaluate at a state vector and time; IEEE-754 doubles throughout.

    Domain violations raise :class:`DomainError` naming the offending
    sub-expression rather than silently producing nan/inf.
    """
    if len(point) != e.arity:
        raise ArityError(f"point has {len(point)} coordinates, expected {e.arity}")
    return _eval(e.root, point, float(t))


def evaluate_vector(f: VectorExpr, point: Sequence[float], t: float = 0.0) -> list[float]:
    return [evaluate(c, point, t) for c in f.components]


def _eval_np(node: Node, pts: np.ndarray, t) -> np.ndarray:
    match node:
        case Num(value=v):
            return np.full(pts.shape[0], v)
        case Var(index=i):
            return pts[:, i - 1]
        case TimeVar():
            return np.broadcast_to(np.asarray(t, dtype=float), (pts.shape[0],)).copy()
        case Neg(arg=a):
            return -_eval_np(a, pts, t)
        case Add(left=l, right=r):
            return _eval_np(l, pts, t) + _eval_np(r, pts, t)
        case Sub(left=l, right=r):
            return _eval_np(l, pts, t) - _eval_np(r, pts, t)
        case Mul(left=l, right=r):
            return _eval_np(l, pts, t) * _eval_np(r, pts, t)
        case Div(left=l, right=r):
            return _eval_np(l, pts, t) / _eval_np(r, pts, t)
        case Pow(base=b, exponent=x):
            return np.power(_eval_np(b, pts, t), _eval_np(x, pts, t))
        case Call(func=f, arg=a):
            return getattr(np, f)(_eval_np(a, pts, t))
    raise TypeError(f"unknown node {node!r}")


def evaluate_many(e: Expr, points, t=0.0) -> np.ndarray:
    """Vectorized evaluation over rows of ``points``.

    Unlike :func:`evaluate` this does not police the domain: invalid
    operations propagate as nan/inf for the caller to mask.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        if e.arity != 1:
            raise ArityError(f"flat point array only valid for arity 1, not {e.arity}")
        pts = pts.reshape(-1, 1)
    if pts.shape[1] != e.arity:
        raise ArityError(f"points have {pts.shape[1]} coordinates, expected {e.arity}")
    with np.errstate(all="ignore"):
        return _eval_np(e.root, pts, t)


# --- differentiation ------------------------------------------------------


def _is_num(node: Node, v: float | None = None) -> bool:
    return isinstance(node, Num) and (v is None or node.value == v)


def _fold2(cls, a: Node, b: Node, op) -> Node | None:
    if isinstance(a, Num) and isinstance(b, Num):
        r = op(a.value, b.value)
        if math.isfinite(r):
            return Num(r)
    return None


def _add(a: Node, b: Node) -> Node:
    folded = _fold2(Add, a, b, lambda x, y: x + y)
    if folded is not None:
        return folded
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return Add(a, b)


def _sub(a: Node, b: Node) -> Node:
    folded = _fold2(Sub, a, b, lambda x, y: x - y)
    if folded is not None:
        return folded
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _neg(b)
    return Sub(a, b)


def _neg(a: Node) -> Node:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _mul(a: Node, b: Node) -> Node:
    folded = _fold2(Mul, a, b, lambda x, y: x * y)
    if folded is not None:
        return folded
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return Mul(a, b)


def _div(a: Node, b: Node) -> Node:
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num) and b.value != 0.0:
        r = a.value / b.value
        if math.isfinite(r):
            return Num(r)
    return Div(a, b)


def _power(base: Node, expo: Node) -> Node:
    if _is_num(expo, 1.0):
        return base
    if _is_num(expo, 0.0):
        return Num(1.0)
    return Pow(base, expo)


def _diff(node: Node, var: int) -> Node:
    match node:
        case Num() | TimeVar():
            return Num(0.0)
        case Var(index=i):
            return Num(1.0 if i == var else 0.0)
        case Neg(arg=a):
            return _neg(_diff(a, var))
        case Add(left=a, right=b):
            return _add(_diff(a, var), _diff(b, var))
        case Sub(left=a, right=b):
            return _sub(_diff(a, var), _diff(b, var))
        case Mul(left=a, right=b):
            return _add(_mul(_diff(a, var), b), _mul(a, _diff(b, var)))
        case Div(left=a, right=b):
            num = _sub(_mul(_diff(a, var), b), _mul(a, _diff(b, var)))
            return _div(num, _mul(b, b))
        case Pow(base=a, exponent=Num(value=k)):
            return _mul(_mul(Num(k), _power(a, Num(k - 1.0))), _diff(a, var))
        case Pow(base=a, exponent=b):
            # a^b = exp(b log a)
            da, db = _diff(a, var), _diff(b, var)
            inner = _add(_mul(db, Call("log", a)), _div(_mul(b, da), a))
            return _mul(Pow(a, b), inner)
        case Call(func=f, arg=a):
            da = _diff(a, var)
            if f == "sin":
                return _mul(Call("cos", a), da)
            if f == "cos":
                return _mul(_neg(Call("sin", a)), da)
            if f == "exp":
                return _mul(Call("exp", a), da)
            if f == "log":
                return _div(da, a)
            if f == "sqrt":
                return _div(da, _mul(Num(2.0), Call("sqrt", a)))
            if f == "tanh":
                return _mul(_sub(Num(1.0), _power(Call("tanh", a), Num(2.0))), da)
    raise TypeError(f"unknown node {node!r}")


def differentiate(e: Expr, var: int) -> Expr:
    """Exact symbolic partial derivative with respect to x{var}.

    The output is lightly constant-folded but not otherwise simplified.
    """
    if not 1 <= var <= e.arity:
        raise ArityError(f"cannot differentiate arity-{e.arity} expression by x{var}")
    return Expr(_diff(e.root, var), e.arity)


def jacobian(f: VectorExpr) -> tuple[tuple[Expr, ...], ...]:
    """Matrix of partials: entry (i, j) is d f_i / d x_j, all symbolic."""
    return tuple(
        tuple(differentiate(c, j) for j in range(1, f.arity + 1)) for c in f.components
    )


# --- substitution / composition -------------------------------------------


def _subst(node: Node, roots: Sequence[Node]) -> Node:
    match node:
        case Num() | TimeVar():
            return node
        case Var(index=i):
            return roots[i - 1]
        case Neg(arg=a):
            return Neg(_subst(a, roots))
        case Add(left=l, right=r):
            return Add(_subst(l, roots), _subst(r, roots))
        case Sub(left=l, right=r):
            return Sub(_subst(l, roots), _subst(r, roots))
        case Mul(left=l, right=r):
            return Mul(_subst(l, roots), _subst(r, roots))
        case Div(left=l, right=r):
            return Div(_subst(l, roots), _subst(r, roots))
        case Pow(base=b, exponent=x):
            return Pow(_subst(b, roots), _subst(x, roots))
        case Call(func=f, arg=a):
            return Call(f, _subst(a, roots))
    raise TypeError(f"unknown node {node!r}")


def substitute(e: Expr, replacements: Sequence[Expr], arity: int | None = None) -> Expr:
    """Replace x1..xn by the given expressions, forming a composite."""
    if len(replacements) != e.arity:
        raise ArityError(f"need {e.arity} replacements, got {len(replacements)}")
    arities = {r.arity for r in replacements}
    if len(arities) > 1:
        raise ArityError(f"replacements disagree on arity: {sorted(arities)}")
    if arities:
        inner = arities.pop()
        if arity is not None and arity != inner:
            raise ArityError(f"declared arity {arity} != replacement arity {inner}")
        arity = inner
    elif arity is None:
        arity = 0
    return Expr(_subst(e.root, [r.root for r in replacements]), arity)


def compose(outer: VectorExpr, inner: VectorExpr) -> VectorExpr:
    """Composite map outer(inner(x)); substitution is exact and unfolded."""
    if outer.arity != inner.size:
        raise ArityError(
            f"outer expects {outer.arity} inputs but inner produces {inner.size}"
        )
    return VectorExpr(tuple(substitute(c, inner.components) for c in outer.components))


def identity_map(n: int) -> VectorExpr:
    return VectorExpr(tuple(Expr(Var(i), n) for i in range(1, n + 1)))
