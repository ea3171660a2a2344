"""Printing, unpickling, batched evaluation, differentiation and
substitution of expressions.

The parts of the expression DSL that only the checks and the germ code
run: a ``dynsys solve`` parses and evaluates its field through
:mod:`dynsys.expr` and never loads this module.  An expression's text
(:func:`to_string`, ``str``, a :class:`~dynsys.expr.DomainError`'s culprit)
and its unpickling (:func:`_rebuild`) come from here too, on first use.

Like the rest of the DSL, no function here recurses: each walks the
distinct nodes of an expression once, in the order of ``Expr._order``.

The batched :func:`evaluate_many` is an uncompiled numpy walk with no
domain checks, one numpy operation per distinct node.  The germ code calls
it a few times per partial map, each time on the points of every domain
component at once.  A constant beside an array in ``+ - * /`` stays a
float; elsewhere it is an array (np.power rounds some float exponents
differently), so the bits are an all-array walk's.  It is the one
function of the DSL that loads numpy.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, Sequence

from .expr import (
    Add, ArityError, Call, Div, Expr, Mul, Neg, Node, Num, Pow, Sub, TimeVar, Var, VectorExpr,
)

if TYPE_CHECKING:
    import numpy as np


# --- unpickling -----------------------------------------------------------


def _rebuild(program: tuple) -> "Node":
    """Unpickle what :meth:`Node.__reduce__` flattened: the distinct nodes in
    post-order, each as its class and fields, a child field as its position."""
    built: list[Node] = []
    for cls, *fields in program:
        if cls is not Num and cls is not Var:  # all fields are children but a call's name
            fields = [f if f.__class__ is str else built[f] for f in fields]
        built.append(cls(*fields))
    return built[-1]


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
        return str(int(v)) if v or math.copysign(1.0, v) > 0.0 else "-0"
    return repr(v)


def _fmt_parts(node: Node) -> list:
    """The text of one node: strings, and (child, required level) pairs."""
    match node:
        case Num(value=v):
            return [_fmt_number(v)]
        case Var(index=i):
            return [f"x{i}"]
        case TimeVar():
            return ["t"]
        case Neg(arg=a):
            return ["-", (a, _LEVEL_ATOM)]
        case Add(left=l, right=r):
            return [(l, _LEVEL_EXPR), " + ", (r, _LEVEL_TERM)]
        case Sub(left=l, right=r):
            return [(l, _LEVEL_EXPR), " - ", (r, _LEVEL_TERM)]
        case Mul(left=l, right=r):
            return [(l, _LEVEL_TERM), " * ", (r, _LEVEL_FACTOR)]
        case Div(left=l, right=r):
            return [(l, _LEVEL_TERM), " / ", (r, _LEVEL_FACTOR)]
        case Pow(base=b, exponent=x):
            return [(b, _LEVEL_ATOM), "^", (x, _LEVEL_ATOM)]
        case Call(func=f, arg=a):
            return [f"{f}(", (a, _LEVEL_EXPR), ")"]
    raise TypeError(f"unknown node {node!r}")


def _fmt_node(root: Node) -> str:
    """Render a tree, parenthesizing a child whose level is below what its
    parent requires; an explicit stack, so any depth prints."""
    out: list[str] = []
    stack: list = [(root, _LEVEL_EXPR)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, required = item
        parts = _fmt_parts(node)
        if _level(node) < required:
            parts = ["(", *parts, ")"]
        stack.extend(reversed(parts))
    return "".join(out)


def to_string(e: Expr) -> str:
    """Render so that ``parse(to_string(e), e.arity)`` reproduces the AST."""
    return _fmt_node(e.root)


# --- batched evaluation ---------------------------------------------------


_ARITH = {Mul: operator.mul, Add: operator.add, Sub: operator.sub, Div: operator.truediv}


def _eval_np(np, order: list[Node], pts: np.ndarray, t) -> np.ndarray:
    # ``np`` is the numpy module, imported once per evaluate_many call; the
    # class tests (most frequent first) measured ~20 % faster than a ``match``.
    # A constant (a float) meets an array in + - * / as a float, one IEEE
    # operation either way; it is an array as a power's operand (np.power
    # rounds differently with a float exponent), a function's argument,
    # beside another constant, and as the root
    n = pts.shape[0]
    vals: dict[Node, np.ndarray | float] = {}

    def array(v):
        return np.full(n, v) if v.__class__ is float else v

    for node in order:
        cls = node.__class__
        if cls is Var:
            val = pts[:, node.index - 1]
        elif cls is Num:
            val = node.value
        elif cls in _ARITH:
            a, b = vals[node.left], vals[node.right]
            val = _ARITH[cls](array(a) if b.__class__ is float else a, b)
        elif cls is Pow:
            val = np.power(array(vals[node.base]), array(vals[node.exponent]))
        elif cls is Call:
            val = getattr(np, node.func)(array(vals[node.arg]))
        elif cls is Neg:
            val = -vals[node.arg]
        elif cls is TimeVar:
            val = np.broadcast_to(np.asarray(t, dtype=float), (n,)).copy()
        else:
            raise TypeError(f"unknown node {node!r}")
        vals[node] = val
    return array(vals[order[-1]])


def evaluate_many(e: Expr, points, t=0.0) -> np.ndarray:
    """Vectorized evaluation over rows of ``points``.

    Unlike :func:`evaluate` this does not police the domain: invalid
    operations propagate as nan/inf for the caller to mask.
    """
    import numpy as np

    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        if e.arity != 1:
            raise ArityError(f"flat point array only valid for arity 1, not {e.arity}")
        pts = pts.reshape(-1, 1)
    if pts.shape[1] != e.arity:
        raise ArityError(f"points have {pts.shape[1]} coordinates, expected {e.arity}")
    with np.errstate(all="ignore"):
        return _eval_np(np, e._order, pts, t)


# --- differentiation ------------------------------------------------------


def _is_num(node: Node, v: float | None = None) -> bool:
    return isinstance(node, Num) and (v is None or node.value == v)


def _fold2(a: Node, b: Node, op) -> Node | None:
    if isinstance(a, Num) and isinstance(b, Num):
        r = op(a.value, b.value)
        if math.isfinite(r):
            return Num(r)
    return None


def _add(a: Node, b: Node) -> Node:
    folded = _fold2(a, b, lambda x, y: x + y)
    if folded is not None:
        return folded
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return Add(a, b)


def _sub(a: Node, b: Node) -> Node:
    folded = _fold2(a, b, lambda x, y: x - y)
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
    folded = _fold2(a, b, lambda x, y: x * y)
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


def _diff_node(node: Node, var: int, d: dict[Node, Node]) -> Node:
    """The derivative of ``node``, given those of its children in ``d``."""
    cls = node.__class__
    if cls is Num or cls is TimeVar:
        return Num(0.0)
    if cls is Var:
        return Num(1.0 if node.index == var else 0.0)
    if cls is Neg:
        return _neg(d[node.arg])
    if cls is Add:
        return _add(d[node.left], d[node.right])
    if cls is Sub:
        return _sub(d[node.left], d[node.right])
    if cls is Mul:
        a, b = node.left, node.right
        return _add(_mul(d[a], b), _mul(a, d[b]))
    if cls is Div:
        a, b = node.left, node.right
        return _div(_sub(_mul(d[a], b), _mul(a, d[b])), _mul(b, b))
    if cls is Pow:
        a, b = node.base, node.exponent
        if b.__class__ is Num:
            return _mul(_mul(b, _power(a, Num(b.value - 1.0))), d[a])
        # a^b = exp(b log a)
        return _mul(node, _add(_mul(d[b], Call("log", a)), _div(_mul(b, d[a]), a)))
    if cls is Call:
        f, a, da = node.func, node.arg, d[node.arg]
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


def _diff(order: list[Node], var: int) -> Node:
    """The derivative of the last node of ``order`` (a :func:`_postorder`)."""
    d: dict[Node, Node] = {}
    for node in order:
        d[node] = _diff_node(node, var, d)
    return d[order[-1]]


def differentiate(e: Expr, var: int) -> Expr:
    """Exact symbolic partial derivative with respect to x{var}.

    The output is lightly constant-folded but not otherwise simplified.
    """
    if not 1 <= var <= e.arity:
        raise ArityError(f"cannot differentiate arity-{e.arity} expression by x{var}")
    return Expr(_diff(e._order, var), e.arity)


def jacobian(f: VectorExpr) -> tuple[tuple[Expr, ...], ...]:
    """Matrix of partials: entry (i, j) is d f_i / d x_j, all symbolic."""
    return tuple(
        tuple(differentiate(c, j) for j in range(1, f.arity + 1)) for c in f.components
    )


# --- substitution / composition -------------------------------------------


def _subst(order: list[Node], roots: Sequence[Node]) -> Node:
    """The last node of ``order`` with each ``Var(i)`` replaced by ``roots[i - 1]``."""
    new: dict[Node, Node] = {}
    for node in order:
        cls = node.__class__
        if cls is Var:
            new[node] = roots[node.index - 1]
        elif cls is Neg:
            new[node] = Neg(new[node.arg])
        elif cls is Call:
            new[node] = Call(node.func, new[node.arg])
        elif cls is Pow:
            new[node] = Pow(new[node.base], new[node.exponent])
        elif cls is Num or cls is TimeVar:
            new[node] = node
        else:
            new[node] = cls(new[node.left], new[node.right])
    return new[order[-1]]


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
    return Expr(_subst(e._order, [r.root for r in replacements]), arity)


def compose(outer: VectorExpr, inner: VectorExpr) -> VectorExpr:
    """Composite map outer(inner(x)); substitution is exact and unfolded."""
    if outer.arity != inner.size:
        raise ArityError(
            f"outer expects {outer.arity} inputs but inner produces {inner.size}"
        )
    return VectorExpr(tuple(substitute(c, inner.components) for c in outer.components))


def identity_map(n: int) -> VectorExpr:
    return VectorExpr(tuple(Expr(Var(i), n) for i in range(1, n + 1)))
