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

Scalar evaluation (:func:`evaluate`, :func:`evaluate_vector`) compiles each
expression once, lazily on its first evaluation, to straight-line Python and
caches the function on the ``Expr`` or ``VectorExpr`` instance; a vector
expression compiles all its components into one function that computes
each shared subexpression once.  The compiled code makes the same IEEE
operations in the same order, and the same domain checks, as a recursive
walk of the tree would.  Building the code and printing have no recursion,
so deep trees evaluate and print; differentiation, substitution and parsing
still recurse.

The batched :func:`evaluate_many` stays a numpy tree walker with no domain
checks: the germ code calls it on many expressions (derivatives and
composites built on the fly) a few times each, where compiling would cost
more than it saves.  It is the one function here that loads numpy.
"""

from __future__ import annotations

import math
import re
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from .core import Value, _setfield

if TYPE_CHECKING:
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
    number, division by zero, overflow to a non-finite value, ...

    ``culprit`` may be the offending node itself; it is rendered to text
    only when the message is read, so an error that a caller catches and
    retries past costs no printing of a large tree.
    """

    def __init__(self, message: str, culprit: "str | Node" = ""):
        super().__init__(message)
        self.message = message
        self._culprit = culprit

    @property
    def culprit(self) -> str:
        if not isinstance(self._culprit, str):
            self._culprit = _fmt_node(self._culprit)
        return self._culprit

    def __str__(self) -> str:
        return f"{self.message} in {self.culprit}" if self.culprit else self.message


# --- AST ------------------------------------------------------------------


class Node(Value):
    """An expression node.  Nodes are built, compared and hashed on the germ
    code's hot paths, so each class spells out its own ``__init__``,
    ``__eq__`` and ``__hash__`` instead of taking the generic ones of
    :class:`Value` (they mean the same: same class, equal field tuples).
    The four binary operators repeat theirs rather than share a base
    class: the interpreter specialises attribute reads per code object, so
    one ``__eq__`` serving four classes measured 10-20 % slower."""

    __slots__ = ()


class Num(Node):
    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: float):
        _setfield(self, "value", value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.value,) == (other.value,)
        return NotImplemented

    def __hash__(self):
        return hash((self.value,))


class Var(Node):
    __slots__ = __match_args__ = ("index",)  # 1-based

    def __init__(self, index: int):
        _setfield(self, "index", index)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.index,) == (other.index,)
        return NotImplemented

    def __hash__(self):
        return hash((self.index,))


class TimeVar(Node):
    __slots__ = ()


class Neg(Node):
    __slots__ = __match_args__ = ("arg",)

    def __init__(self, arg: Node):
        _setfield(self, "arg", arg)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.arg,) == (other.arg,)
        return NotImplemented

    def __hash__(self):
        return hash((self.arg,))


class Add(Node):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Node, right: Node):
        _setfield(self, "left", left)
        _setfield(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented

    def __hash__(self):
        return hash((self.left, self.right))


class Sub(Node):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Node, right: Node):
        _setfield(self, "left", left)
        _setfield(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented

    def __hash__(self):
        return hash((self.left, self.right))


class Mul(Node):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Node, right: Node):
        _setfield(self, "left", left)
        _setfield(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented

    def __hash__(self):
        return hash((self.left, self.right))


class Div(Node):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Node, right: Node):
        _setfield(self, "left", left)
        _setfield(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented

    def __hash__(self):
        return hash((self.left, self.right))


class Pow(Node):
    __slots__ = __match_args__ = ("base", "exponent")

    def __init__(self, base: Node, exponent: Node):
        _setfield(self, "base", base)
        _setfield(self, "exponent", exponent)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.base, self.exponent) == (other.base, other.exponent)
        return NotImplemented

    def __hash__(self):
        return hash((self.base, self.exponent))


class Call(Node):
    __slots__ = __match_args__ = ("func", "arg")

    def __init__(self, func: str, arg: Node):
        _setfield(self, "func", func)
        _setfield(self, "arg", arg)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.func, self.arg) == (other.func, other.arg)
        return NotImplemented

    def __hash__(self):
        return hash((self.func, self.arg))


def _children(node: Node) -> tuple[Node, ...]:
    if isinstance(node, (Neg, Call)):
        return (node.arg,)
    if isinstance(node, Pow):
        return (node.base, node.exponent)
    if isinstance(node, (Add, Sub, Mul, Div)):
        return (node.left, node.right)
    return ()


def _max_var(root: Node) -> int:
    used, stack, seen = 0, [root], set()
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            used = max(used, node.index)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.extend(_children(node))
    return used


class Expr(Value):
    """An expression tree together with its declared arity."""

    __match_args__ = ("root", "arity")

    def __init__(self, root: Node, arity: int):
        _setfield(self, "root", root)
        _setfield(self, "arity", arity)
        used = _max_var(root)
        if used > arity:
            raise ArityError(f"expression references x{used} but arity is {arity}")

    # spelled out like the nodes': the germ code's caches key on expressions
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.root, self.arity) == (other.root, other.arity)
        return NotImplemented

    def __hash__(self):
        return hash((self.root, self.arity))

    def __str__(self) -> str:
        return to_string(self)

    @cached_property
    def _compiled(self):
        return _compile((self.root,), vector=False)


class VectorExpr(Value):
    """Expressions of common arity: a map R^n -> R^m or an n-dim vector field."""

    __match_args__ = ("components",)

    def __init__(self, components: Sequence[Expr]):
        _setfield(self, "components", tuple(components))
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

    @cached_property
    def _compiled(self):
        return _compile([c.root for c in self.components], vector=True)


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


# --- evaluation -----------------------------------------------------------
#
# Scalar evaluation compiles an expression (or all components of a vector
# expression together) once, on first use, into straight-line Python: one
# assignment per distinct subexpression, hash-consed so that repeated terms
# and shared subtrees are computed once, in the order a left-to-right walk
# of the tree computes them (a quotient's denominator first), each followed
# by the domain check of its operation.  The function is cached on the
# instance.  A culprit's text is formatted from its node only when the
# error's message is read.


def _fail(message: str, node: Node) -> DomainError:
    return DomainError(message, node)


def _pow_value(b: float, x: float, node: Node) -> float:
    # a negative base needs an integer-valued exponent
    if b < 0.0 and not float(x).is_integer():
        raise _fail("negative base with non-integer exponent", node)
    if b == 0.0 and x < 0:
        raise _fail("zero base with negative exponent", node)
    try:
        v = b ** x
    except OverflowError:
        raise _fail("overflow", node) from None
    if not math.isfinite(v):
        raise _fail("non-finite result", node)
    return v


# names the compiled code refers to, besides ``nodes`` and constants
_RUNTIME = {
    "isfinite": math.isfinite, "_fail": _fail, "_pow_value": _pow_value,
    **{f: getattr(math, f) for f in FUNCTIONS},
}
_BINARY_OPS = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
# argument tests of the partial functions, as (condition on the argument, message)
_CALL_GUARDS = {
    "log": ("<= 0.0", "log of a non-positive number"),
    "sqrt": ("< 0.0", "sqrt of a negative number"),
}


class _Emitter:
    """Builds the body of one compiled function; see the section comment."""

    def __init__(self):
        self.lines: list[str] = []
        self.names: dict[tuple, str] = {}  # structural key -> operand text
        self.seen: dict[int, str] = {}  # id(node) -> operand text
        self.nonzero: set[str] = set()  # operands already tested against zero
        self.namespace: dict[str, object] = {}  # constants, by name
        self.culprits: list[Node] = []  # nodes whose text an error may need

    def _culprit(self, node: Node) -> str:
        self.culprits.append(node)
        return f"nodes[{len(self.culprits) - 1}]"

    def _raise(self, message: str, node: Node) -> str:
        return f"raise _fail({message!r}, {self._culprit(node)})"

    def _constant(self, v) -> str:
        key = (type(v), repr(v))  # repr tells 0.0 from -0.0
        if key not in self.names:
            self.names[key] = f"k{len(self.namespace)}"
            self.namespace[self.names[key]] = v
        return self.names[key]

    def operand(self, root: Node) -> str:
        """Emit the code that computes ``root``; return the name holding it."""
        stack: list[tuple[Node, int]] = [(root, 0)]
        while stack:
            node, phase = stack.pop()
            if phase == 0:
                if id(node) in self.seen:
                    continue
                stack.append((node, 2))
                if isinstance(node, Div):
                    stack += [(node.left, 0), (node, 1), (node.right, 0)]
                else:
                    stack += [(kid, 0) for kid in reversed(_children(node))]
            elif phase == 1:
                den = self.seen[id(node.right)]
                if den not in self.nonzero:
                    self.nonzero.add(den)
                    self.lines.append(f"if {den} == 0.0: " + self._raise("division by zero", node))
            else:
                self.seen[id(node)] = self._emit(node)
        return self.seen[id(root)]

    def _emit(self, node: Node) -> str:
        if isinstance(node, Num):
            return self._constant(node.value)
        if isinstance(node, TimeVar):
            return "t"
        args = [self.seen[id(kid)] for kid in _children(node)]
        key = (type(node), getattr(node, "func", None), getattr(node, "index", None), *args)
        if key in self.names:
            return self.names[key]
        v = self.names[key] = f"v{len(self.names)}"
        emit = self.lines.append
        if isinstance(node, Var):
            emit(f"{v} = float(point[{node.index - 1}])")
        elif isinstance(node, Neg):
            emit(f"{v} = -{args[0]}")
        elif type(node) in _BINARY_OPS:
            emit(f"{v} = {args[0]} {_BINARY_OPS[type(node)]} {args[1]}")
            emit(f"if not isfinite({v}): " + self._raise("non-finite result", node))
        elif isinstance(node, Pow):
            emit(f"{v} = _pow_value({args[0]}, {args[1]}, {self._culprit(node)})")
        elif isinstance(node, Call) and node.func == "exp":
            emit(f"try: {v} = exp({args[0]})")
            emit("except OverflowError: " + self._raise("overflow", node) + " from None")
        elif isinstance(node, Call) and node.func in FUNCTIONS:
            if node.func in _CALL_GUARDS:
                test, message = _CALL_GUARDS[node.func]
                emit(f"if {args[0]} {test}: " + self._raise(message, node))
            emit(f"{v} = {node.func}({args[0]})")
        elif isinstance(node, Call):
            emit(f"raise ValueError({f'unknown function {node.func!r}'!r})")
        else:
            emit(f"raise TypeError({f'unknown node {node!r}'!r})")
        return v


def _compile(roots: Sequence[Node], vector: bool):
    """One function ``(point, t)`` computing every root: a list if ``vector``."""
    em = _Emitter()
    results = [em.operand(root) for root in roots]
    ret = f"[{', '.join(results)}]" if vector else results[0]
    src = "def compiled(point, t):\n" + "".join(f"    {line}\n" for line in em.lines + [f"return {ret}"])
    namespace = {**_RUNTIME, **em.namespace, "nodes": tuple(em.culprits)}
    exec(compile(src, "<dynsys.expr>", "exec"), namespace)
    return namespace["compiled"]


def evaluate(e: Expr, point: Sequence[float], t: float = 0.0) -> float:
    """Evaluate at a state vector and time; IEEE-754 doubles throughout.

    Domain violations raise :class:`DomainError` naming the offending
    sub-expression rather than silently producing nan/inf.
    """
    if len(point) != e.arity:
        raise ArityError(f"point has {len(point)} coordinates, expected {e.arity}")
    return e._compiled(point, float(t))


def evaluate_vector(f: VectorExpr, point: Sequence[float], t: float = 0.0) -> list[float]:
    """Every component at once, with the checks and errors of :func:`evaluate`."""
    if len(point) != f.arity:
        raise ArityError(f"point has {len(point)} coordinates, expected {f.arity}")
    return f._compiled(point, float(t))


def _eval_np(np, node: Node, pts: np.ndarray, t) -> np.ndarray:
    # ``np`` is the numpy module, imported once per evaluate_many call
    match node:
        case Num(value=v):
            return np.full(pts.shape[0], v)
        case Var(index=i):
            return pts[:, i - 1]
        case TimeVar():
            return np.broadcast_to(np.asarray(t, dtype=float), (pts.shape[0],)).copy()
        case Neg(arg=a):
            return -_eval_np(np, a, pts, t)
        case Add(left=l, right=r):
            return _eval_np(np, l, pts, t) + _eval_np(np, r, pts, t)
        case Sub(left=l, right=r):
            return _eval_np(np, l, pts, t) - _eval_np(np, r, pts, t)
        case Mul(left=l, right=r):
            return _eval_np(np, l, pts, t) * _eval_np(np, r, pts, t)
        case Div(left=l, right=r):
            return _eval_np(np, l, pts, t) / _eval_np(np, r, pts, t)
        case Pow(base=b, exponent=x):
            return np.power(_eval_np(np, b, pts, t), _eval_np(np, x, pts, t))
        case Call(func=f, arg=a):
            return getattr(np, f)(_eval_np(np, a, pts, t))
    raise TypeError(f"unknown node {node!r}")


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
        return _eval_np(np, e.root, pts, t)


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
