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

Nodes are interned (see the AST section): equal expressions are one
object.  Substitution shares subexpressions, so a composite is a DAG whose
tree may be exponentially larger than its set of distinct nodes;
differentiation, substitution and batched evaluation each visit every
distinct node once.  No function here recurses: the parser (precedence
climbing), the walkers, the code generator and the printer keep explicit
stacks, so an expression of any depth parses, prints, differentiates and
evaluates.

Scalar evaluation (:func:`evaluate`, :func:`evaluate_vector`) compiles each
expression once, lazily on its first evaluation, to straight-line Python and
caches the function on the ``Expr`` or ``VectorExpr`` instance; a vector
expression compiles all its components into one function that computes
each shared subexpression once.  Constants are names in the function's
namespace, so expressions of one shape (``log(x1 - 2)`` and
``log(x1 - 3)``) share one code object, compiled once.  The compiled code
makes the same IEEE operations in the same order, and the same domain
checks, as a recursive walk of the tree would, and calls no Python-level
helper: every operation, a power included, is emitted inline.

The germ code's bisections are compiled too: ``Expr._crossing`` is the
loop of ``continuous._bisect`` emitted around the same body, so a halving
runs in one Python frame.  It finds where a monotone map crosses a level,
and where a derivative turns positive (crosses the least positive float).

The printer (:func:`to_string`, which ``str`` and a :class:`DomainError`'s
culprit reach on first use), the unpickler of nodes, batched evaluation
(:func:`evaluate_many`), differentiation (:func:`differentiate`,
:func:`jacobian`) and substitution (:func:`substitute`, :func:`compose`,
:func:`identity_map`) live in :mod:`dynsys.calculus`, which only the
checks and the germ code run, so a ``dynsys solve`` does not compile
them.
"""

from __future__ import annotations

import math
import re
import weakref
from _weakref import _remove_dead_weakref
from functools import cached_property, lru_cache
from typing import Sequence

from .core import ExprError, Value, _forwarding, _setfield

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "tanh")


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
            from .calculus import _fmt_node

            self._culprit = _fmt_node(self._culprit)
        return self._culprit

    def __str__(self) -> str:
        return f"{self.message} in {self.culprit}" if self.culprit else self.message


# --- AST ------------------------------------------------------------------
#
# Nodes are hash-consed (Filliatre & Conchon, "Type-safe modular
# hash-consing", ML Workshop 2006): every constructor looks its key up in
# one weak-valued table and returns the live node it finds, so there is at
# most one node per key.  The key is the class and the fields, children by
# identity, constants by float value (1 and 1.0 are one), except that a zero
# or a nan goes by its ``repr``: that tells 0.0 from -0.0, which compare
# equal, and makes all nans one constant.  (Keying every constant by ``repr``
# gives the same classes, but ``repr`` costs about 13 % of a parse.)  An
# entry goes when its node dies.  ``dict.setdefault`` publishes a new node
# atomically, and ``_remove_dead_weakref`` drops an entry only while its
# node is dead, so racing threads still get one node per key.

_nodes: dict = {}  # key -> _Entry of the one live node with that key


class _Entry(weakref.ref):
    __slots__ = ("key",)


def _forget(entry: _Entry, nodes=_nodes, remove=_remove_dead_weakref) -> None:
    # runs when a node dies; the defaults outlive the module's globals at exit
    remove(nodes, entry.key)


def _intern(cls, key: tuple, *fields) -> "Node":
    entry = _nodes.get(key)
    if entry is not None:
        node = entry()
        if node is not None:
            return node
    node = object.__new__(cls)
    if fields:  # at most two; a loop over zip() measured ~7 % slower on differentiate
        names = cls.__slots__
        _setfield(node, names[0], fields[0])
        if len(fields) == 2:
            _setfield(node, names[1], fields[1])
    entry = _Entry(node, _forget)
    entry.key = key
    while True:
        found = _nodes.setdefault(key, entry)
        if found is entry:
            return node
        winner = found()
        if winner is not None:  # another thread published the key first
            return winner
        _remove_dead_weakref(_nodes, key)  # a dead node whose entry is not gone yet


class Node(Value):
    """An expression node.  Nodes are interned (see the section comment):
    equal expressions are one object, so a node equals only itself and
    hashes by identity, in O(1) whatever its size.  ``repr``, pickling and
    copying work without recursion, so they too take any depth; a copy, or
    a node unpickled where it is alive, is the node itself."""

    __slots__ = ("__weakref__",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        # Value's text, written from an explicit stack as _fmt_node writes
        out: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if item.__class__ is str:
                out.append(item)
                continue
            parts = [item.__class__.__qualname__ + "("]
            for i, name in enumerate(item.__match_args__):
                value = getattr(item, name)
                parts.append(f", {name}=" if i else f"{name}=")
                parts.append(value if isinstance(value, Node) else repr(value))
            parts.append(")")
            stack.extend(reversed(parts))
        return "".join(out)

    def __reduce__(self):
        # one flat entry per distinct node, so that pickle need not recurse
        order = _postorder(self)
        position = {node: i for i, node in enumerate(order)}
        program = tuple(
            (node.__class__, *[position[v] if isinstance(v, Node) else v
                               for v in node._astuple()])
            for node in order
        )
        from .calculus import _rebuild

        return _rebuild, (program,)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class Num(Node):
    __slots__ = __match_args__ = ("value",)

    def __new__(cls, value: float):
        value = float(value)  # an int too large for a float raises OverflowError here
        token = value if value == value and value else repr(value)  # see the section comment
        return _intern(cls, (cls, token), value)


class Var(Node):
    __slots__ = __match_args__ = ("index",)  # 1-based

    def __new__(cls, index: int):
        return _intern(cls, (cls, index), index)


class TimeVar(Node):
    __slots__ = ()

    def __new__(cls):
        return _intern(cls, (cls,))


class Neg(Node):
    __slots__ = __match_args__ = ("arg",)

    def __new__(cls, arg: Node):
        return _intern(cls, (cls, arg), arg)


class Add(Node):
    __slots__ = __match_args__ = ("left", "right")

    def __new__(cls, left: Node, right: Node):
        return _intern(cls, (cls, left, right), left, right)


class Sub(Node):
    __slots__ = __match_args__ = ("left", "right")

    def __new__(cls, left: Node, right: Node):
        return _intern(cls, (cls, left, right), left, right)


class Mul(Node):
    __slots__ = __match_args__ = ("left", "right")

    def __new__(cls, left: Node, right: Node):
        return _intern(cls, (cls, left, right), left, right)


class Div(Node):
    __slots__ = __match_args__ = ("left", "right")

    def __new__(cls, left: Node, right: Node):
        return _intern(cls, (cls, left, right), left, right)


class Pow(Node):
    __slots__ = __match_args__ = ("base", "exponent")

    def __new__(cls, base: Node, exponent: Node):
        return _intern(cls, (cls, base, exponent), base, exponent)


class Call(Node):
    __slots__ = __match_args__ = ("func", "arg")

    def __new__(cls, func: str, arg: Node):
        return _intern(cls, (cls, func, arg), func, arg)


def _children(node: Node) -> tuple[Node, ...]:
    cls = node.__class__
    if cls is Add or cls is Sub or cls is Mul or cls is Div:
        return (node.left, node.right)
    if cls is Neg or cls is Call:
        return (node.arg,)
    if cls is Pow:
        return (node.base, node.exponent)
    return ()


def _postorder(root: Node) -> list[Node]:
    """Each distinct node under ``root`` once, after its children, left to
    right, ending with ``root``: the order in which differentiation,
    substitution and batched evaluation visit an expression."""
    order, seen, stack = [], set(), [root]
    push = stack.append
    while stack:
        node = stack.pop()
        if node is None:  # the node below has its children in ``order``
            order.append(stack.pop())
        elif node not in seen:
            seen.add(node)
            push(node)
            push(None)
            for kid in reversed(_children(node)):
                push(kid)
    return order


class Expr(Value):
    """An expression together with its declared arity; ``_order`` lists its
    distinct nodes as :func:`_postorder` gives them."""

    __match_args__ = ("root", "arity")

    def __init__(self, root: Node, arity: int):
        _setfield(self, "root", root)
        _setfield(self, "arity", arity)
        _setfield(self, "_order", _postorder(root))
        used = max([node.index for node in self._order if node.__class__ is Var], default=0)
        if used > arity:
            raise ArityError(f"expression references x{used} but arity is {arity}")

    def __str__(self) -> str:
        from .calculus import to_string

        return to_string(self)

    @cached_property
    def _compiled(self):
        return _compile((self.root,), vector=False)

    @cached_property
    def _crossing(self):
        return _compile((self.root,), vector=False, template=_CROSSING)


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

    # ``f(point, t)`` is :func:`evaluate_vector` itself, set below it


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


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}
_BINARY = {"+": Add, "-": Sub, "*": Mul, "/": Div}


def _parse(tokens, arity: int) -> Node:
    """Precedence climbing over the grammar above with an explicit stack of
    what is still open, innermost last: ``("neg", None)`` for a unary minus,
    ``("(", None)``, ``("call", name)``, ``("^", base)``, and ``(op, left)``
    for a binary operator.  Gives the recursive-descent parse of the
    grammar, and raises its errors at the same tokens, at any depth."""
    stack: list[tuple[str, object]] = []
    pos = 0
    while True:
        kind, value, off = tokens[pos]  # an atom starts here
        pos += 1
        if kind in ("-", "("):
            stack.append(("neg" if kind == "-" else "(", None))
            continue
        if kind == "num":
            node = Num(value)
        elif kind == "name" and value in FUNCTIONS:
            if tokens[pos][0] != "(":
                raise ParseError("expected '('", tokens[pos][2])
            pos += 1
            stack.append(("call", value))
            continue
        elif kind == "name" and value == "t":
            node = TimeVar()
        elif kind == "name" and _VAR_RE.match(value):
            idx = int(value[1:])
            if idx < 1:
                raise ParseError("variable indices start at x1", off)
            if idx > arity:
                raise ArityError(f"expression references {value} but arity is {arity}")
            node = Var(idx)
        elif kind == "name":
            raise ParseError(f"unknown identifier {value!r}", off)
        else:
            raise ParseError("expected a number, variable, function or '('", off)

        while True:  # ``node`` is a complete atom: close what it completes
            while stack and stack[-1][0] == "neg":
                stack.pop()
                # fold so that "-3" and the printer's negative literals agree
                node = Num(-node.value) if isinstance(node, Num) else Neg(node)
            if stack and stack[-1][0] == "^":
                node = Pow(stack.pop()[1], node)
            elif tokens[pos][0] == "^":
                stack.append(("^", node))
                pos += 1
                break
            # a factor: apply the operators before it that bind at least as tightly
            # as the next token (left associativity); those that bind less wait
            kind, _, off = tokens[pos]
            level = _PRECEDENCE.get(kind, 0)
            while stack and _PRECEDENCE.get(stack[-1][0], 0) >= max(level, 1):
                op, left = stack.pop()
                node = _BINARY[op](left, node)
            if level:
                stack.append((kind, node))
                pos += 1
                break
            # a whole expression: it ends the input, or a parenthesis or a call
            if not stack:
                if kind != "end":
                    raise ParseError("unexpected trailing input", off)
                return node
            opener, func = stack.pop()
            pos += 1
            if kind != ")":
                raise ParseError("expected ')'", off)
            if opener == "call":
                node = Call(func, node)


def parse(src: str, arity: int) -> Expr:
    """Parse ``src`` against the grammar with variables x1..x{arity}."""
    if arity < 0:
        raise ArityError("arity must be non-negative")
    return Expr(_parse(_tokenize(src), arity), arity)


def parse_vector(sources: Sequence[str], arity: int) -> VectorExpr:
    return VectorExpr(tuple(parse(s, arity) for s in sources))


# --- evaluation -----------------------------------------------------------
#
# Scalar evaluation compiles an expression (or all components of a vector
# expression together) once, on first use, into straight-line Python: one
# assignment per distinct node, so that repeated terms and shared subtrees
# (one node each) are computed once, in the order a left-to-right walk
# of the tree computes them (a quotient's denominator first), each followed
# by the domain check of its operation, inline: no Python-level helper.
# The function is cached on the instance, its code object on the generated
# source.  A culprit's text is formatted from its node only when the
# error's message is read.


# names the compiled code refers to, besides ``nodes`` and constants
_RUNTIME = {
    "isfinite": math.isfinite, "DomainError": DomainError,
    **{f: getattr(math, f) for f in FUNCTIONS},
}
_BINARY_OPS = {cls: op for op, cls in _BINARY.items()}
# argument tests of the partial functions, as (condition on the argument, message)
_CALL_GUARDS = {
    "log": ("<= 0.0", "log of a non-positive number"),
    "sqrt": ("< 0.0", "sqrt of a negative number"),
}


class _Emitter:
    """Builds the body of one compiled function; see the section comment."""

    def __init__(self):
        self.lines: list[str] = []
        self.seen: dict[Node, str] = {}  # node -> operand text
        self.nonzero: set[str] = set()  # operands already tested against zero
        self.namespace: dict[str, object] = {}  # constants, by name
        self.culprits: list[Node] = []  # nodes whose text an error may need

    def _culprit(self, node: Node) -> str:
        self.culprits.append(node)
        return f"nodes[{len(self.culprits) - 1}]"

    def _raise(self, message: str, node: Node) -> str:
        return f"raise DomainError({message!r}, {self._culprit(node)})"

    def operand(self, root: Node) -> str:
        """Emit the code that computes ``root``; return the name holding it."""
        stack: list[tuple[Node, int]] = [(root, 0)]
        while stack:
            node, phase = stack.pop()
            if phase == 0:
                if node in self.seen:
                    continue
                stack.append((node, 2))
                if isinstance(node, Div):
                    stack += [(node.left, 0), (node, 1), (node.right, 0)]
                else:
                    stack += [(kid, 0) for kid in reversed(_children(node))]
            elif phase == 1:
                den = self.seen[node.right]
                if den not in self.nonzero:
                    self.nonzero.add(den)
                    self.lines.append(f"if {den} == 0.0: " + self._raise("division by zero", node))
            else:
                self.seen[node] = self._emit(node)
        return self.seen[root]

    def _emit(self, node: Node) -> str:
        if isinstance(node, Num):
            name = f"k{len(self.namespace)}"
            self.namespace[name] = node.value
            return name
        if isinstance(node, TimeVar):
            return "t"
        args = [self.seen[kid] for kid in _children(node)]
        v = f"v{len(self.seen)}"
        emit = self.lines.append
        if isinstance(node, Var):
            emit(f"{v} = float(point[{node.index - 1}])")
        elif isinstance(node, Neg):
            emit(f"{v} = -{args[0]}")
        elif type(node) in _BINARY_OPS:
            emit(f"{v} = {args[0]} {_BINARY_OPS[type(node)]} {args[1]}")
            emit(f"if not isfinite({v}): " + self._raise("non-finite result", node))
        elif isinstance(node, Pow):
            # a negative base needs an integer-valued exponent, a zero base a
            # non-negative one; a constant exponent settles its half of each
            # test here, and a test it cannot fail is left out
            b, x = args
            k = node.exponent.value if isinstance(node.exponent, Num) else None
            if k is None or not k.is_integer():
                fractional = "" if k is not None else f" and not {x}.is_integer()"
                emit(f"if {b} < 0.0{fractional}: "
                     + self._raise("negative base with non-integer exponent", node))
            if k is None or k < 0.0:
                negative = "" if k is not None else f" and {x} < 0.0"
                emit(f"if {b} == 0.0{negative}: "
                     + self._raise("zero base with negative exponent", node))
            emit(f"try: {v} = {b} ** {x}")
            emit("except OverflowError: " + self._raise("overflow", node) + " from None")
            emit(f"if not isfinite({v}): " + self._raise("non-finite result", node))
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


@lru_cache(maxsize=256)
def _code(src: str):
    """The code object of one generated source.  Constants and culprits live
    in each function's namespace, so expressions of one shape share it."""
    return compile(src, "<dynsys.expr>", "exec")


# the function around a body: the value at one point, or (for
# ``Expr._crossing``) the loop of ``continuous._bisect`` for where
# ``(value >= y) == increasing`` flips, valuing a point whose body raises
# DomainError by ``fallback`` instead: where a map of x1 crosses the level y
# on a monotone piece, or (y = 5e-324) where a derivative turns positive
_VALUE = (4, "def compiled(point, t):\n{body}    return {ret}\n")
_CROSSING = (12, """def compiled(good, bad, y, increasing, fallback, t=0.0):
    for _ in range(200):
        mid = 0.5 * (good + bad)
        if mid == good or mid == bad:
            break
        point = (mid,)
        try:
{body}            value = {ret}
        except DomainError:
            value = fallback(mid)
        if (value >= y) == increasing:
            bad = mid
        else:
            good = mid
    return bad
""")


def _compile(roots: Sequence[Node], vector: bool, template: tuple[int, str] = _VALUE):
    """The ``template`` function, as its body's indent and its text, around
    the code computing every root (a list if ``vector``)."""
    em = _Emitter()
    results = [em.operand(root) for root in roots]
    ret = f"[{', '.join(results)}]" if vector else results[0]
    indent, text = template
    src = text.format(body="".join(f"{' ' * indent}{line}\n" for line in em.lines), ret=ret)
    namespace = {**_RUNTIME, **em.namespace, "nodes": tuple(em.culprits)}
    exec(_code(src), namespace)
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


VectorExpr.__call__ = evaluate_vector


# --- printing, batched evaluation, calculus: see dynsys.calculus -------------

_FORWARDS = frozenset({"evaluate_many", "differentiate", "jacobian",
                       "substitute"})  # traced here (see dynsys.checkcmd)
__getattr__, __dir__ = _forwarding(globals(), "calculus", _FORWARDS)
