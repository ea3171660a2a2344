"""The value-class contract of every system, morphism, report and expression
node class: constructors, equality, hashing, repr and immutability."""

import copy
import math
import pickle
from typing import NamedTuple

import pytest

from dynsys import calculus, category
from dynsys import continuous as C
from dynsys import core
from dynsys import discrete as D
from dynsys import expr as E
from dynsys import germ as G
from dynsys import specio, tau


class Case(NamedTuple):
    cls: type
    args: tuple  # positional constructor arguments
    fields: tuple  # the field values after normalisation
    text: str | None  # the exact repr; None where a field's repr holds an address


X1 = E.Var(1)
TWO = E.Num(2.0)
EXPR = E.Expr(X1, 1)
VEC = E.VectorExpr((EXPR,))
VEC_TEXT = "VectorExpr(components=(Expr(root=Var(index=1), arity=1),))"
LINE = C.Domain(((-math.inf, math.inf),))
LINE_TEXT = "Domain(bounds=((-inf, inf),), punctures=())"
CSYS = C.ContinuousSystem(LINE, VEC)
DSYS = D.DiscreteSystem(("a", "b"), {"a": "b", "b": "b"})
DSYS_TEXT = "DiscreteSystem(carrier=('a', 'b'), endomap=mappingproxy({'a': 'b', 'b': 'b'}))"
UNIT = G.open_set((0.0, 1.0))
PMAP = G.PartialMap(UNIT, EXPR)
PMAP_TEXT = (
    "PartialMap(domain=OpenSet1D(intervals=((0.0, 1.0),)), map=Expr(root=Var(index=1), arity=1), "
    "codomain=OpenSet1D(intervals=((-inf, inf),)), pipeline=())"
)
TRAJ = C.integrate(C.time_system(), [0.0], 1.0)
TSYS = tau.TauSystem(tau.DISCRETE, ("a", "b"), {"a": ("a", "b"), "b": ("b", "b")})


def _binary(cls):
    name = cls.__name__
    return Case(cls, (X1, TWO), (X1, TWO),
                f"{name}(left=Var(index=1), right=Num(value=2.0))")


CASES = [
    Case(E.Num, (1.5,), (1.5,), "Num(value=1.5)"),
    Case(E.Var, (2,), (2,), "Var(index=2)"),
    Case(E.TimeVar, (), (), "TimeVar()"),
    Case(E.Neg, (X1,), (X1,), "Neg(arg=Var(index=1))"),
    _binary(E.Add), _binary(E.Sub), _binary(E.Mul), _binary(E.Div),
    Case(E.Pow, (X1, TWO), (X1, TWO), "Pow(base=Var(index=1), exponent=Num(value=2.0))"),
    Case(E.Call, ("sin", X1), ("sin", X1), "Call(func='sin', arg=Var(index=1))"),
    Case(E.Expr, (X1, 2), (X1, 2), "Expr(root=Var(index=1), arity=2)"),
    Case(E.VectorExpr, ([EXPR],), ((EXPR,),), VEC_TEXT),
    Case(category.CheckReport, (False, 1.5, 3, "at x", "a note"), (False, 1.5, 3, "at x", "a note"),
         "CheckReport(passed=False, residual=1.5, samples=3, witness='at x', note='a note')"),
    Case(category.PointedSystem, (CSYS, (0.5,)), (CSYS, (0.5,)),
         f"PointedSystem(system=ContinuousSystem(domain={LINE_TEXT}, field={VEC_TEXT}), "
         "basepoint=(0.5,))"),
    Case(category.MorphismCandidate, ({"a": "a", "b": "b"}, DSYS, DSYS),
         ({"a": "a", "b": "b"}, DSYS, DSYS),
         f"MorphismCandidate(mapping={{'a': 'a', 'b': 'b'}}, src={DSYS_TEXT}, dst={DSYS_TEXT})"),
    Case(C.Domain, ([(0, 2)], [[1]]), (((0.0, 2.0),), ((1.0,),)),
         "Domain(bounds=((0.0, 2.0),), punctures=((1.0,),))"),
    Case(C.ContinuousSystem, (LINE, VEC), (LINE, VEC),
         f"ContinuousSystem(domain={LINE_TEXT}, field={VEC_TEXT})"),
    Case(C.SmoothMap, (VEC,), (VEC,), f"SmoothMap(components={VEC_TEXT})"),
    Case(C.IntegrationStats, (1, 2, 3, 4, 5), (1, 2, 3, 4, 5),
         "IntegrationStats(nfev=1, accepted=2, rejected=3, domain_retries=4, event_bisections=5)"),
    Case(D.DiscreteSystem, (["a", "b"], {"a": "b", "b": "b"}), (("a", "b"), DSYS.endomap),
         DSYS_TEXT),
    Case(D.Orbit, ("a", ("a", "b")), ("a", ("a", "b")), "Orbit(start='a', points=('a', 'b'))"),
    Case(tau.TauSystem, (tau.DISCRETE, ("a",), {"a": ("a", "a")}),
         (tau.DISCRETE, ("a",), {"a": ("a", "a")}), None),
    Case(tau.TangentSection, (VEC, VEC), (VEC, VEC),
         f"TangentSection(vector={VEC_TEXT}, base={VEC_TEXT})"),
    Case(specio.LoadedSystem, ("discrete", DSYS, "a", TSYS), ("discrete", DSYS, "a", TSYS), None),
    Case(G.OpenSet1D, ([(2, 3), (0, 1)],), (((0.0, 1.0), (2.0, 3.0)),),
         "OpenSet1D(intervals=((0.0, 1.0), (2.0, 3.0)))"),
    Case(G.PartialMap, (UNIT, EXPR, G.FULL_LINE, ()), (UNIT, EXPR, G.FULL_LINE, ()), PMAP_TEXT),
    Case(G.Germ, (PMAP, 0.5), (PMAP, 0.5), f"Germ(representative={PMAP_TEXT}, basepoint=0.5)"),
    Case(G.SolutionDomain, (UNIT, TRAJ, TRAJ), (UNIT, TRAJ, TRAJ), None),
]
MUTABLE = (C.IntegrationStats, specio.LoadedSystem)
IDS = [case.cls.__name__ for case in CASES]


def _fields(obj) -> tuple:
    return tuple(getattr(obj, name) for name in type(obj).__match_args__)


def test_every_value_class_is_covered():
    covered = {case.cls for case in CASES}
    modules = (E, core, category, C, D, tau, specio, G)
    bases = (core.Record, core.Value, E.Node)
    classes = {
        obj for mod in modules for obj in vars(mod).values()
        if isinstance(obj, type) and issubclass(obj, core.Record) and obj not in bases
    }
    assert classes == covered
    assert len(covered) == 28


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_positional_and_keyword_construction(case):
    names = case.cls.__match_args__
    assert len(names) == len(case.args)
    obj = case.cls(*case.args)
    assert _fields(obj) == case.fields
    assert case.cls(**dict(zip(names, case.args))) == obj
    with pytest.raises(TypeError):
        case.cls(*case.args, None)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_equality_is_by_class_and_fields(case):
    obj = case.cls(*case.args)
    twin = case.cls(*case.args)
    assert obj == twin and not obj != twin
    assert obj != object() and not obj == object()
    assert obj != case.fields


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_repr_names_every_field(case):
    obj = case.cls(*case.args)
    if case.text is None:
        inner = ", ".join(f"{n}={v!r}" for n, v in zip(case.cls.__match_args__, case.fields))
        assert repr(obj) == f"{case.cls.__name__}({inner})"
    else:
        assert repr(obj) == case.text


@pytest.mark.parametrize("case", [c for c in CASES if c.cls not in MUTABLE],
                         ids=[i for c, i in zip(CASES, IDS) if c.cls not in MUTABLE])
def test_frozen_classes_hash_their_fields_and_refuse_writes(case):
    obj = case.cls(*case.args)
    if issubclass(case.cls, E.Node):  # interned: one node per key, hashed by identity
        assert obj is case.cls(*case.args) and hash(obj) == object.__hash__(obj)
    else:
        try:
            expected = hash(case.fields)
        except TypeError:  # a field is unhashable (a mapping proxy, a table)
            with pytest.raises(TypeError):
                hash(obj)
        else:
            assert hash(obj) == expected
    for name in (*case.cls.__match_args__, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert _fields(obj) == case.fields


@pytest.mark.parametrize("cls", MUTABLE)
def test_mutable_classes_are_unhashable(cls):
    case = next(c for c in CASES if c.cls is cls)
    obj = cls(*case.args)
    assert cls.__hash__ is None
    with pytest.raises(TypeError):
        hash(obj)
    name = cls.__match_args__[0]
    setattr(obj, name, "changed")
    assert getattr(obj, name) == "changed"
    assert obj != cls(*case.args)


def test_defaults():
    assert repr(category.CheckReport(True, 0.0, 3)) == (
        "CheckReport(passed=True, residual=0.0, samples=3, witness=None, note=None)"
    )
    assert C.Domain([(0, 1)]).punctures == ()
    assert tau.TangentSection(VEC).base is None
    assert PMAP.codomain is G.FULL_LINE and PMAP.pipeline == ()
    assert C.IntegrationStats() == C.IntegrationStats(0, 0, 0, 0, 0)


def test_node_equality_tells_classes_apart():
    assert E.Add(X1, TWO) != E.Sub(X1, TWO)
    assert E.Mul(X1, TWO) != E.Div(X1, TWO)
    assert E.Neg(X1) != E.Call("sin", X1)
    assert E.Expr(X1, 1) != E.Expr(X1, 2)
    assert E.Add(X1, TWO) is E.Add(X1, TWO) and E.Add(X1, TWO) is not E.Sub(X1, TWO)


def test_signed_zeros_are_two_constants():
    # a zero constant is interned by its repr, so 0.0 and -0.0, equal as
    # floats, are two nodes, and each prints and evaluates with its sign
    assert E.Num(0.0) is not E.Num(-0.0) and E.Num(0.0) != E.Num(-0.0)
    assert calculus.to_string(E.Expr(E.Num(-0.0), 0)) == "-0"
    assert math.copysign(1.0, E.evaluate(E.Expr(E.Num(-0.0), 0), [])) == -1.0
    assert E.Num(1) is E.Num(1.0)


@pytest.mark.parametrize("value", [1, -3, 0, 2**53 + 1, 10**300])
def test_int_constants_round_trip(value):
    # an int constant is its float's node, so hand-built expressions print and
    # parse back to themselves
    e = E.Expr(E.Add(E.Var(1), E.Num(value)), 1)
    assert E.Num(value) is E.Num(float(value))
    assert E.parse(calculus.to_string(e), 1) == e


def test_int_constant_too_large_for_a_float_fails_when_built():
    with pytest.raises(OverflowError):
        E.Num(10**400)


def test_nan_fields_compare_by_identity_first():
    # node equality is identity, and a nan constant is interned by its repr: one node
    assert E.Num(math.nan) is E.Num(float("nan")) and E.Num(math.nan) == E.Num(float("nan"))


def test_cached_properties_survive_immutability():
    e = E.parse("x1 * x1", 1)
    assert e._compiled is e._compiled
    assert E.evaluate(e, [3.0]) == 9.0
    assert e == E.parse("x1 * x1", 1) and hash(e) == hash(E.parse("x1 * x1", 1))
    assert VEC._compiled is VEC._compiled
    f = C.smooth_map(["x1 * x2", "x2"], 2)
    assert f._jacobian is f._jacobian
    assert f.jacobian_at([2.0, 3.0]).tolist() == [[3.0, 2.0], [0.0, 1.0]]
    assert repr(f) == repr(C.smooth_map(["x1 * x2", "x2"], 2))


def test_normalising_constructors_validate():
    with pytest.raises(ValueError):
        C.Domain([(1, 0)])
    with pytest.raises(ValueError):
        D.DiscreteSystem(("a", "a"), {"a": "a"})
    with pytest.raises(ValueError):
        E.VectorExpr(())
    with pytest.raises(E.ArityError):
        E.Expr(E.Var(3), 2)
    with pytest.raises(ValueError):
        category.PointedSystem(DSYS, "z")
    with pytest.raises(ValueError):
        G.Germ(PMAP, 2.0)


def test_positional_patterns_follow_the_fields():
    match E.Pow(X1, TWO):
        case E.Pow(base, E.Num(k)):
            assert base is X1 and k == 2.0
        case _:
            pytest.fail("no match")


@pytest.mark.parametrize("obj", [
    E.parse("sin(x1) / (x1 + t) ^ 2", 1), LINE, category.CheckReport(True, 0.0, 3),
    UNIT, C.IntegrationStats(1, 2, 3, 4, 5),
], ids=lambda obj: type(obj).__name__)
def test_pickle_and_copy_round_trip(obj):
    for clone in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(clone) is type(obj) and clone == obj
