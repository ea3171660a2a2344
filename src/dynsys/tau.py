"""One abstract interface over the concrete system kinds.

Every kind of system here is a carrier plus a section: a map from the
carrier into a total space that projects back to the identity.  For
continuous systems the total space pairs a state with a tangent vector and
the section is the vector field; for discrete systems the total space is
the product carrier x carrier and the section is x |-> (x, X(x)), identity
on the first factor.  An instance packages the handful of operations the
checks need (apply a section, push a map through the total space, test the
map, word a witness); full functor objects would add nothing testable.  A
morphism is a map that makes the square of sections commute, and
:func:`check_tau_morphism` is the one loop in the package that checks it.

Sections are *represented* as general maps into the total space, so a
broken candidate (one that moves the base point) is expressible and the
section law is an actual check, not a construction-time axiom.  Each
instance also provides a canonical section (zero field, diagonal map),
witnessing constructively that the section space is never empty.

At module level only :mod:`dynsys.core` is imported; the continuous
operations import the expression and ODE modules only for sample sets,
canonical sections and errors, so a discrete system's checks load neither.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .core import CheckReport, MorphismCandidate, Value, _distance, _matvec, _setfield

if TYPE_CHECKING:
    from .continuous import ContinuousSystem, Domain, SmoothMap
    from .discrete import DiscreteSystem
    from .expr import VectorExpr


class TauInstance(Value):
    """Operation table for one kind of system.

    ``check_map(f, src, dst)`` raises on a map the check cannot run (a wrong
    arity; a table that is not total or leaves the target carrier), and
    ``check_image(dst, x, fx)`` on an image f(x) outside the target carrier.
    ``witness`` words a failed morphism check, as ``witness(x, lhs, rhs)`` if
    ``exact``, else as ``witness(residual, x)``.  Only numerical instances
    have distances, in the carrier and in the total space.
    """

    __match_args__ = (
        "name", "exact", "apply_section", "apply_map_total", "check_map", "check_image",
        "witness", "carrier_distance", "total_distance", "default_points", "canonical_section",
    )

    def __init__(self, name: str, exact: bool, apply_section: Callable,
                 apply_map_total: Callable, check_map: Callable, check_image: Callable,
                 witness: Callable, carrier_distance: Callable | None,
                 total_distance: Callable | None, default_points: Callable,
                 canonical_section: Callable):
        _setfield(self, "name", name)
        _setfield(self, "exact", exact)
        _setfield(self, "apply_section", apply_section)
        _setfield(self, "apply_map_total", apply_map_total)
        _setfield(self, "check_map", check_map)
        _setfield(self, "check_image", check_image)
        _setfield(self, "witness", witness)
        _setfield(self, "carrier_distance", carrier_distance)
        _setfield(self, "total_distance", total_distance)
        _setfield(self, "default_points", default_points)
        _setfield(self, "canonical_section", canonical_section)


def _project(total):
    """Footing of a total-space point; the same for every instance."""
    return total[0]


class TauSystem(Value):
    __match_args__ = ("instance", "carrier", "section")

    def __init__(self, instance: TauInstance, carrier, section):
        _setfield(self, "instance", instance)
        _setfield(self, "carrier", carrier)
        _setfield(self, "section", section)


# --- continuous instance -----------------------------------------------------


class TangentSection(Value):
    """A candidate section of the tangent projection: x |-> (base(x), vector(x)).

    ``base=None`` is the identity footing; a proper vector field never moves
    the base point, and the section check is exactly that question.
    """

    __match_args__ = ("vector", "base")

    def __init__(self, vector: VectorExpr, base: VectorExpr | None = None):
        _setfield(self, "vector", vector)
        _setfield(self, "base", base)


def _cont_apply_section(section: TangentSection, x):
    return (x if section.base is None else section.base(x), section.vector(x))


def _cont_apply_map_total(f: SmoothMap, total):
    """(f(x), Jf(x) v), the Jacobian evaluated before f."""
    x, v = total
    jv = _matvec(f._jacobian(x), v)
    return (f(x), jv)


def _cont_check_map(f: SmoothMap, src: Domain, dst: Domain) -> None:
    from .expr import ArityError

    if f.source_dim != src.dimension:
        raise ArityError(f"map expects {f.source_dim} inputs, system has {src.dimension}")
    if f.target_dim != dst.dimension:
        raise ArityError(f"map produces {f.target_dim} outputs, target has {dst.dimension}")


def _cont_check_image(dst: Domain, x, fx) -> None:
    if not dst.contains(fx):
        from .expr import DomainError

        raise DomainError(f"f({tuple(x)}) = {tuple(fx)} leaves the target domain")


def _cont_total_distance(p, q) -> float:
    """Euclidean distance in the total space, footing and vector together."""
    return _distance([*p[0], *p[1]], [*q[0], *q[1]])


def _cont_default_points(carrier: Domain, count: int = 200):
    from .continuous import default_samples

    return default_samples(carrier, count)


def _cont_canonical_section(carrier: Domain) -> TangentSection:
    from .expr import parse_vector

    return TangentSection(parse_vector(["0"] * carrier.dimension, carrier.dimension))


CONTINUOUS = TauInstance(
    name="continuous",
    exact=False,
    apply_section=_cont_apply_section,
    apply_map_total=_cont_apply_map_total,
    check_map=_cont_check_map,
    check_image=_cont_check_image,
    witness=lambda residual, x: (f"worst defect {residual:.6g} "
                                 f"at x={tuple(float(c) for c in x)}"),
    carrier_distance=_distance,
    total_distance=_cont_total_distance,
    default_points=_cont_default_points,
    canonical_section=_cont_canonical_section,
)


# --- discrete instance -------------------------------------------------------


def _disc_apply_section(section: Mapping[str, tuple[str, str]], x: str):
    return tuple(section[x])


def _disc_apply_map_total(alpha: Mapping[str, str], total):
    return (alpha[total[0]], alpha[total[1]])


def _disc_check_map(alpha: Mapping[str, str], src: Sequence[str], dst: Sequence[str]) -> None:
    missing = [x for x in src if x not in alpha]
    if missing:
        raise ValueError(f"morphism table not total: missing {missing}")
    targets = set(dst)
    stray = [x for x in src if alpha[x] not in targets]
    if stray:
        raise ValueError(f"morphism table maps {stray} outside the target carrier")


def _disc_default_points(carrier: Sequence[str], count: int = 0):
    return tuple(carrier)


def _disc_canonical_section(carrier: Sequence[str]):
    return {x: (x, x) for x in carrier}


DISCRETE = TauInstance(
    name="discrete",
    exact=True,
    apply_section=_disc_apply_section,
    apply_map_total=_disc_apply_map_total,
    check_map=_disc_check_map,
    check_image=lambda dst, x, fx: None,  # check_map has tested every image
    witness=lambda x, lhs, rhs: (f"at {x!r}: Y(alpha({x!r}))={rhs[1]!r} "
                                 f"but alpha(X({x!r}))={lhs[1]!r}"),
    carrier_distance=None,
    total_distance=None,
    default_points=_disc_default_points,
    canonical_section=_disc_canonical_section,
)


def from_continuous(system: ContinuousSystem) -> TauSystem:
    """View an ODE system abstractly; germed systems (punctured domains)
    ride the same instance."""
    return TauSystem(CONTINUOUS, system.domain, TangentSection(system.field))


def from_discrete(system: DiscreteSystem) -> TauSystem:
    section = {x: (x, system.endomap[x]) for x in system.carrier}
    return TauSystem(DISCRETE, system.carrier, section)


def _view(system) -> TauSystem:
    """The abstract view of a discrete or a continuous system."""
    return from_discrete(system) if hasattr(system, "endomap") else from_continuous(system)


# --- the two checks ----------------------------------------------------------


def _guard_samples(carrier, pts, what: str) -> None:
    if hasattr(carrier, "contains"):  # a Domain
        for x in pts:
            if not carrier.contains(x):
                raise ValueError(f"{what} sample {tuple(x)} outside the carrier domain")
    else:
        known = set(carrier)
        for x in pts:
            if x not in known:
                raise ValueError(f"{what} sample {x!r} not in the carrier")


def check_section(sys: TauSystem, samples=None, tol: float = 1e-12) -> CheckReport:
    """The section law: projecting the section's value returns the input."""
    inst = sys.instance
    pts = list(samples) if samples is not None else list(inst.default_points(sys.carrier, 25))
    if samples is not None:
        _guard_samples(sys.carrier, pts, "section-law")
    footings = ((x, _project(inst.apply_section(sys.section, x))) for x in pts)
    if inst.exact:
        return CheckReport.tally(None if got == x else f"section moves {x!r} to footing {got!r}"
                                 for x, got in footings)
    return CheckReport.worst(((inst.carrier_distance(got, x), x) for x, got in footings), tol,
                             witness=lambda residual, x: f"footing moved by {residual:.6g} at {x}")


def check_tau_morphism(
    f, src: TauSystem, dst: TauSystem, samples=None, tol: float = 1e-8
) -> CheckReport:
    """Does the candidate map intertwine the sections?

    The residual compares the section-then-map route, whose footing is
    f(x), against the map-then-section route in the total space; for exact
    instances any disagreement is a violation with the first witness
    reported.  Per sample, the source section, the Jacobian, f, the target
    test and the target section run in this order: the first to fail raises.
    """
    if isinstance(f, MorphismCandidate):
        f = f.mapping
    if src.instance is not dst.instance:
        raise ValueError(
            f"cannot relate a {src.instance.name} system to a {dst.instance.name} one"
        )
    inst = src.instance
    inst.check_map(f, src.carrier, dst.carrier)
    pts = list(samples) if samples is not None else list(inst.default_points(src.carrier, 200))
    if samples is not None:
        _guard_samples(src.carrier, pts, "morphism")

    def gaps():  # both ways round the square, per sample
        for x in pts:
            lhs = inst.apply_map_total(f, inst.apply_section(src.section, x))
            fx = _project(lhs)
            inst.check_image(dst.carrier, x, fx)
            rhs = inst.apply_section(dst.section, fx)
            if inst.exact:
                yield None if lhs == rhs else inst.witness(x, lhs, rhs)
            else:
                yield inst.total_distance(lhs, rhs), x

    if inst.exact:
        return CheckReport.tally(gaps())
    return CheckReport.worst(gaps(), tol, witness=inst.witness)
