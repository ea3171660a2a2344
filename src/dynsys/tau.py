"""One abstract interface over the concrete system kinds.

Every kind of system here is a carrier plus a section: a map from the
carrier into a total space that projects back to the identity.  For
continuous systems the total space pairs a state with a tangent vector and
the section is the vector field; for discrete systems the total space is
the product carrier x carrier and the section is x |-> (x, X(x)), identity
on the first factor.  An instance packages the handful of operations the
checks need (apply a section, project, push a map through both levels);
full functor objects would add nothing testable.

Sections are *represented* as general maps into the total space, so a
broken candidate (one that moves the base point) is expressible and the
section law is an actual check, not a construction-time axiom.  Each
instance also provides a canonical section (zero field, diagonal map),
witnessing constructively that the section space is never empty.

At module level only :mod:`dynsys.core` is imported; the continuous
operations import the expression and ODE modules when they first run, so a
discrete system's checks load neither.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .core import CheckReport, MorphismCandidate, Value, _distance, _matvec, _setfield

if TYPE_CHECKING:
    from .continuous import ContinuousSystem, Domain, SmoothMap
    from .discrete import DiscreteSystem
    from .expr import VectorExpr


class TauInstance(Value):
    """Operation table for one kind of system."""

    __match_args__ = (
        "name", "exact", "apply_section", "project", "apply_map_carrier", "apply_map_total",
        "carrier_distance", "total_distance", "default_points", "canonical_section",
    )

    def __init__(self, name: str, exact: bool, apply_section: Callable, project: Callable,
                 apply_map_carrier: Callable, apply_map_total: Callable,
                 carrier_distance: Callable, total_distance: Callable,
                 default_points: Callable, canonical_section: Callable):
        _setfield(self, "name", name)
        _setfield(self, "exact", exact)
        _setfield(self, "apply_section", apply_section)
        _setfield(self, "project", project)
        _setfield(self, "apply_map_carrier", apply_map_carrier)
        _setfield(self, "apply_map_total", apply_map_total)
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
    from .expr import evaluate_vector

    x = [float(v) for v in x]
    base = x if section.base is None else evaluate_vector(section.base, x)
    return (base, evaluate_vector(section.vector, x))


def _cont_apply_map_carrier(f: SmoothMap, x):
    return f([float(v) for v in x])


def _cont_apply_map_total(f: SmoothMap, total):
    from .expr import evaluate_vector

    x, v = total
    return (f(x), _matvec(evaluate_vector(f._jacobian, x), v))


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
    project=_project,
    apply_map_carrier=_cont_apply_map_carrier,
    apply_map_total=_cont_apply_map_total,
    carrier_distance=_distance,
    total_distance=_cont_total_distance,
    default_points=_cont_default_points,
    canonical_section=_cont_canonical_section,
)


# --- discrete instance -------------------------------------------------------


def _disc_apply_section(section: Mapping[str, tuple[str, str]], x: str):
    return tuple(section[x])


def _disc_apply_map_carrier(alpha: Mapping[str, str], x: str) -> str:
    return alpha[x]


def _disc_apply_map_total(alpha: Mapping[str, str], total):
    return (alpha[total[0]], alpha[total[1]])


def _disc_distance(a, b) -> float:
    return 0.0 if a == b else 1.0


def _disc_default_points(carrier: Sequence[str], count: int = 0):
    return tuple(carrier)


def _disc_canonical_section(carrier: Sequence[str]):
    return {x: (x, x) for x in carrier}


DISCRETE = TauInstance(
    name="discrete",
    exact=True,
    apply_section=_disc_apply_section,
    project=_project,
    apply_map_carrier=_disc_apply_map_carrier,
    apply_map_total=_disc_apply_map_total,
    carrier_distance=_disc_distance,
    total_distance=_disc_distance,
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
    footings = ((x, inst.project(inst.apply_section(sys.section, x))) for x in pts)
    if inst.exact:
        return CheckReport.tally(None if got == x else f"section moves {x!r} to footing {got!r}"
                                 for x, got in footings)
    return CheckReport.worst(((inst.carrier_distance(got, x), x) for x, got in footings), tol,
                             witness=lambda residual, x: f"footing moved by {residual:.6g} at {x}")


def check_tau_morphism(
    f, src: TauSystem, dst: TauSystem, samples=None, tol: float = 1e-8
) -> CheckReport:
    """Does the candidate map intertwine the sections?

    The residual compares the section-then-map route against the
    map-then-section route in the total space; for exact instances any
    disagreement is a violation with the first witness reported.
    """
    if isinstance(f, MorphismCandidate):
        f = f.mapping
    if src.instance is not dst.instance:
        raise ValueError(
            f"cannot relate a {src.instance.name} system to a {dst.instance.name} one"
        )
    inst = src.instance
    pts = list(samples) if samples is not None else list(inst.default_points(src.carrier, 200))
    if samples is not None:
        _guard_samples(src.carrier, pts, "morphism")

    def routes():  # both ways round the square, per sample
        for x in pts:
            fx = inst.apply_map_carrier(f, x)
            if hasattr(dst.carrier, "contains") and not dst.carrier.contains(fx):
                from .expr import DomainError

                raise DomainError(f"map sends {tuple(x)} to {tuple(fx)}, "
                                  "outside the target carrier")
            yield inst.apply_map_total(f, inst.apply_section(src.section, x)), \
                inst.apply_section(dst.section, fx), x

    if inst.exact:
        return CheckReport.tally(None if lhs == rhs else f"at {x!r}: {lhs!r} != {rhs!r}"
                                 for lhs, rhs, x in routes())
    return CheckReport.worst(((inst.total_distance(lhs, rhs), x) for lhs, rhs, x in routes()),
                             tol, witness=lambda residual, x: f"defect {residual:.6g} at {x}")
