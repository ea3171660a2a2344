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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import expr as E
from .continuous import ContinuousSystem, Domain, SmoothMap, default_samples
from .core import CheckReport
from .discrete import DiscreteSystem


@dataclass(frozen=True)
class TauInstance:
    """Operation table for one kind of system."""

    name: str
    exact: bool
    apply_section: Callable
    project: Callable
    apply_map_carrier: Callable
    apply_map_total: Callable
    carrier_distance: Callable
    total_distance: Callable
    default_points: Callable
    canonical_section: Callable


def _project(total):
    """Footing of a total-space point; the same for every instance."""
    return total[0]


@dataclass(frozen=True)
class TauSystem:
    instance: TauInstance
    carrier: object
    section: object


# --- continuous instance -----------------------------------------------------


@dataclass(frozen=True)
class TangentSection:
    """A candidate section of the tangent projection: x |-> (base(x), vector(x)).

    ``base=None`` is the identity footing; a proper vector field never moves
    the base point, and the section check is exactly that question.
    """

    vector: E.VectorExpr
    base: E.VectorExpr | None = None


def _cont_apply_section(section: TangentSection, x):
    x = np.asarray(x, dtype=float)
    base = x if section.base is None else np.array(E.evaluate_vector(section.base, x))
    vec = np.array(E.evaluate_vector(section.vector, x))
    return (base, vec)


def _cont_apply_map_carrier(f: SmoothMap, x):
    return np.array(f(np.asarray(x, dtype=float)))


def _cont_apply_map_total(f: SmoothMap, total):
    x, v = total
    jmat = f.jacobian_at(x)
    return (np.array(f(x)), jmat @ np.asarray(v, dtype=float))


def _cont_carrier_distance(x, y) -> float:
    return float(np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)))


def _cont_total_distance(p, q) -> float:
    return max(_cont_carrier_distance(p[0], q[0]), _cont_carrier_distance(p[1], q[1]))


def _cont_canonical_section(carrier: Domain) -> TangentSection:
    zero = E.parse_vector(["0"] * carrier.dimension, carrier.dimension)
    return TangentSection(zero)


CONTINUOUS = TauInstance(
    name="continuous",
    exact=False,
    apply_section=_cont_apply_section,
    project=_project,
    apply_map_carrier=_cont_apply_map_carrier,
    apply_map_total=_cont_apply_map_total,
    carrier_distance=_cont_carrier_distance,
    total_distance=_cont_total_distance,
    default_points=default_samples,
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
    if isinstance(carrier, Domain):
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
    if inst.exact:
        violations, witness = 0, None
        for x in pts:
            got = inst.project(inst.apply_section(sys.section, x))
            if got != x:
                violations += 1
                if witness is None:
                    witness = f"section moves {x!r} to footing {got!r}"
        return CheckReport.exact(witness, samples=len(pts), violations=violations)
    residual, worst = 0.0, None
    for x in pts:
        d = inst.carrier_distance(inst.project(inst.apply_section(sys.section, x)), x)
        if d > residual:
            residual, worst = d, x
    return CheckReport.numerical(
        residual, tol, len(pts),
        witness=None if worst is None else f"footing moved by {residual:.6g} at {worst}",
    )


def check_tau_morphism(
    f, src: TauSystem, dst: TauSystem, samples=None, tol: float = 1e-8
) -> CheckReport:
    """Does the candidate map intertwine the sections?

    The residual compares the section-then-map route against the
    map-then-section route in the total space; for exact instances any
    disagreement is a violation with the first witness reported.
    """
    from .core import MorphismCandidate

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
    if inst.exact:
        violations, witness = 0, None
        for x in pts:
            lhs = inst.apply_map_total(f, inst.apply_section(src.section, x))
            rhs = inst.apply_section(dst.section, inst.apply_map_carrier(f, x))
            if lhs != rhs:
                violations += 1
                if witness is None:
                    witness = f"at {x!r}: {lhs!r} != {rhs!r}"
        return CheckReport.exact(witness, samples=len(pts), violations=violations)
    residual, worst = 0.0, None
    for x in pts:
        fx = inst.apply_map_carrier(f, x)
        if isinstance(dst.carrier, Domain) and not dst.carrier.contains(fx):
            raise E.DomainError(
                f"map sends {tuple(x)} to {tuple(fx)}, outside the target carrier"
            )
        lhs = inst.apply_map_total(f, inst.apply_section(src.section, x))
        rhs = inst.apply_section(dst.section, fx)
        d = inst.total_distance(lhs, rhs)
        if d > residual:
            residual, worst = d, x
    return CheckReport.numerical(
        residual, tol, len(pts),
        witness=None if worst is None else f"defect {residual:.6g} at {worst}",
    )
