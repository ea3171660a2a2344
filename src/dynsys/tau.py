"""The paper's abstraction: a system is a carrier with a section of tau,
and a morphism is a map that makes the tau-square commute.

tau takes a carrier to a total space that projects back onto it, and a
section is a map into the total space that projects back to the identity.
For continuous systems the total space pairs a state with a tangent vector
and the section is the vector field; for discrete systems it is the
product carrier x carrier and the section is x |-> (x, X(x)).  A map f is
a morphism when tau(f) after the source section equals the target section
after f: :func:`check_tau_morphism` goes both ways round that square at
each sample.

Each kind of system is one subclass of :class:`TauInstance` with one
instance, :data:`CONTINUOUS` or :data:`DISCRETE`, as a functor fixes what a
coalgebra homomorphism is (Rutten, "Universal coalgebra", TCS 2000).  The
subclass holds what the checks do differently by kind: how sections and
maps act on a sample, which maps and samples it accepts, and how the
samples make a report, by tallying violations (discrete) or by the worst
gap against a tolerance (continuous).  So :func:`check_section` and
:func:`check_tau_morphism` are one loop each, for both kinds.

Sections are *represented* as general maps into the total space, so a
broken candidate (one that moves the base point) is expressible and the
section law is an actual check, not a construction-time axiom.  Each
instance also provides a canonical section (zero field, diagonal map),
witnessing constructively that the section space is never empty.

At module level only :mod:`dynsys.core` and :mod:`dynsys.category` are
imported; the continuous operations import the expression and ODE modules
only for sample sets, canonical sections and errors, so a discrete
system's checks load neither.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from .category import CheckReport, MorphismCandidate, _distance, _matvec
from .core import Value, _setfield

if TYPE_CHECKING:
    from .continuous import ContinuousSystem, Domain, SmoothMap
    from .discrete import DiscreteSystem
    from .expr import VectorExpr


class TauInstance:
    """One kind of system.  Each subclass has one instance, which copying
    and unpickling give back.

    Per sample x the checks call ``apply_section(section, x)`` (a
    total-space point, footing first), ``apply_map_total(f, p)`` (tau(f) at
    p) and ``check_image(dst, x, fx)``; ``section_gap``/``square_gap`` turn
    the sample into one entry, and ``section_report``/``square_report`` the
    entries into the report.  ``check_map(f, src, dst)`` and
    ``check_samples(carrier, pts, what)`` raise, before the loop, on a map
    the check cannot run and on a given sample outside the carrier.
    """

    name = ""

    def __reduce__(self):  # the module-level name, so a copy is the instance itself
        return self.name.upper()

    def __repr__(self) -> str:
        return f"tau.{self.name.upper()}"

    def points(self, carrier, samples, count: int, what: str):
        """The given samples, each checked against the carrier, else the
        kind's default ones; none at all is an error, not a vacuous pass."""
        if samples is None:
            pts = self.default_points(carrier, count)
        else:
            pts = list(samples)
            self.check_samples(carrier, pts, what)
        if not pts:
            raise ValueError(f"{what} check has no samples")
        return pts


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


class ContinuousTau(TauInstance):
    """Total space: (state, tangent vector) pairs; reports take the worst gap."""

    name = "continuous"

    def apply_section(self, section: TangentSection, x):
        return (x if section.base is None else section.base(x), section.vector(x))

    def apply_map_total(self, f: SmoothMap, total):
        """(f(x), Jf(x) v), the Jacobian evaluated before f."""
        x, v = total
        jv = _matvec(f._jacobian(x), v)
        return (f(x), jv)

    def check_map(self, f: SmoothMap, src: Domain, dst: Domain) -> None:
        from .expr import ArityError

        if f.source_dim != src.dimension:
            raise ArityError(f"map expects {f.source_dim} inputs, system has {src.dimension}")
        if f.target_dim != dst.dimension:
            raise ArityError(f"map produces {f.target_dim} outputs, target has {dst.dimension}")

    def check_samples(self, carrier: Domain, pts, what: str) -> None:
        for x in pts:
            if not carrier.contains(x):
                raise ValueError(f"{what} sample {tuple(x)} outside the carrier domain")

    def check_image(self, dst: Domain, x, fx) -> None:
        if not dst.contains(fx):
            from .expr import DomainError

            raise DomainError(f"f({tuple(x)}) = {tuple(fx)} leaves the target domain")

    def default_points(self, carrier: Domain, count: int):
        from .ode_checks import default_samples

        return default_samples(carrier, count)

    def canonical_section(self, carrier: Domain) -> TangentSection:
        from .expr import parse_vector

        return TangentSection(parse_vector(["0"] * carrier.dimension, carrier.dimension))

    def section_gap(self, x, footing):
        return _distance(footing, x), x

    def square_gap(self, x, lhs, rhs):
        """Euclidean distance in the total space, footing and vector together."""
        return _distance([*lhs[0], *lhs[1]], [*rhs[0], *rhs[1]]), x

    def section_report(self, gaps, tol: float) -> CheckReport:
        return CheckReport.worst(gaps, tol, witness=lambda residual, x:
                                 f"footing moved by {residual:.6g} at {x}")

    def square_report(self, gaps, tol: float) -> CheckReport:
        return CheckReport.worst(gaps, tol, witness=lambda residual, x:
                                 f"worst defect {residual:.6g} at x={tuple(float(c) for c in x)}")


CONTINUOUS = ContinuousTau()


# --- discrete instance -------------------------------------------------------


class DiscreteTau(TauInstance):
    """Total space: carrier x carrier; reports tally the violations."""

    name = "discrete"

    def apply_section(self, section: Mapping[str, tuple[str, str]], x: str):
        return tuple(section[x])

    def apply_map_total(self, alpha: Mapping[str, str], total):
        return (alpha[total[0]], alpha[total[1]])

    def check_map(self, alpha: Mapping[str, str], src: Sequence[str], dst: Sequence[str]) -> None:
        missing = [x for x in src if x not in alpha]
        if missing:
            raise ValueError(f"morphism table not total: missing {missing}")
        known = set(src)
        extra = [x for x in alpha if x not in known]
        if extra:
            raise ValueError(f"morphism table defined on unknown elements {sorted(extra)}")
        targets = set(dst)
        stray = [x for x in src if alpha[x] not in targets]
        if stray:
            raise ValueError(f"morphism table maps {stray} outside the target carrier")

    def check_samples(self, carrier: Sequence[str], pts, what: str) -> None:
        known = set(carrier)
        for x in pts:
            if x not in known:
                raise ValueError(f"{what} sample {x!r} not in the carrier")

    def check_image(self, dst: Sequence[str], x: str, fx: str) -> None:
        """Nothing to test: :meth:`check_map` has tested every image."""

    def default_points(self, carrier: Sequence[str], count: int):
        return tuple(carrier)

    def canonical_section(self, carrier: Sequence[str]):
        return {x: (x, x) for x in carrier}

    def section_gap(self, x: str, footing: str):
        return None if footing == x else f"section moves {x!r} to footing {footing!r}"

    def square_gap(self, x: str, lhs, rhs):
        return None if lhs == rhs else (f"at {x!r}: Y(alpha({x!r}))={rhs[1]!r} "
                                        f"but alpha(X({x!r}))={lhs[1]!r}")

    def section_report(self, gaps, tol: float) -> CheckReport:
        return CheckReport.tally(gaps)

    square_report = section_report


DISCRETE = DiscreteTau()


def from_continuous(system: ContinuousSystem) -> TauSystem:
    """View an ODE system abstractly; germed systems (punctured domains)
    ride the same instance."""
    return TauSystem(CONTINUOUS, system.domain, TangentSection(system.field))


def from_discrete(system: DiscreteSystem) -> TauSystem:
    section = {x: (x, system.endomap[x]) for x in system.carrier}
    return TauSystem(DISCRETE, system.carrier, section)


# --- the two checks ----------------------------------------------------------


def check_section(sys: TauSystem, samples=None, tol: float = 1e-12) -> CheckReport:
    """The section law: projecting the section's value returns the input."""
    inst = sys.instance
    pts = inst.points(sys.carrier, samples, 25, "section-law")
    return inst.section_report(
        (inst.section_gap(x, inst.apply_section(sys.section, x)[0]) for x in pts), tol)


def check_tau_morphism(
    f, src: TauSystem, dst: TauSystem, samples=None, tol: float = 1e-8
) -> CheckReport:
    """Does the candidate map intertwine the sections?

    Per sample, the section-then-map route, whose footing is f(x), meets
    the map-then-section route in the total space, and the kind's entry
    for the two makes the report (a sup-norm residual, or a count of
    violations with the first as witness).  The source section, the
    Jacobian, f, the target test and the target section run in this
    order: the first to fail raises.
    """
    if isinstance(f, MorphismCandidate):
        f = f.mapping
    inst = src.instance
    if dst.instance is not inst:
        raise ValueError(f"cannot relate a {inst.name} system to a {dst.instance.name} one")
    inst.check_map(f, src.carrier, dst.carrier)
    pts = inst.points(src.carrier, samples, 200, "morphism")

    def gaps():  # both ways round the square, per sample
        for x in pts:
            lhs = inst.apply_map_total(f, inst.apply_section(src.section, x))
            fx = lhs[0]
            inst.check_image(dst.carrier, x, fx)
            yield inst.square_gap(x, lhs, inst.apply_section(dst.section, fx))

    return inst.square_report(gaps(), tol)
