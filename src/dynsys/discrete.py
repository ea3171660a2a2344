"""Finite discrete-time systems: endomaps of finite sets of named elements.

A system is a carrier set with a total endomap; iterating the endomap from a
start element gives the orbit, which is the unique basepoint-preserving
morphism out of the (truncated) successor system on the naturals.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

from .core import Value, _setfield

if TYPE_CHECKING:
    from .category import CheckReport


class UnknownElementError(ValueError):
    """An element was referenced that is not in the carrier."""


class DiscreteSystem(Value):
    __match_args__ = ("carrier", "endomap")

    def __init__(self, carrier: Sequence[str], endomap: Mapping[str, str]):
        _setfield(self, "carrier", tuple(carrier))
        _setfield(self, "endomap", MappingProxyType(dict(endomap)))
        elements = set(self.carrier)
        if len(elements) != len(self.carrier):
            raise ValueError("carrier contains duplicate elements")
        missing = elements - set(self.endomap)
        if missing:
            raise ValueError(f"endomap not total: missing {sorted(missing)}")
        extra = set(self.endomap) - elements
        if extra:
            raise ValueError(f"endomap defined on unknown elements {sorted(extra)}")
        stray = set(self.endomap.values()) - elements
        if stray:
            raise ValueError(f"endomap image leaves the carrier: {sorted(stray)}")

    def apply(self, x: str) -> str:
        if x not in self.endomap:
            raise UnknownElementError(f"{x!r} is not in the carrier")
        return self.endomap[x]


class Orbit(Value):
    __match_args__ = ("start", "points")

    def __init__(self, start: str, points: tuple[str, ...]):
        _setfield(self, "start", start)
        _setfield(self, "points", points)


def iterate(sys: DiscreteSystem, c0: str, horizon: int) -> Orbit:
    """Repeatedly apply the endomap: points[k] is the k-th iterate of c0."""
    if c0 not in sys.endomap:
        raise UnknownElementError(f"{c0!r} is not in the carrier")
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    points = [c0]
    for _ in range(horizon):
        points.append(sys.endomap[points[-1]])
    return Orbit(c0, tuple(points))


def check_dt_morphism(alpha: Mapping[str, str], src: DiscreteSystem,
                      dst: DiscreteSystem) -> CheckReport:
    """Exact check that dst(alpha(x)) == alpha(src(x)) for every carrier element;
    the witness is the first violating element (:func:`tau.check_tau_morphism`)."""
    from .tau import check_tau_morphism, from_discrete

    return check_tau_morphism(alpha, from_discrete(src), from_discrete(dst))


def fixed_points(sys: DiscreteSystem) -> set[str]:
    """Elements with X(x) = x; these are the morphisms from the one-point system."""
    return {x for x in sys.carrier if sys.endomap[x] == x}
