"""Finite discrete-time systems: endomaps of finite sets of named elements.

A system is a carrier set with a total endomap; iterating the endomap from a
start element gives the orbit, which is the unique basepoint-preserving
morphism out of the (truncated) successor system on the naturals.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .core import CheckReport


class UnknownElementError(ValueError):
    """An element was referenced that is not in the carrier."""


@dataclass(frozen=True)
class DiscreteSystem:
    carrier: tuple[str, ...]
    endomap: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "carrier", tuple(self.carrier))
        object.__setattr__(self, "endomap", MappingProxyType(dict(self.endomap)))
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


@dataclass(frozen=True)
class Orbit:
    start: str
    points: tuple[str, ...]


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


def check_dt_morphism(
    alpha: Mapping[str, str], src: DiscreteSystem, dst: DiscreteSystem
) -> CheckReport:
    """Exact check that alpha intertwines the two endomaps.

    The condition is dst(alpha(x)) == alpha(src(x)) for every carrier
    element; the witness is the first violating element in carrier order.
    """
    missing = [x for x in src.carrier if x not in alpha]
    if missing:
        raise ValueError(f"morphism table not total: missing {missing}")
    targets = set(dst.carrier)
    stray = [x for x in src.carrier if alpha[x] not in targets]
    if stray:
        raise ValueError(f"morphism table maps {stray} outside the target carrier")
    violations = 0
    witness = None
    for x in src.carrier:
        if dst.endomap[alpha[x]] != alpha[src.endomap[x]]:
            violations += 1
            if witness is None:
                witness = (
                    f"at {x!r}: Y(alpha({x!r}))={dst.endomap[alpha[x]]!r} "
                    f"but alpha(X({x!r}))={alpha[src.endomap[x]]!r}"
                )
    return CheckReport.exact(witness, samples=len(src.carrier), violations=violations)


def fixed_points(sys: DiscreteSystem) -> set[str]:
    """Elements with X(x) = x; these are the morphisms from the one-point system."""
    return {x for x in sys.carrier if sys.endomap[x] == x}
