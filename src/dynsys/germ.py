"""Partial maps on 1-D domains, germ equivalence at a basepoint, and maximal
solution domains on punctured lines.

The composite of partial maps is defined on dom(f) intersected with the
preimage under f of dom(g).  Preimages are computed per monotone piece of
the map: critical points are isolated from sign changes of the symbolic
derivative, and boundary crossings are resolved by bisection.  A composite
remembers its primitive factors, and preimages always walk the factors, so
domain computations are independent of how a chain was parenthesized: the
two association orders of a triple produce bitwise-identical interval sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import expr as E
from .continuous import ContinuousSystem, Trajectory, _bisect, integrate
from .core import CheckReport

_CLIP = 1e8  # infinite interval ends are explored up to here
_GRID = 513  # derivative sign samples per domain component


class NonMonotoneError(RuntimeError):
    """Root isolation could not split the map into monotone pieces."""


@dataclass(frozen=True)
class OpenSet1D:
    """Finite union of disjoint open intervals, kept normalized.

    Normalization sorts and merges strictly overlapping intervals; touching
    open intervals like (0,1) and (1,2) stay separate because the shared
    endpoint belongs to neither.
    """

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        raw = sorted(
            (float(a), float(b)) for a, b in self.intervals if float(a) < float(b)
        )
        merged: list[tuple[float, float]] = []
        for lo, hi in raw:
            if merged and lo < merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        object.__setattr__(self, "intervals", tuple(merged))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, x: float) -> bool:
        return any(lo < x < hi for lo, hi in self.intervals)

    def contains_array(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        flat = np.array([v for iv in self.intervals for v in iv])
        if flat.size == 0:
            return np.zeros(xs.shape, dtype=bool)
        left = np.searchsorted(flat, xs, side="left")
        right = np.searchsorted(flat, xs, side="right")
        return (left % 2 == 1) & (right % 2 == 1)

    def intersect(self, other: "OpenSet1D") -> "OpenSet1D":
        out = []
        for a_lo, a_hi in self.intervals:
            for b_lo, b_hi in other.intervals:
                lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
                if lo < hi:
                    out.append((lo, hi))
        return OpenSet1D(tuple(out))

    def union(self, other: "OpenSet1D") -> "OpenSet1D":
        return OpenSet1D(self.intervals + other.intervals)

    def component_containing(self, x: float) -> tuple[float, float] | None:
        for lo, hi in self.intervals:
            if lo < x < hi:
                return (lo, hi)
        return None

    def boundary_points(self) -> list[float]:
        return [v for iv in self.intervals for v in iv if math.isfinite(v)]

    def __str__(self) -> str:
        if not self.intervals:
            return "(empty)"

        def pt(v: float) -> str:
            if v == -math.inf:
                return "-inf"
            if v == math.inf:
                return "inf"
            return repr(v)

        return " ∪ ".join(f"({pt(lo)},{pt(hi)})" for lo, hi in self.intervals)


def open_set(*intervals) -> OpenSet1D:
    return OpenSet1D(tuple(intervals))


FULL_LINE = open_set((-math.inf, math.inf))


@dataclass(frozen=True)
class PartialMap:
    """A 1-D smooth map defined on an open set; ``pipeline`` holds the
    primitive factors of a composite (empty for primitive maps)."""

    domain: OpenSet1D
    map: E.Expr
    codomain: OpenSet1D = FULL_LINE
    pipeline: tuple["PartialMap", ...] = ()

    def __post_init__(self):
        if self.map.arity != 1:
            raise E.ArityError("partial maps are 1-D: expression must have arity 1")
        for lo, hi in self.domain.intervals:
            # sanity probes live in a modest window: a map may legitimately
            # escape to infinity toward an unbounded end
            blo, bhi = max(lo, -20.0), min(hi, 20.0)
            if blo >= bhi:
                continue
            width = bhi - blo
            probes = blo + width * np.linspace(0.1, 0.9, 7)
            vals = E.evaluate_many(self.map, probes)
            if np.any(np.isnan(vals)):
                raise ValueError(f"map {self.map} is undefined inside ({lo}, {hi})")
            # overflow to +-inf of a mathematically finite value is tolerated
            finite = np.isfinite(vals)
            inside = self.codomain.contains_array(vals[finite])
            if not np.all(inside):
                bad = probes[finite][~inside][0]
                raise ValueError(
                    f"map {self.map} sends {bad} to {vals[finite][~inside][0]}, "
                    f"outside the declared codomain {self.codomain}"
                )

    def factors(self) -> tuple["PartialMap", ...]:
        return self.pipeline if self.pipeline else (self,)

    def __call__(self, x: float) -> float:
        return E.evaluate(self.map, [x])


def partial_map(src: str, domain: OpenSet1D = FULL_LINE, codomain: OpenSet1D = FULL_LINE) -> PartialMap:
    return PartialMap(domain, E.parse(src, 1), codomain)


@dataclass(frozen=True)
class Germ:
    """A partial map taken up to agreement near a basepoint."""

    representative: PartialMap
    basepoint: float

    def __post_init__(self):
        if not self.representative.domain.contains(self.basepoint):
            raise ValueError(
                f"basepoint {self.basepoint} outside domain {self.representative.domain}"
            )


# --- monotone pieces and preimages ------------------------------------------


def _scalar(m: E.Expr, x: float) -> float:
    """Scalar evaluation that degrades to +-inf instead of raising."""
    try:
        return E.evaluate(m, [x])
    except E.DomainError:
        return float(E.evaluate_many(m, np.array([x]))[0])


def _limit_value(m: E.Expr, x: float, inward: float, width: float) -> float:
    """Value of the map at an interval end, nudging inward past removable
    evaluation trouble; may legitimately be +-inf at a clipped end."""
    for eps in (0.0, 1e-12, 1e-9, 1e-6):
        v = float(E.evaluate_many(m, np.array([x + inward * eps * width]))[0])
        if not math.isnan(v):
            return v
    raise NonMonotoneError(f"cannot evaluate {m} near {x}")


@lru_cache(maxsize=512)
def _monotone_pieces(pm: PartialMap) -> tuple[tuple[float, float, float, float, int], ...]:
    """Split the domain at critical points: (lo, hi, v_lo, v_hi, direction)
    per piece, direction +1 increasing, -1 decreasing, 0 constant.

    The limit values v_lo/v_hi are taken at the clipped ends, so they may
    be infinite; the piece endpoints keep the exact domain floats.
    """
    m = pm.map
    dm = E.differentiate(m, 1)
    pieces: list[tuple[float, float, float, float, int]] = []
    for lo, hi in pm.domain.intervals:
        blo, bhi = max(lo, -_CLIP), min(hi, _CLIP)
        if blo >= bhi:
            raise NonMonotoneError(f"domain component ({lo}, {hi}) lies beyond +-{_CLIP}")
        width = bhi - blo
        grid = np.linspace(blo + 1e-12 * max(1.0, abs(blo)), bhi - 1e-12 * max(1.0, abs(bhi)), _GRID)
        dvals = E.evaluate_many(dm, grid)
        valid = np.isfinite(dvals)
        if not np.any(valid):
            raise NonMonotoneError(f"derivative of {m} not evaluable on ({lo}, {hi})")
        if np.all(dvals[valid] == 0.0):
            v = _limit_value(m, 0.5 * (blo + bhi), 0.0, width)
            pieces.append((lo, hi, v, v, 0))
            continue
        crossings = []
        prev_idx, prev_sign = None, 0
        for i in np.where(valid)[0]:
            v = dvals[i]
            sign = 1 if v > 0.0 else (-1 if v < 0.0 else 0)
            if sign == 0:
                continue  # a sample exactly on a critical point is not a crossing
            if prev_sign != 0 and sign != prev_sign:
                crossings.append(_bisect(
                    lambda x: (_scalar(dm, x) > 0.0) == (sign > 0),
                    float(grid[prev_idx]), float(grid[i]),
                ))
            prev_idx, prev_sign = i, sign
        cuts = [lo] + crossings + [hi]
        for p_lo, p_hi in zip(cuts, cuts[1:]):
            c_lo, c_hi = max(p_lo, -_CLIP), min(p_hi, _CLIP)
            w = c_hi - c_lo
            v_lo = _limit_value(m, c_lo, +1.0, w)
            v_hi = _limit_value(m, c_hi, -1.0, w)
            probes = c_lo + w * np.linspace(0.02, 0.98, 65)
            vals = E.evaluate_many(m, probes)
            diffs = np.diff(vals[np.isfinite(vals)])
            if np.all(diffs >= 0.0) and v_lo <= v_hi:
                direction = 1
            elif np.all(diffs <= 0.0) and v_lo >= v_hi:
                direction = -1
            else:
                raise NonMonotoneError(
                    f"{m} is not monotone on ({p_lo}, {p_hi}); root isolation "
                    "failed to separate derivative crossings"
                )
            pieces.append((p_lo, p_hi, v_lo, v_hi, direction))
    return tuple(pieces)


def _solve_crossing(m: E.Expr, lo: float, hi: float, y: float, increasing: bool) -> float:
    """x in (lo, hi) where the monotone map crosses level y (bisection)."""
    # the predicate flips exactly once on a monotone piece
    return _bisect(
        lambda x: (_scalar(m, x) >= y) == increasing, max(lo, -_CLIP), min(hi, _CLIP)
    )


def _piece_preimage(m: E.Expr, piece, target: tuple[float, float]):
    lo, hi, v_lo, v_hi, direction = piece
    c, d = target
    if direction == 0:
        return (lo, hi) if c < v_lo < d else None
    if direction == 1:
        if v_hi <= c or v_lo >= d:
            return None
        x_lo = lo if v_lo >= c else _solve_crossing(m, lo, hi, c, increasing=True)
        x_hi = hi if v_hi <= d else _solve_crossing(m, lo, hi, d, increasing=True)
    else:
        if v_lo <= c or v_hi >= d:
            return None
        x_lo = lo if v_lo <= d else _solve_crossing(m, lo, hi, d, increasing=False)
        x_hi = hi if v_hi >= c else _solve_crossing(m, lo, hi, c, increasing=False)
    return (x_lo, x_hi) if x_lo < x_hi else None


def _preimage_primitive(pm: PartialMap, target: OpenSet1D) -> OpenSet1D:
    out = []
    for piece in _monotone_pieces(pm):
        for iv in target.intervals:
            got = _piece_preimage(pm.map, piece, iv)
            if got is not None:
                out.append(got)
    return OpenSet1D(tuple(out))


def preimage(pm: PartialMap, target: OpenSet1D) -> OpenSet1D:
    """The set of x in dom(pm) with pm(x) in target, walking composite
    factors right to left so association order cannot matter."""
    result = target
    for factor in reversed(pm.factors()):
        result = _preimage_primitive(factor, result)
    return result


def compose_partial(f: PartialMap, g: PartialMap) -> PartialMap:
    """The composite g after f with dom = dom(f) n f^{-1}(dom(g))."""
    new_domain = f.domain.intersect(preimage(f, g.domain))
    composite = E.substitute(g.map, [f.map])
    return PartialMap(
        domain=new_domain,
        map=composite,
        codomain=g.codomain,
        pipeline=f.factors() + g.factors(),
    )


# --- germ equality ------------------------------------------------------------


def germ_equal(a: Germ, b: Germ, samples: int = 257, tol: float = 1e-12) -> CheckReport:
    """Do the representatives agree near the (shared) basepoint?

    Values are compared on the connected component of the basepoint inside
    the intersection of the two domains; germs at different basepoints are
    never equal.
    """
    if a.basepoint != b.basepoint:
        return CheckReport.exact(
            f"no common basepoint: {a.basepoint} vs {b.basepoint}", 0, violations=1
        )
    inter = a.representative.domain.intersect(b.representative.domain)
    comp = inter.component_containing(a.basepoint)
    if comp is None:
        raise ValueError("the domains do not intersect around the basepoint")
    lo = max(comp[0], a.basepoint - 1e3)
    hi = min(comp[1], a.basepoint + 1e3)
    width = hi - lo
    xs = np.linspace(lo + 1e-9 * width, hi - 1e-9 * width, samples)
    va = E.evaluate_many(a.representative.map, xs)
    vb = E.evaluate_many(b.representative.map, xs)
    residual = float(np.max(np.abs(va - vb)))
    return CheckReport.numerical(
        residual, tol, samples,
        witness=f"max value gap {residual:.6g} on ({lo}, {hi})",
    )


# --- maximal solution domains on (punctured) lines -----------------------------


@dataclass(frozen=True)
class SolutionDomain:
    """Reported open interval of definition with both trajectory halves."""

    interval: OpenSet1D
    backward: Trajectory
    forward: Trajectory


def maximal_solution_domain(
    sys: ContinuousSystem,
    t0: float,
    horizon: float = 10.0,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> SolutionDomain:
    """Integrate both ways from t0 until domain exit, blow-up or the horizon;
    the open time interval actually covered is the reported domain."""
    if sys.dimension != 1:
        raise E.ArityError("maximal solution domains are computed for 1-D systems")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    forward = integrate(sys, [t0], horizon, rtol=rtol, atol=atol)
    backward = integrate(sys, [t0], -horizon, rtol=rtol, atol=atol)
    interval = open_set((backward.t_lo, forward.t_hi))
    return SolutionDomain(interval=interval, backward=backward, forward=forward)
