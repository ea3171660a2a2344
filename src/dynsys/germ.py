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
from functools import cached_property, lru_cache

import numpy as np

from . import expr as E
from .calculus import differentiate, evaluate_many, substitute
from .category import CheckReport
from .continuous import ContinuousSystem, Trajectory, integrate
from .core import NonMonotoneError, Value, _setfield

_CLIP = 1e8  # infinite interval ends are explored up to here
_GRID = 513  # derivative sign samples per domain component
_RAMP = np.arange(float(_GRID))  # 0, 1, ..., _GRID - 1
_SANITY = np.linspace(0.1, 0.9, 7)  # where a partial map is probed, as fractions of a window
_MONOTONE = np.linspace(0.02, 0.98, 65)  # where a piece is probed, as fractions of its width


class OpenSet1D(Value):
    """Finite union of disjoint open intervals, kept normalized.

    Normalization drops empty intervals, sorts, and merges strictly
    overlapping ones; touching open intervals like (0,1) and (1,2) stay
    separate because the shared endpoint belongs to neither.  An interval
    with a nan end raises ``ValueError``.
    """

    __match_args__ = ("intervals",)

    def __init__(self, intervals: tuple[tuple[float, float], ...]):
        raw = []
        for a, b in intervals:
            lo, hi = float(a), float(b)
            if lo < hi:
                raw.append((lo, hi))
            elif lo != lo or hi != hi:
                raise ValueError(f"interval ({lo}, {hi}) has a nan end")
        raw.sort()
        merged: list[tuple[float, float]] = []
        for lo, hi in raw:
            if merged and lo < merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        _setfield(self, "intervals", tuple(merged))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, x: float) -> bool:
        return any(lo < x < hi for lo, hi in self.intervals)

    @cached_property
    def _ends(self) -> np.ndarray:
        """The interval ends in order, built once for :meth:`contains_array`."""
        return np.array([v for iv in self.intervals for v in iv])

    def contains_array(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        flat = self._ends
        if flat.size == 0:
            return np.zeros(xs.shape, dtype=bool)
        left = np.searchsorted(flat, xs, side="left")
        right = np.searchsorted(flat, xs, side="right")
        # inside an interval, and not on an endpoint (two intervals may share one)
        return (left % 2 == 1) & (left == right)

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


class PartialMap(Value):
    """A 1-D smooth map defined on an open set; ``pipeline`` holds the
    primitive factors of a composite (empty for primitive maps)."""

    __match_args__ = ("domain", "map", "codomain", "pipeline")

    def __init__(self, domain: OpenSet1D, map: E.Expr, codomain: OpenSet1D = FULL_LINE,
                 pipeline: tuple["PartialMap", ...] = ()):
        _setfield(self, "domain", domain)
        _setfield(self, "map", map)
        _setfield(self, "codomain", codomain)
        _setfield(self, "pipeline", pipeline)
        if self.map.arity != 1:
            raise E.ArityError("partial maps are 1-D: expression must have arity 1")
        # sanity probes live in a modest window: a map may legitimately
        # escape to infinity toward an unbounded end
        windows = [(lo, hi, max(lo, -20.0), min(hi, 20.0)) for lo, hi in self.domain.intervals]
        windows = [w for w in windows if w[2] < w[3]]
        if not windows:
            return
        grid = np.array([blo + (bhi - blo) * _SANITY for _, _, blo, bhi in windows])
        values = evaluate_many(self.map, grid.ravel()).reshape(grid.shape)
        # one test of every probe: inside the codomain, or overflowed to
        # +-inf (tolerated for a mathematically finite value), so not nan
        good = self.codomain.contains_array(values) | np.isinf(values)
        if good.all():
            return
        # name the first failure in domain order: a nan, else the first probe
        # sent outside the codomain
        for (lo, hi, _, _), probes, vals, ok in zip(windows, grid, values, good):
            if np.isnan(vals).any():
                raise ValueError(f"map {self.map} is undefined inside ({lo}, {hi})")
            if not ok.all():
                raise ValueError(
                    f"map {self.map} sends {probes[~ok][0]} to {vals[~ok][0]}, "
                    f"outside the declared codomain {self.codomain}"
                )

    def factors(self) -> tuple["PartialMap", ...]:
        return self.pipeline if self.pipeline else (self,)

    def __call__(self, x: float) -> float:
        return E.evaluate(self.map, [x])


def partial_map(src: str, domain: OpenSet1D = FULL_LINE, codomain: OpenSet1D = FULL_LINE) -> PartialMap:
    return PartialMap(domain, E.parse(src, 1), codomain)


class Germ(Value):
    """A partial map taken up to agreement near a basepoint."""

    __match_args__ = ("representative", "basepoint")

    def __init__(self, representative: PartialMap, basepoint: float):
        _setfield(self, "representative", representative)
        _setfield(self, "basepoint", basepoint)
        if not self.representative.domain.contains(self.basepoint):
            raise ValueError(
                f"basepoint {self.basepoint} outside domain {self.representative.domain}"
            )


# --- monotone pieces and preimages ------------------------------------------


def _walk_value(m: E.Expr, x: float) -> float:
    """The numpy walk's value at one point, which masks a domain exit as
    nan or +-inf where the compiled function raises DomainError."""
    return float(evaluate_many(m, np.array([x]))[0])


def _limit_value(m: E.Expr, x: float, inward: float, width: float) -> float:
    """Value of the map at an interval end, nudging inward past removable
    evaluation trouble; may legitimately be +-inf at a clipped end."""
    for eps in (0.0, 1e-12, 1e-9, 1e-6):
        v = _walk_value(m, x + inward * eps * width)
        if not math.isnan(v):
            return v
    raise NonMonotoneError(f"cannot evaluate {m} near {x}")


def _sign_brackets(dvals: np.ndarray) -> list[tuple[int, int, bool]]:
    """Where the sampled derivative changes sign: ``(i, j, rising)`` for each
    two consecutive finite nonzero samples i < j of opposite signs, rising
    if the one at j is positive.  A sample exactly 0 is not a crossing."""
    idx = np.flatnonzero(np.isfinite(dvals) & (dvals != 0.0))
    positive = dvals[idx] > 0.0
    flips = np.flatnonzero(positive[1:] != positive[:-1])
    return list(zip(idx[flips].tolist(), idx[flips + 1].tolist(), positive[flips + 1].tolist()))


def _linspace_rows(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """``np.linspace(start, stop, _GRID)`` per row, built by np.linspace's own
    formula (ramp times step, plus start, the last column set to stop)
    without its per-call overhead."""
    grid = _RAMP * ((stops - starts) / (_GRID - 1))[:, None]
    grid += starts[:, None]
    grid[:, -1] = stops
    return grid


def _directions(values: np.ndarray) -> list[tuple[bool, bool]]:
    """Per row: are its finite values nondecreasing, and nonincreasing?  Each
    finite value is compared with the running max (min) of the finite values
    up to it, a non-finite one counting as -inf (+inf); no difference is
    taken, so nothing overflows."""
    finite = np.isfinite(values)
    up = (values >= np.maximum.accumulate(np.where(finite, values, -np.inf), axis=1)) | ~finite
    down = (values <= np.minimum.accumulate(np.where(finite, values, np.inf), axis=1)) | ~finite
    return list(zip(up.all(axis=1).tolist(), down.all(axis=1).tolist()))


@lru_cache(maxsize=512)
def _monotone_pieces(pm: PartialMap) -> tuple[tuple[float, float, float, float, int], ...]:
    """Split the domain at critical points: (lo, hi, v_lo, v_hi, direction)
    per piece, direction +1 increasing, -1 decreasing, 0 constant.

    The limit values v_lo/v_hi are taken at the clipped ends, so they may
    be infinite; the piece endpoints keep the exact domain floats.  All
    domain components share one derivative grid and one evaluation of
    piece ends and probes; each component's outcome, its pieces or the
    error it raises, is kept, and the first error in domain order raised.
    """
    m = pm.map
    dm = differentiate(m, 1)
    comps, beyond = [], []  # (lo, hi, blo, bhi) per component before any beyond the clip
    for lo, hi in pm.domain.intervals:
        blo, bhi = max(lo, -_CLIP), min(hi, _CLIP)
        if blo >= bhi:  # raised in its turn; no later component is looked at
            beyond.append(NonMonotoneError(f"domain component ({lo}, {hi}) lies beyond +-{_CLIP}"))
            break
        comps.append((lo, hi, blo, bhi))
    outcomes: list[list | NonMonotoneError] = []
    spans = []  # (component, p_lo, p_hi, c_lo, c_hi) per candidate piece
    if comps:
        grid = _linspace_rows(
            np.array([blo + 1e-12 * max(1.0, abs(blo)) for _, _, blo, _ in comps]),
            np.array([bhi - 1e-12 * max(1.0, abs(bhi)) for _, _, _, bhi in comps]))
        dvals = evaluate_many(dm, grid.ravel()).reshape(grid.shape)
        valid = np.isfinite(dvals)
        evaluable = valid.any(axis=1).tolist()
        flat = ((dvals == 0.0) | ~valid).all(axis=1).tolist()
        # one scan of all rows; a bracket from one row into the next is no crossing
        xs, crossings = grid.ravel(), [[] for _ in comps]
        for i, j, rising in _sign_brackets(dvals.ravel()):
            if i // _GRID == j // _GRID:
                # where dm turns positive (negative): for every float v, nan
                # included, v >= 5e-324 exactly when v > 0.0
                crossings[i // _GRID].append(_solve_crossing(
                    dm, float(xs[i]), float(xs[j]), math.ulp(0.0), rising))
    for c, (lo, hi, blo, bhi) in enumerate(comps):
        if not evaluable[c]:
            outcomes.append(NonMonotoneError(f"derivative of {m} not evaluable on ({lo}, {hi})"))
        elif flat[c]:
            mid = 0.5 * (blo + bhi)
            v = _walk_value(m, mid)
            outcomes.append(NonMonotoneError(f"cannot evaluate {m} near {mid}") if math.isnan(v)
                            else [(lo, hi, v, v, 0)])
        else:
            cuts = [lo] + crossings[c] + [hi]
            spans += [(c, p_lo, p_hi, max(p_lo, -_CLIP), min(p_hi, _CLIP))
                      for p_lo, p_hi in zip(cuts, cuts[1:])]
            outcomes.append([])
    if spans:
        los, his = np.array([span[3:] for span in spans]).T
        widths = his - los
        # one row per piece: the two ends as _limit_value tries them first,
        # x + inward*0.0*w (so a -0.0 lower end reads +0.0), then the probes
        rows = np.empty((len(spans), 2 + _MONOTONE.size))
        rows[:, 0] = los + 0.0 * widths
        rows[:, 1] = his - 0.0 * widths
        rows[:, 2:] = los[:, None] + widths[:, None] * _MONOTONE
        values = evaluate_many(m, rows.ravel()).reshape(rows.shape)
        for (c, p_lo, p_hi, c_lo, c_hi), (v_lo, v_hi), (up, down) in zip(
                spans, values[:, :2].tolist(), _directions(values[:, 2:])):
            pieces = outcomes[c]
            if not isinstance(pieces, list):
                continue  # an earlier piece of this component failed
            w = c_hi - c_lo
            try:
                v_lo = v_lo if not math.isnan(v_lo) else _limit_value(m, c_lo, +1.0, w)
                v_hi = v_hi if not math.isnan(v_hi) else _limit_value(m, c_hi, -1.0, w)
            except NonMonotoneError as exc:
                outcomes[c] = exc
                continue
            if up and v_lo <= v_hi:
                pieces.append((p_lo, p_hi, v_lo, v_hi, 1))
            elif down and v_lo >= v_hi:
                pieces.append((p_lo, p_hi, v_lo, v_hi, -1))
            else:
                outcomes[c] = NonMonotoneError(
                    f"{m} is not monotone on ({p_lo}, {p_hi}); root isolation "
                    "failed to separate derivative crossings"
                )
    pieces = []
    for outcome in outcomes + beyond:
        if not isinstance(outcome, list):
            raise outcome
        pieces += outcome
    return tuple(pieces)


def _solve_crossing(m: E.Expr, lo: float, hi: float, y: float, increasing: bool) -> float:
    """x in (lo, hi) where ``(m(x) >= y) == increasing`` flips: the bisection
    of ``continuous._bisect``, compiled around the map.  On a monotone piece
    it flips once, where the map crosses level y; across a sign bracket of a
    derivative (y = 5e-324), where the derivative turns positive."""
    return m._crossing(max(lo, -_CLIP), min(hi, _CLIP), y, increasing,
                       lambda x: _walk_value(m, x))


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
    composite = substitute(g.map, [f.map])
    return PartialMap(
        domain=new_domain,
        map=composite,
        codomain=g.codomain,
        pipeline=f.factors() + g.factors(),
    )


# --- germ equality ------------------------------------------------------------


_EQUAL_SAMPLES = 257  # points at which germ_equal compares the representatives


def germ_equal(a: Germ, b: Germ, tol: float = 1e-12) -> CheckReport:
    """Do the representatives agree near the (shared) basepoint?

    Values are compared on the connected component of the basepoint inside
    the intersection of the two domains; germs at different basepoints are
    never equal.
    """
    if a.basepoint != b.basepoint:
        return CheckReport(False, 1.0, 0, f"no common basepoint: {a.basepoint} vs {b.basepoint}")
    inter = a.representative.domain.intersect(b.representative.domain)
    comp = inter.component_containing(a.basepoint)
    if comp is None:
        raise ValueError("the domains do not intersect around the basepoint")
    lo = max(comp[0], a.basepoint - 1e3)
    hi = min(comp[1], a.basepoint + 1e3)
    width = hi - lo
    xs = np.linspace(lo + 1e-9 * width, hi - 1e-9 * width, _EQUAL_SAMPLES)
    va = evaluate_many(a.representative.map, xs)
    vb = evaluate_many(b.representative.map, xs)
    return CheckReport.worst(
        zip(np.abs(va - vb).tolist(), xs.tolist()), tol,
        witness=lambda residual, x: f"max value gap {residual:.6g} on ({lo}, {hi})",
    )


# --- maximal solution domains on (punctured) lines -----------------------------


class SolutionDomain(Value):
    """Reported open interval of definition with both trajectory halves."""

    __match_args__ = ("interval", "backward", "forward")

    def __init__(self, interval: OpenSet1D, backward: Trajectory, forward: Trajectory):
        _setfield(self, "interval", interval)
        _setfield(self, "backward", backward)
        _setfield(self, "forward", forward)


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
