"""Continuous-time systems: ODEs on open boxes of R^n, possibly minus
finitely many points.

The integrator is an explicit embedded Runge-Kutta 5(4) pair (Dormand-
Prince coefficients): the 5th-order solution is propagated and the
difference to the embedded 4th-order one drives the step size.  Dense
output between accepted steps is cubic Hermite.  Integration stops early
when the state escapes past a norm threshold (blow-up) or leaves the
declared open domain: the dense output crosses the box boundary, or hits a
puncture (see PUNCTURE_TOL); the exit time is located by bisection.
The integrator and the checks built on it work on plain lists of floats
and load no numpy; only the array views of a trajectory
(``Trajectory.times``/``states``/``derivs``/``sample``) and
``SmoothMap.jacobian_at`` return numpy arrays.

The checks (sample sets, f-relatedness and solution preservation,
equilibria and periodic orbits, the solution-morphism report) live in
:mod:`dynsys.ode_checks`, so a ``dynsys solve`` compiles only the
integrator.
"""

from __future__ import annotations

import bisect
import math
import sys as _sys  # ``sys`` names a system in this module
from functools import cache, cached_property
from typing import TYPE_CHECKING, Sequence

from . import expr as E
from .core import (
    Record, StepLimitError, StepSizeUnderflowError, Value, _dot, _forwarding, _setfield,
)

if TYPE_CHECKING:
    import numpy as np

TERM_SPAN = "reached-span"
TERM_BLOWUP = "blow-up"
TERM_LEFT_DOMAIN = "left-domain"

#: states whose norm exceeds this are reported as blown up
DEFAULT_ESCAPE = 1e8
#: domain-exit crossings are bisected to this width in t (or to float resolution)
EXIT_BISECT_TOL = 1e-9


class EarlyTerminationError(RuntimeError):
    """A trajectory ended (blow-up or domain exit) before the requested span."""


class Domain(Value):
    """Open box in R^n minus finitely many punctured points."""

    __match_args__ = ("bounds", "punctures")

    def __init__(self, bounds: Sequence[tuple[float, float]],
                 punctures: Sequence[Sequence[float]] = ()):
        _setfield(self, "bounds", tuple((float(a), float(b)) for a, b in bounds))
        _setfield(self, "punctures", tuple(tuple(float(v) for v in p) for p in punctures))
        for lo, hi in self.bounds:
            if not lo < hi:
                raise ValueError(f"empty interval ({lo}, {hi})")
        for p in self.punctures:
            if len(p) != len(self.bounds):
                raise ValueError(f"puncture {p} has wrong dimension")
            if not all(map(math.isfinite, p)):
                raise ValueError(f"puncture {p} has a non-finite coordinate")

    @property
    def dimension(self) -> int:
        return len(self.bounds)

    def contains(self, point) -> bool:
        pt = tuple(float(v) for v in point)
        if len(pt) != self.dimension:
            return False
        for v, (lo, hi) in zip(pt, self.bounds):
            if not lo < v < hi:
                return False
        return pt not in self.punctures


def full_space(n: int) -> Domain:
    return Domain(tuple((-math.inf, math.inf) for _ in range(n)))


class ContinuousSystem(Value):
    __match_args__ = ("domain", "field")

    def __init__(self, domain: Domain, field: E.VectorExpr):
        _setfield(self, "domain", domain)
        _setfield(self, "field", field)
        if self.field.arity != self.domain.dimension:
            raise E.ArityError(f"field arity {self.field.arity} != dimension {self.domain.dimension}")
        if self.field.size != self.domain.dimension:
            raise E.ArityError(f"field has {self.field.size} components for dimension "
                               f"{self.domain.dimension}")

    @property
    def dimension(self) -> int:
        return self.domain.dimension


def time_system() -> ContinuousSystem:
    """(R, dx/dt = 1): the flow of time itself."""
    return ContinuousSystem(full_space(1), E.parse_vector(["1"], 1))


class SmoothMap(Value):
    """A map R^n -> R^m given componentwise by expressions."""

    __match_args__ = ("components",)

    def __init__(self, components: E.VectorExpr):
        _setfield(self, "components", components)

    @property
    def source_dim(self) -> int:
        return self.components.arity

    @property
    def target_dim(self) -> int:
        return self.components.size

    def __call__(self, point, t: float = 0.0) -> list[float]:
        return E.evaluate_vector(self.components, point, t)

    @cached_property
    def _jacobian(self) -> E.VectorExpr:
        """The symbolic partials, row-major in one vector expression so that
        all entries compile to one function and share subexpressions."""
        return E.VectorExpr(tuple(entry for row in E.jacobian(self.components) for entry in row))

    def jacobian_at(self, point, t: float = 0.0) -> np.ndarray:
        """The Jacobian matrix at a point, from symbolic partials built once per map."""
        import numpy as np

        values = E.evaluate_vector(self._jacobian, point, t)
        return np.array(values).reshape(self.target_dim, self.source_dim)


def smooth_map(sources: Sequence[str], arity: int) -> SmoothMap:
    return SmoothMap(E.parse_vector(sources, arity))


def identity_smooth_map(n: int) -> SmoothMap:
    from .calculus import identity_map

    return SmoothMap(identity_map(n))


def compose_smooth_maps(outer: SmoothMap, inner: SmoothMap) -> SmoothMap:
    from .calculus import compose

    return SmoothMap(compose(outer.components, inner.components))


# --- trajectories -----------------------------------------------------------


class IntegrationStats(Record):
    """What one :func:`integrate` call did; telemetry, written to no file."""

    __match_args__ = ("nfev", "accepted", "rejected", "domain_retries", "event_bisections")

    def __init__(self, nfev: int = 0, accepted: int = 0, rejected: int = 0,
                 domain_retries: int = 0, event_bisections: int = 0):
        self.nfev = nfev  # right-hand-side evaluations started
        self.accepted = accepted  # steps that passed the error test
        self.rejected = rejected  # steps refused by the error test
        self.domain_retries = domain_retries  # steps shrunk: a stage left the field's domain
        self.event_bisections = event_bisections  # halvings locating domain exits in steps


class Trajectory:
    """Sampled solution curve with its domain-of-definition metadata.

    ``times`` is strictly increasing regardless of integration direction;
    ``termination`` explains why integration stopped at the far end (t_hi
    when integrating forward, t_lo backward).  The knots are kept as given
    (the integrator passes plain lists); ``times``, ``states`` and
    ``derivs`` are numpy arrays built on first access.
    """

    def __init__(self, times, states, derivs, t_lo: float, t_hi: float,
                 termination: str, stats: IntegrationStats | None = None):
        self._times, self._states, self._derivs = times, states, derivs
        self.t_lo = t_lo
        self.t_hi = t_hi
        self.termination = termination
        self.stats = IntegrationStats() if stats is None else stats

    @cached_property
    def times(self) -> np.ndarray:
        return _array(self._times)

    @cached_property
    def states(self) -> np.ndarray:
        return _array(self._states)

    @cached_property
    def derivs(self) -> np.ndarray:
        return _array(self._derivs)

    def sample(self, t: float) -> np.ndarray:
        """Dense output: cubic Hermite on the accepted step containing t."""
        import numpy as np

        return np.array(self._sample(t))

    def _sample(self, t: float) -> list[float]:
        """:meth:`sample` as a list of floats; the checks use this one."""
        ts = self._times
        if not ts[0] <= t <= ts[-1]:
            raise ValueError(f"t={t} outside recorded span [{ts[0]}, {ts[-1]}]")
        i = bisect.bisect_right(ts, t) - 1
        i = min(max(i, 0), len(ts) - 2)
        return _hermite(
            t, ts[i], ts[i + 1], self._states[i], self._states[i + 1],
            self._derivs[i], self._derivs[i + 1],
        )

    def to_csv(self, path=None) -> None:
        """Write ``t,x1,...,xn`` rows at full precision to ``path``, or to
        the current standard output when ``path`` is None, in one write."""
        n = len(self._states[0])
        row = ",".join(["%.17g"] * (n + 1))
        header = "t," + ",".join(f"x{i}" for i in range(1, n + 1))
        # the list of lines lives only until it is joined, so it is freed
        # before the text is written
        text = "\n".join([header, *(row % (t, *x) for t, x in zip(self._times, self._states)), ""])
        if path is None:
            _sys.stdout.write(text)
        else:
            with open(path, "w") as fh:
                fh.write(text)


def _array(knots) -> np.ndarray:
    import numpy as np

    return np.array(knots, dtype=float)


def _hermite(t, t0, t1, y0, y1, f0, f1) -> list[float]:
    h = t1 - t0
    s = (t - t0) / h
    h00 = 2 * s**3 - 3 * s**2 + 1
    h10 = h * (s**3 - 2 * s**2 + s)
    h01 = -2 * s**3 + 3 * s**2
    h11 = h * (s**3 - s**2)
    return [h00 * a + h10 * da + h01 * b + h11 * db for a, b, da, db in zip(y0, y1, f0, f1)]


def _hermite_deriv(t, t0, t1, y0, y1, f0, f1) -> list[float]:
    h = t1 - t0
    s = (t - t0) / h
    d00 = (6 * s**2 - 6 * s) / h
    d10 = 3 * s**2 - 4 * s + 1
    d01 = (-6 * s**2 + 6 * s) / h
    d11 = 3 * s**2 - 2 * s
    return [d00 * a + d10 * da + d01 * b + d11 * db for a, b, da, db in zip(y0, y1, f0, f1)]


# --- Dormand-Prince 5(4) ----------------------------------------------------
#
# The step works on floats, one straight-line function per state dimension
# (_dp_step), emitted on the first integration in that dimension and calling
# the compiled field once per stage.  Every stage combination is a sum taken
# left to right over the nonzero coefficients, so a step gives the same bits
# on every IEEE-754 machine, and negating coordinates that the field maps
# equivariantly negates the computed trajectory exactly.

_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9)  # nodes of stages 2..5; stages 6 and 7 sit at t + h
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
# weights of k1, k3, k4, k5, k6 (k2 has weight zero in both solutions)
_DP_B = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
# the embedded 4th-order weights of k1, k3, ..., k7
_DP_B4 = (5179 / 57600, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
# error weights: 5th minus 4th order, of k1, k3, ..., k7
_DP_E = tuple(b - b4 for b, b4 in zip(_DP_B + (0.0,), _DP_B4))

#: in 2-D and up, a step's dense segment that comes within this euclidean
#: distance of a puncture hits it, and the solution leaves the domain at the
#: closest approach.  A computed path misses a point by about its integration
#: error, so an exact test would never fire; this tolerance sits well above
#: that error at the default tolerances and well below any deliberate miss.
#: In 1-D a path hits a puncture only by reaching it (crossing it or landing
#: on it), so a solution that merely creeps up on one is never stopped.
PUNCTURE_TOL = 1e-6
_APPROACH_GRID = 16  # samples per step that bracket the closest approaches
#: after this many trial steps that left the field's domain while no accepted
#: step moved the state, the run is stalled at the edge of the field's domain
#: (each accepted step is too short to change a coordinate, each longer one
#: leaves the domain) and raises StepSizeUnderflowError
STALL_RETRIES = 50


def _rms(values) -> float:
    return math.sqrt(_dot(values, values) / len(values))


@cache
def _dp_step(n: int):
    """The trial step for n coordinates: ``step(field, y, k1, t, h, rtol, atol,
    bounds)`` returns ``(y_new, k7, error norm, |y_new|, y_new in the box)``,
    or the number of field calls started when a stage leaves the field's domain."""
    def each(code, sep=", "):  # ``code`` once per coordinate, "#" standing for its index
        return sep.join(code.replace("#", str(i)) for i in range(n))

    def comb(coefs, ks):  # the sum of coef * k, left to right
        return " + ".join(f"{c!r} * k{k}_#" for c, k in zip(coefs, ks))

    lines = [f"{each('y_#')}, = y", f"{each('k1_#')}, = k1", "try:"]
    for s, (a, at) in enumerate(zip(_DP_A, [f"t + {c!r} * h" for c in _DP_C] + ["t + h"]), 1):
        stage = each(f"y_# + h * ({comb(a, range(1, s + 1))})")
        lines += [f"    s = {s}", f"    {each(f'k{s + 1}_#')}, = field([{stage}], {at})"]
    lines += [f"    y_new = [{each(f'y_# + h * ({comb(_DP_B, (1, 3, 4, 5, 6))})')}]",
              "    s = 6", "    k7 = field(y_new, t + h)", "except DomainError:", "    return s",
              f"{each('n_#')}, = y_new", f"{each('k7_#')}, = k7", f"{each('(lo_#, hi_#)')}, = bounds",
              # scaled by max(|y|, |y_new|), and squared and summed as in _rms
              each(f"a = abs(y_#); b = abs(n_#); q_# = h * ({comb(_DP_E, (1, 3, 4, 5, 6, 7))})"
                   " / (atol + rtol * (b if b > a else a))", "\n    "),
              f"return y_new, k7, sqrt(({each('q_# * q_#', ' + ')}) / {n}), "
              f"sqrt({each('n_# * n_#', ' + ')}), {each('lo_# < n_# < hi_#', ' and ')}"]
    src = "def step(field, y, k1, t, h, rtol, atol, bounds):\n" + "".join(f"    {x}\n" for x in lines)
    namespace = {"DomainError": E.DomainError, "sqrt": math.sqrt}
    exec(compile(src, "<dynsys.continuous>", "exec"), namespace)
    return namespace["step"]


def _initial_step(field, t0, y0, f0, direction, rtol, atol, limit):
    scale = [atol + rtol * abs(v) for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, limit)
    try:
        y1 = [v + h0 * direction * f for v, f in zip(y0, f0)]
        f1 = field(y1, t0 + h0 * direction)
        d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    except (E.DomainError, ZeroDivisionError):  # h0 is 0 when d1 overflowed
        d2 = d1
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h = min(100 * h0, h1, limit)  # 0 or nan if a scaled norm overflowed: then start
    return h if h > 0.0 else min(1e-6, limit)  # small, and let the error test shrink it


def _bisect(flipped, good: float, bad: float, tol: float = 0.0) -> float:
    """Narrow a bracket on which ``flipped`` is false at ``good`` and true at
    ``bad`` (either may be the larger end); returns the final ``bad``.

    Halving stops at the first of: the bracket is no wider than ``tol``; the
    midpoint rounds onto an end (float resolution); 200 halvings.
    """
    for _ in range(200):
        if abs(bad - good) <= tol:
            break
        mid = 0.5 * (good + bad)
        if mid == good or mid == bad:
            break
        if flipped(mid):
            bad = mid
        else:
            good = mid
    return bad


def integrate(
    sys: ContinuousSystem,
    x0,
    span: float,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    escape_threshold: float = DEFAULT_ESCAPE,
    max_step: float = math.inf,
    max_steps: int = 500_000,
) -> Trajectory:
    """Integrate from x0 over [0, span] (or [span, 0] when span < 0).

    Local error per step is held to about atol + rtol*|x|; atol must be
    positive, as a coordinate may be 0; a step whose error norm or new
    state is not finite is rejected; ``max_step`` must be positive (inf:
    no bound).  Stops early with termination
    "blow-up" once |x| exceeds ``escape_threshold`` (positive; inf never
    stops) and with "left-domain" when the state exits the open box (the
    crossing is bisected to EXIT_BISECT_TOL) or hits a puncture (at the
    closest approach; see PUNCTURE_TOL); the exit becomes the final knot.
    Raises :class:`StepLimitError` after ``max_steps`` steps, and
    :class:`StepSizeUnderflowError` when the step size underflows or the
    state stalls at the edge of the field's domain (STALL_RETRIES).
    """
    n = sys.dimension
    try:
        y = [float(v) for v in x0]
    except TypeError:
        raise E.ArityError(f"x0 must be a sequence of {n} coordinates") from None
    if len(y) != n:
        raise E.ArityError(f"x0 has {len(y)} coordinates, expected {n}")
    if not sys.domain.contains(y):
        raise ValueError(f"x0 {tuple(y)} outside the domain")
    T = float(span)
    if T == 0.0 or not math.isfinite(T):
        raise ValueError("span must be a nonzero finite time")
    if not (0.0 <= rtol < math.inf and 0.0 < atol < math.inf):
        raise ValueError("tolerances must be finite, with rtol >= 0 and atol > 0")
    if not escape_threshold > 0.0:
        raise ValueError("escape threshold must be positive")
    if not max_step > 0.0:
        raise ValueError("max_step must be positive")
    direction = 1.0 if T > 0 else -1.0

    field = sys.field._compiled  # the whole field in one compiled call
    step = _dp_step(n)
    bounds, punctures = sys.domain.bounds, sys.domain.punctures

    t = 0.0
    k1 = field(y, t)
    ts, ys, fs = [t], [y], [k1]
    termination = TERM_SPAN
    stats = IntegrationStats()

    h = direction * _initial_step(field, t, y, k1, direction, rtol, atol, min(abs(T), max_step))
    nfev, accepted, rejected, retries = 2, 0, 0, 0
    stalled = 0  # domain retries since an accepted step last moved the state
    overflowed = False  # the last step shrank because its values were not finite
    while direction * (T - t) > 1e-14 * max(1.0, abs(T)):
        if accepted + rejected + retries >= max_steps:
            raise StepLimitError(f"exceeded {max_steps} steps at t={t}")
        h = direction * min(abs(h), max_step, abs(T - t))
        if abs(h) < 1e-14 * max(1.0, abs(t)):
            cause = "trial steps overflowed" if overflowed else "stiffness failure"
            raise StepSizeUnderflowError(f"step size underflow at t={t} ({cause})")

        out = step(field, y, k1, t, h, rtol, atol, bounds)
        if out.__class__ is int:  # a stage left the field's domain
            nfev += out
            retries += 1
            stalled += 1
            overflowed = False
            if stalled > STALL_RETRIES:
                raise StepSizeUnderflowError(
                    f"step stalled at t={t}: every step from {tuple(y)} either leaves "
                    f"the state unchanged or leaves the field's domain")
            h *= 0.3
            continue
        nfev += 6
        y_new, k7, err_norm, norm, inside = out
        if not (inside or all(map(math.isfinite, y_new))):
            err_norm = math.nan  # a state past the float range fails the error test
        if not err_norm <= 1.0:  # a nan norm (overflowing stages) fails too, and shrinks by 0.2
            rejected += 1
            overflowed = not err_norm < math.inf
            h *= min(max(0.2, 0.9 * err_norm ** -0.2), 1.0)
            continue

        accepted += 1
        if y_new != y:
            stalled = 0
        t_new = t + h
        crossing = None if inside and not punctures else \
            _first_exit(sys.domain, not inside, t, t_new, y, y_new, k1, k7, stats)
        if crossing is not None:
            t_x, y_x = crossing
            ts.append(t_x)
            ys.append(y_x)
            fs.append(_hermite_deriv(t_x, t, t_new, y, y_new, k1, k7))
            termination = TERM_LEFT_DOMAIN
            break

        ts.append(t_new)
        ys.append(y_new)
        fs.append(k7)
        if norm > escape_threshold:
            termination = TERM_BLOWUP
            break
        t, y, k1 = t_new, y_new, k7
        h *= 10.0 if err_norm == 0.0 else min(max(0.9 * err_norm ** -0.2, 0.2), 10.0)

    if direction < 0:  # backward runs are stored time-ascending
        ts.reverse()
        ys.reverse()
        fs.reverse()
    stats.nfev, stats.accepted, stats.rejected, stats.domain_retries = nfev, accepted, rejected, retries
    return Trajectory(ts, ys, fs, t_lo=ts[0], t_hi=ts[-1], termination=termination, stats=stats)


def _hull_near(q, y0, y1, f0, f1, h) -> bool:
    """False when the step's segment cannot come within PUNCTURE_TOL of q.

    A cubic Hermite segment lies in the convex hull of its Bezier control
    points y0, y0 + h*f0/3, y1 - h*f1/3, y1, so in their bounding box.
    """
    third = h / 3.0
    for c, a, b, da, db in zip(q, y0, y1, f0, f1):
        p1, p2 = a + third * da, b - third * db
        if c < min(a, p1, p2, b) - PUNCTURE_TOL or c > max(a, p1, p2, b) + PUNCTURE_TOL:
            return False
    return True


def _first_exit(domain, leaves_box, t0, t1, y0, y1, f0, f1, stats):
    """Earliest domain-exit event inside an accepted step, if any: the box
    boundary crossing (when y1 is outside the box), or the closest approach
    that hits a puncture (see PUNCTURE_TOL).  Counts each bisection halving
    in ``stats``."""
    near = [q for q in domain.punctures if _hull_near(q, y0, y1, f0, f1, t1 - t0)]
    if not (leaves_box or near):
        return None

    def dense(tau):
        return _hermite(tau, t0, t1, y0, y1, f0, f1)

    def outside(tau):
        stats.event_bisections += 1
        return not all(lo < v < hi for v, (lo, hi) in zip(dense(tau), domain.bounds))

    events: list[float] = []
    if leaves_box:
        events.append(_bisect(outside, t0, t1, EXIT_BISECT_TOL))
    for q in near:
        hit = _closest_approach(q, t0, t1, y0, y1, f0, f1, stats)
        if hit is not None:
            events.append(hit)
    if not events:
        return None
    t_x = min(events) if t1 > t0 else max(events)
    return t_x, dense(t_x)


def _closest_approach(q, t0, t1, y0, y1, f0, f1, stats):
    """The first time in (t0, t1] at which the dense segment is at a local
    minimum of its distance to ``q`` that hits ``q``, or None: in 1-D the
    segment has reached ``q`` there, in 2-D and up it is within PUNCTURE_TOL.

    Grid samples bracket the minima (the distance stops falling in the
    direction of integration), and each bracket is bisected to float
    resolution.
    """
    h = t1 - t0

    def offset(tau) -> list[float]:
        return [a - c for a, c in zip(_hermite(tau, t0, t1, y0, y1, f0, f1), q)]

    if len(q) == 1:
        side = y0[0] > q[0]

        def hits(tau) -> bool:  # on the puncture, or past it
            d = offset(tau)[0]
            return d == 0.0 or (d > 0.0) != side
    else:
        def hits(tau) -> bool:
            d = offset(tau)
            return _dot(d, d) <= PUNCTURE_TOL**2

    def receding(tau) -> bool:  # d/dtau |y - q|^2 / 2, taken along the integration
        return h * _dot(offset(tau), _hermite_deriv(tau, t0, t1, y0, y1, f0, f1)) >= 0.0

    def counted(tau) -> bool:
        stats.event_bisections += 1
        return receding(tau)

    prev, approaching = t0, not receding(t0)
    for j in range(1, _APPROACH_GRID + 1):
        tau = t1 if j == _APPROACH_GRID else t0 + (j / _APPROACH_GRID) * h
        if not receding(tau):
            approaching = True
        elif approaching:
            t_c = _bisect(counted, prev, tau)
            if hits(t_c):
                return t_c
            approaching = False
        prev = tau
    if approaching and hits(t1):
        return t1
    return None


# --- the checks: see dynsys.ode_checks --------------------------------------

# the traced checks, and the sample sets that perfbench's tracer replays
# jacobians on (see dynsys.checkcmd)
_FORWARDS = frozenset({
    "default_samples", "check_f_relatedness", "check_solution_preservation", "find_equilibria",
    "check_equilibrium_morphism", "check_periodic_orbit", "solution_morphism_report",
})
__getattr__, __dir__ = _forwarding(globals(), "ode_checks", _FORWARDS)
