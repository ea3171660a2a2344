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
"""

from __future__ import annotations

import bisect
import itertools
import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from . import expr as E
from .core import CheckReport, _distance, _dot, _linspace, _matvec, _norm, _solve

if TYPE_CHECKING:
    import numpy as np

TERM_SPAN = "reached-span"
TERM_BLOWUP = "blow-up"
TERM_LEFT_DOMAIN = "left-domain"

#: states whose norm exceeds this are reported as blown up
DEFAULT_ESCAPE = 1e8
#: domain-exit crossings are bisected to this width in t (or to float resolution)
EXIT_BISECT_TOL = 1e-9

_SAMPLE_CLIP = 5.0  # unbounded domains are sampled inside [-clip, clip]


class StepSizeUnderflowError(RuntimeError):
    """Step control drove the step below resolution (stiffness failure)."""


class EarlyTerminationError(RuntimeError):
    """A trajectory ended (blow-up or domain exit) before the requested span."""


class StepLimitError(RuntimeError):
    """Integration needed more than ``max_steps`` accepted or rejected steps."""


@dataclass(frozen=True)
class Domain:
    """Open box in R^n minus finitely many punctured points."""

    bounds: tuple[tuple[float, float], ...]
    punctures: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "bounds", tuple((float(a), float(b)) for a, b in self.bounds)
        )
        object.__setattr__(
            self, "punctures", tuple(tuple(float(v) for v in p) for p in self.punctures)
        )
        for lo, hi in self.bounds:
            if not lo < hi:
                raise ValueError(f"empty interval ({lo}, {hi})")
        for p in self.punctures:
            if len(p) != len(self.bounds):
                raise ValueError(f"puncture {p} has wrong dimension")

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


@dataclass(frozen=True)
class ContinuousSystem:
    domain: Domain
    field: E.VectorExpr

    def __post_init__(self):
        if self.field.arity != self.domain.dimension:
            raise E.ArityError(
                f"field arity {self.field.arity} != dimension {self.domain.dimension}"
            )
        if self.field.size != self.domain.dimension:
            raise E.ArityError(
                f"field has {self.field.size} components for dimension {self.domain.dimension}"
            )

    @property
    def dimension(self) -> int:
        return self.domain.dimension


def time_system() -> ContinuousSystem:
    """(R, dx/dt = 1): the flow of time itself."""
    return ContinuousSystem(full_space(1), E.parse_vector(["1"], 1))


@dataclass(frozen=True)
class SmoothMap:
    """A map R^n -> R^m given componentwise by expressions."""

    components: E.VectorExpr

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
    return SmoothMap(E.identity_map(n))


def compose_smooth_maps(outer: SmoothMap, inner: SmoothMap) -> SmoothMap:
    return SmoothMap(E.compose(outer.components, inner.components))


# --- trajectories -----------------------------------------------------------


@dataclass
class IntegrationStats:
    """What one :func:`integrate` call did; telemetry, written to no file."""

    nfev: int = 0  # right-hand-side evaluations started
    accepted: int = 0  # steps that passed the error test
    rejected: int = 0  # steps refused by the error test
    domain_retries: int = 0  # steps shrunk because a stage left the field's domain
    event_bisections: int = 0  # halvings spent locating domain exits inside steps


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
        the current standard output when ``path`` is None."""
        n = len(self._states[0])
        with open(path, "w") if path is not None else nullcontext() as fh:
            print("t," + ",".join(f"x{i}" for i in range(1, n + 1)), file=fh)
            for t, row in zip(self._times, self._states):
                print(",".join([f"{t:.17g}"] + [f"{v:.17g}" for v in row]), file=fh)


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
# The step works on lists of floats.  Every stage combination is a sum taken
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
    except E.DomainError:
        d2 = d1
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, limit)


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
    positive, as a coordinate may be 0.  Stops early with termination
    "blow-up" once |x| exceeds ``escape_threshold`` and with "left-domain"
    when the state exits the open box (the crossing is bisected to
    EXIT_BISECT_TOL) or hits a puncture (at the closest approach; see
    PUNCTURE_TOL); the exit becomes the final knot.
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
    direction = 1.0 if T > 0 else -1.0

    field = sys.field._compiled  # the whole field in one compiled call
    c2, c3, c4, c5 = _DP_C
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65) = _DP_A
    b1, b3, b4, b5, b6 = _DP_B
    e1, e3, e4, e5, e6, e7 = _DP_E

    t = 0.0
    k1 = field(y, t)
    ts, ys, fs = [t], [y], [k1]
    termination = TERM_SPAN
    stats = IntegrationStats()

    h = direction * _initial_step(field, t, y, k1, direction, rtol, atol, min(abs(T), max_step))
    nfev, accepted, rejected, retries = 2, 0, 0, 0
    stalled = 0  # domain retries since an accepted step last moved the state
    while direction * (T - t) > 1e-14 * max(1.0, abs(T)):
        if accepted + rejected + retries >= max_steps:
            raise StepLimitError(f"exceeded {max_steps} steps at t={t}")
        h = direction * min(abs(h), max_step, abs(T - t))
        if abs(h) < 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflowError(f"step size underflow at t={t} (stiffness failure)")

        try:
            nfev += 1
            k2 = field([v + h * (a21 * p) for v, p in zip(y, k1)], t + c2 * h)
            nfev += 1
            k3 = field([v + h * (a31 * p + a32 * q) for v, p, q in zip(y, k1, k2)], t + c3 * h)
            nfev += 1
            k4 = field([v + h * (a41 * p + a42 * q + a43 * r)
                        for v, p, q, r in zip(y, k1, k2, k3)], t + c4 * h)
            nfev += 1
            k5 = field([v + h * (a51 * p + a52 * q + a53 * r + a54 * s)
                        for v, p, q, r, s in zip(y, k1, k2, k3, k4)], t + c5 * h)
            nfev += 1
            k6 = field([v + h * (a61 * p + a62 * q + a63 * r + a64 * s + a65 * u)
                        for v, p, q, r, s, u in zip(y, k1, k2, k3, k4, k5)], t + h)
            y_new = [v + h * (b1 * p + b3 * r + b4 * s + b5 * u + b6 * w)
                     for v, p, r, s, u, w in zip(y, k1, k3, k4, k5, k6)]
            nfev += 1
            k7 = field(y_new, t + h)
        except E.DomainError:
            retries += 1
            stalled += 1
            if stalled > STALL_RETRIES:
                raise StepSizeUnderflowError(
                    f"step stalled at t={t}: every step from {tuple(y)} either leaves "
                    f"the state unchanged or leaves the field's domain") from None
            h *= 0.3
            continue

        err_norm = _rms([
            h * (e1 * p + e3 * r + e4 * s + e5 * u + e6 * w + e7 * z)
            / (atol + rtol * max(abs(v), abs(x)))
            for v, x, p, r, s, u, w, z in zip(y, y_new, k1, k3, k4, k5, k6, k7)
        ])
        if err_norm > 1.0:
            rejected += 1
            h *= min(max(0.9 * err_norm ** -0.2, 0.2), 1.0)
            continue

        accepted += 1
        if y_new != y:
            stalled = 0
        t_new = t + h
        crossing = _first_exit(sys.domain, t, t_new, y, y_new, k1, k7, stats)
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
        if math.sqrt(_dot(y_new, y_new)) > escape_threshold:
            termination = TERM_BLOWUP
            break
        t, y, k1 = t_new, y_new, k7
        factor = 10.0 if err_norm == 0.0 else min(max(0.9 * err_norm ** -0.2, 0.2), 10.0)
        h *= factor

    if direction < 0:  # backward runs are stored time-ascending
        ts.reverse()
        ys.reverse()
        fs.reverse()
    stats.nfev, stats.accepted, stats.rejected, stats.domain_retries = nfev, accepted, rejected, retries
    return Trajectory(ts, ys, fs, t_lo=ts[0], t_hi=ts[-1], termination=termination, stats=stats)


def _in_box(values, bounds) -> bool:
    return all(lo < v < hi for v, (lo, hi) in zip(values, bounds))


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


def _first_exit(domain, t0, t1, y0, y1, f0, f1, stats):
    """Earliest domain-exit event inside an accepted step, if any: the box
    boundary crossing, or the closest approach that hits a puncture (see
    PUNCTURE_TOL).  Counts each bisection halving in ``stats``."""
    leaves_box = not _in_box(y1, domain.bounds)
    near = [q for q in domain.punctures if _hull_near(q, y0, y1, f0, f1, t1 - t0)]
    if not (leaves_box or near):
        return None

    def dense(tau):
        return _hermite(tau, t0, t1, y0, y1, f0, f1)

    def outside(tau):
        stats.event_bisections += 1
        return not _in_box(dense(tau), domain.bounds)

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


# --- sampling ---------------------------------------------------------------


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _radical_inverse(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def default_samples(domain: Domain, count: int = 200) -> list[tuple[float, ...]]:
    """Deterministic low-discrepancy (Halton) samples inside the domain.

    Unbounded coordinates are clipped to [-5, 5] so every example in the
    battery gets reproducible coverage.
    """
    d = domain.dimension
    if d > len(_PRIMES):
        raise ValueError(f"sampling supports up to {len(_PRIMES)} dimensions")
    boxes = []
    for lo, hi in domain.bounds:
        lo = max(lo, -_SAMPLE_CLIP)
        hi = min(hi, _SAMPLE_CLIP)
        width = hi - lo
        boxes.append((lo + 1e-9 * width, width * (1 - 2e-9)))
    pts: list[tuple[float, ...]] = []
    i = 1
    while len(pts) < count and i < 100 * count:
        u = [_radical_inverse(i, _PRIMES[j]) for j in range(d)]
        x = tuple(lo + uj * width for (lo, width), uj in zip(boxes, u))
        if domain.contains(x):
            pts.append(x)
        i += 1
    return pts


# --- the f-relatedness story -------------------------------------------------


def check_f_relatedness(
    f: SmoothMap,
    x_sys: ContinuousSystem,
    y_sys: ContinuousSystem,
    samples: Sequence | None = None,
    tol: float = 1e-8,
) -> CheckReport:
    """Is Jf(x) X(x) = Y(f(x)) at the samples?  Jf is symbolically exact.

    The residual is the sup over samples of the euclidean defect norm.
    """
    if f.source_dim != x_sys.dimension:
        raise E.ArityError(f"map expects {f.source_dim} inputs, system has {x_sys.dimension}")
    if f.target_dim != y_sys.dimension:
        raise E.ArityError(f"map produces {f.target_dim} outputs, target has {y_sys.dimension}")
    pts = list(samples) if samples is not None else default_samples(x_sys.domain)
    residual, worst = 0.0, None
    for x in pts:
        v = E.evaluate_vector(x_sys.field, x)
        jv = _matvec(E.evaluate_vector(f._jacobian, x), v)
        y = f(x)
        if not y_sys.domain.contains(y):
            raise E.DomainError(f"f({tuple(x)}) = {tuple(y)} leaves the target domain")
        defect = _distance(jv, E.evaluate_vector(y_sys.field, y))
        if defect > residual:
            residual, worst = defect, tuple(float(c) for c in x)
    return CheckReport.numerical(
        residual, tol, len(pts),
        witness=None if worst is None else f"worst defect {residual:.6g} at x={worst}",
    )


def check_solution_preservation(
    f: SmoothMap,
    x_sys: ContinuousSystem,
    y_sys: ContinuousSystem,
    x0,
    span: float,
    tol: float = 1e-5,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    grid: int = 201,
) -> CheckReport:
    """Push the solution through f and compare with the solution started at
    f(x0): by uniqueness they must be the same curve.

    If either trajectory ends early the comparison covers the common span
    actually reached, reported in the note.
    """
    traj_x = integrate(x_sys, x0, span, rtol=rtol, atol=atol)
    y0 = f([float(v) for v in x0])
    traj_y = integrate(y_sys, y0, span, rtol=rtol, atol=atol)
    lo = max(traj_x.t_lo, traj_y.t_lo)
    hi = min(traj_x.t_hi, traj_y.t_hi)
    if hi <= lo:
        return CheckReport(False, math.inf, 0, witness="no common span to compare")
    residual, worst_t = 0.0, None
    for tcur in _linspace(lo, hi, grid):
        d = _distance(f(traj_x._sample(tcur), t=tcur), traj_y._sample(tcur))
        if d > residual:
            residual, worst_t = d, tcur
    full = (0.0, span) if span > 0 else (span, 0.0)
    note = None
    if abs(lo - full[0]) > 1e-12 or abs(hi - full[1]) > 1e-12:
        note = f"compared on [{lo:.17g}, {hi:.17g}] (early termination)"
    return CheckReport.numerical(
        residual, tol, grid, witness=f"max deviation {residual:.6g} at t={worst_t}", note=note
    )


# --- equilibria and periodic orbits ------------------------------------------


def find_equilibria(
    sys: ContinuousSystem,
    box: Sequence[tuple[float, float]] | None = None,
    resolution: int = 21,
    tol: float = 1e-9,
) -> list[tuple[float, ...]]:
    """Zeros of the field inside the search box and the domain.

    Grid scan for local minima of |X| seeds a damped Newton iteration with
    the symbolic jacobian; converged roots are deduplicated within 1e-6 and
    returned sorted.  Seeds that diverge or meet a singular jacobian are
    skipped, and so are roots the domain leaves out (a puncture, or a point
    on the boundary of its box).
    """
    n = sys.dimension
    if box is None:
        box = [
            (max(lo, -_SAMPLE_CLIP), min(hi, _SAMPLE_CLIP)) for lo, hi in sys.domain.bounds
        ]
    axes = [_linspace(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo), resolution) for lo, hi in box]
    field = sys.field._compiled  # every component in one call, as in integrate
    norms = []  # over the grid in row-major order, inf where the field is undefined
    for x in itertools.product(*axes):
        try:
            norms.append(_norm(field(x, 0.0)))
        except E.DomainError:
            norms.append(math.inf)

    # seeds: the grid's local minima of |X| along every axis
    strides = [resolution ** (n - 1 - a) for a in range(n)]
    seeds = []
    for flat, idx in enumerate(itertools.product(range(resolution), repeat=n)):
        val = norms[flat]
        if not math.isfinite(val):
            continue
        for i, stride in zip(idx, strides):
            if (i > 0 and norms[flat - stride] < val) or \
                    (i < resolution - 1 and norms[flat + stride] < val):
                break
        else:
            seeds.append([axis[i] for axis, i in zip(axes, idx)])

    jacobian = SmoothMap(sys.field)._jacobian
    roots: list[tuple[float, ...]] = []
    for x in seeds:
        ok = False
        try:
            for _ in range(60):
                v = field(x, 0.0)
                nv = _norm(v)
                if nv <= tol:
                    ok = True
                    break
                dx = _solve(E.evaluate_vector(jacobian, x), [-c for c in v])
                if dx is None:
                    break
                lam, moved = 1.0, False
                while lam > 1e-6:
                    xn = [a + lam * d for a, d in zip(x, dx)]
                    try:
                        if _norm(field(xn, 0.0)) < nv:
                            x, moved = xn, True
                            break
                    except E.DomainError:
                        pass
                    lam *= 0.5
                if not moved:
                    break
        except E.DomainError:
            continue
        if not ok:
            continue
        if any(not (lo - 1e-9 <= xi <= hi + 1e-9) for xi, (lo, hi) in zip(x, box)):
            continue
        cand = tuple(x)
        if not sys.domain.contains(cand):
            continue
        if all(_distance(cand, r) > 1e-6 for r in roots):
            roots.append(cand)
    return sorted(roots)


def check_equilibrium_morphism(
    sys: ContinuousSystem, x_e, tol: float = 1e-8
) -> CheckReport:
    """The one-point system maps into (M, X) at x_e exactly when X(x_e) = 0."""
    pt = tuple(float(v) for v in x_e)
    if not sys.domain.contains(pt):
        raise ValueError(f"candidate {pt} outside the domain")
    residual = _norm(E.evaluate_vector(sys.field, pt))
    return CheckReport.numerical(
        residual, tol, 1, witness=f"|X({pt})| = {residual:.6g}"
    )


def check_periodic_orbit(
    sys: ContinuousSystem,
    x0,
    period: float,
    tol: float = 1e-6,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> CheckReport:
    """Does the solution through x0 close up after the given period?

    This is the existence check for a map out of the circle (an interval
    with its endpoints identified, rescaled to circumference ``period``);
    a true solution is automatically related, so closure is the content.
    """
    if period <= 0:
        raise ValueError("period must be positive")
    traj = integrate(sys, x0, period, rtol=rtol, atol=atol)
    if traj.termination != TERM_SPAN:
        raise EarlyTerminationError(
            f"trajectory ended at t={traj.t_hi:.6g} ({traj.termination}) before T={period}"
        )
    end = traj._states[-1]
    closure = _distance(end, [float(v) for v in x0])
    return CheckReport.numerical(
        closure, tol, len(traj._times), witness=f"endpoint {tuple(end)}",
    )


def solution_morphism_report(
    traj: Trajectory, sys: ContinuousSystem, tol: float
) -> CheckReport:
    """Discretized relatedness of a recorded trajectory: compare 4th-order
    finite differences of the knots against the field along the curve.

    Only interior knots whose 5-point stencil has uniform spacing are used
    (integrate with max_step to get a uniform grid).
    """
    ts, ys = traj._times, traj._states
    hs = [b - a for a, b in zip(ts, ts[1:])]
    residual, used = 0.0, 0
    for i in range(2, len(ts) - 2):
        h = hs[i - 2]
        if max(abs(d - h) for d in hs[i - 2:i + 2]) > 1e-9 * h:
            continue
        deriv = [(a - 8 * b + 8 * c - d) / (12 * h)
                 for a, b, c, d in zip(ys[i - 2], ys[i - 1], ys[i + 1], ys[i + 2])]
        residual = max(residual, _distance(deriv, E.evaluate_vector(sys.field, ys[i], ts[i])))
        used += 1
    if used == 0:
        return CheckReport(False, math.inf, 0, witness="no uniform interior stencil")
    return CheckReport.numerical(residual, tol, used)
