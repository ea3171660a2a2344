"""Continuous-time systems: ODEs on open boxes of R^n, possibly minus
finitely many points.

The integrator is DOP853, the explicit Runge-Kutta method of order 8 of
Dormand and Prince (Hairer, Norsett and Wanner, *Solving ODEs I*, II.5):
12 stages plus the first-same-as-last stage, with the combined 5th- and
3rd-order error estimate driving the step size.  Dense output between
accepted steps is the method's order-7 interpolant, which needs 3 more
field calls per step; :mod:`dynsys.dense` builds it only for the steps
that something samples (``Trajectory.sample``, the checks, event
location), from the stages 6..12 that the trajectory keeps of each step.
Integration stops early when the state escapes past a norm threshold
(blow-up) or leaves the declared open domain: the dense output crosses the
box boundary, or hits a puncture (see PUNCTURE_TOL); the exit time is
located by bisection.
The integrator and the checks built on it work on plain lists of floats
and load no numpy; only the array views of a trajectory
(``Trajectory.times``/``states``/``derivs``/``sample``) and
``SmoothMap.jacobian_at`` return numpy arrays.

The checks (sample sets, f-relatedness and solution preservation,
equilibria and periodic orbits, the solution-morphism report) live in
:mod:`dynsys.ode_checks`, and the dense output and event location in
:mod:`dynsys.dense`, so a ``dynsys solve`` whose solution stays inside
the domain compiles only the integrator.
"""

from __future__ import annotations

import bisect
import math
import sys as _sys  # ``sys`` names a system in this module
from array import array
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
        self.nfev = nfev  # right-hand-side evaluations the steps started (not dense output's)
        self.accepted = accepted  # steps that passed the error test
        self.rejected = rejected  # steps refused by the error test
        self.domain_retries = domain_retries  # steps shrunk: a stage left the field's domain
        self.event_bisections = event_bisections  # halvings locating exits and escapes in steps


class Trajectory:
    """Sampled solution curve with its domain-of-definition metadata.

    ``times`` is strictly increasing regardless of integration direction;
    ``termination`` explains why integration stopped at the far end (t_hi
    when integrating forward, t_lo backward).  The knots are kept as given
    (the integrator passes plain lists); ``times``, ``states`` and
    ``derivs`` are numpy arrays built on first access.  ``steps`` holds,
    for each interval between knots, the record ``(h, y1, f1, stages)`` of
    the step behind it: its size (negative when integrating backward: the
    step starts at the interval's right knot), the state and the field at
    its full end (past the last knot, when an event ended the run inside
    it) and its stages 6..12; with ``field``, the compiled field, they give
    the step's dense output.
    """

    def __init__(self, times, states, derivs, t_lo: float, t_hi: float,
                 termination: str, stats: IntegrationStats | None = None,
                 steps=None, field=None):
        self._times, self._states, self._derivs = times, states, derivs
        self.t_lo = t_lo
        self.t_hi = t_hi
        self.termination = termination
        self.stats = IntegrationStats() if stats is None else stats
        self._steps, self._field = steps, field
        self._segments: dict = {}  # interval index -> its dense output, built on first sample

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
        """Dense output: the order-7 interpolant of the step containing t,
        and the knot itself at a knot.  Raises :class:`dynsys.expr.DomainError`
        when one of the interpolant's extra stages leaves the field's domain."""
        import numpy as np

        return np.array(self._sample(t))

    def _sample(self, t: float) -> list[float]:
        """:meth:`sample` as a list of floats; the checks use this one."""
        ts = self._times
        if not ts[0] <= t <= ts[-1]:
            raise ValueError(f"t={t} outside recorded span [{ts[0]}, {ts[-1]}]")
        i = bisect.bisect_right(ts, t) - 1
        if ts[i] == t:
            return list(self._states[i])
        segment = self._segments.get(i)
        if segment is None:
            from .dense import Segment

            if self._steps is None:
                raise ValueError("trajectory has no steps to interpolate")
            step = self._steps[i]
            j = i if step[0] > 0 else i + 1  # the knot the step started from
            segment = self._segments[i] = Segment(
                self._field, ts[j], self._states[j], self._derivs[j], step)
        return segment.at(t)

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


# --- DOP853 -------------------------------------------------------------------
#
# The step works on floats, one straight-line function per state dimension
# (_dop_step), emitted on the first integration in that dimension and calling
# the compiled field once per stage.  Every stage combination is a sum taken
# left to right over the nonzero coefficients, so a step gives the same bits
# on every IEEE-754 machine, and negating coordinates that the field maps
# equivariantly negates the computed trajectory exactly.  The coefficients
# are those of scipy's ``integrate/_ivp/dop853_coefficients.py``, written as
# the same float literals; each row maps a stage number (k1 is the field at
# the step's start, k13 the field at its end) to its coefficient.

# nodes of stages 2..12
_DOP_C = (
    0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0,
)
# the inputs of stages 2..12
_DOP_A = (
    {1: 5.26001519587677318785587544488e-2},
    {1: 1.97250569845378994544595329183e-2, 2: 5.91751709536136983633785987549e-2},
    {1: 2.95875854768068491816892993775e-2, 3: 8.87627564304205475450678981324e-2},
    {1: 2.41365134159266685502369798665e-1, 3: -8.84549479328286085344864962717e-1,
     4: 9.24834003261792003115737966543e-1},
    {1: 3.7037037037037037037037037037e-2, 4: 1.70828608729473871279604482173e-1,
     5: 1.25467687566822425016691814123e-1},
    {1: 3.7109375e-2, 4: 1.70252211019544039314978060272e-1,
     5: 6.02165389804559606850219397283e-2, 6: -1.7578125e-2},
    {1: 3.70920001185047927108779319836e-2, 4: 1.70383925712239993810214054705e-1,
     5: 1.07262030446373284651809199168e-1, 6: -1.53194377486244017527936158236e-2,
     7: 8.27378916381402288758473766002e-3},
    {1: 6.24110958716075717114429577812e-1, 4: -3.36089262944694129406857109825,
     5: -8.68219346841726006818189891453e-1, 6: 2.75920996994467083049415600797e1,
     7: 2.01540675504778934086186788979e1, 8: -4.34898841810699588477366255144e1},
    {1: 4.77662536438264365890433908527e-1, 4: -2.48811461997166764192642586468,
     5: -5.90290826836842996371446475743e-1, 6: 2.12300514481811942347288949897e1,
     7: 1.52792336328824235832596922938e1, 8: -3.32882109689848629194453265587e1,
     9: -2.03312017085086261358222928593e-2},
    {1: -9.3714243008598732571704021658e-1, 4: 5.18637242884406370830023853209,
     5: 1.09143734899672957818500254654, 6: -8.14978701074692612513997267357,
     7: -1.85200656599969598641566180701e1, 8: 2.27394870993505042818970056734e1,
     9: 2.49360555267965238987089396762, 10: -3.0467644718982195003823669022},
    {1: 2.27331014751653820792359768449, 4: -1.05344954667372501984066689879e1,
     5: -2.00087205822486249909675718444, 6: -1.79589318631187989172765950534e1,
     7: 2.79488845294199600508499808837e1, 8: -2.85899827713502369474065508674,
     9: -8.87285693353062954433549289258, 10: 1.23605671757943030647266201528e1,
     11: 6.43392746015763530355970484046e-1},
)
# the weights of the 8th-order solution
_DOP_B = {
    1: 5.42937341165687622380535766363e-2, 6: 4.45031289275240888144113950566,
    7: 1.89151789931450038304281599044, 8: -5.8012039600105847814672114227,
    9: 3.1116436695781989440891606237e-1, 10: -1.52160949662516078556178806805e-1,
    11: 2.01365400804030348374776537501e-1, 12: 4.47106157277725905176885569043e-2,
}
# the 5th-order error weights, and the 3rd-order ones (the weights minus those
# of an embedded 3rd-order solution)
_DOP_E5 = {
    1: 0.1312004499419488073250102996e-1, 6: -0.1225156446376204440720569753e+1,
    7: -0.4957589496572501915214079952, 8: 0.1664377182454986536961530415e+1,
    9: -0.3503288487499736816886487290, 10: 0.3341791187130174790297318841,
    11: 0.8192320648511571246570742613e-1, 12: -0.2235530786388629525884427845e-1,
}
_DOP_E3 = {**_DOP_B, 1: _DOP_B[1] - 0.244094488188976377952755905512,
           9: _DOP_B[9] - 0.733846688281611857341361741547,
           12: _DOP_B[12] - 0.220588235294117647058823529412e-1}

#: a step's |h*lambda|, estimated from stages 12 and 13, is held below this
#: bound, where DOP853's stability function is positive on the negative real
#: axis (up to 4.3468) and bounded by 1 on the left half-disc: the error test
#: reads (|h*lambda| / bound)^8 as an error norm.  Beyond it a decaying
#: coordinate below atol flips sign from step to step, and crosses a bound or
#: a 1-D puncture at 0 that the solution only creeps up on.
_DOP_STABLE = 4.3

#: in 2-D and up, a step's dense segment that comes within this euclidean
#: distance of a puncture hits it, and the solution leaves the domain at the
#: closest approach.  A computed path misses a point by about its integration
#: error, so an exact test would never fire; this tolerance sits well above
#: that error at the default tolerances and well below any deliberate miss.
#: In 1-D a path hits a puncture only by reaching it (crossing it or landing
#: on it), so a solution that merely creeps up on one is never stopped.
PUNCTURE_TOL = 1e-6
#: after this many trial steps that left the field's domain while no accepted
#: step moved the state, the run is stalled at the edge of the field's domain
#: (each accepted step is too short to change a coordinate, each longer one
#: leaves the domain) and raises StepSizeUnderflowError
STALL_RETRIES = 50


def _rms(values) -> float:
    return math.sqrt(_dot(values, values) / len(values))


def _each(n: int, code: str, sep: str = ", ") -> str:
    """``code`` once per coordinate, "#" standing for its index."""
    return sep.join(code.replace("#", str(i)) for i in range(n))


def _comb(row: dict) -> str:
    """The sum of coef * k over a coefficient row, left to right."""
    return " + ".join(f"{c!r} * k{k}_#" for k, c in row.items())


def _build(name: str, n: int, head: str, lines: list[str]):
    """Compile ``def <head>:`` over ``lines`` (after unpacking y and k1)."""
    lines = [f"{_each(n, 'y_#')}, = y", f"{_each(n, 'k1_#')}, = k1", *lines]
    src = f"def {head}:\n" + "".join(f"    {x}\n" for x in lines)
    namespace = {"DomainError": E.DomainError, "sqrt": math.sqrt}
    exec(compile(src, name, "exec"), namespace)
    return namespace[head[:head.index("(")]]


@cache
def _dop_step(n: int):
    """The trial step for n coordinates: ``step(field, y, k1, t, h, rtol, atol,
    bounds)`` returns ``(y_new, k13, error norm, |y_new|, y_new in the box,
    stages)``, or the number of field calls started when a stage leaves the
    field's domain.  ``stages`` are stages 6..12, stage by stage, which the
    step's dense output needs besides its ends."""
    lines = ["try:"]
    for s, (row, c) in enumerate(zip(_DOP_A, _DOP_C), 2):
        inputs = _each(n, f"y_# + h * ({_comb(row)})")
        if s == 12:  # kept for the stability estimate
            lines.append(f"    {_each(n, 'z_#')}, = {inputs},")
            inputs = _each(n, "z_#")
        lines += [f"    s = {s - 1}",
                  f"    {_each(n, f'k{s}_#')}, = field([{inputs}], t + {c!r} * h)"]
    kept = ", ".join(_each(n, f"k{s}_#") for s in range(6, 13))
    lines += [f"    y_new = [{_each(n, f'y_# + h * ({_comb(_DOP_B)})')}]",
              "    s = 12", "    k13 = field(y_new, t + h)", "except DomainError:", "    return s",
              f"{_each(n, 'n_#')}, = y_new", f"{_each(n, 'm_#')}, = k13",
              f"{_each(n, '(lo_#, hi_#)')}, = bounds",
              # scaled by max(|y|, |y_new|), as scipy's DOP853 does
              *_each(n, f"a = abs(y_#); b = abs(n_#); sc = atol + rtol * (b if b > a else a); "
                        f"p_# = ({_comb(_DOP_E5)}) / sc; q_# = ({_comb(_DOP_E3)}) / sc",
                     "\n").split("\n"),
              f"e5 = {_each(n, 'p_# * p_#', ' + ')}",
              f"e3 = {_each(n, 'q_# * q_#', ' + ')}",
              # the 5th-order estimate, damped where the 3rd-order one is small
              f"err = abs(h) * e5 / sqrt((e5 + 0.01 * e3) * {n}) if e5 else 0.0",
              # |h*lambda|^2 from stages 12 and 13, both at t + h (Hairer's estimate)
              f"dk = {_each(n, '(m_# - k12_#) * (m_# - k12_#)', ' + ')}",
              f"dz = {_each(n, '(n_# - z_#) * (n_# - z_#)', ' + ')}",
              # clamped so that the float power stays finite (past the range it raises)
              f"st = min(h * h * dk / ({_DOP_STABLE ** 2!r} * dz), 1e77) ** 4 if dz else 0.0",
              "if st > err:", "    err = st",
              f"return y_new, k13, err, sqrt({_each(n, 'n_# * n_#', ' + ')}), "
              f"{_each(n, 'lo_# < n_# < hi_#', ' and ')}, ({kept})"]
    return _build("<dynsys.continuous>", n,
                  "step(field, y, k1, t, h, rtol, atol, bounds)", lines)


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
        h1 = (0.01 / max(d1, d2)) ** 0.125
    h = min(100 * h0, h1, limit)  # 0 or nan if a scaled norm overflowed: then start
    return h if h > 0.0 else min(1e-6, limit)  # small, and let the error test shrink it


def _bisect(flipped, good: float, bad: float) -> float:
    """Narrow a bracket on which ``flipped`` is false at ``good`` and true at
    ``bad`` (either may be the larger end); returns the final ``bad``.

    Halving stops when the midpoint rounds onto an end (float resolution),
    or after 200 halvings.
    """
    for _ in range(200):
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
    "blow-up" where |x| passes ``escape_threshold`` (positive; inf never
    stops; the crossing is bisected to float resolution) and with
    "left-domain" when the state exits the open box (the crossing is
    bisected to float resolution) or hits a puncture (at the closest
    approach; see PUNCTURE_TOL), each located on the step's dense output;
    the event becomes the final knot.
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
    step = _dop_step(n)
    bounds, punctures = sys.domain.bounds, sys.domain.punctures

    t = 0.0
    k1 = field(y, t)
    ts, ys, fs, steps = [t], [y], [k1], []
    termination = TERM_SPAN
    stats = IntegrationStats()

    h = direction * _initial_step(field, t, y, k1, direction, rtol, atol, min(abs(T), max_step))
    nfev, accepted, rejected, retries = 2, 0, 0, 0
    stalled = 0  # domain retries since an accepted step last moved the state
    cause = "stiffness failure"  # what a step size underflow reports, after the last shrink
    while direction * (T - t) > 1e-14 * max(1.0, abs(T)):
        if accepted + rejected + retries >= max_steps:
            raise StepLimitError(f"exceeded {max_steps} steps at t={t}")
        h = direction * min(abs(h), max_step, abs(T - t))
        if abs(h) < 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflowError(f"step size underflow at t={t} ({cause})")

        out = step(field, y, k1, t, h, rtol, atol, bounds)
        event = None
        if out.__class__ is not int:
            nfev += 12
            y_new, k13, err_norm, norm, inside, stages = out
            finite = inside or all(map(math.isfinite, y_new))
            # a state past the float range fails the error test, and so does a
            # nan norm; both shrink the step by 0.2
            if not (finite and err_norm <= 1.0):
                rejected += 1
                if not finite:
                    cause = "trial steps overflowed"
                elif err_norm < math.inf:
                    cause = "stiffness failure"
                else:  # finite values, but scaled by atol + rtol*|y| past the float range
                    cause = "error norm overflowed: tolerances too small"
                h *= min(max(0.2, 0.9 * err_norm ** -0.125), 1.0) if finite else 0.2
                continue
            record = (h, y_new, k13, array("d", stages))
            if not inside or norm > escape_threshold or punctures:  # locate the exit
                from .dense import _first_exit

                try:
                    event = _first_exit(sys.domain, escape_threshold, field, t, y, k1, record,
                                        stats)
                except E.DomainError:  # an extra stage of its dense output left the field's
                    out = 0  # domain: retry the step shorter, as if one of its own had
        if out.__class__ is int:  # a stage left the field's domain
            nfev += out
            retries += 1
            stalled += 1
            cause = "stiffness failure"
            if stalled > STALL_RETRIES:
                raise StepSizeUnderflowError(
                    f"step stalled at t={t}: every step from {tuple(y)} either leaves "
                    f"the state unchanged or leaves the field's domain")
            h *= 0.3
            continue

        accepted += 1
        if y_new != y:
            stalled = 0
        steps.append(record)
        if event is not None:
            t_x, y_x, f_x, termination = event
            ts.append(t_x)
            ys.append(y_x)
            fs.append(f_x)
            break

        t += h
        ts.append(t)
        ys.append(y_new)
        fs.append(k13)
        y, k1 = y_new, k13
        h *= 10.0 if err_norm == 0.0 else min(max(0.9 * err_norm ** -0.125, 0.2), 10.0)

    if direction < 0:  # backward runs are stored time-ascending
        ts.reverse()
        ys.reverse()
        fs.reverse()
        steps.reverse()
    stats.nfev, stats.accepted, stats.rejected, stats.domain_retries = nfev, accepted, rejected, retries
    return Trajectory(ts, ys, fs, t_lo=ts[0], t_hi=ts[-1], termination=termination, stats=stats,
                      steps=steps, field=field)


# --- the checks: see dynsys.ode_checks --------------------------------------

# the traced checks, and the sample sets that perfbench's tracer replays
# jacobians on (see dynsys.checkcmd)
_FORWARDS = frozenset({
    "default_samples", "check_f_relatedness", "check_solution_preservation", "find_equilibria",
    "check_equilibrium_morphism", "check_periodic_orbit", "solution_morphism_report",
})
__getattr__, __dir__ = _forwarding(globals(), "ode_checks", _FORWARDS)
