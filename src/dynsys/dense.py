"""Dense output of DOP853 steps and the location of domain exits in them.

A step's dense output is the method's order-7 interpolant (Hairer, Norsett
and Wanner, *Solving ODEs I*, II.6): 3 more stages, at t + 0.1h, t + 0.2h
and t + 7h/9, on top of the step's 12 and the field at its end.  A
:class:`Segment` takes the stages 6..12 that the step computed from the
step's record, which the integrator keeps, so the knots it passes through
are the integrator's to the bit; it is built only for the steps that
something samples (``Trajectory.sample``, the checks) or that may leave the
domain (event location in :func:`dynsys.continuous.integrate`), so a solve
that stays inside its domain never loads this module.
"""

from __future__ import annotations

import math
from functools import cache
from math import comb

from . import expr as E
from .continuous import (
    PUNCTURE_TOL, TERM_BLOWUP, TERM_LEFT_DOMAIN, _bisect, _build, _comb, _each,
)
from .core import _dot

_APPROACH_GRID = 16  # samples per step that bracket the closest approaches

# nodes and inputs of the extra stages 14..16 (stage 13 is the field at the
# step's end), and the rows of the interpolant's coefficients 3..6; the
# float literals of scipy's ``integrate/_ivp/dop853_coefficients.py``
_DOP_C_EXTRA = (0.1, 0.2, 0.777777777777777777777777777778)
_DOP_A_EXTRA = (
    {1: 5.61675022830479523392909219681e-2, 7: 2.53500210216624811088794765333e-1,
     8: -2.46239037470802489917441475441e-1, 9: -1.24191423263816360469010140626e-1,
     10: 1.5329179827876569731206322685e-1, 11: 8.20105229563468988491666602057e-3,
     12: 7.56789766054569976138603589584e-3, 13: -8.298e-3},
    {1: 3.18346481635021405060768473261e-2, 6: 2.83009096723667755288322961402e-2,
     7: 5.35419883074385676223797384372e-2, 8: -5.49237485713909884646569340306e-2,
     11: -1.08347328697249322858509316994e-4, 12: 3.82571090835658412954920192323e-4,
     13: -3.40465008687404560802977114492e-4, 14: 1.41312443674632500278074618366e-1},
    {1: -4.28896301583791923408573538692e-1, 6: -4.69762141536116384314449447206,
     7: 7.68342119606259904184240953878, 8: 4.06898981839711007970213554331,
     9: 3.56727187455281109270669543021e-1, 13: -1.39902416515901462129418009734e-3,
     14: 2.9475147891527723389556272149, 15: -9.15095847217987001081870187138},
)
_DOP_D = (
    {1: -0.84289382761090128651353491142e+1, 6: 0.56671495351937776962531783590,
     7: -0.30689499459498916912797304727e+1, 8: 0.23846676565120698287728149680e+1,
     9: 0.21170345824450282767155149946e+1, 10: -0.87139158377797299206789907490,
     11: 0.22404374302607882758541771650e+1, 12: 0.63157877876946881815570249290,
     13: -0.88990336451333310820698117400e-1, 14: 0.18148505520854727256656404962e+2,
     15: -0.91946323924783554000451984436e+1, 16: -0.44360363875948939664310572000e+1},
    {1: 0.10427508642579134603413151009e+2, 6: 0.24228349177525818288430175319e+3,
     7: 0.16520045171727028198505394887e+3, 8: -0.37454675472269020279518312152e+3,
     9: -0.22113666853125306036270938578e+2, 10: 0.77334326684722638389603898808e+1,
     11: -0.30674084731089398182061213626e+2, 12: -0.93321305264302278729567221706e+1,
     13: 0.15697238121770843886131091075e+2, 14: -0.31139403219565177677282850411e+2,
     15: -0.93529243588444783865713862664e+1, 16: 0.35816841486394083752465898540e+2},
    {1: 0.19985053242002433820987653617e+2, 6: -0.38703730874935176555105901742e+3,
     7: -0.18917813819516756882830838328e+3, 8: 0.52780815920542364900561016686e+3,
     9: -0.11573902539959630126141871134e+2, 10: 0.68812326946963000169666922661e+1,
     11: -0.10006050966910838403183860980e+1, 12: 0.77771377980534432092869265740,
     13: -0.27782057523535084065932004339e+1, 14: -0.60196695231264120758267380846e+2,
     15: 0.84320405506677161018159903784e+2, 16: 0.11992291136182789328035130030e+2},
    {1: -0.25693933462703749003312586129e+2, 6: -0.15418974869023643374053993627e+3,
     7: -0.23152937917604549567536039109e+3, 8: 0.35763911791061412378285349910e+3,
     9: 0.93405324183624310003907691704e+2, 10: -0.37458323136451633156875139351e+2,
     11: 0.10409964950896230045147246184e+3, 12: 0.29840293426660503123344363579e+2,
     13: -0.43533456590011143754432175058e+2, 14: 0.96324553959188282948394950600e+2,
     15: -0.39177261675615439165231486172e+2, 16: -0.14972683625798562581422125276e+3},
)
# row k: the weights of y0, F0, ..., F6 in the k-th Bezier control point of a
# segment on [0, 1].  The term of F_i is x^a (1-x)^b, with (a, b) below, and
# its degree-7 Bernstein coefficients are comb(7-a-b, k-a) / comb(7, k).
_POWERS = ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3))
_BEZIER = tuple(tuple(comb(7 - a - b, k - a) / comb(7, k) if k >= a else 0.0 for a, b in _POWERS)
                for k in range(8))


@cache
def _dense_step(n: int):
    """``coefficients(field, y, k1, t, h, y_new, k13, stages)``: from a step's
    stages 6..12 (as the step returns them), the 3 extra stages and
    the interpolant's 7 coefficient vectors F0..F6 (scipy's
    ``Dop853DenseOutput``)."""
    kept = ", ".join(_each(n, f"k{s}_#") for s in range(6, 13))
    lines = [f"{kept}, = stages", f"{_each(n, 'n_#')}, = y_new", f"{_each(n, 'k13_#')}, = k13"]
    for s, (row, c) in enumerate(zip(_DOP_A_EXTRA, _DOP_C_EXTRA), 14):
        lines.append(f"{_each(n, f'k{s}_#')}, = field([{_each(n, f'y_# + h * ({_comb(row)})')}], "
                     f"t + {c!r} * h)")
    rows = ["n_# - y_#", "h * k1_# - (n_# - y_#)", "2.0 * (n_# - y_#) - h * (k13_# + k1_#)",
            *(f"h * ({_comb(row)})" for row in _DOP_D)]
    lines.append("return [" + ", ".join(f"[{_each(n, row)}]" for row in rows) + "]")
    return _build("<dynsys.dense>", n, "coefficients(field, y, k1, t, h, y_new, k13, stages)",
                  lines)


class Segment:
    """The dense output of one step from (t0, y0), where the field is ``k1``:
    y0 + x*(F0 + (1-x)*(F1 + x*(F2 + ...))) at x = (t - t0)/h.  ``step`` is
    the step's record ``(h, y1, f1, stages 6..12)``.

    Raises :class:`dynsys.expr.DomainError` when an extra stage leaves the
    field's domain.
    """

    __slots__ = ("t0", "h", "y0", "coefs")

    def __init__(self, field, t0: float, y0, k1, step):
        h, y1, f1, stages = step
        self.t0, self.h, self.y0 = t0, h, y0
        try:
            self.coefs = _dense_step(len(y0))(field, y0, k1, t0, h, y1, f1, stages)
        except E.DomainError as exc:
            raise E.DomainError(f"the dense output of the step from t={t0} left the field's "
                                f"domain: {exc.message}", exc._culprit) from None

    def at(self, t: float) -> list[float]:
        x = (t - self.t0) / self.h
        u = 1.0 - x
        return [a + x * (f0 + u * (f1 + x * (f2 + u * (f3 + x * (f4 + u * (f5 + x * f6))))))
                for a, f0, f1, f2, f3, f4, f5, f6 in zip(self.y0, *self.coefs)]

    def deriv(self, t: float) -> list[float]:
        """d/dt of :meth:`at`, by the product rule along the nesting."""
        x = (t - self.t0) / self.h
        u = 1.0 - x
        out = []
        for *fs, g in zip(*self.coefs):
            d = 0.0
            for i in range(5, -1, -1):  # g = F_i + m * g, with m = x (i odd) or 1 - x
                d, g = (g + x * d, fs[i] + x * g) if i % 2 else (u * d - g, fs[i] + u * g)
            out.append((g + x * d) / self.h)
        return out

    def control_points(self) -> list[tuple[float, ...]]:
        """Per coordinate, the 8 Bezier control points of the segment on [t0, t0 + h]."""
        return _bezier()(self.y0, self.coefs)


@cache
def _bezier():
    """``points(y0, coefs)``: :meth:`Segment.control_points`, each point the
    sum over its row of _BEZIER written out and taken left to right."""
    terms = ("a", *(f"f{i}" for i in range(7)))
    rows = ", ".join(" + ".join(f"{w!r} * {v}" for w, v in zip(row, terms) if w) for row in _BEZIER)
    namespace: dict = {}
    exec(compile(f"def points(y0, coefs):\n    return [({rows}) for {', '.join(terms)} "
                 f"in zip(y0, *coefs)]\n", "<dynsys.dense>", "exec"), namespace)
    return namespace["points"]


def _hull_near(q, segment: Segment) -> bool:
    """False when the segment cannot come within PUNCTURE_TOL of q: a Bezier
    segment lies in the convex hull of its control points, so in their
    bounding box."""
    for c, points in zip(q, segment.control_points()):
        if c < min(points) - PUNCTURE_TOL or c > max(points) + PUNCTURE_TOL:
            return False
    return True


def _first_exit(domain, escape_threshold, field, t0, y0, k1, step, stats):
    """The earliest event inside the accepted step from (t0, y0), where the
    field is ``k1``, whose record is ``step`` = (h, y1, f1, stages 6..12), as
    ``(t, y, y', termination)``, or None: the box boundary crossing (when y1
    is outside the box), the closest approach that hits a puncture (see
    PUNCTURE_TOL), or the escape past ``escape_threshold`` (when |y1| is past
    it), where a domain exit wins a tie.  Counts each bisection halving in
    ``stats``; raises :class:`dynsys.expr.DomainError` when the step's dense
    output cannot be built."""
    h, y1, f1, _ = step
    leaves_box = not all(lo < v < hi for v, (lo, hi) in zip(y1, domain.bounds))
    escapes = math.sqrt(_dot(y1, y1)) > escape_threshold
    if not (leaves_box or escapes or domain.punctures):
        return None
    segment = Segment(field, t0, y0, k1, step)
    near = [q for q in domain.punctures if _hull_near(q, segment)]
    t1 = t0 + h

    def outside(tau):
        stats.event_bisections += 1
        return not all(lo < v < hi for v, (lo, hi) in zip(segment.at(tau), domain.bounds))

    def escaped(tau):
        stats.event_bisections += 1
        y = segment.at(tau)
        return math.sqrt(_dot(y, y)) > escape_threshold

    events: list[tuple[float, str]] = []
    if leaves_box:
        events.append((_bisect(outside, t0, t1), TERM_LEFT_DOMAIN))
    for q in near:
        hit = _closest_approach(q, segment, t0, t1, stats)
        if hit is not None:
            events.append((hit, TERM_LEFT_DOMAIN))
    if escapes:  # a start already past the threshold escapes at the step's end
        start_escaped = math.sqrt(_dot(y0, y0)) > escape_threshold
        events.append((t1 if start_escaped else _bisect(escaped, t0, t1), TERM_BLOWUP))
    if not events:
        return None
    t_x, termination = min(events, key=lambda event: event[0] if h > 0 else -event[0])
    if t_x == t1:
        return t_x, y1, f1, termination
    return t_x, segment.at(t_x), segment.deriv(t_x), termination


def _closest_approach(q, segment: Segment, t0, t1, stats):
    """The first time in (t0, t1] at which the segment is at a local minimum
    of its distance to ``q`` that hits ``q``, or None: in 1-D the segment has
    reached ``q`` there, in 2-D and up it is within PUNCTURE_TOL.

    Grid samples bracket the minima (the distance stops falling in the
    direction of integration), and each bracket is bisected to float
    resolution.
    """
    h = t1 - t0

    def offset(tau) -> list[float]:
        return [a - c for a, c in zip(segment.at(tau), q)]

    if len(q) == 1:
        side = segment.y0[0] > q[0]

        def hits(tau) -> bool:  # on the puncture, or past it
            d = offset(tau)[0]
            return d == 0.0 or (d > 0.0) != side
    else:
        def hits(tau) -> bool:
            d = offset(tau)
            return _dot(d, d) <= PUNCTURE_TOL**2

    def receding(tau) -> bool:  # d/dtau |y - q|^2 / 2, taken along the integration
        return h * _dot(offset(tau), segment.deriv(tau)) >= 0.0

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
