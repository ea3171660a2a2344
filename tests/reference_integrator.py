"""The integration loop that ``continuous.integrate`` replaced, written out on
lists, with one comprehension per Dormand-Prince stage and ``_first_exit``
tried after every accepted step; its step control has the same overflow
mends (a step whose error norm or new state is not finite is rejected and
shrinks by 0.2, and a step size underflow that follows one says so).  It is the oracle that the generated step
(``continuous._dp_step``) must match bit for bit; it shares the helpers
that the step leaves alone (initial step, domain exits, dense output)."""

import math

from dynsys import continuous as C
from dynsys import expr as E


def _in_box(values, bounds) -> bool:
    return all(lo < v < hi for v, (lo, hi) in zip(values, bounds))


def reference_integrate(sys, x0, span, rtol=1e-9, atol=1e-12, escape_threshold=C.DEFAULT_ESCAPE,
                        max_step=math.inf, max_steps=500_000) -> C.Trajectory:
    y = [float(v) for v in x0]
    if not sys.domain.contains(y):
        raise ValueError(f"x0 {tuple(y)} outside the domain")
    T = float(span)
    direction = 1.0 if T > 0 else -1.0
    field = sys.field._compiled
    c2, c3, c4, c5 = C._DP_C
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65) = C._DP_A
    b1, b3, b4, b5, b6 = C._DP_B
    e1, e3, e4, e5, e6, e7 = C._DP_E

    t = 0.0
    k1 = field(y, t)
    ts, ys, fs = [t], [y], [k1]
    termination = C.TERM_SPAN
    stats = C.IntegrationStats()

    h = direction * C._initial_step(field, t, y, k1, direction, rtol, atol, min(abs(T), max_step))
    nfev, accepted, rejected, retries = 2, 0, 0, 0
    stalled = 0
    overflowed = False
    while direction * (T - t) > 1e-14 * max(1.0, abs(T)):
        if accepted + rejected + retries >= max_steps:
            raise C.StepLimitError(f"exceeded {max_steps} steps at t={t}")
        h = direction * min(abs(h), max_step, abs(T - t))
        if abs(h) < 1e-14 * max(1.0, abs(t)):
            cause = "trial steps overflowed" if overflowed else "stiffness failure"
            raise C.StepSizeUnderflowError(f"step size underflow at t={t} ({cause})")

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
            overflowed = False
            if stalled > C.STALL_RETRIES:
                raise C.StepSizeUnderflowError(
                    f"step stalled at t={t}: every step from {tuple(y)} either leaves "
                    f"the state unchanged or leaves the field's domain") from None
            h *= 0.3
            continue

        err_norm = C._rms([
            h * (e1 * p + e3 * r + e4 * s + e5 * u + e6 * w + e7 * z)
            / (atol + rtol * max(abs(v), abs(x)))
            for v, x, p, r, s, u, w, z in zip(y, y_new, k1, k3, k4, k5, k6, k7)
        ])
        if not all(math.isfinite(v) for v in y_new):
            err_norm = math.nan
        if not err_norm <= 1.0:
            rejected += 1
            overflowed = not err_norm < math.inf
            h *= 0.2 if math.isnan(err_norm) else min(max(0.9 * err_norm ** -0.2, 0.2), 1.0)
            continue

        accepted += 1
        if y_new != y:
            stalled = 0
        t_new = t + h
        crossing = C._first_exit(sys.domain, not _in_box(y_new, sys.domain.bounds),
                                 t, t_new, y, y_new, k1, k7, stats)
        if crossing is not None:
            t_x, y_x = crossing
            ts.append(t_x)
            ys.append(y_x)
            fs.append(C._hermite_deriv(t_x, t, t_new, y, y_new, k1, k7))
            termination = C.TERM_LEFT_DOMAIN
            break

        ts.append(t_new)
        ys.append(y_new)
        fs.append(k7)
        if math.sqrt(C._dot(y_new, y_new)) > escape_threshold:
            termination = C.TERM_BLOWUP
            break
        t, y, k1 = t_new, y_new, k7
        factor = 10.0 if err_norm == 0.0 else min(max(0.9 * err_norm ** -0.2, 0.2), 10.0)
        h *= factor

    if direction < 0:
        ts.reverse()
        ys.reverse()
        fs.reverse()
    stats.nfev, stats.accepted, stats.rejected, stats.domain_retries = nfev, accepted, rejected, retries
    return C.Trajectory(ts, ys, fs, t_lo=ts[0], t_hi=ts[-1], termination=termination, stats=stats)
