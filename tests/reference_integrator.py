"""The integration loop of ``continuous.integrate`` written out on lists,
with one comprehension per DOP853 stage and ``dense._first_exit`` (domain
exits and escapes) tried after every accepted step on the step's own
stages; its step control has the same overflow mends (a step whose error
norm or new state is not finite is rejected and shrinks by 0.2, and a step
size underflow that follows one says which of the two overflowed) and the
same stability bound on |h*lambda|.  It is the oracle
that the generated step (``continuous._dop_step``) must match bit for bit;
it shares the helpers that the step leaves alone (initial step, domain
exits, dense output)."""

import math

from dynsys import continuous as C
from dynsys import dense as D
from dynsys import expr as E


def reference_integrate(sys, x0, span, rtol=1e-9, atol=1e-12, escape_threshold=C.DEFAULT_ESCAPE,
                        max_step=math.inf, max_steps=500_000) -> C.Trajectory:
    y = [float(v) for v in x0]
    if not sys.domain.contains(y):
        raise ValueError(f"x0 {tuple(y)} outside the domain")
    T = float(span)
    direction = 1.0 if T > 0 else -1.0
    field = sys.field._compiled
    c = dict(enumerate(C._DOP_C, 2))  # stage -> node
    a = dict(enumerate(C._DOP_A, 2))  # stage -> {earlier stage: coefficient}
    b, e5, e3 = C._DOP_B, C._DOP_E5, C._DOP_E3

    t = 0.0
    k1 = field(y, t)
    ts, ys, fs, steps = [t], [y], [k1], []
    termination = C.TERM_SPAN
    stats = C.IntegrationStats()

    h = direction * C._initial_step(field, t, y, k1, direction, rtol, atol, min(abs(T), max_step))
    nfev, accepted, rejected, retries = 2, 0, 0, 0
    stalled = 0
    cause = "stiffness failure"
    while direction * (T - t) > 1e-14 * max(1.0, abs(T)):
        if accepted + rejected + retries >= max_steps:
            raise C.StepLimitError(f"exceeded {max_steps} steps at t={t}")
        h = direction * min(abs(h), max_step, abs(T - t))
        if abs(h) < 1e-14 * max(1.0, abs(t)):
            raise C.StepSizeUnderflowError(f"step size underflow at t={t} ({cause})")

        event, retry = None, False
        try:
            nfev += 1
            k2 = field([v + h * (a[2][1] * p1) for v, p1 in zip(y, k1)], t + c[2] * h)
            nfev += 1
            k3 = field([v + h * (a[3][1] * p1 + a[3][2] * p2)
                        for v, p1, p2 in zip(y, k1, k2)], t + c[3] * h)
            nfev += 1
            k4 = field([v + h * (a[4][1] * p1 + a[4][3] * p3)
                        for v, p1, p3 in zip(y, k1, k3)], t + c[4] * h)
            nfev += 1
            k5 = field([v + h * (a[5][1] * p1 + a[5][3] * p3 + a[5][4] * p4)
                        for v, p1, p3, p4 in zip(y, k1, k3, k4)], t + c[5] * h)
            nfev += 1
            k6 = field([v + h * (a[6][1] * p1 + a[6][4] * p4 + a[6][5] * p5)
                        for v, p1, p4, p5 in zip(y, k1, k4, k5)], t + c[6] * h)
            nfev += 1
            k7 = field([v + h * (a[7][1] * p1 + a[7][4] * p4 + a[7][5] * p5 + a[7][6] * p6)
                        for v, p1, p4, p5, p6 in zip(y, k1, k4, k5, k6)], t + c[7] * h)
            nfev += 1
            k8 = field([v + h * (a[8][1] * p1 + a[8][4] * p4 + a[8][5] * p5 + a[8][6] * p6
                                 + a[8][7] * p7)
                        for v, p1, p4, p5, p6, p7 in zip(y, k1, k4, k5, k6, k7)], t + c[8] * h)
            nfev += 1
            k9 = field([v + h * (a[9][1] * p1 + a[9][4] * p4 + a[9][5] * p5 + a[9][6] * p6
                                 + a[9][7] * p7 + a[9][8] * p8)
                        for v, p1, p4, p5, p6, p7, p8 in zip(y, k1, k4, k5, k6, k7, k8)],
                       t + c[9] * h)
            nfev += 1
            k10 = field([v + h * (a[10][1] * p1 + a[10][4] * p4 + a[10][5] * p5 + a[10][6] * p6
                                  + a[10][7] * p7 + a[10][8] * p8 + a[10][9] * p9)
                         for v, p1, p4, p5, p6, p7, p8, p9
                         in zip(y, k1, k4, k5, k6, k7, k8, k9)], t + c[10] * h)
            nfev += 1
            k11 = field([v + h * (a[11][1] * p1 + a[11][4] * p4 + a[11][5] * p5 + a[11][6] * p6
                                  + a[11][7] * p7 + a[11][8] * p8 + a[11][9] * p9
                                  + a[11][10] * p10)
                         for v, p1, p4, p5, p6, p7, p8, p9, p10
                         in zip(y, k1, k4, k5, k6, k7, k8, k9, k10)], t + c[11] * h)
            nfev += 1
            z12 = [v + h * (a[12][1] * p1 + a[12][4] * p4 + a[12][5] * p5 + a[12][6] * p6
                            + a[12][7] * p7 + a[12][8] * p8 + a[12][9] * p9
                            + a[12][10] * p10 + a[12][11] * p11)
                   for v, p1, p4, p5, p6, p7, p8, p9, p10, p11
                   in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)]
            k12 = field(z12, t + c[12] * h)
            y_new = [v + h * (b[1] * p1 + b[6] * p6 + b[7] * p7 + b[8] * p8 + b[9] * p9
                              + b[10] * p10 + b[11] * p11 + b[12] * p12)
                     for v, p1, p6, p7, p8, p9, p10, p11, p12
                     in zip(y, k1, k6, k7, k8, k9, k10, k11, k12)]
            nfev += 1
            k13 = field(y_new, t + h)
        except E.DomainError:
            retry = True
        if not retry:
            scale = [atol + rtol * max(abs(v), abs(x)) for v, x in zip(y, y_new)]
            stages = list(zip(k1, k6, k7, k8, k9, k10, k11, k12))
            err5 = [(e5[1] * p1 + e5[6] * p6 + e5[7] * p7 + e5[8] * p8 + e5[9] * p9
                     + e5[10] * p10 + e5[11] * p11 + e5[12] * p12) / s
                    for (p1, p6, p7, p8, p9, p10, p11, p12), s in zip(stages, scale)]
            err3 = [(e3[1] * p1 + e3[6] * p6 + e3[7] * p7 + e3[8] * p8 + e3[9] * p9
                     + e3[10] * p10 + e3[11] * p11 + e3[12] * p12) / s
                    for (p1, p6, p7, p8, p9, p10, p11, p12), s in zip(stages, scale)]
            n5, n3 = C._dot(err5, err5), C._dot(err3, err3)
            err_norm = abs(h) * n5 / math.sqrt((n5 + 0.01 * n3) * len(y)) if n5 else 0.0
            dk = [p - q for p, q in zip(k13, k12)]
            dz = [p - q for p, q in zip(y_new, z12)]
            dk, dz = C._dot(dk, dk), C._dot(dz, dz)
            stiff = min(h * h * dk / (C._DOP_STABLE ** 2 * dz), 1e77) ** 4 if dz else 0.0
            if stiff > err_norm:
                err_norm = stiff
            finite = all(math.isfinite(v) for v in y_new)
            if not finite:
                err_norm = math.nan
            if not err_norm <= 1.0:
                rejected += 1
                cause = ("trial steps overflowed" if not finite else "stiffness failure"
                         if err_norm < math.inf else "error norm overflowed: tolerances too small")
                h *= 0.2 if math.isnan(err_norm) else min(max(0.9 * err_norm ** -0.125, 0.2), 1.0)
                continue
            record = (h, y_new, k13, [*k6, *k7, *k8, *k9, *k10, *k11, *k12])
            try:
                event = D._first_exit(sys.domain, escape_threshold, field, t, y, k1, record,
                                      stats)
            except E.DomainError:
                retry = True
        if retry:
            retries += 1
            stalled += 1
            cause = "stiffness failure"
            if stalled > C.STALL_RETRIES:
                raise C.StepSizeUnderflowError(
                    f"step stalled at t={t}: every step from {tuple(y)} either leaves "
                    f"the state unchanged or leaves the field's domain") from None
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
        factor = 10.0 if err_norm == 0.0 else min(max(0.9 * err_norm ** -0.125, 0.2), 10.0)
        h *= factor

    if direction < 0:
        ts.reverse()
        ys.reverse()
        fs.reverse()
        steps.reverse()
    stats.nfev, stats.accepted, stats.rejected, stats.domain_retries = nfev, accepted, rejected, retries
    return C.Trajectory(ts, ys, fs, t_lo=ts[0], t_hi=ts[-1], termination=termination, stats=stats,
                        steps=steps, field=field)
