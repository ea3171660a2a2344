"""The checks on continuous-time systems: sample sets, f-relatedness and
solution preservation, equilibria, periodic orbits, and the relatedness of
a recorded solution to its field.

Only ``check-morphism``, ``laws``, the tau checks and the category kernel
run these, so a ``dynsys solve`` does not load this module.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

# ``C.integrate`` is looked up at each call, so that replacing
# ``continuous.integrate`` (a test's stub, a tracer's wrapper) reaches these checks
from . import continuous as C
from . import expr as E
from .category import CheckReport, _distance, _linspace, _norm, _solve
from .continuous import (
    ContinuousSystem, Domain, EarlyTerminationError, SmoothMap, TERM_SPAN, Trajectory,
)
from .tau import check_tau_morphism, from_continuous

_SAMPLE_CLIP = 5.0  # unbounded domains are sampled inside [-clip, clip]
_EQUILIBRIUM_GRID = 21  # points per axis of the scan that seeds the equilibrium search
_PRESERVATION_GRID = 201  # times at which solution preservation compares the two curves


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
    battery gets reproducible coverage.  A coordinate whose bounds miss
    [-5, 5] is sampled on its own bounds instead, an infinite end replaced
    by the finite one +-10.
    """
    d = domain.dimension
    if d > len(_PRIMES):
        raise ValueError(f"sampling supports up to {len(_PRIMES)} dimensions")
    boxes = []
    for bound_lo, bound_hi in domain.bounds:
        lo = max(bound_lo, -_SAMPLE_CLIP)
        hi = min(bound_hi, _SAMPLE_CLIP)
        if lo >= hi:
            lo = bound_lo if math.isfinite(bound_lo) else bound_hi - 10.0
            hi = bound_hi if math.isfinite(bound_hi) else bound_lo + 10.0
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


def check_f_relatedness(f: SmoothMap, x_sys: ContinuousSystem, y_sys: ContinuousSystem,
                        samples: Sequence | None = None, tol: float = 1e-8) -> CheckReport:
    """Is Jf(x) X(x) = Y(f(x)) at the samples?  Jf is symbolically exact; the
    residual is the sup of the euclidean defect norms (:func:`tau.check_tau_morphism`)."""
    return check_tau_morphism(f, from_continuous(x_sys), from_continuous(y_sys), samples, tol)


def check_solution_preservation(
    f: SmoothMap,
    x_sys: ContinuousSystem,
    y_sys: ContinuousSystem,
    x0,
    span: float,
    tol: float = 1e-5,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> CheckReport:
    """Push the solution through f and compare with the solution started at
    f(x0): by uniqueness they must be the same curve.

    If either trajectory ends early the comparison covers the common span
    actually reached, reported in the note.
    """
    traj_x = C.integrate(x_sys, x0, span, rtol=rtol, atol=atol)
    y0 = f([float(v) for v in x0])
    traj_y = C.integrate(y_sys, y0, span, rtol=rtol, atol=atol)
    lo = max(traj_x.t_lo, traj_y.t_lo)
    hi = min(traj_x.t_hi, traj_y.t_hi)
    if hi <= lo:
        return CheckReport(False, math.inf, 0, witness="no common span to compare")
    full = (0.0, span) if span > 0 else (span, 0.0)
    note = None
    if abs(lo - full[0]) > 1e-12 or abs(hi - full[1]) > 1e-12:
        note = f"compared on [{lo:.17g}, {hi:.17g}] (early termination)"
    return CheckReport.worst(
        ((_distance(f(traj_x._sample(t), t=t), traj_y._sample(t)), t)
         for t in _linspace(lo, hi, _PRESERVATION_GRID)), tol,
        witness=lambda residual, t: f"max deviation {residual:.6g} at t={t}", note=note,
    )


# --- equilibria and periodic orbits ------------------------------------------


def find_equilibria(
    sys: ContinuousSystem,
    box: Sequence[tuple[float, float]] | None = None,
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
        box = [(max(lo, -_SAMPLE_CLIP), min(hi, _SAMPLE_CLIP)) for lo, hi in sys.domain.bounds]
    axes = [_linspace(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo), _EQUILIBRIUM_GRID)
            for lo, hi in box]
    field = sys.field._compiled  # every component in one call, as in integrate
    norms = []  # over the grid in row-major order, inf where the field is undefined
    for x in itertools.product(*axes):
        try:
            norms.append(_norm(field(x, 0.0)))
        except E.DomainError:
            norms.append(math.inf)

    # seeds: the grid's local minima of |X| along every axis
    strides = [_EQUILIBRIUM_GRID ** (n - 1 - a) for a in range(n)]
    seeds = []
    for flat, idx in enumerate(itertools.product(range(_EQUILIBRIUM_GRID), repeat=n)):
        val = norms[flat]
        if not math.isfinite(val):
            continue
        for i, stride in zip(idx, strides):
            if (i > 0 and norms[flat - stride] < val) or \
                    (i < _EQUILIBRIUM_GRID - 1 and norms[flat + stride] < val):
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
    return CheckReport.worst([(residual, pt)], tol,
                             witness=lambda residual, pt: f"|X({pt})| = {residual:.6g}")


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
    traj = C.integrate(sys, x0, period, rtol=rtol, atol=atol)
    if traj.termination != TERM_SPAN:
        raise EarlyTerminationError(
            f"trajectory ended at t={traj.t_hi:.6g} ({traj.termination}) before T={period}"
        )
    end = traj._states[-1]
    closure = _distance(end, [float(v) for v in x0])
    return CheckReport.worst([(closure, tuple(end))], tol,
                             witness=lambda closure, end: f"endpoint {end}")


def solution_morphism_report(
    traj: Trajectory, sys: ContinuousSystem, tol: float
) -> CheckReport:
    """Discretized relatedness of a recorded trajectory: compare 6th-order
    finite differences of the knots against the field along the curve.

    Only interior knots whose 7-point stencil has uniform spacing are used
    (integrate with max_step to get a uniform grid).  The stencil's
    truncation error, h^6 |y^(7)| / 140, is not part of the bound.
    """
    ts, ys = traj._times, traj._states
    hs = [b - a for a, b in zip(ts, ts[1:])]

    def defects():
        for i in range(3, len(ts) - 3):
            h, window = hs[i - 3], hs[i - 3:i + 3]
            # the largest |d - h| over the window, as subtraction is monotone
            if max(max(window) - h, h - min(window)) > 1e-9 * h:
                continue
            deriv = [(45 * (d - c) - 9 * (e - b) + (f - a)) / (60 * h)
                     for a, b, c, d, e, f in zip(*ys[i - 3:i], *ys[i + 1:i + 4])]
            yield _distance(deriv, E.evaluate_vector(sys.field, ys[i], ts[i])), ts[i]

    report = CheckReport.worst(defects(), tol)
    if report.samples == 0:
        return CheckReport(False, math.inf, 0, witness="no uniform interior stencil")
    return report
