"""Continuous-time systems: ODEs on open boxes of R^n, possibly minus
finitely many points.

The integrator is an explicit embedded Runge-Kutta 5(4) pair (Dormand-
Prince coefficients): the 5th-order solution is propagated and the
difference to the embedded 4th-order one drives the step size.  Dense
output between accepted steps is cubic Hermite.  Integration stops early
when the state escapes past a norm threshold (blow-up) or leaves the
declared open domain; the crossing time is located by bisection.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import expr as E
from .core import CheckReport

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
    def _jacobian(self) -> tuple[tuple[E.Expr, ...], ...]:
        return E.jacobian(self.components)

    def jacobian_at(self, point, t: float = 0.0) -> np.ndarray:
        """The Jacobian matrix at a point, from symbolic partials built once per map."""
        return np.array([[E.evaluate(entry, point, t) for entry in row] for row in self._jacobian])


def smooth_map(sources: Sequence[str], arity: int) -> SmoothMap:
    return SmoothMap(E.parse_vector(sources, arity))


def identity_smooth_map(n: int) -> SmoothMap:
    return SmoothMap(E.identity_map(n))


def compose_smooth_maps(outer: SmoothMap, inner: SmoothMap) -> SmoothMap:
    return SmoothMap(E.compose(outer.components, inner.components))


# --- trajectories -----------------------------------------------------------


@dataclass
class Trajectory:
    """Sampled solution curve with its domain-of-definition metadata.

    ``times`` is strictly increasing regardless of integration direction;
    ``termination`` explains why integration stopped at the far end (t_hi
    when integrating forward, t_lo backward).
    """

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    t_lo: float
    t_hi: float
    termination: str

    def sample(self, t: float) -> np.ndarray:
        """Dense output: cubic Hermite on the accepted step containing t."""
        ts = self.times
        if not ts[0] <= t <= ts[-1]:
            raise ValueError(f"t={t} outside recorded span [{ts[0]}, {ts[-1]}]")
        i = int(np.searchsorted(ts, t, side="right")) - 1
        i = min(max(i, 0), len(ts) - 2)
        return _hermite(
            t, ts[i], ts[i + 1], self.states[i], self.states[i + 1],
            self.derivs[i], self.derivs[i + 1],
        )

    def to_csv(self, path=None) -> None:
        """Write ``t,x1,...,xn`` rows at full precision to ``path``, or to
        the current standard output when ``path`` is None."""
        n = self.states.shape[1]
        with open(path, "w") if path is not None else nullcontext() as fh:
            print("t," + ",".join(f"x{i}" for i in range(1, n + 1)), file=fh)
            for t, row in zip(self.times, self.states):
                print(",".join([f"{t:.17g}"] + [f"{v:.17g}" for v in row]), file=fh)


def _hermite(t, t0, t1, y0, y1, f0, f1):
    h = t1 - t0
    s = (t - t0) / h
    h00 = 2 * s**3 - 3 * s**2 + 1
    h10 = s**3 - 2 * s**2 + s
    h01 = -2 * s**3 + 3 * s**2
    h11 = s**3 - s**2
    return h00 * y0 + h * h10 * f0 + h01 * y1 + h * h11 * f1


def _hermite_deriv(t, t0, t1, y0, y1, f0, f1):
    h = t1 - t0
    s = (t - t0) / h
    d00 = (6 * s**2 - 6 * s) / h
    d10 = 3 * s**2 - 4 * s + 1
    d01 = (-6 * s**2 + 6 * s) / h
    d11 = 3 * s**2 - 2 * s
    return d00 * y0 + d10 * f0 + d01 * y1 + d11 * f1


# --- Dormand-Prince 5(4) ----------------------------------------------------

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_DP_A = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
)
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_E = np.concatenate([_DP_B, [0.0]]) - _DP_B4


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def _make_rhs(sys: ContinuousSystem):
    comps = sys.field.components

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return np.array([E._eval(c.root, y, t) for c in comps])

    return rhs


def _initial_step(rhs, t0, y0, f0, direction, rtol, atol, limit):
    scale = atol + rtol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, limit)
    try:
        y1 = y0 + h0 * direction * f0
        f1 = rhs(t0 + h0 * direction, y1)
        d2 = _rms((f1 - f0) / scale) / h0
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

    Local error per step is held to about atol + rtol*|x|.  Stops early
    with termination "blow-up" once |x| exceeds ``escape_threshold`` and
    with "left-domain" when the state exits the open domain; the boundary
    crossing is bisected to EXIT_BISECT_TOL and becomes the final knot.
    Raises :class:`StepLimitError` after ``max_steps`` steps.
    """
    y0 = np.asarray(x0, dtype=float)
    if y0.shape != (sys.dimension,):
        raise E.ArityError(f"x0 has shape {y0.shape}, expected ({sys.dimension},)")
    if not sys.domain.contains(y0):
        raise ValueError(f"x0 {tuple(y0)} outside the domain")
    T = float(span)
    if T == 0.0 or not math.isfinite(T):
        raise ValueError("span must be a nonzero finite time")
    direction = 1.0 if T > 0 else -1.0

    rhs = _make_rhs(sys)
    t, y = 0.0, y0.copy()
    k1 = rhs(t, y)
    ts, ys, fs = [t], [y.copy()], [k1.copy()]
    termination = TERM_SPAN
    punctures_1d = [p[0] for p in sys.domain.punctures] if sys.dimension == 1 else []

    h = direction * _initial_step(rhs, t, y, k1, direction, rtol, atol, min(abs(T), max_step))
    steps = 0
    while direction * (T - t) > 1e-14 * max(1.0, abs(T)):
        steps += 1
        if steps > max_steps:
            raise StepLimitError(f"exceeded {max_steps} steps at t={t}")
        h = direction * min(abs(h), max_step, abs(T - t))
        if abs(h) < 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflowError(f"step size underflow at t={t} (stiffness failure)")

        try:
            ks = [k1]
            for stage in range(5):
                dy = h * (_DP_A[stage] @ np.array(ks[: stage + 1]))
                ks.append(rhs(t + _DP_C[stage + 1] * h, y + dy))
            y_new = y + h * (_DP_B @ np.array(ks))
            k_new = rhs(t + h, y_new)
        except E.DomainError:
            h *= 0.3
            continue

        err = h * (_DP_E @ np.array(ks + [k_new]))
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = _rms(err / scale)
        if err_norm > 1.0:
            h *= min(max(0.9 * err_norm ** -0.2, 0.2), 1.0)
            continue

        t_new = t + h
        crossing = _first_exit(sys, punctures_1d, t, t_new, y, y_new, k1, k_new)
        if crossing is not None:
            t_x, y_x = crossing
            f_x = _hermite_deriv(t_x, t, t_new, y, y_new, k1, k_new)
            ts.append(t_x)
            ys.append(y_x)
            fs.append(f_x)
            termination = TERM_LEFT_DOMAIN
            break

        ts.append(t_new)
        ys.append(y_new.copy())
        fs.append(k_new.copy())
        if float(np.linalg.norm(y_new)) > escape_threshold:
            termination = TERM_BLOWUP
            break
        t, y, k1 = t_new, y_new, k_new
        factor = 10.0 if err_norm == 0.0 else min(max(0.9 * err_norm ** -0.2, 0.2), 10.0)
        h *= factor

    order = np.argsort(np.array(ts))  # backward runs are stored time-ascending
    times = np.array(ts)[order]
    states = np.array(ys)[order]
    derivs = np.array(fs)[order]
    return Trajectory(
        times=times,
        states=states,
        derivs=derivs,
        t_lo=float(times[0]),
        t_hi=float(times[-1]),
        termination=termination,
    )


def _first_exit(sys, punctures_1d, t0, t1, y0, y1, f0, f1):
    """Earliest domain-exit event inside an accepted step, if any."""
    dense = lambda tau: _hermite(tau, t0, t1, y0, y1, f0, f1)
    events: list[float] = []

    def in_box(yv) -> bool:
        return all(lo < v < hi for v, (lo, hi) in zip(yv, sys.domain.bounds))

    if not in_box(y1):
        events.append(_bisect(lambda tau: not in_box(dense(tau)), t0, t1, EXIT_BISECT_TOL))
    for p in punctures_1d:
        a, b = y0[0] - p, y1[0] - p
        if a == 0.0:
            continue  # started exactly on the puncture: already handled upstream
        if a * b < 0.0 or b == 0.0:
            sign0 = a > 0.0
            events.append(
                _bisect(
                    lambda tau: ((dense(tau)[0] - p) > 0.0) != sign0 or dense(tau)[0] == p,
                    t0, t1, EXIT_BISECT_TOL,
                )
            )
    if sys.dimension > 1 and tuple(y1) in sys.domain.punctures:
        events.append(t1)
    if not events:
        return None
    t_x = min(events) if t1 > t0 else max(events)
    return t_x, dense(t_x)


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
        v = np.array(E.evaluate_vector(x_sys.field, x))
        jmat = f.jacobian_at(x)
        y = f(x)
        if not y_sys.domain.contains(y):
            raise E.DomainError(f"f({tuple(x)}) = {tuple(y)} leaves the target domain")
        w = np.array(E.evaluate_vector(y_sys.field, y))
        defect = float(np.linalg.norm(jmat @ v - w))
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
    y0 = f(list(np.asarray(x0, dtype=float)))
    traj_y = integrate(y_sys, y0, span, rtol=rtol, atol=atol)
    lo = max(traj_x.t_lo, traj_y.t_lo)
    hi = min(traj_x.t_hi, traj_y.t_hi)
    if hi <= lo:
        return CheckReport(False, math.inf, 0, witness="no common span to compare")
    ts = np.linspace(lo, hi, grid)
    residual, worst_t = 0.0, None
    for tcur in ts:
        fx = np.array(f(traj_x.sample(tcur), t=tcur))
        d = float(np.linalg.norm(fx - traj_y.sample(tcur)))
        if d > residual:
            residual, worst_t = d, float(tcur)
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
    """Zeros of the field inside the search box.

    Grid scan for local minima of |X| seeds a damped Newton iteration with
    the symbolic jacobian; converged roots are deduplicated within 1e-6 and
    returned sorted.  Seeds that diverge are skipped.
    """
    n = sys.dimension
    if box is None:
        box = [
            (max(lo, -_SAMPLE_CLIP), min(hi, _SAMPLE_CLIP)) for lo, hi in sys.domain.bounds
        ]
    axes = [np.linspace(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo), resolution) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid_pts = np.stack([m.ravel() for m in mesh], axis=-1)

    def field_at(x):
        return np.array(E.evaluate_vector(sys.field, x))

    norms = np.full(len(grid_pts), np.inf)
    for i, x in enumerate(grid_pts):
        try:
            norms[i] = np.linalg.norm(field_at(x))
        except E.DomainError:
            pass
    norm_grid = norms.reshape([resolution] * n)

    seeds = []
    it = np.nditer(norm_grid, flags=["multi_index"])
    for val in it:
        if not np.isfinite(val):
            continue
        idx = it.multi_index
        is_min = True
        for axis in range(n):
            for step in (-1, 1):
                j = list(idx)
                j[axis] += step
                if 0 <= j[axis] < resolution and norm_grid[tuple(j)] < val:
                    is_min = False
        if is_min:
            seeds.append(np.array([axes[a][idx[a]] for a in range(n)]))

    field_map = SmoothMap(sys.field)
    roots: list[tuple[float, ...]] = []
    for seed in seeds:
        x = seed.copy()
        ok = False
        try:
            for _ in range(60):
                v = field_at(x)
                nv = np.linalg.norm(v)
                if nv <= tol:
                    ok = True
                    break
                jmat = field_map.jacobian_at(x)
                try:
                    dx = np.linalg.solve(jmat, -v)
                except np.linalg.LinAlgError:
                    break
                lam, moved = 1.0, False
                while lam > 1e-6:
                    xn = x + lam * dx
                    try:
                        if np.linalg.norm(field_at(xn)) < nv:
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
        cand = tuple(float(v) for v in x)
        if all(np.linalg.norm(np.array(cand) - np.array(r)) > 1e-6 for r in roots):
            roots.append(cand)
    return sorted(roots)


def check_equilibrium_morphism(
    sys: ContinuousSystem, x_e, tol: float = 1e-8
) -> CheckReport:
    """The one-point system maps into (M, X) at x_e exactly when X(x_e) = 0."""
    pt = tuple(float(v) for v in x_e)
    if not sys.domain.contains(pt):
        raise ValueError(f"candidate {pt} outside the domain")
    residual = float(np.linalg.norm(E.evaluate_vector(sys.field, pt)))
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
    closure = float(np.linalg.norm(traj.states[-1] - np.asarray(x0, dtype=float)))
    return CheckReport.numerical(
        closure, tol, len(traj.times),
        witness=f"endpoint {tuple(float(v) for v in traj.states[-1])}",
    )


def solution_morphism_report(
    traj: Trajectory, sys: ContinuousSystem, tol: float
) -> CheckReport:
    """Discretized relatedness of a recorded trajectory: compare 4th-order
    finite differences of the knots against the field along the curve.

    Only interior knots whose 5-point stencil has uniform spacing are used
    (integrate with max_step to get a uniform grid).
    """
    ts, ys = traj.times, traj.states
    residual, used = 0.0, 0
    for i in range(2, len(ts) - 2):
        hs = np.diff(ts[i - 2 : i + 3])
        h = hs[0]
        if np.max(np.abs(hs - h)) > 1e-9 * h:
            continue
        deriv = (ys[i - 2] - 8 * ys[i - 1] + 8 * ys[i + 1] - ys[i + 2]) / (12 * h)
        defect = float(np.linalg.norm(deriv - np.array(E.evaluate_vector(sys.field, ys[i], ts[i]))))
        residual = max(residual, defect)
        used += 1
    if used == 0:
        return CheckReport(False, math.inf, 0, witness="no uniform interior stencil")
    return CheckReport.numerical(residual, tol, used)
