import math
from contextlib import nullcontext

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest
from exprgen import random_node
from reference_integrator import reference_integrate

from dynsys import continuous as C
from dynsys import expr as E


def line(rate: str, lo=-math.inf, hi=math.inf, punctures=()) -> C.ContinuousSystem:
    dom = C.Domain(((lo, hi),), tuple((p,) for p in punctures))
    return C.ContinuousSystem(dom, E.parse_vector([rate], 1))


def oscillator() -> C.ContinuousSystem:
    return C.ContinuousSystem(C.full_space(2), E.parse_vector(["x2", "-x1"], 2))


# --- integrator vs closed forms ---------------------------------------------


def test_constant_field_is_time():
    traj = C.integrate(C.time_system(), [0.0], 5.0)
    assert traj.termination == "reached-span"
    assert abs(traj.states[-1][0] - 5.0) < 1e-9
    assert abs(traj.t_hi - 5.0) < 1e-12


def test_exponential_growth():
    traj = C.integrate(line("x1"), [1.0], 1.0)
    assert abs(traj.states[-1][0] - math.e) < 1e-6


def test_backward_span():
    traj = C.integrate(line("x1"), [1.0], -1.0)
    assert traj.t_lo == pytest.approx(-1.0)
    assert traj.times[0] == traj.t_lo  # stored ascending
    assert abs(traj.states[0][0] - math.exp(-1.0)) < 1e-6


def test_harmonic_oscillator_closed_form():
    traj = C.integrate(oscillator(), [1.0, 0.0], math.pi / 2)
    # (cos t, -sin t)
    assert np.allclose(traj.states[-1], [0.0, -1.0], atol=1e-7)


def test_dense_output_accuracy():
    traj = C.integrate(line("x1"), [1.0], 1.0)
    for t in np.linspace(0, 1, 37):
        assert abs(traj.sample(t)[0] - math.exp(t)) < 1e-6


def test_dense_output_at_step_midpoints_matches_scipy():
    # the order-7 interpolant sits within a few step tolerances of the true
    # solution halfway between knots (11.8 here; cubic Hermite on these
    # steps is off by 3.7e5)
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    rtol, atol = 1e-9, 1e-12
    traj = C.integrate(C.ContinuousSystem(C.full_space(3), E.parse_vector(LORENZ, 3)),
                       [1.0, 1.0, 1.0], 2.0, rtol=rtol, atol=atol)
    mids = [(a + b) / 2 for a, b in zip(traj._times, traj._times[1:])]
    ref = solve_ivp(lambda t, x: [10 * (x[1] - x[0]), x[0] * (28 - x[2]) - x[1],
                                  x[0] * x[1] - 8 / 3 * x[2]],
                    (0.0, 2.0), [1.0, 1.0, 1.0], method="DOP853", rtol=1e-13, atol=1e-13,
                    t_eval=mids).y.T
    for t, want in zip(mids, ref):
        got = traj._sample(t)
        assert all(abs(a - b) <= 20 * (atol + rtol * abs(b)) for a, b in zip(got, want)), t


def test_dense_output_passes_through_the_knots():
    traj = C.integrate(C.ContinuousSystem(C.full_space(3), E.parse_vector(LORENZ, 3)),
                       [1.0, 1.0, 1.0], -1.0)
    for t, y in zip(traj._times, traj._states):
        assert traj._sample(t) == y
    # either side of a knot, the two steps meeting there agree to the step tolerance
    for i in range(1, len(traj._times) - 1):
        t = traj._times[i]
        left = traj._sample(math.nextafter(t, -math.inf))
        right = traj._sample(math.nextafter(t, math.inf))
        assert max(abs(a - b) for a, b in zip(left, right)) < 1e-9 * 100


@pytest.mark.parametrize("sys, span, kwargs, exact", [
    (line("x1", lo=0.0, hi=10.0), 5.0, {}, math.exp),
    (line("-x1", lo=0.0, hi=10.0), -5.0, {}, lambda t: math.exp(-t)),
    (line("x1^2"), 2.0, {"escape_threshold": 1e3}, lambda t: 1.0 / (1.0 - t)),
], ids=["box-exit", "box-exit-backward", "escape"])
def test_dense_output_in_an_event_ended_step(sys, span, kwargs, exact):
    # the event point is the last knot, inside the step that found it: the
    # interpolant there is the full step's, built from its own end, not from
    # the event point (that reads 3.7e-4 and 8.9e-4 off the closed form)
    traj = C.integrate(sys, [1.0], span, **kwargs)
    assert traj.termination != "reached-span"
    a, b = (traj._times[-2], traj._times[-1]) if span > 0 else (traj._times[1], traj._times[0])
    for t in [a + j / 16 * (b - a) for j in range(1, 16)]:
        assert traj._sample(t)[0] == pytest.approx(exact(t), rel=1e-6), t


def test_dense_control_points_are_the_bezier_form():
    # the puncture filter reads the bounding box of the control points, which
    # holds the segment because they give it back in the Bernstein basis
    from dynsys import dense as D

    traj = C.integrate(C.ContinuousSystem(C.full_space(3), E.parse_vector(LORENZ, 3)),
                       [1.0, 1.0, 1.0], 2.0)
    i = len(traj._times) // 2
    segment = D.Segment(traj._field, traj._times[i], traj._states[i], traj._derivs[i],
                        traj._steps[i])
    points = segment.control_points()
    for x in [j / 8 for j in range(9)]:
        bezier = [sum(math.comb(7, k) * x**k * (1 - x)**(7 - k) * p[k] for k in range(8))
                  for p in points]
        assert bezier == pytest.approx(segment.at(segment.t0 + x * segment.h), rel=1e-13)


def test_dense_step_coefficients_are_scipy_dop853():
    coefficients = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    from dynsys import dense as D

    def row(d, size):  # a stage -> coefficient map as scipy's dense row
        return [d.get(k, 0.0) for k in range(1, size + 1)]

    assert list(C._DOP_C) == list(coefficients.C[1:12])
    for s, a in enumerate(C._DOP_A, 1):
        assert row(a, 12) == list(coefficients.A[s, :12])
    assert row(C._DOP_B, 12) == list(coefficients.B)
    assert row(C._DOP_E5, 13) == list(coefficients.E5)
    assert row(C._DOP_E3, 13) == list(coefficients.E3)
    assert list(D._DOP_C_EXTRA) == list(coefficients.C[13:])
    for s, a in enumerate(D._DOP_A_EXTRA, 13):
        assert row(a, 16) == list(coefficients.A[s])
    for d, want in zip(D._DOP_D, coefficients.D):
        assert row(d, 16) == list(want)


def test_dense_output_outside_the_field_domain_is_a_domain_error():
    # sqrt's argument is negative only within 1e-7 of t = a, which holds the
    # extra stage at t + 0.1h of the second step and none of the step's own
    a = 0.0001859276011815556
    sys = C.ContinuousSystem(C.full_space(1),
                             E.parse_vector([f"1 + 0*sqrt((t - {a!r})^2 - 1e-14)"], 1))
    traj = C.integrate(sys, [0.0], 1.0)
    assert traj.termination == "reached-span" and traj.stats.domain_retries == 0
    assert traj._times[1] < a < traj._times[2]
    with pytest.raises(E.DomainError, match="dense output of the step from t=9.99"):
        traj.sample(a)
    assert traj.sample(0.5)[0] == pytest.approx(0.5)
    # an exit located in such a step retries the step shorter
    boxed = C.ContinuousSystem(C.Domain([(-1.0, 5e-4)]), sys.field)
    traj = C.integrate(boxed, [0.0], 1.0)
    assert traj.termination == "left-domain" and traj.stats.domain_retries > 0
    assert traj.t_hi == pytest.approx(5e-4, abs=1e-9)


def test_x0_outside_domain_rejected():
    with pytest.raises(ValueError):
        C.integrate(line("1", lo=0.0, hi=1.0), [2.0], 1.0)


def test_blow_up_quadratic():
    # dx = x^2 from 1 blows up at t = 1 (closed form 1/(1-t))
    traj = C.integrate(line("x1^2"), [1.0], 2.0)
    assert traj.termination == "blow-up"
    assert 0.99 <= traj.t_hi <= 1.01
    assert np.linalg.norm(traj.states[-1]) > C.DEFAULT_ESCAPE


def test_blow_up_is_located_on_the_dense_output():
    # the escape is bisected on the step's interpolant, not read at its end:
    # |x| = 1e6 at t = 1 - 1e-6, less the computed solution's 9.6e-11 lag
    traj = C.integrate(line("x1^2"), [1.0], 2.0, escape_threshold=1e6)
    assert traj.termination == "blow-up"
    assert 1.0 - traj.t_hi == pytest.approx(1e-6, abs=2e-10)
    assert 1e6 < traj.states[-1][0] < 1e6 * (1 + 1e-9)


def test_blow_up_threshold_monotone():
    # the escape report approaches the true pole as the threshold grows
    gaps = []
    for threshold in (1e6, 1e8, 1e10):
        traj = C.integrate(line("x1^2"), [1.0], 2.0, escape_threshold=threshold)
        assert traj.termination == "blow-up"
        gaps.append(1.0 - traj.t_hi)
    assert gaps[0] >= gaps[1] >= gaps[2] > 0
    assert gaps[1] < 1e-2


def test_left_domain_bisected():
    # dx = 1 on (-inf, 2): exits at t = 1 from x0 = 1
    traj = C.integrate(line("1", hi=2.0), [1.0], 5.0)
    assert traj.termination == "left-domain"
    assert abs(traj.t_hi - 1.0) < 1e-6
    assert traj.states[-1][0] == pytest.approx(2.0, abs=1e-6)


def test_box_exit_is_bisected_to_float_resolution():
    # the exit is the first float at which the dense output leaves the box:
    # one float earlier it is still inside
    traj = C.integrate(line("1", hi=2.0), [1.0], 5.0)
    assert traj.states[-1][0] >= 2.0
    assert traj._sample(math.nextafter(traj.t_hi, 0.0))[0] < 2.0


def test_exit_time_beyond_bisection_resolution():
    # the exit at t = 5e7, where an ulp is ~7e-9: the crossing bisection
    # must stop at float resolution, not loop on a bracket it cannot halve
    traj = C.integrate(line("1e-8", lo=0.0, hi=1.0), [0.5], 1e8)
    assert traj.termination == "left-domain"
    assert traj.t_hi == pytest.approx(5e7, rel=1e-9)


@pytest.mark.parametrize("puncture", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_puncture_rejected(puncture):
    # a nan puncture used to be kept and never hit, as if there were none
    with pytest.raises(ValueError, match="non-finite coordinate"):
        C.Domain(((-1.0, 1.0), (-1.0, 1.0)), (puncture,))


def test_puncture_crossing_detected():
    # moving left from 1 on the punctured line stops at the puncture
    traj = C.integrate(line("1", punctures=(0.0,)), [1.0], -3.0)
    assert traj.termination == "left-domain"
    assert abs(traj.t_lo + 1.0) < 1e-6


def test_puncture_1d_creeping_solution_runs_on():
    # x0*e^-t nears the puncture at 0 but never reaches it
    for x0 in (1.0, 1e-7):
        traj = C.integrate(line("-x1", punctures=(0.0,)), [x0], 30.0)
        assert traj.termination == "reached-span"
        assert traj.t_hi == 30.0
        assert traj.states[-1][0] == pytest.approx(x0 * math.exp(-30.0), rel=1e-6)


def test_decay_below_atol_keeps_its_sign():
    # |h*lambda| stays where DOP853's stability function is positive, so x' =
    # -x on (0, inf) decays toward the bound without crossing it
    for x0 in (1.0, 1e-7):
        traj = C.integrate(line("-x1", lo=0.0), [x0], 30.0)
        assert traj.termination == "reached-span"
        assert all(y[0] > 0.0 for y in traj._states)


def test_puncture_2d_path_through():
    # (1 - t, 1 - t) reaches the puncture at the origin at t = 1
    sys = C.ContinuousSystem(C.Domain(((-math.inf, math.inf),) * 2, ((0.0, 0.0),)),
                             E.parse_vector(["-1", "-1"], 2))
    traj = C.integrate(sys, [1.0, 1.0], 2.0)
    assert traj.termination == "left-domain"
    assert traj.t_hi == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(traj.states[-1]) < 1e-12
    assert traj.stats.event_bisections > 0


def test_puncture_2d_near_miss():
    # (1 - t, 0) passes the puncture (0, 1e-3) at distance 1e-3
    sys = C.ContinuousSystem(C.Domain(((-math.inf, math.inf),) * 2, ((0.0, 1e-3),)),
                             E.parse_vector(["-1", "0"], 2))
    traj = C.integrate(sys, [1.0, 0.0], 2.0)
    assert traj.termination == "reached-span"
    assert traj.t_hi == 2.0


def test_puncture_3d_on_curved_path():
    # the oscillator circle (cos t, -sin t, t) passes (0, -1, pi/2)
    sys = C.ContinuousSystem(
        C.Domain(((-math.inf, math.inf),) * 3, ((0.0, -1.0, math.pi / 2),)),
        E.parse_vector(["x2", "-x1", "1"], 3),
    )
    traj = C.integrate(sys, [1.0, 0.0, 0.0], 3.0)
    assert traj.termination == "left-domain"
    assert traj.t_hi == pytest.approx(math.pi / 2, abs=1e-8)


def test_convergence_order_battery():
    cases = [
        (line("1"), [0.0], 1.0, lambda t: t),
        (line("x1"), [1.0], 1.0, lambda t: math.exp(t)),
        (line("x1^2"), [1.0], 0.5, lambda t: 1.0 / (1.0 - t)),
    ]
    for sys, x0, T, exact in cases:
        errors = []
        for k in range(5):
            rtol = 1e-4 / 2**k
            traj = C.integrate(sys, x0, T, rtol=rtol, atol=rtol * 1e-3)
            errors.append(abs(traj.states[-1][0] - exact(T)))
        for a, b in zip(errors, errors[1:]):
            assert b <= 4 * a + 1e-13
    # harmonic oscillator against (cos, -sin)
    errors = []
    for k in range(5):
        rtol = 1e-4 / 2**k
        traj = C.integrate(oscillator(), [1.0, 0.0], 1.0, rtol=rtol, atol=rtol * 1e-3)
        ref = np.array([math.cos(1.0), -math.sin(1.0)])
        errors.append(np.linalg.norm(traj.states[-1] - ref))
    for a, b in zip(errors, errors[1:]):
        assert b <= 4 * a + 1e-13


LORENZ = ["10*(x2 - x1)", "x1*(28 - x3) - x2", "x1*x2 - 8/3*x3"]


@pytest.mark.parametrize("fields, x0, rhs", [
    (LORENZ, [1.0, 1.0, 1.0],
     lambda t, x: [10 * (x[1] - x[0]), x[0] * (28 - x[2]) - x[1], x[0] * x[1] - 8 / 3 * x[2]]),
    (["x2", "2*(1 - x1^2)*x2 - x1"], [2.0, 0.0],
     lambda t, x: [x[1], 2 * (1 - x[0] ** 2) * x[1] - x[0]]),
    (["x2", "-x1"], [1.0, 0.0], lambda t, x: [x[1], -x[0]]),
    (["x2", "-0.25*x2 + x1 - x1^3"], [0.5, -0.3],
     lambda t, x: [x[1], -0.25 * x[1] + x[0] - x[0] ** 3]),
], ids=["lorenz", "van-der-pol", "oscillator", "duffing"])
def test_integrate_matches_scipy_dop853(fields, x0, rhs):
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    sys = C.ContinuousSystem(C.full_space(len(x0)), E.parse_vector(fields, len(x0)))
    traj = C.integrate(sys, x0, 3.0)
    ref = solve_ivp(rhs, (0.0, 3.0), x0, method="DOP853", rtol=1e-13, atol=1e-13,
                    t_eval=traj.times).y.T
    scale = np.max(np.abs(ref), axis=1)
    assert np.max(np.max(np.abs(traj.states - ref), axis=1) / scale) <= 1e-6


def test_lorenz_mirror_is_exact():
    # (x1, x2, x3) -> (-x1, -x2, x3) is a symmetry of the Lorenz field, and
    # the step's arithmetic commutes with negation bit for bit
    sys = C.ContinuousSystem(C.full_space(3), E.parse_vector(LORENZ, 3))
    traj = C.integrate(sys, [1.3, 0.7, 1.1], 5.0)
    mirror = C.integrate(sys, [-1.3, -0.7, 1.1], 5.0)
    assert np.array_equal(mirror.times, traj.times)
    assert np.array_equal(mirror.states, traj.states * [-1.0, -1.0, 1.0])
    for t in np.linspace(0.0, 5.0, 11):
        assert np.array_equal(mirror.sample(t), traj.sample(t) * [-1.0, -1.0, 1.0])


def test_solution_is_a_morphism():
    # discretized relatedness via 6th-order differences on a uniform grid
    rtol, atol = 1e-9, 1e-12
    traj = C.integrate(oscillator(), [1.0, 0.0], 1.0, rtol=rtol, atol=atol, max_step=1e-3)
    max_norm = float(np.max(np.linalg.norm(traj.states, axis=1)))
    sys_tol = 10 * (atol + rtol * max_norm)
    rep = C.solution_morphism_report(traj, oscillator(), sys_tol)
    assert rep.passed, rep


def test_solution_morphism_fails_for_a_perturbed_field():
    # the laws run's knots (max_step 2e-3) of the Lorenz field with sigma and
    # rho perturbed by 1e-5 relative fail against the field itself, while the
    # oscillator's own knots pass, both at the laws bound
    rtol, atol = 1e-9, 1e-12

    def report(fields, x0, sys):
        n = len(x0)
        knots = C.integrate(C.ContinuousSystem(C.full_space(n), E.parse_vector(fields, n)),
                            x0, 1.0, rtol=rtol, atol=atol, max_step=2e-3)
        bound = 10 * (atol + rtol * max(abs(v) for row in knots._states for v in row))
        return C.solution_morphism_report(knots, sys, bound), bound

    lorenz = C.ContinuousSystem(C.full_space(3), E.parse_vector(LORENZ, 3))
    perturbed = ["10.0001*(x2 - x1)", "x1*(28.00028 - x3) - x2", "x1*x2 - 8/3*x3"]
    rep, bound = report(perturbed, [1.0, 1.0, 1.0], lorenz)
    assert not rep.passed and rep.residual > 100 * bound
    rep, bound = report(["x2", "-x1"], [1.0, 0.0], oscillator())
    assert rep.passed and rep.residual < bound / 100


def test_step_underflow_is_stiffness_failure():
    # backward toward the 1/x singularity at t = -1/2: no step can cross it
    with pytest.raises(C.StepSizeUnderflowError):
        C.integrate(line("1/x1"), [1.0], -2.0)


def test_stall_at_field_domain_edge_is_underflow():
    # backward from 2, x1 nears sqrt(2), where the rounded x1*x1 - 2 is never
    # 0: the state stops at the last float inside sqrt's domain
    with pytest.raises(C.StepSizeUnderflowError, match="stalled at t=-0.88137"):
        C.integrate(line("sqrt(x1*x1 - 2)"), [2.0], -3.0)


@pytest.mark.parametrize("max_step", [math.nan, 0.0, -0.0, -1.0])
def test_max_step_must_be_positive(max_step):
    # nan was ignored, 0 ended in step size underflow, and -1 stepped
    # against the span until max_steps
    with pytest.raises(ValueError, match="max_step must be positive"):
        C.integrate(oscillator(), [1.0, 0.0], 1.0, max_step=max_step)


def test_step_limit_is_typed():
    with pytest.raises(C.StepLimitError, match="exceeded 5 steps"):
        C.integrate(line("sin(1000*t)*1000"), [0.0], 1e4, max_steps=5)


# --- solver statistics --------------------------------------------------------


def _assert_stats_consistent(traj):
    s = traj.stats
    assert s.accepted == len(traj.times) - 1
    assert s.nfev <= 12 * (s.accepted + s.rejected + s.domain_retries) + 2


def test_stats_oscillator_reached_span():
    traj = C.integrate(oscillator(), [1.0, 0.0], 2 * math.pi)
    assert traj.termination == "reached-span"
    _assert_stats_consistent(traj)
    s = traj.stats
    # DOP853 refuses no step on the oscillator; the Lorenz run below does
    assert s.rejected == 0 and s.domain_retries == 0
    # with no domain retry every step attempt evaluates the field twelve times
    assert s.nfev == 12 * (s.accepted + s.rejected) + 2
    assert s.event_bisections == 0


def test_stats_count_rejected_steps():
    traj = C.integrate(C.ContinuousSystem(C.full_space(3), E.parse_vector(LORENZ, 3)),
                       [1.0, 1.0, 1.0], 20.0)
    _assert_stats_consistent(traj)
    s = traj.stats
    assert s.rejected > 0 and s.domain_retries == 0
    assert s.nfev == 12 * (s.accepted + s.rejected) + 2


def test_stats_box_exit():
    traj = C.integrate(line("1", hi=2.0), [1.0], 5.0)
    assert traj.termination == "left-domain"
    _assert_stats_consistent(traj)
    assert traj.stats.event_bisections > 0


def test_stats_count_domain_retries():
    # x1 reaches 1 at t=2, and stages that overshoot it leave sqrt's domain
    traj = C.integrate(line("sqrt(1 - x1)"), [0.0], 3.0)
    assert traj.termination == "reached-span"
    assert traj.stats.domain_retries > 0
    _assert_stats_consistent(traj)
    # each retry counts the field calls it started, up to the failing stage:
    # 2 + 12 * (57 accepted + 12 rejected) + 400, the 51 retries failing at
    # stage 5 once, 6 21 times, 9 4 times, 11 18 times, 12 5 times and 13 twice
    # (4 + 105 + 32 + 180 + 55 + 24 calls)
    assert traj.stats.nfev == 1230


# --- the generated step against the loop it replaced --------------------------


def _outcome(integrator, sys, x0, span, **kwargs):
    """Everything a run produces, as a repr: it tells -0.0 from 0.0, and a
    nan equals itself."""
    try:
        traj = integrator(sys, x0, span, **kwargs)
    except (ValueError, E.ExprError, C.StepLimitError, C.StepSizeUnderflowError) as exc:
        return repr((type(exc), str(exc)))
    s = traj.stats
    return repr((traj._times, traj._states, traj._derivs, traj.termination,
                 (s.nfev, s.accepted, s.rejected, s.domain_retries, s.event_bisections)))


def _assert_matches_reference(sys, x0, span, **kwargs):
    assert _outcome(C.integrate, sys, x0, span, **kwargs) == \
        _outcome(reference_integrate, sys, x0, span, **kwargs)


@pytest.mark.parametrize("sys, x0, span, kwargs", [
    (line("sqrt(x1*x1 - 2)"), [2.0], -3.0, {}),  # the stall stop
    (line("1/x1"), [1.0], -2.0, {}),  # step size underflow
    (line("sqrt(1 - x1)"), [0.0], 3.0, {}),  # domain retries
    (line("sin(1000*t)*1000"), [0.0], 1e4, {"max_steps": 5}),
    (line("x1^2"), [1.0], 2.0, {"escape_threshold": 1e10}),
    (line("x1", lo=0.0, hi=3.0), [1.0], 5.0, {}),
    (line("1", punctures=(0.0,)), [1.0], -3.0, {}),
    (C.ContinuousSystem(C.Domain(((-math.inf, math.inf),) * 2, ((0.0, 0.0),)),
                        E.parse_vector(["-1", "-1"], 2)), [1.0, 1.0], 2.0, {}),
    (C.ContinuousSystem(C.Domain(((-math.inf, math.inf),) * 3, ((0.0, -1.0, math.pi / 2),)),
                        E.parse_vector(["x2", "-x1", "1"], 3)), [1.0, 0.0, 0.0], 3.0, {}),
    (oscillator(), [1.0, 0.0], 3.0, {"max_step": 2e-3}),
    (C.ContinuousSystem(C.full_space(3), E.parse_vector(LORENZ, 3)), [1.1, 0.9, 1.2], -0.5, {}),
    (C.ContinuousSystem(C.full_space(4), E.parse_vector(["x2", "-x1", "x4", "-x3"], 4)),
     [1.0, 0.0, -0.0, 1.0], 2.0, {}),
    # the stability estimate's 4th power passes the float range (it raised OverflowError)
    (C.ContinuousSystem(C.full_space(4), E.parse_vector(
        ["exp(x1^3) - (cos(x1) - sin(0.531))", "0.926", "1.084", "0.927"], 4)),
     [0.0] * 4, 2.0, {"rtol": 1e-6, "atol": 1e-9}),
], ids=["stall", "underflow", "retries", "step-limit", "blow-up", "box-exit", "puncture-1d",
        "puncture-2d", "puncture-3d", "max-step", "lorenz-backward", "4d", "stability-overflow"])
def test_integrate_matches_reference_loop(sys, x0, span, kwargs):
    _assert_matches_reference(sys, x0, span, **kwargs)


@st.composite
def _random_ivps(draw):
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    comps = [random_node(rng, n, draw(st.integers(0, 3))) for _ in range(n)]
    x0 = [draw(st.floats(-2.0, 2.0)) for _ in range(n)]
    for i in [i for i in range(n) if draw(st.booleans())]:
        # sqrt(c - x_i) or sqrt(c - x_i*x_i) leaves its domain where the
        # radicand reaches 0: stages past it are retried, and where the rounded
        # radicand is never 0 the state stalls
        var = E.Var(i + 1)
        if draw(st.booleans()):
            var, start = E.Mul(var, var), x0[i] * x0[i]
        else:
            start = x0[i]
        root = E.Call("sqrt", E.Sub(E.Num(start + draw(st.floats(0.01, 1.0))), var))
        comps[i] = root if draw(st.booleans()) else E.Add(comps[i], root)
    bounds = [(-math.inf, math.inf) if draw(st.booleans()) else
              (v - draw(st.floats(0.05, 3.0)), v + draw(st.floats(0.05, 3.0))) for v in x0]
    punctures = [[v + draw(st.floats(0.01, 1.0)) * draw(st.sampled_from([1.0, -1.0])) for v in x0]
                 for _ in range(draw(st.integers(0, 2)))]
    sys = C.ContinuousSystem(C.Domain(bounds, punctures),
                             E.VectorExpr(tuple(E.Expr(c, n) for c in comps)))
    span = draw(st.floats(0.05, 2.0)) * draw(st.sampled_from([1.0, -1.0]))
    rtol = draw(st.sampled_from([1e-9, 1e-6, 1e-4]))
    kwargs = {"rtol": rtol, "atol": rtol * 1e-3, "max_steps": 3000,
              "escape_threshold": draw(st.sampled_from([C.DEFAULT_ESCAPE, 1e3, 10.0]))}
    if draw(st.booleans()):
        kwargs["max_step"] = draw(st.floats(0.01, 0.5))
    return sys, x0, span, kwargs


@hypothesis.given(_random_ivps())
@hypothesis.settings(max_examples=300, deadline=None)
def test_random_fields_match_reference_loop(ivp):
    sys, x0, span, kwargs = ivp
    _assert_matches_reference(sys, x0, span, **kwargs)


# --- overflow and the escape threshold --------------------------------------


def test_initial_step_survives_an_overflowing_norm():
    # |x2'| / atol overflows, which left a zero initial step (and divided by it)
    traj = C.integrate(oscillator(), [1e300, 0.0], 1.0)
    assert traj.termination == "blow-up"
    assert all(math.isfinite(v) for row in traj._states + traj._derivs for v in row)


def test_infinite_stability_ratio_is_a_finite_error():
    # stages 1-11 are 0, stage 12 moves the state by ~4e-157 and stage 13 is 1e10:
    # |h*lambda|^2 = h*h*dk / dz divides by a subnormal dz and is inf, which the
    # step must still read as a stiff step, not as an overflowed error norm
    calls = []

    def field(x, t):
        calls.append(t)
        return [0.0] if len(calls) < 11 else [1e-155] if len(calls) == 11 else [1e10]

    out = C._dop_step(1)(field, [0.0], [0.0], 0.0, 1.0, 1e-6, 1e-9, [(-math.inf, math.inf)])
    assert len(calls) == 12 and out[2] == 1e308


@pytest.mark.parametrize("x0", [[1e308, 1e308], [1.7e308, 0.0]])
def test_step_with_non_finite_error_is_rejected(x0):
    # every stage combination overflows, whatever the step: the error norm is
    # nan, each trial step is refused, and the step size runs out
    with pytest.raises(C.StepSizeUnderflowError, match="step size underflow at t=0.0"):
        C.integrate(oscillator(), x0, 1.0, escape_threshold=math.inf)


def test_overflowing_error_norm_names_the_tolerances():
    # at rtol 0 and a subnormal atol every trial state is finite (1.001...),
    # but the error scaled by atol overflows and its norm is inf/inf = nan
    with pytest.raises(C.StepSizeUnderflowError,
                       match=r"at t=0.0 \(error norm overflowed: tolerances too small\)"):
        C.integrate(line("x1"), [1.0], 1.0, rtol=0.0, atol=1e-310)
    _assert_matches_reference(line("x1"), [1.0], 1.0, rtol=0.0, atol=1e-310)


@pytest.mark.parametrize("threshold", [math.nan, 0.0, -0.0, -1e3, -math.inf])
def test_escape_threshold_must_be_positive(threshold):
    with pytest.raises(ValueError, match="escape threshold must be positive"):
        C.integrate(line("x1^2"), [1.0], 2.0, escape_threshold=threshold)


def test_csv_export(tmp_path):
    traj = C.integrate(C.time_system(), [0.0], 1.0)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1"
    assert len(lines) == len(traj.times) + 1
    t_back, x_back = map(float, lines[-1].split(","))
    assert t_back == traj.times[-1] and x_back == traj.states[-1][0]


def reference_to_csv(traj: C.Trajectory, path=None) -> None:
    """The writer ``Trajectory.to_csv`` replaced: one formatted value and one
    ``print`` per field and row."""
    n = len(traj._states[0])
    with open(path, "w") if path is not None else nullcontext() as fh:
        print("t," + ",".join(f"x{i}" for i in range(1, n + 1)), file=fh)
        for t, row in zip(traj._times, traj._states):
            print(",".join([f"{t:.17g}"] + [f"{v:.17g}" for v in row]), file=fh)


ODD_VALUES = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
              -1e300, 0.1, 1 / 3, -123456789.123456789, 1e16, 3, math.pi]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_csv_bytes_match_the_reference_writer(tmp_path, capsys, n):
    rows = [ODD_VALUES[i:i + n] for i in range(len(ODD_VALUES) - n + 1)]
    times = [-0.0] + [float(i) / 7 for i in range(1, len(rows))]
    traj = C.Trajectory(times, rows, rows, times[0], times[-1], C.TERM_SPAN)
    traj.to_csv(tmp_path / "new.csv")
    reference_to_csv(traj, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    traj.to_csv()
    new = capsys.readouterr().out
    reference_to_csv(traj)
    assert new == capsys.readouterr().out == (tmp_path / "old.csv").read_text()
    assert new.splitlines()[1].startswith("-0,")


def test_csv_of_an_integration_matches_the_reference_writer(tmp_path):
    traj = C.integrate(C.ContinuousSystem(C.full_space(3), E.parse_vector(
        ["10*(x2 - x1)", "x1*(28 - x3) - x2", "x1*x2 - 8/3*x3"], 3)), [1.0, 1.0, 1.0], 2.0)
    traj.to_csv(tmp_path / "new.csv")
    reference_to_csv(traj, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# --- f-relatedness -----------------------------------------------------------


def test_relatedness_identity():
    sys = oscillator()
    rep = C.check_f_relatedness(C.identity_smooth_map(2), sys, sys, tol=1e-12)
    assert rep.passed and rep.residual == 0.0


def test_relatedness_translation():
    time = C.time_system()
    f = C.smooth_map(["x1 + 3"], 1)
    rep = C.check_f_relatedness(f, time, time, tol=1e-12)
    assert rep.passed and rep.residual == 0.0


def test_relatedness_exponential():
    # exp: (R, dx=1) -> ((0, inf), dy=y); J_f * 1 = e^x = Y(e^x)
    target = line("x1", lo=0.0)
    rep = C.check_f_relatedness(C.smooth_map(["exp(x1)"], 1), C.time_system(), target)
    assert rep.passed and rep.residual < 1e-10


def test_relatedness_failures_are_loud():
    time, double = C.time_system(), line("2")
    rep = C.check_f_relatedness(C.identity_smooth_map(1), time, double, tol=1e-8)
    assert not rep.passed and rep.residual > 1e-2
    assert rep.witness is not None


def test_relatedness_respects_custom_samples():
    time = C.time_system()
    rep = C.check_f_relatedness(
        C.smooth_map(["x1 + 3"], 1), time, time, samples=[(0.0,), (1.0,)]
    )
    assert rep.samples == 2


def test_relatedness_domain_violation():
    # x -> x - 10 pushes samples out of (0, inf)
    target = line("x1", lo=0.0)
    with pytest.raises(E.DomainError):
        C.check_f_relatedness(C.smooth_map(["x1 - 10"], 1), C.time_system(), target)


# --- naturality: morphisms preserve solutions --------------------------------


def test_preservation_identity():
    sys = oscillator()
    rep = C.check_solution_preservation(
        C.identity_smooth_map(2), sys, sys, [1.0, 0.0], 1.0
    )
    assert rep.passed


def test_preservation_translation():
    time = C.time_system()
    rep = C.check_solution_preservation(
        C.smooth_map(["x1 + 3"], 1), time, time, [0.0], 1.0, tol=1e-8
    )
    assert rep.passed


def test_preservation_exponential():
    target = line("x1", lo=0.0)
    rep = C.check_solution_preservation(
        C.smooth_map(["exp(x1)"], 1), C.time_system(), target, [0.0], 1.0, tol=1e-6
    )
    assert rep.passed


def test_preservation_samples_cost_three_field_calls_per_sampled_step(monkeypatch):
    # the sampled steps' stages are the runs' own, so dense output adds only
    # its 3 extra stages per step; a rerun of each would add 12 more
    field = E.parse_vector(LORENZ, 3)
    compiled, calls = field._compiled, []

    def counted(y, t):
        calls.append(t)
        return compiled(y, t)

    field.__dict__["_compiled"] = counted
    lorenz = C.ContinuousSystem(C.full_space(3), field)
    runs, integrate = [], C.integrate
    monkeypatch.setattr(C, "integrate", lambda *args, **kw: runs.append(integrate(*args, **kw))
                        or runs[-1])
    rep = C.check_solution_preservation(C.smooth_map(["-x1", "-x2", "x3"], 3), lorenz, lorenz,
                                        (0.83, 1.11, 1.01), 10.0)
    assert rep.passed and rep.residual == 0.0 and rep.samples == 201
    assert len(runs) == 2
    assert len(calls) == sum(r.stats.nfev + 3 * len(r._segments) for r in runs) == 8962


def test_preservation_reports_shortened_span():
    # target solution blows up before T: comparison covers the common span
    rep = C.check_solution_preservation(
        C.identity_smooth_map(1), line("x1^2"), line("x1^2"), [1.0], 2.0
    )
    assert rep.note is not None and "compared on" in rep.note


# --- equilibria and periodic orbits ------------------------------------------


def test_equilibria_logistic():
    found = C.find_equilibria(line("x1*(1-x1)"), box=[(-2.0, 2.0)], tol=1e-10)
    assert len(found) == 2
    assert abs(found[0][0] - 0.0) < 1e-8
    assert abs(found[1][0] - 1.0) < 1e-8


def test_equilibria_none_for_constant_field():
    assert C.find_equilibria(C.time_system(), box=[(-2.0, 2.0)]) == []


def test_equilibria_rotation_origin():
    found = C.find_equilibria(oscillator(), box=[(-2.0, 2.0), (-2.0, 2.0)])
    assert len(found) == 1
    assert np.linalg.norm(found[0]) < 1e-8


def test_equilibria_lorenz_closed_form():
    sys = C.ContinuousSystem(C.full_space(3), E.parse_vector(LORENZ, 3))
    found = C.find_equilibria(sys, box=[(-10.0, 10.0), (-10.0, 10.0), (-1.0, 30.0)])
    r = math.sqrt(72.0)  # sqrt(beta * (rho - 1))
    expected = [(-r, -r, 27.0), (0.0, 0.0, 0.0), (r, r, 27.0)]
    assert len(found) == 3
    for got, want in zip(found, expected):
        assert math.dist(got, want) < 1e-8


def test_equilibria_damped_duffing_closed_form():
    sys = C.ContinuousSystem(C.full_space(2), E.parse_vector(["x2", "-0.3*x2 + x1 - x1^3"], 2))
    found = C.find_equilibria(sys)
    assert len(found) == 3
    for got, want in zip(found, [(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)]):
        assert math.dist(got, want) < 1e-8


def test_equilibria_singular_jacobian_gives_up():
    sys = C.ContinuousSystem(C.full_space(2), E.parse_vector(["x1 - x2 + 1"] * 2, 2))
    assert C.find_equilibria(sys) == []


@pytest.mark.parametrize("sys", [
    C.ContinuousSystem(C.Domain(((-math.inf, math.inf),) * 2, ((0.0, 0.0),)),
                       E.parse_vector(["x2", "-x1"], 2)),
    line("x1", lo=0.0),
], ids=["punctured-oscillator", "half-line-growth"])
def test_equilibria_outside_domain_are_dropped(sys):
    assert C.find_equilibria(sys) == []


@pytest.mark.parametrize("rate, expected", [
    # undefined on the scan's outer points and at Newton's full first steps
    ("sqrt(1 - x1*x1) - 0.5", [(-0.8660254037844388,), (0.8660254037844388,)]),
    # the Jacobian (x1 + x1) / (2 * sqrt(x1 * x1)) is undefined at the one seed, x1 = 0
    ("sqrt(x1*x1) + 1", []),
    # the one root lies outside the default search box [-5, 5]
    ("x1 - 5.2", []),
], ids=["undefined-in-scan-and-line-search", "undefined-jacobian-at-seed", "root-outside-box"])
def test_equilibria_past_undefined_points_and_the_box(rate, expected):
    assert C.find_equilibria(line(rate)) == expected


def test_integrate_rejects_zero_atol():
    with pytest.raises(ValueError, match="atol > 0"):
        C.integrate(oscillator(), [1.0, 0.0], 1.0, atol=0.0)


def test_equilibrium_morphism_check():
    sys = line("x1*(1-x1)")
    assert C.check_equilibrium_morphism(sys, [1.0]).passed
    rep = C.check_equilibrium_morphism(sys, [0.5])
    assert not rep.passed and rep.residual == pytest.approx(0.25)
    with pytest.raises(ValueError):
        C.check_equilibrium_morphism(line("1", lo=0.0, hi=1.0), [5.0])


def test_periodic_orbit_full_turn():
    rep = C.check_periodic_orbit(oscillator(), [1.0, 0.0], 2 * math.pi)
    assert rep.passed and rep.residual < 1e-6


def test_periodic_orbit_half_turn_fails():
    rep = C.check_periodic_orbit(oscillator(), [1.0, 0.0], math.pi)
    assert not rep.passed
    assert rep.residual == pytest.approx(2.0, abs=1e-6)


def test_periodic_orbit_monotone_never_closes():
    rep = C.check_periodic_orbit(C.time_system(), [0.0], 1.0)
    assert not rep.passed


def test_periodic_orbit_early_termination_is_error():
    with pytest.raises(C.EarlyTerminationError):
        C.check_periodic_orbit(line("x1^2"), [1.0], 2.0)


def test_default_samples_deterministic_and_inside():
    dom = C.Domain(((0.0, math.inf),))
    pts = C.default_samples(dom, 50)
    assert pts == C.default_samples(dom, 50)
    assert all(dom.contains(p) for p in pts)
    assert all(p[0] <= 5.0 for p in pts)


@pytest.mark.parametrize("bounds, window", [
    ((5.0, 10.0), (5.0, 10.0)),
    ((7.0, math.inf), (7.0, 17.0)),
    ((-math.inf, -6.0), (-16.0, -6.0)),
])
def test_default_samples_of_a_coordinate_beside_the_clip_window(bounds, window):
    # clipping to [-5, 5] would leave no window at all: the coordinate is
    # sampled on its own bounds, and the other one as before
    dom = C.Domain((bounds, (-math.inf, math.inf)))
    pts = C.default_samples(dom, 50)
    assert len(pts) == 50
    assert all(window[0] < x < window[1] and -5.0 < y < 5.0 for x, y in pts)
    assert [y for _, y in pts] == [y for _, y in C.default_samples(C.full_space(2), 50)]
