import math

import numpy as np
import pytest

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


def test_x0_outside_domain_rejected():
    with pytest.raises(ValueError):
        C.integrate(line("1", lo=0.0, hi=1.0), [2.0], 1.0)


def test_blow_up_quadratic():
    # dx = x^2 from 1 blows up at t = 1 (closed form 1/(1-t))
    traj = C.integrate(line("x1^2"), [1.0], 2.0)
    assert traj.termination == "blow-up"
    assert 0.99 <= traj.t_hi <= 1.01
    assert np.linalg.norm(traj.states[-1]) > C.DEFAULT_ESCAPE


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


def test_exit_time_beyond_bisection_resolution():
    # the exit at t = 5e7 has an ulp (~7e-9) wider than EXIT_BISECT_TOL, so
    # the crossing bisection must stop at float resolution
    traj = C.integrate(line("1e-8", lo=0.0, hi=1.0), [0.5], 1e8)
    assert traj.termination == "left-domain"
    assert traj.t_hi == pytest.approx(5e7, rel=1e-9)


def test_puncture_crossing_detected():
    # moving left from 1 on the punctured line stops at the puncture
    traj = C.integrate(line("1", punctures=(0.0,)), [1.0], -3.0)
    assert traj.termination == "left-domain"
    assert abs(traj.t_lo + 1.0) < 1e-6


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


def test_solution_is_a_morphism():
    # discretized relatedness via 4th-order differences on a uniform grid
    rtol, atol = 1e-9, 1e-12
    traj = C.integrate(oscillator(), [1.0, 0.0], 1.0, rtol=rtol, atol=atol, max_step=1e-3)
    max_norm = float(np.max(np.linalg.norm(traj.states, axis=1)))
    sys_tol = 10 * (atol + rtol * max_norm)
    rep = C.solution_morphism_report(traj, oscillator(), sys_tol)
    assert rep.passed, rep


def test_step_underflow_is_stiffness_failure():
    # backward toward the 1/x singularity at t = -1/2: no step can cross it
    with pytest.raises(C.StepSizeUnderflowError):
        C.integrate(line("1/x1"), [1.0], -2.0)


def test_step_limit_is_typed():
    with pytest.raises(C.StepLimitError, match="exceeded 5 steps"):
        C.integrate(line("sin(1000*t)*1000"), [0.0], 1e4, max_steps=5)


def test_csv_export(tmp_path):
    traj = C.integrate(C.time_system(), [0.0], 1.0)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1"
    assert len(lines) == len(traj.times) + 1
    t_back, x_back = map(float, lines[-1].split(","))
    assert t_back == traj.times[-1] and x_back == traj.states[-1][0]


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
