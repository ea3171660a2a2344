"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance and runtime bound is pinned here; nothing is deferred to
later calibration.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import math
import time

import numpy as np

from batteries import continuous_battery, discrete_battery, line, oscillator
from dynsys import continuous as C
from dynsys import category, discrete, germ, tau
from dynsys import expr as E
from exprgen import central_difference, random_expr
from germgen import membership_equivalence_violations, random_monotone_piece_map
from reference_checks import (reference_dt_morphism, reference_enumerate,
                              reference_f_relatedness)


def _verdict(num: int, ok: bool, elapsed: float, desc: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s) {desc}")


def related_triples():
    time_sys = line("1")
    growth = line("x1", lo=0.0)
    osc = oscillator()
    return [
        ("identity", C.identity_smooth_map(2), osc, osc, (1.0, 0.0)),
        ("translation", C.smooth_map(["x1 + 3"], 1), time_sys, time_sys, (0.0,)),
        ("exponential", C.smooth_map(["exp(x1)"], 1), time_sys, growth, (0.0,)),
    ]


def non_related_pairs():
    time_sys = line("1")
    doubled = line("2")
    osc = oscillator()
    flipped = C.ContinuousSystem(C.full_space(2), E.parse_vector(["-x2", "x1"], 2))
    return [
        ("id-to-doubled", C.identity_smooth_map(1), time_sys, doubled),
        ("square-shift", C.smooth_map(["x1^2 + 1"], 1), time_sys, time_sys),
        ("id-to-flipped", C.identity_smooth_map(2), osc, flipped),
    ]


def test_criterion_1_discrete_universal_property():
    start = time.perf_counter()
    ok = True
    instances = 0
    for size in (1, 2, 3):
        carrier = tuple("abc"[:size])
        for images in itertools.product(carrier, repeat=size):
            sys = discrete.DiscreteSystem(carrier, dict(zip(carrier, images)))
            for c0 in carrier:
                target = category.PointedSystem(sys, c0)
                found, _ = reference_enumerate(target, horizon=6)
                orbit = discrete.iterate(sys, c0, 6)
                ok = ok and found == [orbit.points]
                ok = ok and category.verify_initiality_discrete(6, target).passed
                instances += 1
    elapsed = time.perf_counter() - start
    _verdict(1, ok and elapsed < 10, elapsed,
             f"exactly one pointed morphism in each of {instances} instances")
    assert ok
    assert elapsed < 10.0


def test_criterion_2_f_relatedness_battery():
    start = time.perf_counter()
    ok = True
    for name, f, x_sys, y_sys, _ in related_triples():
        rep = C.check_f_relatedness(f, x_sys, y_sys, tol=1e-10)
        ok = ok and rep.passed and rep.residual < 1e-10
    for name, f, x_sys, y_sys in non_related_pairs():
        rep = C.check_f_relatedness(f, x_sys, y_sys, tol=1e-10)
        ok = ok and (not rep.passed) and rep.residual > 1e-2
    elapsed = time.perf_counter() - start
    _verdict(2, ok and elapsed < 1, elapsed,
             "3 related triples < 1e-10, 3 non-related > 1e-2")
    assert ok
    assert elapsed < 1.0


def test_criterion_3_solution_preservation():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for name, f, x_sys, y_sys, x0 in related_triples():
        rep = C.check_solution_preservation(f, x_sys, y_sys, x0, 1.0, tol=1e-5)
        ok = ok and rep.passed
        worst = max(worst, rep.residual)
    elapsed = time.perf_counter() - start
    _verdict(3, ok and elapsed < 1, elapsed,
             f"naturality on [0,1] for all related triples, worst {worst:.2e}")
    assert ok
    assert elapsed < 1.0


def test_criterion_4_blow_up_times():
    start = time.perf_counter()
    quad = line("x1^2")
    t1 = C.integrate(quad, [1.0], 2.0)
    t2 = C.integrate(quad, [2.0], 2.0)
    ok = (
        t1.termination == "blow-up" and 0.99 <= t1.t_hi <= 1.01
        and t2.termination == "blow-up" and 0.49 <= t2.t_hi <= 0.51
    )
    elapsed = time.perf_counter() - start
    _verdict(4, ok and elapsed < 1, elapsed,
             f"escape times {t1.t_hi:.4f} and {t2.t_hi:.4f} bracket the poles")
    assert ok
    assert elapsed < 1.0


def test_criterion_5_integrator_accuracy():
    start = time.perf_counter()
    growth = C.integrate(line("x1"), [1.0], 1.0)
    err = abs(growth.states[-1][0] - 2.718281828)
    closed = C.check_periodic_orbit(oscillator(), [1.0, 0.0], 2 * math.pi, tol=1e-6)
    ok = err < 1e-6 and closed.passed
    elapsed = time.perf_counter() - start
    _verdict(5, ok and elapsed < 1, elapsed,
             f"|x(1) - e| = {err:.2e}, orbit closure {closed.residual:.2e}")
    assert ok
    assert elapsed < 1.0


def test_criterion_6_germ_partial_map_laws():
    start = time.perf_counter()
    rng = np.random.default_rng(20250808)
    violations = 0
    for _ in range(500):
        f = random_monotone_piece_map(rng)
        g = random_monotone_piece_map(rng)
        pts = rng.uniform(-12.0, 12.0, size=10_000)
        violations += membership_equivalence_violations(f, g, pts, margin=1e-9)
    assoc_ok = True
    for _ in range(40):
        f = random_monotone_piece_map(rng)
        g = random_monotone_piece_map(rng)
        h = random_monotone_piece_map(rng)
        left = germ.compose_partial(germ.compose_partial(f, g), h)
        right = germ.compose_partial(f, germ.compose_partial(g, h))
        assoc_ok = assoc_ok and left.domain.intervals == right.domain.intervals
    ok = violations == 0 and assoc_ok
    elapsed = time.perf_counter() - start
    _verdict(6, ok and elapsed < 30, elapsed,
             f"{violations} membership violations over 500x10^4 points; "
             f"associativity exact: {assoc_ok}")
    assert violations == 0
    assert assoc_ok
    assert elapsed < 30.0


def test_criterion_7_punctured_line_maximal_domain():
    start = time.perf_counter()
    dom = C.Domain(((-math.inf, math.inf),), ((0.0,),))
    sys = C.ContinuousSystem(dom, E.parse_vector(["1"], 1))
    res = germ.maximal_solution_domain(sys, t0=1.0, horizon=5.0)
    (lo, hi), = res.interval.intervals
    never_crossed = bool(np.all(res.backward.states[:, 0] >= -1e-9)) and bool(
        np.all(res.forward.states[:, 0] > 0.0)
    )
    ok = abs(lo + 1.0) < 1e-6 and never_crossed
    elapsed = time.perf_counter() - start
    _verdict(7, ok, elapsed,
             f"lower endpoint {lo:.9f} within 1e-6 of -1; puncture never crossed")
    assert ok


def test_criterion_8_symbolic_differentiation():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    checked = 0
    attempts = 0
    worst = 0.0
    ok = True
    while checked < 100 and attempts < 10_000:
        attempts += 1
        e = random_expr(rng, arity=2, depth=3)
        var = int(rng.integers(1, 3))
        point_ok = 0
        for _ in range(3):
            p = [float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5))]
            try:
                sym = E.evaluate(E.differentiate(e, var), p)
                fd = central_difference(e, var, p, h=1e-5)
            except E.DomainError:
                continue
            if max(abs(sym), abs(fd)) > 1e6:
                continue
            rel = abs(sym - fd) / max(1.0, abs(sym), abs(fd))
            worst = max(worst, rel)
            ok = ok and rel < 1e-5
            point_ok += 1
        if point_ok:
            checked += 1
    ok = ok and checked >= 100
    elapsed = time.perf_counter() - start
    _verdict(8, ok, elapsed,
             f"{checked} expressions vs central differences, worst rel err {worst:.2e}")
    assert ok


def test_criterion_9_tau_coherence():
    # the tau check, and the concrete checks that wrap it, against the
    # concrete loops they replaced: verdict, residual bits, samples, witness
    start = time.perf_counter()
    agree = 0
    total = 0
    for f, x_sys, y_sys in continuous_battery():
        samples = C.default_samples(x_sys.domain, 60)
        reference = reference_f_relatedness(f, x_sys, y_sys, samples=samples)
        abstract = tau.check_tau_morphism(
            f, tau.from_continuous(x_sys), tau.from_continuous(y_sys), samples=samples
        )
        concrete = C.check_f_relatedness(f, x_sys, y_sys, samples=samples)
        total += 1
        agree += abstract == concrete == reference
    for alpha, src, dst in discrete_battery():
        reference = reference_dt_morphism(alpha, src, dst)
        abstract = tau.check_tau_morphism(
            alpha, tau.from_discrete(src), tau.from_discrete(dst)
        )
        concrete = discrete.check_dt_morphism(alpha, src, dst)
        total += 1
        agree += abstract == concrete == reference
    ok = total >= 20 and agree == total
    elapsed = time.perf_counter() - start
    _verdict(9, ok, elapsed, f"{agree}/{total} reports agree with the reference loops")
    assert ok
