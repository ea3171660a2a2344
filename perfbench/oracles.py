"""Independent oracles for the outputs of every benchmark operation.

Each check returns a list of disagreements; an empty list means the output
matches the oracle.  The oracles never call ``dynsys``: they use closed
forms, ``scipy.integrate.solve_ivp`` (DOP853 at tight tolerances), exact
discrete reasoning, and numpy closed forms of the germ battery maps.
"""

from __future__ import annotations

import math
import re

import numpy as np

from workloads import ELEMENTS, CliOp, GermMap

SCIPY_WINDOW = 3.0  # compare ODE solutions with scipy on [0, 3]
MEMBERSHIP_MARGIN = 1e-9

_EARLY = re.compile(r"early termination: (\S+) at t=(\S+)")
_CHECK = re.compile(r"check: name=(\S+) verdict=(\w+) residual=(\S+) samples=(\d+) ")


def parse_csv(text: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("t,"):
        raise ValueError("no CSV header")
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def parse_report(text: str):
    checks, notes, result = {}, [], None
    for line in text.splitlines():
        m = _CHECK.match(line)
        if m:
            residual = None if m.group(3) == "-" else float(m.group(3))
            checks[m.group(1)] = (m.group(2), residual, int(m.group(4)))
        elif line.startswith("note: "):
            notes.append(line[len("note: "):])
        elif line.startswith("result: "):
            result = line[len("result: "):]
    return checks, notes, result


def _field(params):
    if params["field"] == "lorenz":
        return lambda t, y: [10 * (y[1] - y[0]), y[0] * (28 - y[2]) - y[1], y[0] * y[1] - 8 / 3 * y[2]]
    mu = params["mu"]
    return lambda t, y: [y[1], mu * (1 - y[0] ** 2) * y[1] - y[0]]


def _exit(expected: int, got) -> list[str]:
    return [] if got == expected else [f"exit {got}, expected {expected}"]


def _early(stderr: str, kind: str, t_expected: float, tol: float) -> list[str]:
    m = _EARLY.search(stderr)
    if m is None:
        return [f"no early-termination line, expected {kind} at t={t_expected:.9g}"]
    got_kind, t = m.group(1), float(m.group(2))
    if got_kind != kind:
        return [f"terminated by {got_kind}, expected {kind}"]
    if abs(t - t_expected) > tol:
        return [f"{kind} at t={t:.9g}, expected t={t_expected:.9g}"]
    return []


def _rows_close(data: np.ndarray, exact: np.ndarray, rtol: float, what: str) -> list[str]:
    err = np.abs(data - exact) / np.maximum(1.0, np.abs(exact))
    worst = float(np.max(err)) if err.size else 0.0
    return [] if worst <= rtol else [f"{what}: relative error {worst:.3g} > {rtol:.0e}"]


def check_ode(op: CliOp, out: dict[str, str], exit_code, pass_outputs) -> list[str]:
    """ode_solve: closed forms, scipy, and the two CSV writers' agreement."""
    p = op.params
    text = out["output"] if op.output else out["stdout"]
    try:
        data = parse_csv(text)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"] + _exit(0, exit_code)
    t, x = data[:, 0], data[:, 1:]
    bad: list[str] = []
    if op.oracle == "scipy":
        from scipy.integrate import solve_ivp

        bad += _exit(0, exit_code)
        if t[-1] != p["span"]:
            bad.append(f"ends at t={t[-1]!r}, expected the span {p['span']!r}")
        window = t <= SCIPY_WINDOW
        ref = solve_ivp(_field(p), (0.0, SCIPY_WINDOW), p["x0"], method="DOP853",
                        rtol=1e-13, atol=1e-13, t_eval=t[window])
        scale = max(1.0, float(np.max(np.abs(ref.y))))
        err = float(np.max(np.abs(ref.y.T - x[window]))) / scale
        if err > 1e-6:
            bad.append(f"deviates from scipy DOP853 by {err:.3g} (relative) on [0, {SCIPY_WINDOW}]")
        if "same_as" in p and pass_outputs.get(p["same_as"], {}).get("output") != out["stdout"]:
            bad.append(f"stdout CSV differs from the --output CSV of {p['same_as']}")
    elif op.oracle == "oscillator":
        bad += _exit(0, exit_code)
        if t[-1] != p["span"]:
            bad.append(f"ends at t={t[-1]!r}, expected the span {p['span']!r}")
        (a, b), c, s = p["x0"], np.cos(t), np.sin(t)
        exact = np.stack([a * c + b * s, b * c - a * s], axis=1)
        bad += _rows_close(x, exact, 1e-6, "cos/sin closed form")
    elif op.oracle == "blow_up":
        x0 = p["x0"]
        bad += _exit(2, exit_code)
        bad += _early(out["stderr"], "blow-up", 1.0 / x0, 1e-6 / x0)
        keep = t <= 0.9 / x0
        bad += _rows_close(x[keep, 0], x0 / (1.0 - x0 * t[keep]), 1e-6, "x0/(1 - x0 t)")
    elif op.oracle == "box_exit":
        x0, hi = p["x0"], p["hi"]
        bad += _exit(2, exit_code)
        bad += _early(out["stderr"], "left-domain", math.log(hi / x0), 1e-7)
        bad += _rows_close(x[:, 0], x0 * np.exp(t), 1e-7, "x0 e^t")
    elif op.oracle == "puncture":
        # field (-1, -1) from (1, 1) hits the puncture at the origin at t=1
        bad += _exit(2, exit_code)
        bad += _early(out["stderr"], "left-domain", 1.0, 1e-6)
        keep = t < 1.0
        bad += _rows_close(x[keep], np.stack([1.0 - t[keep]] * 2, axis=1), 1e-9, "1 - t")
    else:
        raise ValueError(f"unknown oracle {op.oracle!r}")
    return bad


def _verdicts(checks, names, verdict="pass") -> list[str]:
    bad = []
    for name in names:
        if name not in checks:
            bad.append(f"check {name} missing")
        elif checks[name][0] != verdict:
            bad.append(f"check {name} verdict {checks[name][0]}, expected {verdict}")
    return bad


def check_report(op: CliOp, out: dict[str, str], exit_code, pass_outputs) -> list[str]:
    """morphism_laws: the exact or closed-form verdict of every check."""
    p = op.params
    checks, notes, result = parse_report(out["output"])
    bad: list[str] = []
    if op.oracle == "mirror":
        # (x1, x2, x3) -> (-x1, -x2, x3) is a symmetry of Lorenz; IEEE sign
        # symmetry makes both residuals exactly zero
        bad += _exit(0, exit_code)
        for name in ("f-relatedness", "solution-preservation"):
            bad += _verdicts(checks, [name])
            if name in checks and checks[name][1] != 0.0:
                bad.append(f"{name} residual {checks[name][1]!r}, expected exactly 0.0")
    elif op.oracle == "related":
        bad += _exit(0, exit_code)
        bad += _verdicts(checks, ["f-relatedness", "solution-preservation"])
    elif op.oracle == "unrelated":
        # d/dt (a t^2 + b) = 2 a t differs from 1; the sup over [-5, 5] is <= 10a + 1
        bad += _exit(3, exit_code)
        bad += _verdicts(checks, ["f-relatedness"], "fail")
        res = checks.get("f-relatedness", (None, None, 0))[1]
        if res is None or not 1e-8 < res <= 10 * p["a"] + 1:
            bad.append(f"f-relatedness residual {res!r} outside (1e-8, {10 * p['a'] + 1:.6g}]")
    elif op.oracle == "laws_continuous":
        bad += _exit(0, exit_code)
        names = ["section-law", "identity-morphism", "compose-associativity",
                 "equilibrium-morphisms", "solution-morphism"]
        if p.get("periodic"):
            names.append("periodic-orbit")
        bad += _verdicts(checks, names)
        want = f"equilibria: {p['equilibria']} found"
        if want not in notes:
            bad.append(f"note {want!r} missing")
    elif op.oracle == "laws_discrete":
        # the orbit of the basepoint is the unique pointed morphism, so exactly
        # one of the |carrier|^(horizon+1) candidate tables survives
        table, bp, h = p["table"], p["basepoint"], p["horizon"]
        bad += _exit(0, exit_code)
        bad += _verdicts(checks, ["section-law", "identity-morphism", "compose-associativity"])
        name = f"initiality[{bp}]"
        bad += _verdicts(checks, [name])
        if name in checks and checks[name][1:] != (0.0, len(ELEMENTS) ** (h + 1)):
            bad.append(f"{name} residual/samples {checks[name][1:]}, expected "
                       f"(0.0, {len(ELEMENTS) ** (h + 1)})")
        fixed = sorted(x for x in ELEMENTS if table[x] == x)
        want = "fixed-points: " + (" ".join(fixed) if fixed else "(none)")
        if want not in notes:
            bad.append(f"note {want!r} missing")
    elif op.oracle == "dt_morphism":
        src, dst, alpha = p["src"], p["dst"], p["alpha"]
        violations = sum(dst[alpha[x]] != alpha[src[x]] for x in ELEMENTS)
        verdict = "pass" if violations == 0 else "fail"
        bad += _exit(0 if violations == 0 else 3, exit_code)
        bad += _verdicts(checks, ["dt-morphism"], verdict)
        if "dt-morphism" in checks and checks["dt-morphism"][1:] != (float(violations), len(ELEMENTS)):
            bad.append(f"dt-morphism residual/samples {checks['dt-morphism'][1:]}, "
                       f"expected ({float(violations)}, {len(ELEMENTS)})")
    else:
        raise ValueError(f"unknown oracle {op.oracle!r}")
    expected = "pass" if exit_code == 0 else "fail"
    if result != expected:
        bad.append(f"result line {result!r} does not match exit {exit_code}")
    return bad


def check_cli(op: CliOp, out: dict[str, str], exit_code, pass_outputs) -> list[str]:
    if "Traceback" in out["stderr"]:
        return ["traceback on stderr"]
    if op.oracle in ("scipy", "oscillator", "blow_up", "box_exit", "puncture"):
        return check_ode(op, out, exit_code, pass_outputs)
    return check_report(op, out, exit_code, pass_outputs)


# --- germ membership ------------------------------------------------------------


def _inside(intervals, x: np.ndarray) -> np.ndarray:
    hit = np.zeros(x.shape, dtype=bool)
    for lo, hi in intervals:
        hit |= (lo < x) & (x < hi)
    return hit


def _near(x: np.ndarray, intervals) -> np.ndarray:
    ends = [v for iv in intervals for v in iv if math.isfinite(v)]
    if not ends:
        return np.zeros(x.shape, dtype=bool)
    finite = np.nan_to_num(x, nan=np.inf)
    return np.min(np.abs(finite[:, None] - np.array(ends)[None, :]), axis=1) < MEMBERSHIP_MARGIN


def membership_violations(domain, chain: list[GermMap], points: np.ndarray) -> int:
    """Points where membership in a computed composite domain disagrees with
    the formula x in dom(f1), f1(x) in dom(f2), ... outside a 1e-9 margin
    around every boundary, measured in the space where that boundary lives."""
    lhs = _inside(domain, points)
    rhs = np.ones(points.shape, dtype=bool)
    excluded = _near(points, domain)
    values = points
    for k, m in enumerate(chain):
        if k:
            values = chain[k - 1].values(values)
        excluded |= rhs & _near(values, m.domain)
        rhs &= _inside(m.domain, values)
    return int(np.sum((lhs != rhs) & ~excluded))
