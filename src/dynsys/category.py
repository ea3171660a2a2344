"""The category layer: check reports, morphism candidates, composition and
initiality checking where it is decidable.

Initiality of the truncated successor system needs no search: the one
basepoint-preserving morphism into a finite pointed system is the orbit of
its basepoint.  It exists because the endomap is total, and it is unique
because alpha(0) = basepoint and alpha(n+1) = X(alpha(n)) fix each alpha(n)
in turn.  The continuous analog has an uncountable candidate space; there
two integrations at tolerances 100x apart are compared instead (see
:func:`verify_initiality_continuous`).

Only the checks run this module, so a ``dynsys solve`` and ``--version``
do not compile it.  Each of its names, private ones included, still reads
from :mod:`dynsys.core`, which imports this module on first access
(PEP 562), so ``core.CheckReport is category.CheckReport``.  The last
section holds the arithmetic on lists of floats (norms, grids, a linear
solve) that the numerical checks share, so that none of them needs numpy.
"""

from __future__ import annotations

import math
import operator
from typing import Mapping, Sequence

from .core import EnumerationCapError, SystemMismatchError, Value, _dot, _setfield


class CheckReport(Value):
    """Structured verdict of a single check.

    For numerical checks the verdict is residual <= tolerance; for exact
    checks it is the absence of a witness.  ``residual`` is a sup-norm
    where one applies, otherwise a violation count.  A check over many
    samples builds its report with :meth:`worst` or :meth:`tally`.
    """

    __match_args__ = ("passed", "residual", "samples", "witness", "note")

    def __init__(self, passed: bool, residual: float, samples: int,
                 witness: str | None = None, note: str | None = None):
        _setfield(self, "passed", passed)
        _setfield(self, "residual", residual)
        _setfield(self, "samples", samples)
        _setfield(self, "witness", witness)
        _setfield(self, "note", note)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    @staticmethod
    def numerical(
        residual: float,
        tol: float,
        samples: int,
        witness: str | None = None,
        note: str | None = None,
    ) -> "CheckReport":
        passed = residual <= tol
        return CheckReport(passed, residual, samples, None if passed else witness, note)

    @staticmethod
    def exact(
        witness: str | None,
        samples: int,
        violations: int = 0,
        note: str | None = None,
    ) -> "CheckReport":
        if (witness is None) != (violations == 0):
            raise ValueError("witness and violation count disagree")
        return CheckReport(witness is None, float(violations), samples, witness, note)

    @staticmethod
    def worst(gaps, tol: float, witness=None, note: str | None = None) -> "CheckReport":
        """The numerical report over one ``(gap, where)`` pair per sample: the
        residual is the largest gap, the first of equal ones, and a failed
        check's witness is ``witness(residual, where)`` (none if no gap is
        above 0).  A nan gap raises ``ValueError`` naming its sample, as a
        check that cannot measure a sample can neither pass nor fail it; an
        inf gap fails."""
        residual, at, samples = 0.0, None, 0
        for gap, where in gaps:
            samples += 1
            if gap > residual:
                residual, at = gap, where
            elif gap != gap:
                raise ValueError(f"nan gap at sample {where}, which can neither pass nor fail")
        passed = residual <= tol
        text = None if passed or witness is None or at is None else witness(residual, at)
        return CheckReport(passed, residual, samples, text, note)

    @staticmethod
    def tally(misses, note: str | None = None) -> "CheckReport":
        """The exact report over one entry per sample, None or the text of a
        violation: the residual counts the violations, the first is the witness."""
        misses = list(misses)
        found = [miss for miss in misses if miss is not None]
        return CheckReport.exact(found[0] if found else None, len(misses), len(found), note)


class PointedSystem(Value):
    """A system together with a chosen state of its carrier."""

    __match_args__ = ("system", "basepoint")

    def __init__(self, system, basepoint):
        _setfield(self, "system", system)
        _setfield(self, "basepoint", basepoint)
        if hasattr(system, "endomap"):
            if basepoint not in system.endomap:
                raise ValueError(f"basepoint {basepoint!r} not in the carrier")
        elif hasattr(system, "domain"):
            if not system.domain.contains(basepoint):
                raise ValueError(f"basepoint {basepoint!r} outside the domain")


class MorphismCandidate(Value):
    """A map between carriers plus the systems it claims to relate."""

    __match_args__ = ("mapping", "src", "dst")

    def __init__(self, mapping, src, dst):
        # SmoothMap for continuous systems, a str->str table for discrete
        _setfield(self, "mapping", mapping)
        _setfield(self, "src", src)
        _setfield(self, "dst", dst)


def identity_morphism(system) -> MorphismCandidate:
    if hasattr(system, "endomap"):
        return MorphismCandidate({x: x for x in system.carrier}, system, system)
    from .continuous import ContinuousSystem, identity_smooth_map

    if isinstance(system, ContinuousSystem):
        return MorphismCandidate(identity_smooth_map(system.dimension), system, system)
    raise TypeError(f"no identity morphism for {type(system).__name__}")


def compose_morphisms(f: MorphismCandidate, g: MorphismCandidate) -> MorphismCandidate:
    """The composite g o f (f applied first); expression-backed maps compose
    by substitution, discrete tables by lookup."""
    if f.dst != g.src:
        raise SystemMismatchError("target system of f differs from source system of g")
    if isinstance(f.mapping, Mapping) and isinstance(g.mapping, Mapping):
        table = {x: g.mapping[y] for x, y in f.mapping.items()}
        return MorphismCandidate(table, f.src, g.dst)
    from .continuous import SmoothMap, compose_smooth_maps

    if isinstance(f.mapping, SmoothMap) and isinstance(g.mapping, SmoothMap):
        return MorphismCandidate(compose_smooth_maps(g.mapping, f.mapping), f.src, g.dst)
    raise TypeError("cannot compose a smooth map with a discrete table")


def check_composition_closure(
    f,
    g,
    x_sys,
    y_sys,
    z_sys,
    samples: Sequence | None = None,
    tol: float = 1e-8,
) -> CheckReport:
    """Given f relating (X, Y) and g relating (Y, Z), verify that the composite
    relates (X, Z) at the samples; the chain rule says it must."""
    from .tau import check_tau_morphism, from_continuous, from_discrete

    gf = compose_morphisms(
        MorphismCandidate(f, x_sys, y_sys), MorphismCandidate(g, y_sys, z_sys)
    )
    view = from_discrete if isinstance(gf.mapping, Mapping) else from_continuous
    return check_tau_morphism(gf, view(x_sys), view(z_sys), samples=samples, tol=tol)


def enumerate_pointed_morphisms(
    target: PointedSystem, horizon: int
) -> tuple[list[tuple[str, ...]], int]:
    """The pointed morphisms from the truncated successor system into
    ``target``, as tables over {0..horizon}: the one orbit of the basepoint.
    The count is that of :func:`verify_initiality_discrete`."""
    from .discrete import iterate

    total = verify_initiality_discrete(horizon, target).samples
    return [iterate(target.system, target.basepoint, horizon).points], total


def verify_initiality_discrete(horizon: int, target: PointedSystem) -> CheckReport:
    """Passes by the proof in the module docstring, building nothing; the
    report counts the |carrier|^(horizon+1) functions {0..horizon} ->
    carrier, and a count above 10**7 raises :class:`EnumerationCapError`."""
    horizon = operator.index(horizon)
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    n = len(target.system.carrier)
    # n^25 > 10**7 for n >= 2, so the power stops at the exponent the cap needs
    total = n ** min(horizon + 1, 25)
    if total > 10**7:
        raise EnumerationCapError(f"{n}^{horizon + 1} candidate functions exceeds cap {10**7}")
    return CheckReport(True, 0.0, total)


_INITIALITY_GRID = 101  # times at which continuous initiality compares the two runs


def verify_initiality_continuous(
    sys,
    x0,
    span: float,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    tol: float = 1e-6,
) -> CheckReport:
    """Numerical corroboration of existence of the solution from ``x0``.

    Integrates twice, the second time with 100x tighter tolerances, and
    compares on the common span: the check passes when the two runs agree
    within ``tol``, and that the integrations run at all is the existence
    half.  Agreement does not show that the solution is unique: for
    x' = |x|^(1/2) from 0 both runs follow x = 0, while x = t^2/4 solves it
    too.
    """
    from .continuous import _compare_on_common_span, integrate

    coarse = integrate(sys, x0, span, rtol=rtol, atol=atol)
    fine = integrate(sys, x0, span, rtol=rtol / 100.0, atol=atol / 100.0)
    return _compare_on_common_span(
        coarse, fine, span, lambda t: _distance(coarse._sample(t), fine._sample(t)), tol,
        _INITIALITY_GRID, witness=lambda residual, t: f"max deviation {residual:.3e}",
    )


# --- arithmetic on lists of floats, shared by the numerical checks ----------


def _norm(values) -> float:
    """Euclidean norm, the one the checks measure residuals with."""
    return math.hypot(*values)


def _distance(p, q) -> float:
    return _norm([a - b for a, b in zip(p, q)])


def _matvec(entries, v) -> list[float]:
    """The row-major matrix ``entries`` (len(v) columns) times v."""
    n = len(v)
    return [_dot(entries[i:i + n], v) for i in range(0, len(entries), n)]


def _linspace(lo: float, hi: float, num: int) -> list[float]:
    """The floats of ``numpy.linspace(lo, hi, num)``: i*step + lo, the last
    one hi, in numpy's order of operations."""
    if num < 2:
        return [0.0 * (hi - lo) + lo][:num]
    div, delta = num - 1, hi - lo
    step = delta / div
    if step == 0.0:  # a subnormal step: numpy scales by delta instead
        return [i / div * delta + lo for i in range(div)] + [hi]
    return [i * step + lo for i in range(div)] + [hi]


def _solve(a, b) -> list[float] | None:
    """x with A x = b for the row-major square matrix ``a``, by Gaussian
    elimination with partial pivoting; None when a pivot is exactly zero."""
    n = len(b)
    rows = [a[i * n:(i + 1) * n] + [b[i]] for i in range(n)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))
        if rows[p][k] == 0.0:
            return None
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k]
        for row in rows[k + 1:]:
            m = row[k] / pivot[k]
            for j in range(k, n + 1):
                row[j] -= m * pivot[j]
    x = [0.0] * n
    for k in reversed(range(n)):
        row = rows[k]
        x[k] = (row[n] - _dot(row[k + 1:n], x[k + 1:])) / row[k]
    return x
