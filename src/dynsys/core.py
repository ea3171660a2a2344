"""Category kernel: check reports, morphism candidates, composition and
initiality checking where it is decidable.

Initiality of the truncated successor system is checked by an exhaustive
search over every function from {0..horizon} into the carrier that counts
the basepoint-preserving ones intertwining the dynamics; exactly one must
survive.  The search drops a partial table as soon as it breaks either
condition, so it visits only the surviving prefixes, while the reported
``samples`` still counts the whole space of |carrier|^(horizon+1) tables.
The continuous analog has an uncountable candidate space, so there the
solution-uniqueness corroboration in :mod:`dynsys.continuous` stands in
(see :func:`verify_initiality_continuous`).

The last section holds the arithmetic on lists of floats (dot products,
norms, grids, a linear solve) that the integrator and the numerical checks
share, so that none of them needs numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence


class SystemMismatchError(ValueError):
    """Composition was attempted across systems that do not line up."""


class EnumerationCapError(RuntimeError):
    """The brute-force search space exceeds the configured cap."""


class NonMonotoneError(RuntimeError):
    """Root isolation could not split the map into monotone pieces (raised
    by :mod:`dynsys.germ`; defined here so that catching it loads no numpy)."""


@dataclass(frozen=True)
class CheckReport:
    """Structured verdict of a single check.

    For numerical checks the verdict is residual <= tolerance; for exact
    checks it is the absence of a witness.  ``residual`` is a sup-norm
    where one applies, otherwise a violation count.
    """

    passed: bool
    residual: float
    samples: int
    witness: str | None = None
    note: str | None = None

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


@dataclass(frozen=True)
class PointedSystem:
    """A system together with a chosen state of its carrier."""

    system: object
    basepoint: object

    def __post_init__(self):
        sys = self.system
        if hasattr(sys, "endomap"):
            if self.basepoint not in sys.endomap:
                raise ValueError(f"basepoint {self.basepoint!r} not in the carrier")
        elif hasattr(sys, "domain"):
            if not sys.domain.contains(self.basepoint):
                raise ValueError(f"basepoint {self.basepoint!r} outside the domain")


@dataclass(frozen=True)
class MorphismCandidate:
    """A map between carriers plus the systems it claims to relate."""

    mapping: object  # SmoothMap for continuous systems, a str->str table for discrete
    src: object
    dst: object


def identity_morphism(system) -> MorphismCandidate:
    from .continuous import ContinuousSystem, identity_smooth_map

    if isinstance(system, ContinuousSystem):
        return MorphismCandidate(identity_smooth_map(system.dimension), system, system)
    if hasattr(system, "endomap"):
        return MorphismCandidate({x: x for x in system.carrier}, system, system)
    raise TypeError(f"no identity morphism for {type(system).__name__}")


def compose_morphisms(f: MorphismCandidate, g: MorphismCandidate) -> MorphismCandidate:
    """The composite g o f (f applied first); expression-backed maps compose
    by substitution, discrete tables by lookup."""
    if f.dst != g.src:
        raise SystemMismatchError("target system of f differs from source system of g")
    from .continuous import SmoothMap, compose_smooth_maps

    if isinstance(f.mapping, SmoothMap) and isinstance(g.mapping, SmoothMap):
        return MorphismCandidate(compose_smooth_maps(g.mapping, f.mapping), f.src, g.dst)
    if isinstance(f.mapping, Mapping) and isinstance(g.mapping, Mapping):
        table = {x: g.mapping[y] for x, y in f.mapping.items()}
        return MorphismCandidate(table, f.src, g.dst)
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
    gf = compose_morphisms(
        MorphismCandidate(f, x_sys, y_sys), MorphismCandidate(g, y_sys, z_sys)
    )
    from .continuous import SmoothMap, check_f_relatedness

    if isinstance(gf.mapping, SmoothMap):
        return check_f_relatedness(gf.mapping, x_sys, z_sys, samples=samples, tol=tol)
    from .discrete import check_dt_morphism

    return check_dt_morphism(gf.mapping, x_sys, z_sys)


def enumerate_pointed_morphisms(
    target: PointedSystem, horizon: int, cap: int = 10**7
) -> tuple[list[tuple[str, ...]], int]:
    """Exhaustive oracle for discrete initiality.

    Searches every function {0..horizon} -> carrier, in the order of
    ``itertools.product(carrier, repeat=horizon + 1)``, for those that
    send 0 to the basepoint and satisfy alpha(n+1) = X(alpha(n)); a
    partial table that breaks either condition is not extended.  Returns
    the surviving tables and the size of the space searched.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    sys = target.system
    carrier = tuple(sys.carrier)
    total = len(carrier) ** (horizon + 1)
    if total > cap:
        raise EnumerationCapError(
            f"{len(carrier)}^{horizon + 1} = {total} candidate functions exceeds cap {cap}"
        )
    endomap = sys.endomap
    found = []
    seq: list[str] = []  # the partial table
    # per position of seq: the carrier elements still to try there, and the
    # one value the conditions allow there
    frames = [(iter(carrier), target.basepoint)]
    while frames:
        values, allowed = frames[-1]
        for c in values:
            if c == allowed:
                break
        else:  # position exhausted: backtrack
            frames.pop()
            if seq:
                seq.pop()
            continue
        seq.append(c)
        if len(seq) == horizon + 1:
            found.append(tuple(seq))
            seq.pop()
        else:
            frames.append((iter(carrier), endomap[c]))
    return found, total


def verify_initiality_discrete(
    horizon: int, target: PointedSystem, cap: int = 10**7
) -> CheckReport:
    """Count basepoint-preserving morphisms from the truncated successor
    system; universality demands exactly one."""
    found, total = enumerate_pointed_morphisms(target, horizon, cap=cap)
    count = len(found)
    witness = None
    if count == 0:
        witness = "no basepoint-preserving morphism found"
    elif count > 1:
        witness = f"{count} distinct morphisms found, e.g. {found[0]} and {found[1]}"
    return CheckReport(
        passed=count == 1,
        residual=float(abs(count - 1)),
        samples=total,
        witness=witness,
    )


def verify_initiality_continuous(
    sys,
    x0,
    span: float,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    tol: float = 1e-6,
    grid: int = 101,
) -> CheckReport:
    """Numerical corroboration of existence and uniqueness of solutions.

    Integrates twice, the second time with 100x tighter tolerances, and
    compares on the common span: agreement within ``tol`` corroborates that
    the solution from ``x0`` is unique; that the integrations run at all is
    the existence half.
    """
    from .continuous import integrate

    coarse = integrate(sys, x0, span, rtol=rtol, atol=atol)
    fine = integrate(sys, x0, span, rtol=rtol / 100.0, atol=atol / 100.0)
    lo = max(coarse.t_lo, fine.t_lo)
    hi = min(coarse.t_hi, fine.t_hi)
    residual = 0.0
    for t in _linspace(lo, hi, grid):
        residual = max(residual, _distance(coarse._sample(t), fine._sample(t)))
    note = None
    full = (0.0, span) if span >= 0 else (span, 0.0)
    if (lo, hi) != full:
        note = f"compared on [{lo:.17g}, {hi:.17g}] (early termination)"
    return CheckReport.numerical(
        residual, tol, samples=grid, witness=f"max deviation {residual:.3e}", note=note
    )


# --- arithmetic on lists of floats, shared by the numerical checks ----------


def _dot(a, b) -> float:
    """Summed left to right: ``sum`` of floats rounds differently from one
    Python version to the next, and this must give the same bits."""
    total = 0.0
    for u, v in zip(a, b):
        total += u * v
    return total


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
