"""Oracles for the germ code, kept as the code was before it was batched or
compiled.

The per-sample sign loop that ``germ._sign_brackets`` replaced, kept as it
was inside ``germ._monotone_pieces``, except that it returns each bracket
where the loop bisected it: the oracle that the vectorized scan must match
bracket for bracket, in order.  ``germ._solve_crossing``, and the bisection
of ``germ._monotone_pieces`` for where a derivative turns positive, as
scalar predicates under ``continuous._bisect``, which the compiled
bisection must match bit for bit.  And ``germ._directions`` as one
``np.diff`` per row.
"""

import numpy as np

from dynsys import expr as E
from dynsys import germ as G
from dynsys.continuous import _bisect


def reference_sign_brackets(dvals: np.ndarray) -> list[tuple[int, int, bool]]:
    """``(prev_idx, i, sign > 0)`` per sign change of the finite samples; a
    sample exactly on a critical point is not a crossing."""
    valid = np.isfinite(dvals)
    brackets = []
    prev_idx, prev_sign = None, 0
    for i in np.where(valid)[0]:
        v = dvals[i]
        sign = 1 if v > 0.0 else (-1 if v < 0.0 else 0)
        if sign == 0:
            continue
        if prev_sign != 0 and sign != prev_sign:
            brackets.append((int(prev_idx), int(i), sign > 0))
        prev_idx, prev_sign = i, sign
    return brackets


def _scalar(m: E.Expr, x: float) -> float:
    """The compiled map's value at x or, where it raises DomainError, the
    numpy walk's."""
    try:
        return m._compiled((x,), 0.0)
    except E.DomainError:
        return float(E.evaluate_many(m, np.array([x]))[0])


def reference_crossing(m: E.Expr, lo: float, hi: float, y: float, increasing: bool) -> float:
    """Where ``(m(x) >= y) == increasing`` flips in (lo, hi), clipped."""
    return _bisect(lambda x: (_scalar(m, x) >= y) == increasing,
                   max(lo, -G._CLIP), min(hi, G._CLIP))


def reference_critical_point(dm: E.Expr, good: float, bad: float, rising: bool) -> float:
    """Where the derivative ``dm`` turns positive (``rising``) or not, between
    two grid points of opposite signs."""
    return _bisect(lambda x: (_scalar(dm, x) > 0.0) == rising, good, bad)


def reference_directions(values: np.ndarray) -> list[tuple[bool, bool]]:
    """Per row: are the differences of its finite values all >= 0, and all
    <= 0?  A difference of two finite values may overflow to +-inf, which
    keeps its sign; the overflow warning is expected here."""
    out = []
    with np.errstate(over="ignore"):
        for row in values:
            diffs = np.diff(row[np.isfinite(row)])
            out.append((bool(np.all(diffs >= 0.0)), bool(np.all(diffs <= 0.0))))
    return out
