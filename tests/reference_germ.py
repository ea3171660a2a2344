"""Oracles for the germ code, kept as the code was before it was batched or
compiled.

The per-sample sign loop that ``germ._sign_brackets`` replaced, kept as it
was inside ``germ._monotone_pieces``, except that it returns each bracket
where the loop bisected it: the oracle that the vectorized scan must match
bracket for bracket, in order.  And ``germ._solve_crossing`` as a scalar
predicate under ``continuous._bisect``, which its compiled bisection must
match bit for bit.
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


def reference_crossing(m: E.Expr, lo: float, hi: float, y: float, increasing: bool) -> float:
    """Where ``(m(x) >= y) == increasing`` flips in (lo, hi), clipped: the
    compiled map's value at each midpoint or, where it raises DomainError,
    the numpy walk's."""

    def flipped(x: float) -> bool:
        try:
            v = m._compiled((x,), 0.0)
        except E.DomainError:
            v = float(E.evaluate_many(m, np.array([x]))[0])
        return (v >= y) == increasing

    return _bisect(flipped, max(lo, -G._CLIP), min(hi, G._CLIP))
