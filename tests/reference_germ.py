"""The per-sample sign loop that ``germ._sign_brackets`` replaced, kept as it
was inside ``germ._monotone_pieces``, except that it returns each bracket
where the loop bisected it: the oracle that the vectorized scan must match
bracket for bracket, in order."""

import numpy as np


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
