"""The two concrete morphism loops that ``tau.check_tau_morphism`` replaced,
kept as they were: the oracles that the tau check, and the wrappers
``discrete.check_dt_morphism`` and ``continuous.check_f_relatedness`` built
on it, must match in verdict, residual bits, sample count and witness text.
Also the brute-force walk over every table that discrete initiality's
orbit must equal."""

import itertools

from dynsys import expr as E
from dynsys.category import CheckReport, _distance, _matvec
from dynsys.ode_checks import default_samples


def reference_dt_morphism(alpha, src, dst) -> CheckReport:
    """Exact check that alpha intertwines the two endomaps."""
    missing = [x for x in src.carrier if x not in alpha]
    if missing:
        raise ValueError(f"morphism table not total: missing {missing}")
    targets = set(dst.carrier)
    stray = [x for x in src.carrier if alpha[x] not in targets]
    if stray:
        raise ValueError(f"morphism table maps {stray} outside the target carrier")
    return CheckReport.tally(
        None if y == ay else f"at {x!r}: Y(alpha({x!r}))={y!r} but alpha(X({x!r}))={ay!r}"
        for x, y, ay in ((x, dst.endomap[alpha[x]], alpha[src.endomap[x]]) for x in src.carrier)
    )


def reference_f_relatedness(f, x_sys, y_sys, samples=None, tol: float = 1e-8) -> CheckReport:
    """Is Jf(x) X(x) = Y(f(x)) at the samples?  The residual is the sup over
    samples of the euclidean defect norm."""
    if f.source_dim != x_sys.dimension:
        raise E.ArityError(f"map expects {f.source_dim} inputs, system has {x_sys.dimension}")
    if f.target_dim != y_sys.dimension:
        raise E.ArityError(f"map produces {f.target_dim} outputs, target has {y_sys.dimension}")
    pts = default_samples(x_sys.domain) if samples is None else samples

    def defects():
        for x in pts:
            v = E.evaluate_vector(x_sys.field, x)
            jv = _matvec(E.evaluate_vector(f._jacobian, x), v)
            y = f(x)
            if not y_sys.domain.contains(y):
                raise E.DomainError(f"f({tuple(x)}) = {tuple(y)} leaves the target domain")
            yield _distance(jv, E.evaluate_vector(y_sys.field, y)), x

    return CheckReport.worst(defects(), tol, witness=lambda residual, x:
                             f"worst defect {residual:.6g} at x={tuple(float(c) for c in x)}")


def reference_enumerate(target, horizon: int):
    """Oracle for :func:`dynsys.category.enumerate_pointed_morphisms`: walk every
    table {0..horizon} -> carrier in ``itertools.product`` order and keep the
    basepoint-preserving ones that intertwine successor with the endomap."""
    carrier = tuple(target.system.carrier)
    endomap = target.system.endomap
    found = []
    for seq in itertools.product(carrier, repeat=horizon + 1):
        if seq[0] != target.basepoint:
            continue
        if all(seq[k + 1] == endomap[seq[k]] for k in range(horizon)):
            found.append(seq)
    return found, len(carrier) ** (horizon + 1)
