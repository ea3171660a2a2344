"""The two check commands, ``check-morphism`` and ``laws``, with the
morphism spec reader and the report writer that only they use.

:func:`dynsys.cli.main` imports this module only for these two commands,
so ``--version`` and ``dynsys solve`` do not compile it.

Every name is read from the module that defines it, except the functions
that perfbench's tracer wraps (``TARGETS`` in ``perfbench/tracing.py``):
the commands call those as attributes of the module the tracer patches,
looked up at each call (``specio.render_report``,
``core.compose_morphisms``, ``C.check_f_relatedness``), and that module
forwards each to its home (PEP 562).  ``Tracer.install`` lists the
package's modules before it resolves its targets, and resolving them is
what imports this module and :mod:`dynsys.ode_checks`, so their globals are
never patched: a call through one of them would leave no span, and no
error either.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import __version__, core
from .category import CheckReport, MorphismCandidate, PointedSystem, _distance, identity_morphism
from .cli import _emit, _refuse
from .specio import SpecError, _collect, _read_pairs, _single, _table

if TYPE_CHECKING:
    from .specio import LoadedSystem


# --- the commands ------------------------------------------------------------


def _cmd_check_morphism(args) -> int:
    from .specio import SpecError, load_map, load_system, render_report

    src = load_system(args.src)
    dst = load_system(args.dst)
    mapping = load_map(args.map, src, dst)
    config = {
        "tol": args.tol, "rtol": args.rtol, "atol": args.atol,
        "preserve_tol": args.preserve_tol,
    }
    checks = []
    if src.is_discrete:
        from . import discrete

        _refuse(args, "continuous", "--preserve-solutions")
        checks.append(("dt-morphism", discrete.check_dt_morphism(mapping, src.system, dst.system)))
    else:
        from . import continuous as C

        checks.append(("f-relatedness",
                       C.check_f_relatedness(mapping, src.system, dst.system, tol=args.tol)))
        if args.preserve_solutions:
            n = src.system.dimension
            if len(args.preserve_solutions) != n + 1:
                raise SpecError(f"--preserve-solutions needs {n} coordinates plus T")
            x0 = tuple(float(v) for v in args.preserve_solutions[:n])
            span = float(args.preserve_solutions[n])
            checks.append(("solution-preservation", C.check_solution_preservation(
                mapping, src.system, dst.system, x0, span,
                tol=args.preserve_tol, rtol=args.rtol, atol=args.atol,
            )))
    command = f"check-morphism {args.src} {args.dst} {args.map}"
    _emit(render_report(command, config, checks), args.output)
    return 0 if all(rep.passed for _, rep in checks) else 3


def _laws_for_discrete(loaded: LoadedSystem, args, checks, notes, label: str) -> None:
    from . import discrete, tau

    sys_ = loaded.system
    checks.append((f"{label}section-law", tau.check_section(loaded.tau_system)))
    checks.append((f"{label}identity-morphism", discrete.check_dt_morphism(
        identity_morphism(sys_).mapping, sys_, sys_)))
    # the endomap is itself an endomorphism; associate its cube both ways
    x_cand = MorphismCandidate(dict(sys_.endomap), sys_, sys_)
    left = core.compose_morphisms(core.compose_morphisms(x_cand, x_cand), x_cand)
    right = core.compose_morphisms(x_cand, core.compose_morphisms(x_cand, x_cand))
    checks.append((f"{label}compose-associativity", CheckReport.tally(
        None if left.mapping[x] == right.mapping[x] else f"association orders disagree at {x!r}"
        for x in sys_.carrier)))
    basepoints = [loaded.basepoint] if loaded.basepoint else list(sys_.carrier)
    for bp in basepoints:
        try:
            rep = core.verify_initiality_discrete(
                args.horizon, PointedSystem(sys_, bp))
            checks.append((f"{label}initiality[{bp}]", rep))
        except core.EnumerationCapError as exc:
            notes.append(f"{label}initiality[{bp}] skipped: {exc}")
    fp = sorted(discrete.fixed_points(sys_))
    notes.append(f"{label}fixed-points: {' '.join(fp) if fp else '(none)'}")


def _laws_for_continuous(loaded: LoadedSystem, args, checks, notes, label: str) -> None:
    from . import continuous as C
    from . import tau
    from .ode_checks import default_samples
    from .specio import SpecError

    sys_ = loaded.system
    checks.append((f"{label}section-law", tau.check_section(loaded.tau_system)))
    checks.append((f"{label}identity-morphism", C.check_f_relatedness(
        C.identity_smooth_map(sys_.dimension), sys_, sys_, tol=args.tol)))
    ident = identity_morphism(sys_)
    left = core.compose_morphisms(core.compose_morphisms(ident, ident), ident)
    right = core.compose_morphisms(ident, core.compose_morphisms(ident, ident))
    checks.append((f"{label}compose-associativity", CheckReport.worst(
        ((_distance(left.mapping(p), right.mapping(p)), p)
         for p in default_samples(sys_.domain, 25)), 1e-12)))
    equilibria = C.find_equilibria(sys_, tol=max(args.tol, 1e-10))
    if equilibria:
        checks.append((f"{label}equilibrium-morphisms", CheckReport.worst(
            ((C.check_equilibrium_morphism(sys_, eq, tol=args.tol).residual, eq)
             for eq in equilibria), args.tol)))
    notes.append(f"{label}equilibria: {len(equilibria)} found")
    if loaded.basepoint is not None:
        traj = C.integrate(sys_, loaded.basepoint, 1.0,
                           rtol=args.rtol, atol=args.atol, max_step=2e-3)
        bound = 10 * (args.atol + args.rtol * max(abs(v) for row in traj._states for v in row))
        checks.append((f"{label}solution-morphism",
                       C.solution_morphism_report(traj, sys_, bound)))
        if args.period is not None:
            try:
                checks.append((f"{label}periodic-orbit", C.check_periodic_orbit(
                    sys_, loaded.basepoint, args.period,
                    rtol=args.rtol, atol=args.atol)))
            except C.EarlyTerminationError as exc:
                checks.append((f"{label}periodic-orbit",
                               CheckReport(False, 1.0, 0, str(exc))))
    else:
        notes.append(f"{label}solution-morphism skipped: no basepoint in the spec")
        if args.period is not None:
            raise SpecError("--period needs a basepoint in the spec file")


def _cmd_laws(args) -> int:
    from .specio import load_system, render_report

    checks, notes = [], []
    specs = [load_system(path) for path in args.systems]
    if all(loaded.is_discrete for loaded in specs):  # no spec of the run reads a period
        _refuse(args, "continuous", "--period")
    if not any(loaded.is_discrete for loaded in specs):  # no spec of the run reads a horizon
        _refuse(args, "discrete", "--horizon")
    args.horizon = 6 if args.horizon is None else args.horizon
    for path, loaded in zip(args.systems, specs):
        label = f"{path}:" if len(args.systems) > 1 else ""
        if loaded.is_discrete:
            _laws_for_discrete(loaded, args, checks, notes, label)
        else:
            _laws_for_continuous(loaded, args, checks, notes, label)
    config = {
        "horizon": args.horizon, "tol": args.tol, "rtol": args.rtol,
        "atol": args.atol, "period": args.period,
    }
    command = "laws " + " ".join(args.systems)
    _emit(render_report(command, config, checks, notes), args.output)
    return 0 if all(rep.passed for _, rep in checks) else 3


# --- the morphism spec and the report -----------------------------------------


def load_map(path, src: LoadedSystem, dst: LoadedSystem):
    """A SmoothMap or a discrete table, checked against both systems."""
    pairs = _read_pairs(path)
    kind = _single(pairs, "kind", path, required=True)
    if kind != "map":
        raise SpecError(f"{path}: expected kind: map, got {kind!r}")
    components = _collect(pairs, "component")
    entries = _collect(pairs, "entry")
    if components and entries:
        raise SpecError(f"{path}: give either component rows or entry rows, not both")
    if src.is_discrete != dst.is_discrete:
        raise SpecError("kind mismatch: cannot map between discrete and continuous systems")
    if src.is_discrete:
        if not entries:
            raise SpecError(f"{path}: discrete morphisms need entry rows")
        return {a: b for a, (b,) in _table(pairs, "entry", path).items()}
    if not components:
        raise SpecError(f"{path}: continuous morphisms need component rows")
    from . import expr as E
    from .continuous import SmoothMap

    if len(components) != dst.system.dimension:
        raise SpecError(
            f"{path}: need {dst.system.dimension} components, got {len(components)}"
        )
    try:
        return SmoothMap(E.parse_vector(components, src.system.dimension))
    except E.ExprError as exc:
        raise SpecError(f"{path}: {exc}") from None


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return "-"
    return str(v)


def _fmt_text(v: str | None) -> str:
    if v is None:
        return "-"
    return '"' + v.replace('"', "'") + '"'


def render_report(
    command: str,
    config: dict,
    checks: list[tuple[str, CheckReport]],
    notes: list[str] = (),
) -> str:
    """Deterministic text report: identical inputs give identical bytes."""
    lines = [f"tool: dynsys {__version__}", f"command: {command}"]
    lines.append(
        "config: " + " ".join(f"{k}={_fmt_value(v)}" for k, v in sorted(config.items()))
    )
    for name, rep in checks:
        lines.append(
            f"check: name={name} verdict={rep.verdict} residual={_fmt_value(rep.residual)}"
            f" samples={rep.samples} witness={_fmt_text(rep.witness)} note={_fmt_text(rep.note)}"
        )
    for note in notes:
        lines.append(f"note: {note}")
    overall = "pass" if all(rep.passed for _, rep in checks) else "fail"
    lines.append(f"result: {overall}")
    return "\n".join(lines) + "\n"
