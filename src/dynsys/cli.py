"""Command-line entry point.

Three subcommands: ``solve`` integrates (or iterates) a system and writes
the trajectory, ``check-morphism`` tests a candidate map between two
systems, and ``laws`` runs the property suites that apply to a spec.

Exit codes: 0 success/pass, 1 input error, 2 early termination of a solve
(blow-up or domain exit, partial output still written), 3 a check failed.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from . import continuous as C
from . import core, discrete, tau
from . import expr as E
from .specio import LoadedSystem, SpecError, load_map, load_system, render_report


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's default exit code 2 means something else here
        raise SpecError(message)


def _tolerance(text: str) -> float:
    """The type of the tolerance options: a finite number, zero or more."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite non-negative number, got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="dynsys", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dynsys {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="integrate a continuous system or iterate a discrete one")
    solve.add_argument("system", help="system spec file")
    solve.add_argument("--x0", help="initial state, space-separated coordinates")
    solve.add_argument("--c0", help="initial element (discrete systems)")
    solve.add_argument("--span", type=float, help="time span T (or -T for backward)")
    solve.add_argument("--horizon", type=int, help="iteration count (discrete systems)")
    solve.add_argument("--rtol", type=_tolerance, default=1e-9)
    solve.add_argument("--atol", type=_tolerance, default=1e-12)
    solve.add_argument("--escape-threshold", type=float, default=C.DEFAULT_ESCAPE)
    solve.add_argument("--output", help="output path (default stdout)")

    check = sub.add_parser("check-morphism", help="test a candidate map between two systems")
    check.add_argument("src", help="source system spec file")
    check.add_argument("dst", help="target system spec file")
    check.add_argument("map", help="morphism spec file")
    check.add_argument("--tol", type=_tolerance, default=1e-8, help="relatedness tolerance")
    check.add_argument("--preserve-solutions", nargs="+", metavar="V",
                       help="x0 coordinates followed by T: also check naturality")
    check.add_argument("--preserve-tol", type=_tolerance, default=1e-5)
    check.add_argument("--rtol", type=_tolerance, default=1e-9)
    check.add_argument("--atol", type=_tolerance, default=1e-12)
    check.add_argument("--output", help="report path (default stdout)")

    laws = sub.add_parser("laws", help="run the property suites that apply to the spec kind")
    laws.add_argument("systems", nargs="+", help="system spec files")
    laws.add_argument("--horizon", type=int, default=6, help="initiality truncation (discrete)")
    laws.add_argument("--tol", type=_tolerance, default=1e-8)
    laws.add_argument("--rtol", type=_tolerance, default=1e-9)
    laws.add_argument("--atol", type=_tolerance, default=1e-12)
    laws.add_argument("--period", type=float, help="also check a periodic orbit at this period")
    laws.add_argument("--output", help="report path (default stdout)")
    return parser


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_floats(text: str, n: int, what: str) -> tuple[float, ...]:
    toks = text.split()
    if len(toks) != n:
        raise SpecError(f"{what} needs {n} coordinates, got {text!r}")
    try:
        return tuple(float(t) for t in toks)
    except ValueError:
        raise SpecError(f"{what}: not a number in {text!r}") from None


def _cmd_solve(args) -> int:
    loaded = load_system(args.system)
    if loaded.is_discrete:
        c0 = args.c0 or loaded.basepoint
        if c0 is None:
            raise SpecError("give --c0 or a basepoint in the spec file")
        if args.horizon is None:
            raise SpecError("discrete systems need --horizon")
        orbit = discrete.iterate(loaded.system, c0, args.horizon)
        _emit(" ".join(orbit.points) + "\n", args.output)
        return 0
    n = loaded.system.dimension
    x0 = _parse_floats(args.x0, n, "--x0") if args.x0 else loaded.basepoint
    if x0 is None:
        raise SpecError("give --x0 or a basepoint in the spec file")
    if args.span is None:
        raise SpecError("continuous systems need --span")
    traj = C.integrate(
        loaded.system, x0, args.span,
        rtol=args.rtol, atol=args.atol, escape_threshold=args.escape_threshold,
    )
    traj.to_csv(args.output or None)
    if traj.termination != C.TERM_SPAN:
        end = traj.t_hi if args.span > 0 else traj.t_lo
        print(f"early termination: {traj.termination} at t={end:.9g}", file=sys.stderr)
        return 2
    return 0


def _cmd_check_morphism(args) -> int:
    src = load_system(args.src)
    dst = load_system(args.dst)
    mapping = load_map(args.map, src, dst)
    config = {
        "tol": args.tol, "rtol": args.rtol, "atol": args.atol,
        "preserve_tol": args.preserve_tol,
    }
    checks = []
    if src.is_discrete:
        checks.append(("dt-morphism", discrete.check_dt_morphism(mapping, src.system, dst.system)))
        if args.preserve_solutions:
            raise SpecError("--preserve-solutions applies to continuous systems")
    else:
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
    sys_ = loaded.system
    checks.append((f"{label}section-law", tau.check_section(loaded.tau_system)))
    checks.append((f"{label}identity-morphism", discrete.check_dt_morphism(
        core.identity_morphism(sys_).mapping, sys_, sys_)))
    # the endomap is itself an endomorphism; associate its cube both ways
    x_cand = core.MorphismCandidate(dict(sys_.endomap), sys_, sys_)
    left = core.compose_morphisms(core.compose_morphisms(x_cand, x_cand), x_cand)
    right = core.compose_morphisms(x_cand, core.compose_morphisms(x_cand, x_cand))
    witness = None if left.mapping == right.mapping else "association orders disagree"
    checks.append((f"{label}compose-associativity", core.CheckReport.exact(
        witness, len(sys_.carrier), violations=0 if witness is None else 1)))
    basepoints = [loaded.basepoint] if loaded.basepoint else list(sys_.carrier)
    for bp in basepoints:
        try:
            rep = core.verify_initiality_discrete(
                args.horizon, core.PointedSystem(sys_, bp))
            checks.append((f"{label}initiality[{bp}]", rep))
        except core.EnumerationCapError as exc:
            notes.append(f"{label}initiality[{bp}] skipped: {exc}")
    fp = sorted(discrete.fixed_points(sys_))
    notes.append(f"{label}fixed-points: {' '.join(fp) if fp else '(none)'}")


def _laws_for_continuous(loaded: LoadedSystem, args, checks, notes, label: str) -> None:
    sys_ = loaded.system
    checks.append((f"{label}section-law", tau.check_section(loaded.tau_system)))
    checks.append((f"{label}identity-morphism", C.check_f_relatedness(
        C.identity_smooth_map(sys_.dimension), sys_, sys_, tol=args.tol)))
    ident = core.identity_morphism(sys_)
    left = core.compose_morphisms(core.compose_morphisms(ident, ident), ident)
    right = core.compose_morphisms(ident, core.compose_morphisms(ident, ident))
    pts = C.default_samples(sys_.domain, 25)
    residual = max((core._distance(left.mapping(p), right.mapping(p)) for p in pts), default=0.0)
    checks.append((f"{label}compose-associativity",
                   core.CheckReport.numerical(residual, 1e-12, len(pts))))
    equilibria = C.find_equilibria(sys_, tol=max(args.tol, 1e-10))
    if equilibria:
        worst = max(
            C.check_equilibrium_morphism(sys_, eq, tol=args.tol).residual
            for eq in equilibria
        )
        rep = core.CheckReport.numerical(worst, args.tol, len(equilibria))
        checks.append((f"{label}equilibrium-morphisms", rep))
    notes.append(f"{label}equilibria: {len(equilibria)} found")
    if loaded.basepoint is not None:
        traj = C.integrate(sys_, loaded.basepoint, 1.0,
                           rtol=args.rtol, atol=args.atol, max_step=2e-3)
        bound = 10 * (args.atol + args.rtol * max(abs(v) for row in traj._states for v in row))
        checks.append((f"{label}solution-morphism",
                       C.solution_morphism_report(traj, sys_, bound)))
        if args.period:
            try:
                checks.append((f"{label}periodic-orbit", C.check_periodic_orbit(
                    sys_, loaded.basepoint, args.period,
                    rtol=args.rtol, atol=args.atol)))
            except C.EarlyTerminationError as exc:
                checks.append((f"{label}periodic-orbit",
                               core.CheckReport.exact(str(exc), 0, violations=1)))
    else:
        notes.append(f"{label}solution-morphism skipped: no basepoint in the spec")
        if args.period:
            raise SpecError("--period needs a basepoint in the spec file")


def _cmd_laws(args) -> int:
    checks, notes = [], []
    for path in args.systems:
        loaded = load_system(path)
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


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "check-morphism":
            return _cmd_check_morphism(args)
        return _cmd_laws(args)
    except (SpecError, E.ExprError, core.NonMonotoneError, ValueError,
            C.StepSizeUnderflowError, C.StepLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:  # printing, differentiating or parsing a deep tree
        print("error: expression nested too deeply", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
