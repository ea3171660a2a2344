"""Command-line entry point.

Three subcommands: ``solve`` integrates (or iterates) a system and writes
the trajectory, ``check-morphism`` tests a candidate map between two
systems, and ``laws`` runs the property suites that apply to a spec.

Exit codes: 0 success/pass, 1 input error (an output path that cannot be
written included), 2 early termination of a solve (blow-up or domain exit,
partial output still written), 3 a check failed.

At module level only argument parsing is imported; each command imports
the modules it uses, so ``--version`` loads no system code, a discrete spec
no expression or ODE code, and a continuous one no discrete code.

The bodies of ``check-morphism`` and ``laws`` live in
:mod:`dynsys.checkcmd`, which :func:`main` imports only for those two
commands, so ``--version`` and ``solve`` do not compile them.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from . import __version__, core


# an argument that reads as a negative number is a value, not an option;
# argparse before 3.13 leaves out exponents such as -1e-3, and -inf and -nan
_NEGATIVE_NUMBER = re.compile(r"-(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf(?:inity)?|nan)\Z",
                              re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):  # argparse's default exit code 2 means something else here
        from .specio import SpecError

        raise SpecError(message)


def _number(text: str, ok, expected: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not ok(value):
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """The type of the tolerance options: a finite number, zero or more."""
    return _number(text, lambda v: 0.0 <= v < math.inf, "a finite non-negative number")


def _threshold(text: str) -> float:
    """The type of ``--escape-threshold``: a positive number, inf included."""
    return _number(text, lambda v: v > 0.0, "a positive number")


def _period(text: str) -> float:
    """The type of ``--period``: a positive finite number."""
    return _number(text, lambda v: 0.0 < v < math.inf, "a positive finite number")


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
    solve.add_argument("--escape-threshold", type=_threshold)  # default C.DEFAULT_ESCAPE
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
    laws.add_argument("--horizon", type=int, help="initiality truncation (discrete; default 6)")
    laws.add_argument("--tol", type=_tolerance, default=1e-8)
    laws.add_argument("--rtol", type=_tolerance, default=1e-9)
    laws.add_argument("--atol", type=_tolerance, default=1e-12)
    laws.add_argument("--period", type=_period, help="also check a periodic orbit at this period")
    laws.add_argument("--output", help="report path (default stdout)")
    return parser


def _write(path: str, write) -> None:
    """``write(path)``; a path that cannot be written is an input error."""
    from .specio import SpecError

    try:
        write(path)
    except OSError as exc:
        raise SpecError(f"cannot write {path}: {exc}") from None


def _emit(text: str, output: str | None) -> None:
    if output:
        from pathlib import Path  # loaded already: specio reads the specs with it

        _write(output, lambda path: Path(path).write_text(text))
    else:
        sys.stdout.write(text)


def _parse_floats(text: str, n: int, what: str) -> tuple[float, ...]:
    from .specio import SpecError

    toks = text.split()
    if len(toks) != n:
        raise SpecError(f"{what} needs {n} coordinates, got {text!r}")
    try:
        return tuple(float(t) for t in toks)
    except ValueError:
        raise SpecError(f"{what}: not a number in {text!r}") from None


def _refuse(args, kind: str, *options: str) -> None:
    """An option given for a spec of the other kind is an input error, not ignored."""
    from .specio import SpecError

    for option in options:
        if getattr(args, option[2:].replace("-", "_")) is not None:
            raise SpecError(f"{option} applies to {kind} systems")


def _cmd_solve(args) -> int:
    from .specio import SpecError, load_system

    loaded = load_system(args.system)
    if loaded.is_discrete:
        from . import discrete

        _refuse(args, "continuous", "--x0", "--span", "--escape-threshold")
        c0 = args.c0 or loaded.basepoint
        if c0 is None:
            raise SpecError("give --c0 or a basepoint in the spec file")
        if args.horizon is None:
            raise SpecError("discrete systems need --horizon")
        orbit = discrete.iterate(loaded.system, c0, args.horizon)
        _emit(" ".join(orbit.points) + "\n", args.output)
        return 0
    _refuse(args, "discrete", "--c0", "--horizon")
    n = loaded.system.dimension
    x0 = _parse_floats(args.x0, n, "--x0") if args.x0 else loaded.basepoint
    if x0 is None:
        raise SpecError("give --x0 or a basepoint in the spec file")
    if args.span is None:
        raise SpecError("continuous systems need --span")
    from . import continuous as C

    escape = C.DEFAULT_ESCAPE if args.escape_threshold is None else args.escape_threshold
    traj = C.integrate(
        loaded.system, x0, args.span, rtol=args.rtol, atol=args.atol, escape_threshold=escape,
    )
    if args.output:
        _write(args.output, traj.to_csv)
    else:
        traj.to_csv()
    if traj.termination != C.TERM_SPAN:
        end = traj.t_hi if args.span > 0 else traj.t_lo
        print(f"early termination: {traj.termination} at t={end:.9g}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "solve":
            return _cmd_solve(args)
        from . import checkcmd

        if args.command == "check-morphism":
            return checkcmd._cmd_check_morphism(args)
        return checkcmd._cmd_laws(args)
    # a SpecError is a ValueError; the other errors are defined in core, so
    # that naming them here loads none of the modules that raise them
    except (ValueError, core.ExprError, core.NonMonotoneError,
            core.StepSizeUnderflowError, core.StepLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
