"""System spec files: the reader that every command runs.

Spec files are line-oriented ``key: value`` text with ``#`` comments.
Repeated keys accumulate in order; a ``;`` inside a value separates
entries of the same key.  A table row (``map:``, ``section:``, ``entry:``)
may be given once per element: a second row for one element is an input
error, not an override.  Exact field names:

discrete systems::

    kind: discrete
    elements: a b
    map: a -> b
    map: b -> b
    basepoint: a
    section: a -> a b        # optional explicit section rows (fixtures)

continuous and germed systems (germed means a 1-D punctured carrier)::

    kind: continuous
    dimension: 2
    domain: -1 1 ; -inf inf  # one "lo hi" pair per dimension (default all R)
    puncture: 0 0            # repeatable
    field: x2
    field: -x1
    basepoint: 1 0
    section-base: x1 + 1     # optional footing override (fixtures)

morphism files::

    kind: map
    component: x1 + 3        # continuous: one expression per target dim
    entry: a -> x            # discrete: one row per source element

Each kind of spec imports the modules that build it when it is loaded, so
a discrete spec loads no expression or ODE code.  A loaded system's tau
view (:mod:`dynsys.tau`), which only ``laws`` reads, is built on first
read, except that ``section:`` and ``section-base:`` fixtures build theirs
at load.

The morphism spec reader :func:`load_map` and the report writer
:func:`render_report`, which only ``check-morphism`` and ``laws`` run, live
in :mod:`dynsys.checkcmd`, so a ``dynsys solve`` does not compile them.
"""

from __future__ import annotations

import math
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

from .core import Record, _forwarding

if TYPE_CHECKING:
    from .tau import TauSystem


class SpecError(ValueError):
    """Malformed spec file or command input."""


class LoadedSystem(Record):
    __match_args__ = ("kind", "system", "basepoint", "tau_system")

    def __init__(self, kind: str, system, basepoint, tau_system: TauSystem | None = None):
        self.kind = kind  # discrete | continuous | germed
        self.system = system
        self.basepoint = basepoint
        if tau_system is not None:  # a fixture's section; else the system's own, when read
            self.tau_system = tau_system

    @cached_property
    def tau_system(self) -> TauSystem:
        from . import tau

        return tau.from_discrete(self.system) if self.is_discrete else \
            tau.from_continuous(self.system)

    @property
    def is_discrete(self) -> bool:
        return self.kind == "discrete"


def _read_pairs(path) -> list[tuple[str, str]]:
    pairs = []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from None
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise SpecError(f"{path}:{ln}: expected 'key: value'")
        key, value = line.split(":", 1)
        for part in value.split(";"):
            pairs.append((key.strip(), part.strip()))
    return pairs


def _collect(pairs, key: str) -> list[str]:
    return [v for k, v in pairs if k == key]


def _single(pairs, key: str, path, required: bool = False) -> str | None:
    vals = _collect(pairs, key)
    if len(vals) > 1:
        raise SpecError(f"{path}: key {key!r} given {len(vals)} times")
    if not vals:
        if required:
            raise SpecError(f"{path}: missing required key {key!r}")
        return None
    return vals[0]


def _parse_float(tok: str, path) -> float:
    if tok == "-inf":
        return -math.inf
    if tok == "inf":
        return math.inf
    try:
        return float(tok)
    except ValueError:
        raise SpecError(f"{path}: not a number: {tok!r}") from None


def _parse_arrow(value: str, path, parts: int = 1) -> tuple[str, list[str]]:
    if "->" not in value:
        raise SpecError(f"{path}: expected 'x -> y', got {value!r}")
    lhs, rhs = value.split("->", 1)
    rhs_toks = rhs.split()
    if len(rhs_toks) != parts:
        raise SpecError(f"{path}: expected {parts} target token(s) in {value!r}")
    return lhs.strip(), rhs_toks


def _table(pairs, key: str, path, parts: int = 1) -> dict[str, list[str]]:
    """The ``x -> y`` rows of ``key`` by x; two rows for one x are an input
    error, as a later row would silently override the earlier one."""
    rows = [_parse_arrow(value, path, parts) for value in _collect(pairs, key)]
    table = dict(rows)
    if len(table) < len(rows):
        sources = [src for src, _ in rows]
        src = next(src for src in sources if sources.count(src) > 1)
        raise SpecError(f"{path}: {key} row for {src!r} given {sources.count(src)} times")
    return table


def load_system(path) -> LoadedSystem:
    pairs = _read_pairs(path)
    kind = _single(pairs, "kind", path, required=True)
    if kind == "discrete":
        return _load_discrete(pairs, path)
    if kind in ("continuous", "germed"):
        return _load_continuous(pairs, path, kind)
    raise SpecError(f"{path}: unknown kind {kind!r}")


def _load_discrete(pairs, path) -> LoadedSystem:
    from .discrete import DiscreteSystem

    elements_line = _single(pairs, "elements", path, required=True)
    carrier = tuple(elements_line.split())
    table = {src: dst for src, (dst,) in _table(pairs, "map", path).items()}
    try:
        system = DiscreteSystem(carrier, table)
    except ValueError as exc:
        raise SpecError(f"{path}: {exc}") from None
    basepoint = _single(pairs, "basepoint", path)
    if basepoint is not None and basepoint not in table:
        raise SpecError(f"{path}: basepoint {basepoint!r} not among the elements")
    tau_system = None
    section = {src: tuple(row) for src, row in _table(pairs, "section", path, parts=2).items()}
    if section:
        from . import tau

        missing = set(carrier) - set(section)
        if missing:
            raise SpecError(f"{path}: section rows missing for {sorted(missing)}")
        tau_system = tau.TauSystem(tau.DISCRETE, carrier, section)
    return LoadedSystem("discrete", system, basepoint, tau_system)


def _load_continuous(pairs, path, kind: str) -> LoadedSystem:
    from . import expr as E
    from .continuous import ContinuousSystem, Domain

    dim_tok = _single(pairs, "dimension", path, required=True)
    try:
        n = int(dim_tok)
    except ValueError:
        raise SpecError(f"{path}: dimension must be an integer, got {dim_tok!r}") from None
    if n < 1:
        raise SpecError(f"{path}: dimension must be positive")
    if kind == "germed" and n != 1:
        raise SpecError(f"{path}: germed systems have 1-D carriers, got dimension {n}")

    domain_rows = _collect(pairs, "domain")
    if not domain_rows:
        bounds = tuple((-math.inf, math.inf) for _ in range(n))
    else:
        if len(domain_rows) != n:
            raise SpecError(f"{path}: need {n} domain intervals, got {len(domain_rows)}")
        bounds = []
        for row in domain_rows:
            toks = row.split()
            if len(toks) != 2:
                raise SpecError(f"{path}: domain interval needs 'lo hi', got {row!r}")
            bounds.append((_parse_float(toks[0], path), _parse_float(toks[1], path)))
        bounds = tuple(bounds)

    punctures = []
    for row in _collect(pairs, "puncture"):
        toks = row.split()
        if len(toks) != n:
            raise SpecError(f"{path}: puncture needs {n} coordinates, got {row!r}")
        punctures.append(tuple(_parse_float(t, path) for t in toks))

    field_rows = _collect(pairs, "field")
    if len(field_rows) != n:
        raise SpecError(f"{path}: need {n} field components, got {len(field_rows)}")
    try:
        field = E.parse_vector(field_rows, n)
        domain = Domain(bounds, tuple(punctures))
        system = ContinuousSystem(domain, field)
    except (E.ExprError, ValueError) as exc:
        raise SpecError(f"{path}: {exc}") from None

    basepoint = None
    bp_row = _single(pairs, "basepoint", path)
    if bp_row is not None:
        toks = bp_row.split()
        if len(toks) != n:
            raise SpecError(f"{path}: basepoint needs {n} coordinates, got {bp_row!r}")
        basepoint = tuple(_parse_float(t, path) for t in toks)
        if not domain.contains(basepoint):
            raise SpecError(f"{path}: basepoint {basepoint} outside the domain")

    tau_system = None
    base_rows = _collect(pairs, "section-base")
    if base_rows:
        if len(base_rows) != n:
            raise SpecError(f"{path}: need {n} section-base components, got {len(base_rows)}")
        try:
            footing = E.parse_vector(base_rows, n)
        except E.ExprError as exc:
            raise SpecError(f"{path}: {exc}") from None
        from . import tau

        tau_system = tau.TauSystem(tau.CONTINUOUS, domain, tau.TangentSection(field, base=footing))
    return LoadedSystem(kind, system, basepoint, tau_system)


# --- the morphism spec and the report: see dynsys.checkcmd --------------------

_FORWARDS = frozenset({"load_map", "render_report"})  # traced here (see dynsys.checkcmd)
__getattr__, __dir__ = _forwarding(globals(), "checkcmd", _FORWARDS)
