"""Dynamical systems with a categorical flavor.

Discrete endomaps, continuous-time ODE systems and germed (partial-domain)
systems share one morphism story: maps of carriers whose dynamics commute.
This package instantiates each kind, checks morphisms, computes solutions,
and verifies the algebraic laws that make time universal among systems.

The names from :mod:`dynsys.germ` are resolved on first access, so that
``import dynsys`` loads no numpy.
"""

import importlib

__version__ = "0.1.0"

from .expr import (  # noqa: F401
    ArityError,
    DomainError,
    Expr,
    ExprError,
    ParseError,
    VectorExpr,
    differentiate,
    evaluate,
    evaluate_many,
    evaluate_vector,
    jacobian,
    parse,
    parse_vector,
    substitute,
    to_string,
)
from .core import (  # noqa: F401
    CheckReport,
    EnumerationCapError,
    MorphismCandidate,
    NonMonotoneError,
    PointedSystem,
    SystemMismatchError,
    check_composition_closure,
    compose_morphisms,
    enumerate_pointed_morphisms,
    identity_morphism,
    verify_initiality_continuous,
    verify_initiality_discrete,
)
from .discrete import (  # noqa: F401
    DiscreteSystem,
    Orbit,
    UnknownElementError,
    check_dt_morphism,
    fixed_points,
    iterate,
)
from .continuous import (  # noqa: F401
    ContinuousSystem,
    Domain,
    EarlyTerminationError,
    SmoothMap,
    StepLimitError,
    StepSizeUnderflowError,
    Trajectory,
    check_equilibrium_morphism,
    check_f_relatedness,
    check_periodic_orbit,
    check_solution_preservation,
    find_equilibria,
    integrate,
    smooth_map,
    time_system,
)
from .tau import (  # noqa: F401
    TangentSection,
    TauInstance,
    TauSystem,
    check_section,
    check_tau_morphism,
    from_continuous,
    from_discrete,
)

# names defined in dynsys.germ, imported on first access (PEP 562)
_GERM_NAMES = frozenset((
    "FULL_LINE",
    "Germ",
    "OpenSet1D",
    "PartialMap",
    "SolutionDomain",
    "compose_partial",
    "germ_equal",
    "maximal_solution_domain",
    "open_set",
    "partial_map",
    "preimage",
))


def __getattr__(name):
    if name == "germ":
        value = importlib.import_module(".germ", __name__)
    elif name in _GERM_NAMES:
        value = getattr(importlib.import_module(".germ", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _GERM_NAMES | {"germ"})
