"""Dynamical systems with a categorical flavor.

Discrete endomaps, continuous-time ODE systems and germed (partial-domain)
systems share one morphism story: maps of carriers whose dynamics commute.
This package instantiates each kind, checks morphisms, computes solutions,
and verifies the algebraic laws that make time universal among systems.

Every public name, and every submodule, is imported on first access
(PEP 562), so ``import dynsys`` loads none of the package's modules and a
command loads only those it uses.  ``from dynsys import *`` binds the names
of ``__all__``: all of the table below except the germ names, whose module
loads numpy.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the module that defines each
_EXPORTS = {
    "core": ("EnumerationCapError", "ExprError", "NonMonotoneError", "StepLimitError",
             "StepSizeUnderflowError", "SystemMismatchError"),
    "expr": ("ArityError", "DomainError", "Expr", "ParseError", "VectorExpr", "evaluate",
             "evaluate_vector", "parse", "parse_vector"),
    "calculus": ("differentiate", "evaluate_many", "jacobian", "substitute", "to_string"),
    "category": ("CheckReport", "MorphismCandidate", "PointedSystem", "check_composition_closure",
                 "compose_morphisms", "enumerate_pointed_morphisms", "identity_morphism",
                 "verify_initiality_discrete"),
    "discrete": ("DiscreteSystem", "Orbit", "UnknownElementError", "check_dt_morphism",
                 "fixed_points", "iterate"),
    "continuous": ("ContinuousSystem", "Domain", "EarlyTerminationError", "SmoothMap",
                   "Trajectory", "integrate", "smooth_map", "time_system"),
    "ode_checks": ("check_equilibrium_morphism", "check_f_relatedness", "check_periodic_orbit",
                   "check_solution_preservation", "find_equilibria"),
    "tau": ("TangentSection", "TauInstance", "TauSystem", "check_section",
            "check_tau_morphism", "from_continuous", "from_discrete"),
    "germ": ("FULL_LINE", "Germ", "OpenSet1D", "PartialMap", "SolutionDomain",
             "compose_partial", "germ_equal", "maximal_solution_domain", "open_set",
             "partial_map", "preimage"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"checkcmd", "cli", "specio"}

__all__ = [name for name, module in _HOME.items() if module != "germ"]


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
