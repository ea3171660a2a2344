"""The package's kernel: its errors, its value-class bases and the dot
product of the integrator.

The value-class bases :class:`Record` and :class:`Value` come first: every
system, morphism, report and expression node of the package is one.
:func:`_dot` sums a product of two lists of floats, left to right, so that
neither the integrator nor the checks need numpy.

Check reports, morphism candidates, composition and the discrete
initiality check live in :mod:`dynsys.category`, which only the checks
run, so a ``dynsys solve`` and ``--version`` do not compile them.
:func:`_forwarding` lets a module read a few names of such a split-off
module as its own attributes.
"""

from __future__ import annotations

import importlib


class SystemMismatchError(ValueError):
    """Composition was attempted across systems that do not line up."""


class EnumerationCapError(RuntimeError):
    """The count of candidate functions that a discrete initiality report
    would print, |carrier|^(horizon+1), exceeds 10**7."""


# The errors below are raised by other modules but defined here, so that
# the command line can catch them without loading those modules (nor the
# numpy that germ loads).


class ExprError(Exception):
    """Base class for the errors of the expression DSL (:mod:`dynsys.expr`)."""


class StepSizeUnderflowError(RuntimeError):
    """Step control drove the step below resolution: a stiffness failure,
    trial steps whose values overflowed, or an error norm that overflowed
    at too small tolerances (raised by :func:`dynsys.continuous.integrate`)."""


class StepLimitError(RuntimeError):
    """Integration needed more than ``max_steps`` accepted or rejected steps
    (raised by :func:`dynsys.continuous.integrate`)."""


class NonMonotoneError(RuntimeError):
    """Root isolation could not split the map into monotone pieces (raised
    by :mod:`dynsys.germ`)."""


# --- value classes ----------------------------------------------------------


class Record:
    """Base of the package's record classes: plain classes that get their
    equality and ``repr`` from here.  Nothing is generated or compiled at
    import: a code-generating class decorator, with the ``inspect`` module
    it loads, would cost every CLI call a share of its start-up.

    A subclass lists its fields, in constructor order, in ``__match_args__``
    and sets them in an explicit ``__init__``, which also does any
    normalisation.  Two records are equal when they are of the same class
    and their field tuples are equal; ``repr`` reads ``Name(field=value,
    ...)``; pickling and ``copy`` call the constructor again.  A record is
    mutable and so unhashable; see :class:`Value` for the immutable kind.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    __hash__ = None

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._astuple()


class Value(Record):
    """An immutable :class:`Record`, hashed as its field tuple.

    Assigning or deleting any attribute raises ``AttributeError``, so an
    ``__init__`` (or ``__new__``) sets its fields with :data:`_setfield`.
    ``functools.cached_property`` still works on a subclass that has a
    ``__dict__``, because it writes the instance dictionary directly.  A
    subclass that overrides ``__eq__`` must override ``__hash__`` alongside
    it, as the interned expression nodes do: they compare and hash by
    identity.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


#: sets a field of a :class:`Value` from its ``__init__``
_setfield = object.__setattr__


# --- the dot product of the integrator and the checks ------------------------


def _dot(a, b) -> float:
    """Summed left to right: ``sum`` of floats rounds differently from one
    Python version to the next, and this must give the same bits."""
    total = 0.0
    for u, v in zip(a, b):
        total += u * v
    return total


# --- forwarded names ---------------------------------------------------------


def _forwarding(namespace: dict, home: str, names: frozenset):
    """The ``__getattr__`` and ``__dir__`` (PEP 562) of a module that forwards
    ``names`` to its sibling module ``home``: the first read of a name imports
    ``home`` and binds the name in ``namespace``, the module's globals."""

    def __getattr__(name):
        if name not in names:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        module = importlib.import_module("." + home, namespace["__package__"])
        value = namespace[name] = getattr(module, name)
        return value

    def __dir__():
        return sorted(set(namespace) | names)

    return __getattr__, __dir__


# --- the category layer: see dynsys.category ---------------------------------

_FORWARDS = frozenset({"compose_morphisms", "enumerate_pointed_morphisms",
                       "verify_initiality_discrete"})  # traced here (see dynsys.checkcmd)
__getattr__, __dir__ = _forwarding(globals(), "category", _FORWARDS)
