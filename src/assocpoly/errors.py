"""Error taxonomy for the library.

Every failure mode raised by the numerical kernel or the polynomial
evaluators is a subclass of :class:`AssocPolyError`, so callers can
catch one base class.  Each error sits under one of its two bases:
:class:`InvalidInput` (bad parameters or arguments) or
:class:`NumericalFailure` (a well-posed computation that cannot be
completed).  The CLI exit codes follow that split: 2 and 3.

The module also holds :class:`Record`, the base of the library's
immutable value records, because every other module imports it.
"""

from __future__ import annotations

from operator import attrgetter

# How a record's ``__init__`` sets its fields past its ``__setattr__``.
_set_field = object.__setattr__


class Record:
    """Base of the library's immutable value records.

    A subclass lists its fields in ``__slots__``, in order, and its own
    ``__init__`` checks its arguments and sets each field with
    :func:`_set_field`.  A record equals only a record of the same class
    with equal fields, hashes as the tuple of its fields, prints as
    ``Name(field=value, ...)`` and raises AttributeError on any
    assignment or deletion.  Pickling and copying call the class on the
    fields, so ``__init__`` runs again.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # The tuple of a record's fields; every record has two or more.
        cls._field_values = staticmethod(attrgetter(*cls.__slots__))

    def _replace(self, **changes):
        """A record of the same class with the fields in ``changes`` replaced."""
        fields = dict(zip(self.__slots__, self._field_values(self)))
        fields.update(changes)
        return self.__class__(**fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._field_values(self) == other._field_values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._field_values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._field_values(self)


class AssocPolyError(Exception):
    """Base class for every library-specific error."""


# ---------------------------------------------------------------------------
# Parameter validation errors
# ---------------------------------------------------------------------------


class InvalidInput(AssocPolyError):
    """Base of the errors for a parameter or argument the formula rejects."""


class ZeroC(InvalidInput):
    """The Meixner parameter c is zero (the recurrence divides by c)."""


class ZeroA(InvalidInput):
    """The Charlier parameter a is zero (the recurrence divides by a)."""


class RestrictedParameter(InvalidInput):
    """A parameter violates an explicit restriction of the formula in use."""


class DomainError(InvalidInput):
    """An argument lies outside the evaluable domain of the requested form."""


# ---------------------------------------------------------------------------
# Numerical evaluation errors
# ---------------------------------------------------------------------------


class NumericalFailure(AssocPolyError):
    """Base of the errors for a well-posed computation that cannot finish."""


class PoleArgument(NumericalFailure):
    """An argument hit a pole of the gamma function (nonpositive integer)."""


class DenominatorPole(NumericalFailure):
    """A denominator rising-factorial factor vanishes inside the summation range."""


class NotConverged(NumericalFailure):
    """An infinite series hit the term cap before meeting the tolerance.

    Carries the partial result in :attr:`outcome` so callers can inspect
    how far the summation got.
    """

    def __init__(self, message, outcome=None):
        super().__init__(message)
        self.outcome = outcome


class IllConditioned(NumericalFailure):
    """The only available evaluation route is numerically degenerate.

    Raised by the Gauss 2F1 connection formula when the parameter
    difference a - b sits within 1e-6 of an integer (gamma-function
    poles make the two-term formula 0/0) and no series route reaches
    the requested argument, and by an escalated Appell F1 or Humbert Phi1
    whose certified value lies below the tail at which its binary64
    sum stopped.
    """


class SingularIntegrand(NumericalFailure):
    """An Euler-integral factor vanishes on the integration interval."""


class QuadratureNotConverged(NumericalFailure):
    """Tanh-sinh refinement hit its level cap before the tolerance was met."""


class TailTooLarge(NumericalFailure):
    """A truncated generating-function partial sum has a non-negligible tail."""
