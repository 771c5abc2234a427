"""Identity-check reports.

Every verification routine in the library returns
:class:`IdentityReport` records: two independently computed values, the
relative discrepancy between them, and a pass flag at the tolerance the
check was run with.  :func:`summarize` counts a batch of them and picks
the worst.
"""

from __future__ import annotations

import math

from .errors import Record, _set_field

# The identity sets of :func:`assocpoly.verify.run_set`.  They are named
# here, in a module every command loads, so that the command line can
# offer them without loading the verifier.
VERIFY_SETS = ("representations", "transformations", "convolutions",
               "finite-sums", "all")


class IdentityReport(Record):
    """Outcome of one identity check at one parameter point.

    Attributes
    ----------
    identity_id : str
        Stable identifier of the identity being checked.
    point : dict
        The parameter point (plain scalars, suitable for serialization).
    lhs, rhs : float or complex
        The two independently computed sides.
    rel_discrepancy : float
        ``|lhs - rhs| / |rhs|``, falling back to the absolute
        difference when ``|rhs| < rel_tol``.
    passed : bool
        ``rel_discrepancy <= rel_tol``.
    rel_tol : float
        The tolerance the check was run with.
    """

    __slots__ = ("identity_id", "point", "lhs", "rhs", "rel_discrepancy",
                 "passed", "rel_tol")

    def __init__(self, identity_id, point, lhs, rhs, rel_discrepancy, passed,
                 rel_tol):
        _set_field(self, "identity_id", identity_id)
        _set_field(self, "point", point)
        _set_field(self, "lhs", lhs)
        _set_field(self, "rhs", rhs)
        _set_field(self, "rel_discrepancy", rel_discrepancy)
        _set_field(self, "passed", passed)
        _set_field(self, "rel_tol", rel_tol)


def make_report(identity_id, point, lhs, rhs, rel_tol):
    """Build an :class:`IdentityReport` from two computed sides.

    The discrepancy is relative to ``|rhs|`` unless ``|rhs|`` is below
    ``rel_tol`` (the identity value is essentially zero), in which case
    the absolute difference is used so that exact zeros compare cleanly.
    """
    rel = _discrepancy(lhs, rhs, rel_tol)
    return IdentityReport(
        identity_id=identity_id,
        point=dict(point),
        lhs=lhs,
        rhs=rhs,
        rel_discrepancy=rel,
        passed=rel <= rel_tol,
        rel_tol=rel_tol,
    )


def _discrepancy(lhs, rhs, rel_tol):
    """The ``rel_discrepancy`` of :func:`make_report`."""
    scale = abs(rhs)
    diff = abs(lhs - rhs)
    return diff if scale < rel_tol else diff / scale


def _rank(rel):
    """Ranking key of a discrepancy for worst-of selection: a NaN or inf
    ranks above every finite one, so a non-finite result is never hidden."""
    return rel if math.isfinite(rel) else math.inf


def _worst(reports):
    """The first report of the largest rank, or None for no reports."""
    return max(reports, key=lambda report: _rank(report.rel_discrepancy),
               default=None)


def summarize(reports):
    """(passed count, failed count, worst report or None)."""
    passed = sum(1 for r in reports if r.passed)
    return passed, len(reports) - passed, _worst(reports)
