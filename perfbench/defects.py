"""Known defects of the package that the benchmark's inputs reach.

Each defect is a class of inputs, defined by the inputs alone.  Draws in
a class are kept, not filtered out: their failures are counted in
``failed`` like any other, and ``run.py`` marks a run incorrect only when
more than a capped share of a class's draws fail.  A failure outside
every class marks the run incorrect at once.

``complex-double-sum``
    Complex ``x`` on a double-sum route (``meixner_4f3``,
    ``meixner_4f3_alt``, ``charlier_3f2``, ``laguerre_3f2``).  Complex
    inputs never escalate to exact arithmetic, so digits are lost without
    a warning; about 3% of these draws miss 1e-8, with relative errors up
    to 0.2 in 280,000 draws.
``near-lattice``
    Real ``x`` on a 2F1-product route (``meixner_quadratic``,
    ``meixner_cross_2f1``) with ``x - gamma`` within 1e-2 of an integer.
    The cross-product route misses 1e-8 for 40-85% of the draws within
    1e-4 of the lattice, for under 10% of those between 1e-4 and 1e-3 and
    for none of about 1,000 between 1e-3 and 1e-2; the quadratic route for
    a few draws within 1e-4.
``near-radius``
    A Charlier generating series with ``t / a > 0.7``.  For ``t / a``
    above about 0.85 and ``x`` below about 0.5, ``gf_lhs_auto`` needs more
    than 120 terms, and at 240 its series terms overflow binary64, so it
    raises ``NotConverged`` although ``|t| < a`` and both closed forms
    agree (at a = 0.512, t = 0.447, x = -0.566 the sum overflows from
    N = 180 on).
"""

from __future__ import annotations

COMPLEX_DOUBLE_SUM = "complex-double-sum"
NEAR_LATTICE = "near-lattice"
NEAR_RADIUS = "near-radius"

_LATTICE_DISTANCE = 1e-2
_RADIUS_SHARE = 0.7


def near_lattice(x, gamma):
    """Whether real ``x - gamma`` is within 1e-2 of an integer."""
    offset = x - gamma
    return abs(offset - round(offset)) < _LATTICE_DISTANCE


def near_radius(t, a):
    """Whether ``t`` is beyond 0.7 of the Charlier radius of convergence ``a``."""
    return t / a > _RADIUS_SHARE
