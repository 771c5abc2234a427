"""Three-term recurrences for the four index-shifted polynomial families.

Each family is a classical discrete or continuous orthogonal-polynomial
family whose recurrence has been shifted by a nonnegative real amount
``gamma`` in the index (``n`` replaced by ``n + gamma`` in the
coefficients), with the initial values ``P_{-1} = 0``, ``P_0 = 1``.
Setting ``gamma = 0`` recovers the classical family.

The recurrences are the defining representation: every closed form in
:mod:`assocpoly.closedforms` and every generating function in
:mod:`assocpoly.genfuncs` is checked against sequences produced here.
"""

from __future__ import annotations

import math

from .errors import Record, ZeroA, ZeroC, _set_field
from .hyperkernel import _check_nonneg_int, _exact, _near_int_in_range


def _check_gamma(gamma):
    if isinstance(gamma, complex):
        raise ValueError("gamma must be a real number >= 0")
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma!r}")
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma!r}")


class MeixnerParams(Record):
    """Parameters (beta, c, gamma) of the index-shifted Meixner family.

    ``c = 0`` raises :class:`~assocpoly.errors.ZeroC` and a negative, NaN
    or infinite gamma raises ``ValueError``; everything else is accepted,
    inside the classical orthogonality range or not.
    """

    __slots__ = ("beta", "c", "gamma")

    def __init__(self, beta, c, gamma=0.0):
        if c == 0:
            raise ZeroC("Meixner parameter c must be nonzero")
        _check_gamma(gamma)
        _set_field(self, "beta", beta)
        _set_field(self, "c", c)
        _set_field(self, "gamma", gamma)

    @property
    def c_tilde(self):
        """The transformed argument (c - 1) / c."""
        return (self.c - 1.0) / self.c


class CharlierParams(Record):
    """Parameters (a, gamma) of the index-shifted Charlier family."""

    __slots__ = ("a", "gamma")

    def __init__(self, a, gamma=0.0):
        if a == 0:
            raise ZeroA("Charlier parameter a must be nonzero")
        _check_gamma(gamma)
        _set_field(self, "a", a)
        _set_field(self, "gamma", gamma)


class LaguerreParams(Record):
    """Parameters (alpha, gamma) of the index-shifted Laguerre family."""

    __slots__ = ("alpha", "gamma")

    def __init__(self, alpha, gamma=0.0):
        _check_gamma(gamma)
        _set_field(self, "alpha", alpha)
        _set_field(self, "gamma", gamma)


class MeixnerPollaczekParams(Record):
    """Parameters (nu, phi, gamma) of the index-shifted Meixner-Pollaczek family.

    ``phi`` must lie strictly inside (0, pi).
    """

    __slots__ = ("nu", "phi", "gamma")

    def __init__(self, nu, phi, gamma=0.0):
        if not 0.0 < phi < math.pi:
            raise ValueError(f"phi must lie in (0, pi), got {phi!r}")
        _check_gamma(gamma)
        _set_field(self, "nu", nu)
        _set_field(self, "phi", phi)
        _set_field(self, "gamma", gamma)


class PolySequence(Record):
    """Values P_0(x), ..., P_{n_max}(x) of one family at one point."""

    __slots__ = ("values", "params", "x")

    def __init__(self, values, params, x):
        _set_field(self, "values", values)
        _set_field(self, "params", params)
        _set_field(self, "x", x)

    def __getitem__(self, n):
        return self.values[n]

    def __len__(self):
        return len(self.values)


# When x - gamma is within this distance of a nonnegative integer, the
# Meixner/Charlier value is a minimal (subdominant) solution of the
# recurrence and binary64 forward recursion loses accuracy at the rate
# of the dominant solution's growth.  The loop is then run in exact
# rational arithmetic instead (binary64 inputs are rational, so this is
# lossless).
_LATTICE_TOL = 1e-6


def _real_finite(*vals):
    for v in vals:
        if isinstance(v, complex):
            return False
        if not math.isfinite(v):
            return False
    return True


def _exact_to_float(value, seq, n):
    """``float(value)`` of an exact lattice value, or ``OverflowError``
    naming ``seq`` and the degree ``n`` when it lies beyond binary64."""
    try:
        return float(value)
    except OverflowError:
        raise OverflowError(
            f"{seq} value at degree {n} exceeds binary64 range") from None


def meixner_seq(x, params, n_max, exact_on_lattice=True):
    """Index-shifted Meixner values M_0(x), ..., M_{n_max}(x) by recurrence.

    The step is
    ``c M_{n+1} = [(c-1)x + (c+1)(n+gamma) + beta c] M_n
    - (n+gamma)(n+gamma+beta-1) M_{n-1}``.

    Parameters
    ----------
    x : float or complex
        Evaluation point.
    params : MeixnerParams
        Family parameters.
    n_max : int
        Highest degree to compute.
    exact_on_lattice : bool
        When true (default) and ``x - gamma`` is within 1e-6 of a
        nonnegative integer with all inputs real, the loop runs in
        exact rational arithmetic: at such points the value is a
        minimal solution of the recurrence (the dominant-solution
        coefficient vanishes) and binary64 forward recursion is wrong
        already for moderate ``n``.  Pass False for consumers that sum
        the sequence against rapidly decaying weights, where the
        contamination is harmless and the exact values could overflow
        the float range at large ``n_max``.

    Returns
    -------
    PolySequence
    """
    _check_nonneg_int(n_max, "n_max")
    beta, c, gamma = params.beta, params.c, params.gamma
    exact = (exact_on_lattice and _real_finite(x, beta, c, gamma)
             and _near_int_in_range(x - gamma, 0, math.inf, _LATTICE_TOL) is not None)
    z = x
    if exact:
        z, beta, c, gamma = map(_exact, (x, beta, c, gamma))
    values = [1.0]
    prev, cur = 0, 1
    for n in range(n_max):
        s = n + gamma
        nxt = (
            ((c - 1) * z + (c + 1) * s + beta * c) * cur
            - s * (s + beta - 1) * prev
        ) / c
        values.append(_exact_to_float(nxt, "meixner_seq", n + 1) if exact
                      else nxt)
        prev, cur = cur, nxt
    return PolySequence(tuple(values), params, x)


def charlier_seq(x, params, n_max, exact_on_lattice=True):
    """Index-shifted Charlier values C_0(x), ..., C_{n_max}(x) by recurrence.

    The step is ``a C_{n+1} = (n+gamma+a-x) C_n - (n+gamma) C_{n-1}``.
    ``exact_on_lattice`` behaves as in :func:`meixner_seq`: near
    ``x - gamma`` a nonnegative integer the value is a minimal solution
    and the loop runs in exact rational arithmetic.

    Returns
    -------
    PolySequence
    """
    _check_nonneg_int(n_max, "n_max")
    a, gamma = params.a, params.gamma
    exact = (exact_on_lattice and _real_finite(x, a, gamma)
             and _near_int_in_range(x - gamma, 0, math.inf, _LATTICE_TOL) is not None)
    z = x
    if exact:
        z, a, gamma = map(_exact, (x, a, gamma))
    values = [1.0]
    prev, cur = 0, 1
    for n in range(n_max):
        s = n + gamma
        nxt = ((s + a - z) * cur - s * prev) / a
        values.append(_exact_to_float(nxt, "charlier_seq", n + 1) if exact
                      else nxt)
        prev, cur = cur, nxt
    return PolySequence(tuple(values), params, x)


def laguerre_seq(x, params, n_max):
    """Index-shifted Laguerre values L_0(x), ..., L_{n_max}(x) by recurrence.

    The step is ``(n+gamma+1) L_{n+1} = (2(n+gamma)+alpha+1-x) L_n
    - (n+gamma+alpha) L_{n-1}``.

    Returns
    -------
    PolySequence
    """
    _check_nonneg_int(n_max, "n_max")
    alpha, gamma = params.alpha, params.gamma
    values = [1.0]
    prev, cur = 0.0, 1.0
    for n in range(n_max):
        s = n + gamma
        nxt = ((2.0 * s + alpha + 1.0 - x) * cur - (s + alpha) * prev) / (s + 1.0)
        values.append(nxt)
        prev, cur = cur, nxt
    return PolySequence(tuple(values), params, x)


def meixner_pollaczek_seq(x, params, n_max):
    """Index-shifted Meixner-Pollaczek values P_0(x), ..., P_{n_max}(x).

    The step is ``(n+gamma+1) P_{n+1} =
    2[(n+gamma+nu) cos(phi) + x sin(phi)] P_n - (n+gamma+2 nu - 1) P_{n-1}``.

    Returns
    -------
    PolySequence
    """
    _check_nonneg_int(n_max, "n_max")
    nu, phi, gamma = params.nu, params.phi, params.gamma
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    values = [1.0]
    prev, cur = 0.0, 1.0
    for n in range(n_max):
        s = n + gamma
        nxt = (
            2.0 * ((s + nu) * cos_phi + x * sin_phi) * cur
            - (s + 2.0 * nu - 1.0) * prev
        ) / (s + 1.0)
        values.append(nxt)
        prev, cur = cur, nxt
    return PolySequence(tuple(values), params, x)


def classical(params):
    """The same family parameters with the index shift removed (gamma = 0)."""
    return params._replace(gamma=0.0)
