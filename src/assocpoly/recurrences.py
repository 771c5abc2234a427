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

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ZeroA, ZeroC
from .hyperkernel import _check_nonneg_int, _near_int_in_range

__all__ = [
    "MeixnerParams",
    "CharlierParams",
    "LaguerreParams",
    "MeixnerPollaczekParams",
    "PolySequence",
    "meixner_seq",
    "charlier_seq",
    "laguerre_seq",
    "meixner_pollaczek_seq",
    "positivity_product",
    "positivity_check",
    "classical",
]


def _check_gamma(gamma):
    if isinstance(gamma, complex):
        raise ValueError("gamma must be a real number >= 0")
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma!r}")


@dataclass(frozen=True)
class MeixnerParams:
    """Parameters (beta, c, gamma) of the index-shifted Meixner family.

    ``c = 0`` raises :class:`~assocpoly.errors.ZeroC` and ``gamma < 0``
    raises ``ValueError``; everything else is accepted, with
    :attr:`in_orthogonal_regime` flagging whether the parameters sit in
    the classical orthogonality range (real ``0 < c``, ``c != 1``,
    ``gamma + beta > 0``).
    """

    beta: float
    c: complex
    gamma: float = 0.0

    def __post_init__(self):
        if self.c == 0:
            raise ZeroC("Meixner parameter c must be nonzero")
        _check_gamma(self.gamma)

    @property
    def c_tilde(self):
        """The transformed argument (c - 1) / c."""
        return (self.c - 1.0) / self.c

    @property
    def in_orthogonal_regime(self):
        c = self.c
        if isinstance(c, complex):
            if c.imag != 0:
                return False
            c = c.real
        return c > 0 and c != 1 and self.gamma + self.beta > 0


@dataclass(frozen=True)
class CharlierParams:
    """Parameters (a, gamma) of the index-shifted Charlier family."""

    a: complex
    gamma: float = 0.0

    def __post_init__(self):
        if self.a == 0:
            raise ZeroA("Charlier parameter a must be nonzero")
        _check_gamma(self.gamma)

    @property
    def in_orthogonal_regime(self):
        a = self.a
        if isinstance(a, complex):
            if a.imag != 0:
                return False
            a = a.real
        return a > 0


@dataclass(frozen=True)
class LaguerreParams:
    """Parameters (alpha, gamma) of the index-shifted Laguerre family."""

    alpha: float
    gamma: float = 0.0

    def __post_init__(self):
        _check_gamma(self.gamma)

    @property
    def in_orthogonal_regime(self):
        return self.alpha > -1


@dataclass(frozen=True)
class MeixnerPollaczekParams:
    """Parameters (nu, phi, gamma) of the index-shifted Meixner-Pollaczek family.

    ``phi`` must lie strictly inside (0, pi).  The orthogonality flag is
    the union of the two known sufficient conditions:
    ``2 nu + gamma > 0`` with ``gamma >= 0``, or
    ``2 nu + gamma >= 1`` with ``nu > -1``.
    """

    nu: float
    phi: float
    gamma: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.phi < math.pi:
            raise ValueError(f"phi must lie in (0, pi), got {self.phi!r}")
        _check_gamma(self.gamma)

    @property
    def in_orthogonal_regime(self):
        two_nu_gamma = 2.0 * self.nu + self.gamma
        return (two_nu_gamma > 0 and self.gamma >= 0) or (
            two_nu_gamma >= 1 and self.nu > -1
        )


@dataclass(frozen=True)
class PolySequence:
    """Values P_0(x), ..., P_{n_max}(x) of one family at one point."""

    values: tuple
    params: object
    x: complex

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
        z, beta, c, gamma = map(Fraction, (x, beta, c, gamma))
    values = [1.0]
    prev, cur = 0, 1
    for n in range(n_max):
        s = n + gamma
        nxt = (
            ((c - 1) * z + (c + 1) * s + beta * c) * cur
            - s * (s + beta - 1) * prev
        ) / c
        values.append(float(nxt) if exact else nxt)
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
        z, a, gamma = map(Fraction, (x, a, gamma))
    values = [1.0]
    prev, cur = 0, 1
    for n in range(n_max):
        s = n + gamma
        nxt = ((s + a - z) * cur - s * prev) / a
        values.append(float(nxt) if exact else nxt)
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


def positivity_product(params, n):
    """The product A(s-1) B(s-1) B(s) D(s) at s = n + gamma.

    Writing the recurrence in the factored form
    ``A(s) P_{n+1} = [B(s) x + C(s)] P_n - D(s) P_{n-1}``, orthogonality
    with positive weight at degree ``n >= 1`` requires this product to
    be positive.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be an integer >= 1")
    s = n + params.gamma
    if isinstance(params, MeixnerParams):
        c = params.c
        return c * (c - 1.0) ** 2 * s * (s + params.beta - 1.0)
    if isinstance(params, CharlierParams):
        return params.a * s
    if isinstance(params, LaguerreParams):
        return s * (s + params.alpha)
    if isinstance(params, MeixnerPollaczekParams):
        return 4.0 * math.sin(params.phi) ** 2 * s * (s + 2.0 * params.nu - 1.0)
    raise TypeError(f"unsupported parameter type {type(params)!r}")


def positivity_check(params, n):
    """True when the recurrence positivity product at degree n is real and positive."""
    prod = positivity_product(params, n)
    if isinstance(prod, complex):
        if prod.imag != 0:
            return False
        prod = prod.real
    return prod > 0


def classical(params):
    """The same family parameters with the index shift removed (gamma = 0)."""
    return dataclasses.replace(params, gamma=0.0)
