"""Closed-form representations of the index-shifted polynomial families.

Each function here evaluates one family by a route that is
mathematically independent of the three-term recurrence: finite double
sums whose inner factor is a terminating 4F3(1) or 3F2(1), quadratic
and cross-product combinations of Gauss 2F1 values, the complex
Meixner substitution giving the Meixner-Pollaczek family, and the
classical (gamma = 0) hypergeometric forms.

Two robustness policies apply throughout:

* Denominator rising factorials that vanish inside a summation range
  are rejected with :class:`~assocpoly.errors.DenominatorPole` rather
  than regularized; the affected parameter sets are measure-zero and a
  caller can perturb or switch representation.
* The alternating finite sums run on the terminating-sum engine of
  :mod:`assocpoly.hyperkernel`: binary64 with a condition estimate and,
  when cancellation would cost more digits than the target accuracy
  allows, the exact value of the sum at the given inputs, each
  component rounded to binary64 once.  Most of the paper's double sums
  collapse to a single Cauchy sum, so a degree costs O(n).

Each collapsed route, each classical form and the quadratic and cross
forms have a range form, ``_<route>_range(..., lo, hi)``, which gives
degrees lo..hi in one call and is what the per-degree function calls on
its one degree.  It does once what does not depend on n: it decides each
denominator band, evaluates each n-independent 2F1, and shares the
escalation across degrees (``hyperkernel._resums``); its prefactor rising
factorials are chained from degree to degree (``hyperkernel._Rising``).
The bits, and the error that the first failing degree raises, are those
of the per-degree calls.

The module also carries the finite-sum hypergeometric identities that
underpin the quadratic representation, as report-producing checkers.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math

from .errors import DenominatorPole, RestrictedParameter
from .hyperkernel import (
    _INT_TOL,
    Accumulator,
    _cauchy,
    _check_nonneg_int,
    _near_int_in_range,
    _resum,
    _resums,
    _Rising,
    gauss_2f1,
    pochhammer,
)
from .recurrences import MeixnerParams, meixner_seq
from .report import make_report


class CharlierVariant(enum.Enum):
    PRIMARY = "primary"
    TRANSFORMED = "transformed"


class LaguerreVariant(enum.Enum):
    PRIMARY = "primary"
    RAHMAN = "rahman"


# The sums of the routes below, in the route-sum shape of
# ``hyperkernel._sum``; every parameter is built from the inputs by field
# operations, so the same function serves every engine.  Values that do
# not depend on the outer index k are built once, outside ``inner``.
# Most of the paper's double sums are a lone Cauchy sum (n = 0): each inner
# parameter that shifts with the outer index k continues an outer
# Pochhammer symbol, ``(-n)_k (k-n)_j = (-n)_{k+j}``, and likewise for the
# others, so with m = k + j the inner sums are one convolution C_m
# (W. Koepf, Hypergeometric Summation, 2nd ed., Springer 2014), and one
# degree costs O(n) instead of O(n^2).  Laguerre ``rahman`` collapses
# too, but its (1-alpha+k)_j continues (1-alpha)_k only after dividing by
# it, so its C_m convolves d with e_k = x^k / ((alpha+1)_k (1-alpha)_k)
# rather than with x^k: O(n^2) multiply-adds of three sequences built
# once.  Charlier ``transformed`` does not collapse: it keeps its outer
# sum, and each inner 3F2(1) is a Cauchy sum with s = 1.


def _meixner_4f3_sum(n, x, beta, c, gamma):
    gb = gamma + beta
    gbx = gb + x
    return _cauchy(n, [-n, gbx], [gamma + 1, gb], 1 - c, [gb - 1, gamma], [gbx])


def _meixner_4f3_alt_sum(n, x, beta, c, gamma):
    gb = gamma + beta
    gx = gamma - x
    return _cauchy(n, [-n, gx], [gamma + 1, gb], (c - 1) / c, [gb - 1, gamma], [gx])


def _charlier_sum(n, x, a, gamma):
    gx = gamma - x
    return _cauchy(n, [-n, gx], [gamma + 1], -1 / a, [gamma], [gx])


def _charlier_transformed_sum(n, x, a, gamma):
    gx = gamma - x
    one = gamma * 0 + 1
    return n, [-n, gx], [1], -(one / a), lambda k: (
        min(k, n - k), [-k, gamma, k - n], [-n, gx, 1], one, [0], [])


def _laguerre_sum(n, x, alpha, gamma):
    ga = gamma + alpha
    return _cauchy(n, [-n], [gamma + 1, ga + 1], x, [ga, gamma], [])


def _laguerre_rahman_sum(n, x, alpha, gamma):
    one_alpha = 1 - alpha
    return _cauchy(n, [-n, one_alpha], [gamma + 1], x, [gamma], [-alpha - n],
                   [], [alpha + 1, one_alpha])


def _finite_4f3_sum(n, a, b, t, y):
    return _cauchy(n, [-n, a + y], [a + 1, b + 1], t, [a, b], [a + y])


def _t_powered_sum(n, a, b, t):
    return _cauchy(n, [-n], [b + 1], t, [a, b], [a + 1])


def _m_generalized_sum(n, a, b, m):
    return _cauchy(n, [-n], [], a * 0, [a, b], [a + m, b + 1])


def _meixner_classical_sum(n, x, beta, c):
    return _cauchy(n, [-n, -x], [beta, 1], 1 - 1 / c, [0], [])


def _charlier_classical_sum(n, x, a):
    return _cauchy(n, [-n, -x], [1], -1 / a, [0], [])


def _laguerre_classical_sum(n, x, alpha):
    return _cauchy(n, [-n], [alpha + 1, 1], x, [0], [])


def _refuse_band(name, w, lo, hi, n, error=DenominatorPole, suffix=""):
    """Raise ``error`` when ``w`` is within 1e-8 of an integer in
    ``[lo, hi]``, where a denominator factor of the degree-``n`` sum vanishes."""
    if _near_int_in_range(w, lo, hi) is not None:
        raise _band_pole(name, w, n, error, suffix)


def _band_pole(name, w, n, error=DenominatorPole, suffix=""):
    return error(f"{name} = {w!r} makes a denominator factor vanish "
                 f"for degree {n}{suffix}")


def _lone_sum_range(lo, hi, terms, inputs, bands, prefactor):
    """Degrees lo..hi of a route worth 1 at degree 0 and ``prefactor(n) *
    S_n`` above it, with S_n the lone Cauchy sum ``terms(n, *inputs)``.

    Each band ``(name, w, side)`` refuses degree n when ``w`` is within
    1e-8 of an integer in ``[-(n-1), 0]`` (side -1) or ``[0, n-1]`` (side
    1), so every degree from the first one on; that first degree is found
    once.  Each degree raises what :func:`_refuse_band` raises there for
    the first band that refuses it, and then sums.
    """
    firsts = []
    for name, w, side in bands if hi else ():
        r = (_near_int_in_range(w, -math.inf, 0) if side < 0
             else _near_int_in_range(w, 0, math.inf))
        if r is not None:
            firsts.append((abs(r) + 1, name, w))
    sums = _resums(terms, inputs, hi)
    values = []
    for n in range(lo, hi + 1):
        if n == 0:
            values.append(1.0)
            continue
        for first, name, w in firsts:
            if n >= first:
                raise _band_pole(name, w, n)
        total = sums(n)
        values.append(prefactor(n) * total)
    return values


def _refuse_denominators(identity, a, b):
    """Raise RestrictedParameter when ``a+1`` or ``b+1`` is within 1e-8 of a
    nonpositive integer."""
    for w in (a + 1.0, b + 1.0):
        if _near_int_in_range(w, -(10**9), 0) is not None:
            raise RestrictedParameter(
                f"{identity} requires denominator parameter {w!r} "
                "away from the nonpositive integers"
            )


# ---------------------------------------------------------------------------
# Meixner closed forms
# ---------------------------------------------------------------------------


def meixner_4f3(x, params, n):
    """Index-shifted Meixner value by the (1-c)-powered finite 4F3 double sum.

    ``M_n = c^{-n} (gamma+1)_n (gamma+beta)_n / n! *
    sum_k (1-c)^k (-n)_k (gamma+beta+x)_k / [(gamma+1)_k (gamma+beta)_k]
    * 4F3(k-n, gamma+beta+x+k, gamma+beta-1, gamma;
    gamma+beta+x, gamma+beta+k, gamma+1+k; 1)``.

    Parameters
    ----------
    x : float or complex
        Evaluation point.
    params : MeixnerParams
        Family parameters.
    n : int
        Degree.

    Returns
    -------
    float or complex
        Raises :class:`~assocpoly.errors.DenominatorPole` when
        ``gamma+beta+x`` or ``gamma+beta`` is within 1e-8 of an integer
        in ``[-(n-1), 0]`` (a denominator factor would vanish inside
        the summation range).
    """
    _check_nonneg_int(n, "n")
    return _meixner_4f3_range(x, params, n, n)[0]


def _meixner_4f3_range(x, params, lo, hi):
    """``[meixner_4f3(x, params, n) for n in range(lo, hi + 1)]``."""
    beta, c, gamma = params.beta, params.c, params.gamma
    shift, shape = _Rising(gamma + 1.0), _Rising(gamma + beta)
    return _lone_sum_range(
        lo, hi, _meixner_4f3_sum, (x, beta, c, gamma),
        [("gamma+beta+x", gamma + beta + x, -1),
         ("gamma+beta", gamma + beta, -1)],
        lambda n: c ** (-n) * shift(n) * shape(n) / math.factorial(n))


def meixner_4f3_alt(x, params, n):
    """Index-shifted Meixner value by the (c-1)/c-powered finite 4F3 double sum.

    ``M_n = (gamma+1)_n (gamma+beta)_n / n! *
    sum_k ((c-1)/c)^k (-n)_k (gamma-x)_k / [(gamma+1)_k (gamma+beta)_k]
    * 4F3(k-n, gamma-x+k, gamma+beta-1, gamma;
    gamma-x, gamma+beta+k, gamma+1+k; 1)``.

    Raises :class:`~assocpoly.errors.DenominatorPole` when ``x - gamma``
    is within 1e-8 of an integer in ``[0, n-1]`` or ``gamma + beta`` of
    an integer in ``[-(n-1), 0]``.
    """
    _check_nonneg_int(n, "n")
    return _meixner_4f3_alt_range(x, params, n, n)[0]


def _meixner_4f3_alt_range(x, params, lo, hi):
    """``[meixner_4f3_alt(x, params, n) for n in range(lo, hi + 1)]``."""
    beta, c, gamma = params.beta, params.c, params.gamma
    shift, shape = _Rising(gamma + 1.0), _Rising(gamma + beta)
    return _lone_sum_range(
        lo, hi, _meixner_4f3_alt_sum, (x, beta, c, gamma),
        [("x - gamma", x - gamma, 1), ("gamma+beta", gamma + beta, -1)],
        lambda n: shift(n) * shape(n) / math.factorial(n))


def meixner_quadratic(x, params, n):
    """Index-shifted Meixner value as a two-product quadratic 2F1 combination.

    ``(beta-1) M_n = (gamma+beta-1)_{n+1}
    2F1(x+1, gamma; 2-beta; ct) 2F1(-x, -n-gamma; beta; ct)
    - (gamma)_{n+1}
    2F1(x+beta, gamma+beta-1; beta; ct) 2F1(1-beta-x, 1-n-gamma-beta; 2-beta; ct)``
    with ``ct = (c-1)/c``.

    Raises :class:`~assocpoly.errors.RestrictedParameter` when ``beta``
    is within 1e-8 of a positive integer (the 2F1 parameter ``2-beta``
    degenerates and the prefactor ``1/(beta-1)`` can blow up), when
    ``gamma+beta`` is within 1e-8 of 1, or when ``gamma+beta`` is real
    and ``<= 0``.
    """
    _check_nonneg_int(n, "n")
    return _meixner_quadratic_range(x, params, n, n)[0]


def _meixner_quadratic_range(x, params, lo, hi):
    """``[meixner_quadratic(x, params, n) for n in range(lo, hi + 1)]``.

    The two 2F1 values that do not depend on n are evaluated once, at the
    first degree that uses them.
    """
    beta, gamma = params.beta, params.gamma
    if _near_int_in_range(beta, 1, 10**9) is not None:
        raise RestrictedParameter(
            f"quadratic representation requires beta not a positive integer, "
            f"got beta={beta!r}"
        )
    gamma_beta = gamma + beta
    if (abs(gamma_beta - 1.0) < _INT_TOL
            or (gamma_beta.imag == 0 and gamma_beta.real <= 0)):
        raise RestrictedParameter(
            f"quadratic representation requires gamma+beta > 0 and != 1, "
            f"got gamma+beta={gamma_beta!r}"
        )
    ct = params.c_tilde
    coefs1, coefs2 = _Rising(gamma + beta - 1.0), _Rising(gamma)
    first = functools.cache(
        lambda: gauss_2f1(x + 1.0, gamma, 2.0 - beta, ct).value)
    second = functools.cache(
        lambda: gauss_2f1(x + beta, gamma + beta - 1.0, beta, ct).value)
    values = []
    for n in range(lo, hi + 1):
        coef1 = coefs1(n + 1)
        if coef1 == 0:
            term1 = 0.0
        else:
            term1 = (
                coef1
                * first()
                * gauss_2f1(-x, -n - gamma, beta, ct).value
            )
        coef2 = coefs2(n + 1)
        if coef2 == 0:
            term2 = 0.0
        else:
            term2 = (
                coef2
                * second()
                * gauss_2f1(
                    1.0 - beta - x, 1.0 - n - gamma - beta, 2.0 - beta, ct
                ).value
            )
        values.append((term1 - term2) / (beta - 1.0))
    return values


def meixner_cross_2f1(x, params, n):
    """Index-shifted Meixner value as a cross product of 2F1 values at c.

    ``M_n = (1-c)^{1-beta} [ c^{-n} (gamma-x)_n F_{n+1}(c) G_0(c)
    - c (gamma)_{n+1} (gamma+beta-1)_{n+1} / (gamma-x-1)_{n+2}
    F_0(c) G_{n+1}(c) ]`` with
    ``F_m(c) = 2F1(x+1, 2-beta-gamma-m; 2+x-gamma-m; c)`` and
    ``G_m(c) = 2F1(gamma+m, 1-beta-x; gamma-x+m; c)``.

    Raises :class:`~assocpoly.errors.DenominatorPole` when ``x - gamma``
    is within 1e-8 of any integer: every integer offset makes a 2F1
    denominator parameter or the rising factorial
    ``(gamma-x-1)_{n+2}`` degenerate for some degree.
    """
    _check_nonneg_int(n, "n")
    return _meixner_cross_2f1_range(x, params, n, n)[0]


def _meixner_cross_2f1_range(x, params, lo, hi):
    """``[meixner_cross_2f1(x, params, n) for n in range(lo, hi + 1)]``.

    ``F_0(c)`` and ``G_0(c)`` are evaluated once, at the first degree that
    uses them.
    """
    beta, c, gamma = params.beta, params.c, params.gamma
    if _near_int_in_range(x - gamma, -(10**9), 10**9) is not None:
        raise DenominatorPole(
            f"x - gamma = {x - gamma!r} degenerates the cross-product "
            f"representation"
        )

    def f_part(m):
        return gauss_2f1(x + 1.0, 2.0 - beta - gamma - m, 2.0 + x - gamma - m, c)

    def g_part(m):
        return gauss_2f1(gamma + m, 1.0 - beta - x, gamma - x + m, c)

    f_0 = functools.cache(lambda: f_part(0).value)
    g_0 = functools.cache(lambda: g_part(0).value)
    lead, coefs, shapes, tail = (_Rising(gamma - x), _Rising(gamma),
                                 _Rising(gamma + beta - 1.0),
                                 _Rising(gamma - x - 1.0))
    values = []
    for n in range(lo, hi + 1):
        term1 = c ** (-n) * lead(n) * f_part(n + 1).value * g_0()
        coef2 = coefs(n + 1) * shapes(n + 1)
        if coef2 == 0:
            term2 = 0.0
        else:
            term2 = (
                c
                * coef2
                / tail(n + 2)
                * f_0()
                * g_part(n + 1).value
            )
        values.append((1.0 - c) ** (1.0 - beta) * (term1 - term2))
    return values


def meixner_reflection_rhs(x, params, n):
    """Right-hand side of the reflection identity for the Meixner family.

    ``M_n(x; beta, c, gamma) = c^{-n} M_n(-beta-x; beta, 1/c, gamma)``;
    this evaluates the right side by recurrence so it can be compared
    against a left side computed any other way.
    """
    _check_nonneg_int(n, "n")
    reflected = MeixnerParams(params.beta, 1.0 / params.c, params.gamma)
    seq = meixner_seq(-params.beta - x, reflected, n)
    return params.c ** (-n) * seq[n]


def meixner_c1_degenerate(beta, gamma, n):
    """Index-shifted Meixner value at the degenerate parameter c = 1.

    The value is independent of x:
    ``M_n = [(gamma+beta-1)_{n+1} - (gamma)_{n+1}] / (beta - 1)``.
    Raises :class:`~assocpoly.errors.RestrictedParameter` when ``beta``
    is within 1e-9 of 1.
    """
    _check_nonneg_int(n, "n")
    if abs(beta - 1.0) < 1e-9:
        raise RestrictedParameter("degenerate c=1 closed form requires beta != 1")
    return (pochhammer(gamma + beta - 1.0, n + 1) - pochhammer(gamma, n + 1)) / (
        beta - 1.0
    )


def meixner_classical(x, beta, c, n):
    """Classical Meixner polynomial (beta)_n 2F1(-n, -x; beta; 1 - 1/c)."""
    _check_nonneg_int(n, "n")
    return _meixner_classical_range(x, beta, c, n, n)[0]


def _meixner_classical_range(x, beta, c, lo, hi):
    """``[meixner_classical(x, beta, c, n) for n in range(lo, hi + 1)]``."""
    sums = _resums(_meixner_classical_sum, (x, beta, c), hi)
    shape = _Rising(beta)
    return [shape(n) * sums(n) for n in range(lo, hi + 1)]


# ---------------------------------------------------------------------------
# Charlier closed forms
# ---------------------------------------------------------------------------


def charlier_3f2(x, params, n, variant=CharlierVariant.PRIMARY):
    """Index-shifted Charlier value by a finite 3F2 double sum.

    The primary variant is
    ``C_n = (gamma+1)_n / n! * sum_k (-a)^{-k} (-n)_k (gamma-x)_k /
    (gamma+1)_k * 3F2(k-n, gamma-x+k, gamma; gamma-x, gamma+k+1; 1)``;
    the transformed variant is
    ``C_n = sum_k (-a)^{-k} (-n)_k (gamma-x)_k / k! *
    3F2(-k, gamma, k-n; -n, gamma-x; 1)`` with the inner sum truncated
    at ``min(k, n-k)``.

    Parameters
    ----------
    variant : CharlierVariant or str
        ``"primary"`` or ``"transformed"``.

    Returns
    -------
    float or complex
        Raises :class:`~assocpoly.errors.DenominatorPole` when
        ``x - gamma`` is within 1e-8 of an integer inside the inner
        denominator range (``[0, n-1]`` for primary,
        ``[0, floor(n/2)-1]`` for transformed).
    """
    _check_nonneg_int(n, "n")
    variant = CharlierVariant(variant)
    a, gamma = params.a, params.gamma
    if variant is CharlierVariant.PRIMARY:
        return _charlier_3f2_range(x, params, n, n)[0]
    if n == 0:
        return 1.0
    _refuse_band("x - gamma", x - gamma, 0, max(0, n // 2 - 1), n,
                 suffix=" (transformed variant)")
    return _resum(_charlier_transformed_sum, n, (x, a, gamma))


def _charlier_3f2_range(x, params, lo, hi):
    """``[charlier_3f2(x, params, n) for n in range(lo, hi + 1)]``, primary."""
    a, gamma = params.a, params.gamma
    shift = _Rising(gamma + 1.0)
    return _lone_sum_range(
        lo, hi, _charlier_sum, (x, a, gamma), [("x - gamma", x - gamma, 1)],
        lambda n: shift(n) / math.factorial(n))


def charlier_classical(x, a, n):
    """Classical Charlier polynomial 2F0(-n, -x; ; -1/a)."""
    _check_nonneg_int(n, "n")
    return _charlier_classical_range(x, a, n, n)[0]


def _charlier_classical_range(x, a, lo, hi):
    """``[charlier_classical(x, a, n) for n in range(lo, hi + 1)]``."""
    sums = _resums(_charlier_classical_sum, (x, a), hi)
    return [sums(n) for n in range(lo, hi + 1)]


# ---------------------------------------------------------------------------
# Laguerre closed forms
# ---------------------------------------------------------------------------


def laguerre_3f2(x, params, n, variant=LaguerreVariant.PRIMARY):
    """Index-shifted Laguerre value by a finite 3F2 double sum.

    The primary variant is
    ``L_n = (gamma+alpha+1)_n / n! * sum_k (-n)_k x^k /
    [(gamma+1)_k (gamma+alpha+1)_k] *
    3F2(k-n, gamma+alpha, gamma; gamma+alpha+k+1, gamma+1+k; 1)``;
    the second variant is
    ``L_n = (alpha+1)_n / n! * sum_k (-n)_k x^k /
    [(gamma+1)_k (alpha+1)_k] *
    3F2(k-n, 1-alpha+k, gamma; -alpha-n, gamma+k+1; 1)``,
    which carries the known restriction that ``alpha`` must not be an
    integer (raises :class:`~assocpoly.errors.RestrictedParameter`).

    Parameters
    ----------
    variant : LaguerreVariant or str
        ``"primary"`` or ``"rahman"``.
    """
    _check_nonneg_int(n, "n")
    variant = LaguerreVariant(variant)
    alpha, gamma = params.alpha, params.gamma
    if variant is LaguerreVariant.PRIMARY:
        return _laguerre_3f2_range(x, params, n, n)[0]
    if n == 0:
        return 1.0
    if _near_int_in_range(alpha, -math.inf, math.inf) is not None:
        raise RestrictedParameter(
            f"the second Laguerre 3F2 form requires non-integer alpha, "
            f"got alpha={alpha!r}"
        )
    total = _resum(_laguerre_rahman_sum, n, (x, alpha, gamma))
    return pochhammer(alpha + 1.0, n) / math.factorial(n) * total


def _laguerre_3f2_range(x, params, lo, hi):
    """``[laguerre_3f2(x, params, n) for n in range(lo, hi + 1)]``, primary."""
    alpha, gamma = params.alpha, params.gamma
    shift = _Rising(gamma + alpha + 1.0)
    return _lone_sum_range(
        lo, hi, _laguerre_sum, (x, alpha, gamma),
        [("gamma+alpha+1", gamma + alpha + 1.0, -1)],
        lambda n: shift(n) / math.factorial(n))


def laguerre_classical(x, alpha, n):
    """Classical Laguerre polynomial (alpha+1)_n / n! 1F1(-n; alpha+1; x)."""
    _check_nonneg_int(n, "n")
    return _laguerre_classical_range(x, alpha, n, n)[0]


def _laguerre_classical_range(x, alpha, lo, hi):
    """``[laguerre_classical(x, alpha, n) for n in range(lo, hi + 1)]``."""
    sums = _resums(_laguerre_classical_sum, (x, alpha), hi)
    shape = _Rising(alpha + 1.0)
    return [shape(n) / math.factorial(n) * sums(n) for n in range(lo, hi + 1)]


# ---------------------------------------------------------------------------
# Meixner-Pollaczek via the complex Meixner substitution
# ---------------------------------------------------------------------------


def mp_from_meixner(x, params, n):
    """Index-shifted Meixner-Pollaczek value via the complex Meixner connection.

    ``P_n(x) = exp(-i n phi) / (gamma+1)_n *
    M_n(i x - nu; 2 nu, exp(-2 i phi), gamma)`` where the Meixner value
    is computed by its recurrence with complex parameters.  For real
    ``x`` the imaginary part of the result is a rounding residual.
    """
    _check_nonneg_int(n, "n")
    nu, phi, gamma = params.nu, params.phi, params.gamma
    c = cmath.exp(-2.0j * phi)
    meix = MeixnerParams(2.0 * nu, c, gamma)
    seq = meixner_seq(1.0j * x - nu, meix, n)
    return cmath.exp(-1.0j * n * phi) / pochhammer(gamma + 1.0, n) * seq[n]


# ---------------------------------------------------------------------------
# Finite-sum hypergeometric identities
# ---------------------------------------------------------------------------


def identity_4f3_finite_sum(n, a, b, t, y, rel_tol=1e-9):
    """Check the t-powered finite 4F3 double sum against its 2F1 product form.

    Left side:
    ``sum_k t^k (-n)_k (a+y)_k / [(a+1)_k (b+1)_k] *
    4F3(k-n, a+y+k, a, b; a+y, b+1+k, a+1+k; 1)``.
    Right side:
    ``n!/(b-a) { b/(a+1)_n 2F1(1-y, a; a-b+1; t) 2F1(y, -n-a; b-a+1; t)
    - (1-t)^{n+1} a/(b+1)_n 2F1(1-y, n+a+1; a-b+1; t)
    2F1(y, 1-a; b-a+1; t) }``.

    Requires ``a > 0``, ``b > -1``, ``b != 0``, and ``b - a`` at least
    1e-8 away from every integer (otherwise
    :class:`~assocpoly.errors.RestrictedParameter` is raised); also
    rejects ``a + y`` within 1e-8 of an integer in ``[-(n-1), 0]``.

    Returns
    -------
    IdentityReport
    """
    _check_nonneg_int(n, "n")
    if not (a > 0 and b > -1) or abs(b) < _INT_TOL:
        raise RestrictedParameter(
            f"finite 4F3 sum identity requires a > 0, b > -1, b != 0; "
            f"got a={a!r}, b={b!r}"
        )
    if abs((b - a) - round(b - a)) < _INT_TOL:
        raise RestrictedParameter(
            f"finite 4F3 sum identity requires b - a away from the integers, "
            f"got b-a={b - a!r}"
        )
    _refuse_band("a + y", a + y, -(n - 1), 0, n, RestrictedParameter)

    lhs = _resum(_finite_4f3_sum, n, (a, b, t, y))
    rhs = (
        math.factorial(n)
        / (b - a)
        * (
            b
            / pochhammer(a + 1.0, n)
            * gauss_2f1(1.0 - y, a, a - b + 1.0, t).value
            * gauss_2f1(y, -n - a, b - a + 1.0, t).value
            - (1.0 - t) ** (n + 1)
            * a
            / pochhammer(b + 1.0, n)
            * gauss_2f1(1.0 - y, n + a + 1.0, a - b + 1.0, t).value
            * gauss_2f1(y, 1.0 - a, b - a + 1.0, t).value
        )
    )
    point = {"n": n, "a": a, "b": b, "t": t, "y": y}
    return make_report("finite-sum-4f3", point, lhs, rhs, rel_tol)


def identity_3f2_pochhammer(n, a, b, rel_tol=1e-10):
    """Check 3F2(-n, a, b; a+1, b+1; 1) against its two-term pochhammer form.

    Right side: ``n!/(b-a) [ b/(a+1)_n - a/(b+1)_n ]``.  Requires
    ``|b - a| >= 1e-8`` and ``a+1``, ``b+1`` away from the nonpositive
    integers.

    Returns
    -------
    IdentityReport
    """
    _check_nonneg_int(n, "n")
    if abs(b - a) < _INT_TOL:
        raise RestrictedParameter("3F2 pochhammer identity requires a != b")
    _refuse_denominators("3F2 pochhammer identity", a, b)
    lhs = _resum(_m_generalized_sum, n, (a, b, 1))
    rhs = (
        math.factorial(n)
        / (b - a)
        * (b / pochhammer(a + 1.0, n) - a / pochhammer(b + 1.0, n))
    )
    point = {"n": n, "a": a, "b": b}
    return make_report("3f2-pochhammer", point, lhs, rhs, rel_tol)


def identity_3f2_t_powered(n, a, b, t, rel_tol=1e-9):
    """Check the t-powered finite 3F2 double sum against its 2F1 product form.

    Left side: ``sum_k t^k (-n)_k / (b+1)_k *
    3F2(k-n, a, b; a+1, b+1+k; 1)``.
    Right side: ``n!/(b-a) { b/(a+1)_n 2F1(1, -n-a; b-a+1; t)
    - (1-t)^{n+1} a/(b+1)_n 2F1(1, 1-a; b-a+1; t) }``.

    Requires ``a != b`` and ``b - a`` away from the nonpositive
    integers (the 2F1 denominator parameter is ``b - a + 1``), plus
    ``a+1``, ``b+1`` away from the nonpositive integers.

    Returns
    -------
    IdentityReport
    """
    _check_nonneg_int(n, "n")
    if abs(b - a) < _INT_TOL or _near_int_in_range(b - a + 1.0, -(10**9), 0) is not None:
        raise RestrictedParameter(
            f"t-powered 3F2 identity requires b - a away from the nonpositive "
            f"integers, got b-a={b - a!r}"
        )
    _refuse_denominators("t-powered 3F2 identity", a, b)
    lhs = _resum(_t_powered_sum, n, (a, b, t))
    rhs = (
        math.factorial(n)
        / (b - a)
        * (
            b
            / pochhammer(a + 1.0, n)
            * gauss_2f1(1.0, -n - a, b - a + 1.0, t).value
            - (1.0 - t) ** (n + 1)
            * a
            / pochhammer(b + 1.0, n)
            * gauss_2f1(1.0, 1.0 - a, b - a + 1.0, t).value
        )
    )
    point = {"n": n, "a": a, "b": b, "t": t}
    return make_report("3f2-t-powered", point, lhs, rhs, rel_tol)


def identity_3f2_m_generalized(n, a, b, m, rel_tol=1e-9):
    """Check 3F2(-n, a, b; a+m, b+1; 1) against its m-term product form.

    Right side: ``(a)_m / (a-b)_m { n!/(1+b)_n
    - (b/a) sum_{l=0}^{m-1} (a-b)_l (1+l)_n / [(1+a)_l (1+a+l)_n] }``
    for integer ``m >= 1``.

    Requires ``a > 0``, ``b`` away from the nonpositive integers, and
    ``(a-b)_m`` nonzero with ``|a - b| >= 1e-8``.

    Returns
    -------
    IdentityReport
    """
    _check_nonneg_int(n, "n")
    if not isinstance(m, int) or m < 1:
        raise ValueError("m must be an integer >= 1")
    if not a > 0:
        raise RestrictedParameter(
            f"m-generalized 3F2 identity requires a > 0, got {a!r}"
        )
    if _near_int_in_range(b + 1.0, -(10**9), 0) is not None or abs(b) < _INT_TOL:
        raise RestrictedParameter(
            f"m-generalized 3F2 identity requires b away from the nonpositive "
            f"integers, got b={b!r}"
        )
    if abs(b - a) < _INT_TOL or _near_int_in_range(a - b, -(m - 1), 0) is not None:
        raise RestrictedParameter(
            f"m-generalized 3F2 identity requires (a-b)_m nonzero, got a-b={a - b!r}"
        )
    lhs = _resum(_m_generalized_sum, n, (a, b, m))
    tail = Accumulator()
    for l in range(m):
        tail.add(
            pochhammer(a - b, l)
            * pochhammer(1.0 + l, n)
            / (pochhammer(1.0 + a, l) * pochhammer(1.0 + a + l, n))
        )
    rhs = (
        pochhammer(a, m)
        / pochhammer(a - b, m)
        * (math.factorial(n) / pochhammer(1.0 + b, n) - (b / a) * tail.value)
    )
    point = {"n": n, "a": a, "b": b, "m": m}
    return make_report("3f2-m-generalized", point, lhs, rhs, rel_tol)
