"""Large-degree scaled limits for the Meixner and Charlier families.

For fixed ``x`` the degree-``n`` values grow factorially, so all
large-``n`` work is done on the scaled iterates
``r_n = rho^n P_n(x) / Gamma(n + gamma - x)`` (``rho`` is ``c`` for
Meixner, ``a`` for Charlier), which stay O(1) and converge to a closed
limit: a Gauss 2F1 value for Meixner, a confluent 1F1 value for
Charlier.  The module provides the scaled recurrences, the closed
limits, and a convergence study that records errors at checkpoints and
compares them against the predicted correction term.

At ``x - gamma`` a nonnegative integer (more generally ``gamma - x`` a
nonpositive integer) the prefactor ``1/Gamma(gamma - x)`` vanishes and
the scaling degenerates; those points raise
:class:`~assocpoly.errors.PoleArgument` up front.

Empirical note: the measured convergence of ``r_n`` to the limit is
O(1/n) (first inverse power of the degree), for both families; see
the convergence-study helpers and the tests for the quantitative form.
"""

from __future__ import annotations

import math

from .errors import DomainError, PoleArgument, Record, _set_field
from .hyperkernel import (
    _NONPOS_INT_TOL,
    _check_nonneg_int,
    _exp,
    _near_int_in_range,
    _power,
    gamma_value,
    gauss_2f1,
    kummer_1f1,
)
from .recurrences import CharlierParams, MeixnerParams

__all__ = [
    "ScaledSequence",
    "MHStudy",
    "scaled_meixner_seq",
    "scaled_charlier_seq",
    "mh_meixner_limit",
    "mh_charlier_limit",
    "mh_convergence_study",
]

class ScaledSequence(Record):
    """Scaled values r_n = rho^n P_n(x)/Gamma(n+gamma-x), n = 0..n_max."""

    __slots__ = ("r", "params", "x", "n_max")

    def __init__(self, r, params, x, n_max):
        _set_field(self, "r", r)
        _set_field(self, "params", params)
        _set_field(self, "x", x)
        _set_field(self, "n_max", n_max)

    def __getitem__(self, n):
        return self.r[n]

    def __len__(self):
        return len(self.r)


class MHStudy(Record):
    """Scaled-limit convergence study at a fixed point.

    Attributes
    ----------
    samples : tuple of (n, scaled value, absolute error vs limit)
        One entry per requested checkpoint, ascending in n.
    limit : float or complex
        The closed-form limit.
    monotone_tail : bool
        True when the absolute errors are nonincreasing over the last
        three checkpoints (all checkpoints if fewer).
    second_term_ratios : tuple or None
        For the Meixner family, |observed error| divided by the
        predicted correction magnitude
        ``n^{2x+beta} c^{n+1} (1-c)^x |2F1(x+1, 2-beta-gamma; 2+x-gamma; c)|``
        at each checkpoint; None for Charlier, for complex x, and where
        ``2 + x - gamma`` is a gamma pole of that 2F1.
    """

    __slots__ = ("samples", "limit", "monotone_tail", "second_term_ratios")

    def __init__(self, samples, limit, monotone_tail, second_term_ratios=None):
        _set_field(self, "samples", samples)
        _set_field(self, "limit", limit)
        _set_field(self, "monotone_tail", monotone_tail)
        _set_field(self, "second_term_ratios", second_term_ratios)


def _check_scaling_pole(x, gamma):
    if _near_int_in_range(gamma - x, -math.inf, 0, _NONPOS_INT_TOL) is not None:
        raise PoleArgument(
            f"gamma - x = {gamma - x!r} is a nonpositive integer: the scaling "
            f"prefactor 1/Gamma(gamma-x) vanishes"
        )


def scaled_meixner_seq(x, params, n_max):
    """Scaled Meixner iterates r_n = c^n M_n(x)/Gamma(n+gamma-x).

    The recurrence step is
    ``r_{n+1} = A_n r_n/(n+gamma-x)
    - c B_n r_{n-1}/[(n+gamma-x)(n+gamma-x-1)]`` with
    ``A_n = (c-1)x + (c+1)(n+gamma) + beta c`` and
    ``B_n = (n+gamma)(n+gamma+beta-1)``, seeded with
    ``r_0 = 1/Gamma(gamma-x)``.

    Raises :class:`~assocpoly.errors.PoleArgument` when ``gamma - x``
    is within 1e-9 of a nonpositive integer.

    Returns
    -------
    ScaledSequence
    """
    _check_nonneg_int(n_max, "n_max")
    beta, c, gamma = params.beta, params.c, params.gamma
    _check_scaling_pole(x, gamma)
    r0 = 1.0 / gamma_value(gamma - x)
    values = [r0]
    prev, cur = 0.0, r0
    cx, c1, bc = (c - 1.0) * x, c + 1.0, beta * c
    for n in range(n_max):
        s = n + gamma
        d = s - x
        a_n = cx + c1 * s + bc
        nxt = a_n * cur / d
        if prev != 0.0:
            nxt -= c * s * (s + beta - 1.0) * prev / (d * (d - 1.0))
        values.append(nxt)
        prev, cur = cur, nxt
    return ScaledSequence(tuple(values), params, x, n_max)


def scaled_charlier_seq(x, params, n_max):
    """Scaled Charlier iterates r_n = a^n C_n(x)/Gamma(n+gamma-x).

    The recurrence step is
    ``r_{n+1} = (n+gamma+a-x) r_n/(n+gamma-x)
    - a (n+gamma) r_{n-1}/[(n+gamma-x)(n+gamma-x-1)]``, seeded with
    ``r_0 = 1/Gamma(gamma-x)``.

    Returns
    -------
    ScaledSequence
    """
    _check_nonneg_int(n_max, "n_max")
    a, gamma = params.a, params.gamma
    _check_scaling_pole(x, gamma)
    r0 = 1.0 / gamma_value(gamma - x)
    values = [r0]
    prev, cur = 0.0, r0
    for n in range(n_max):
        s = n + gamma
        d = s - x
        nxt = (s + a - x) * cur / d
        if prev != 0.0:
            nxt -= a * s * prev / (d * (d - 1.0))
        values.append(nxt)
        prev, cur = cur, nxt
    return ScaledSequence(tuple(values), params, x, n_max)


def mh_meixner_limit(x, params):
    """Closed-form limit of the scaled Meixner iterates.

    ``(1-c)^{-beta-x}/Gamma(gamma-x) * 2F1(gamma, 1-beta-x; gamma-x; c)``
    for ``0 < c < 1``.

    Raises :class:`~assocpoly.errors.PoleArgument` when ``gamma - x``
    is within 1e-9 of a nonpositive integer and
    :class:`~assocpoly.errors.DomainError` outside ``0 < c < 1``.
    """
    beta, c, gamma = params.beta, params.c, params.gamma
    if isinstance(c, complex) or not 0.0 < c < 1.0:
        raise DomainError(f"the scaled limit requires 0 < c < 1, got c={c!r}")
    _check_scaling_pole(x, gamma)
    pref = _power(1.0 - c, -beta - x)
    f = gauss_2f1(gamma, 1.0 - beta - x, gamma - x, c)
    return pref / gamma_value(gamma - x) * f.value


def mh_charlier_limit(x, params):
    """Closed-form limit of the scaled Charlier iterates.

    ``e^a/Gamma(gamma-x) * 1F1(gamma; gamma-x; -a)``.
    """
    a, gamma = params.a, params.gamma
    _check_scaling_pole(x, gamma)
    f = kummer_1f1(gamma, gamma - x, -a)
    return _exp(a) / gamma_value(gamma - x) * f.value


def mh_convergence_study(x, params, checkpoints):
    """Error of the scaled iterates against the closed limit at checkpoints.

    Parameters
    ----------
    x : float or complex
    params : MeixnerParams or CharlierParams
    checkpoints : sequence of int
        Ascending degrees, largest at most 10^4.

    Returns
    -------
    MHStudy
        ``monotone_tail`` is computed over the last three checkpoints;
        for the Meixner family ``second_term_ratios`` holds the
        observed-error/predicted-correction ratios.
    """
    checkpoints = list(checkpoints)
    if not checkpoints:
        raise ValueError("checkpoints must be nonempty")
    if any(
        not isinstance(n, int) or n < 1 for n in checkpoints
    ) or checkpoints != sorted(checkpoints):
        raise ValueError("checkpoints must be ascending positive integers")
    if checkpoints[-1] > 10**4:
        raise ValueError("largest checkpoint must be at most 10^4")
    if isinstance(params, MeixnerParams):
        limit = mh_meixner_limit(x, params)
        seq = scaled_meixner_seq(x, params, checkpoints[-1])
    elif isinstance(params, CharlierParams):
        limit = mh_charlier_limit(x, params)
        seq = scaled_charlier_seq(x, params, checkpoints[-1])
    else:
        raise TypeError(f"unsupported family parameter type {type(params)!r}")
    samples = tuple((n, seq[n], abs(seq[n] - limit)) for n in checkpoints)
    tail = samples[-3:]
    monotone = all(
        tail[i][2] >= tail[i + 1][2] for i in range(len(tail) - 1)
    )
    ratios = None
    if isinstance(params, MeixnerParams) and not isinstance(x, complex):
        beta, c, gamma = params.beta, params.c, params.gamma
        try:
            # The correction's 2F1 does not depend on n: one value per study.
            f = gauss_2f1(x + 1.0, 2.0 - beta - gamma, 2.0 + x - gamma, c).value
        except PoleArgument:
            # 2 + x - gamma is a gamma pole of the correction's 2F1: the
            # study is defined there, its diagnostic is not.
            pass
        else:
            ratios = tuple(
                err / max(abs(float(n) ** (2.0 * x + beta) * c ** (n + 1)
                              * (1.0 - c) ** x * f), 1e-300)
                for n, _v, err in samples
            )
    return MHStudy(samples, limit, monotone, ratios)
