"""Generating functions of the index-shifted families.

Left-hand sides are truncated power series in ``t`` whose coefficients
come from the recurrences, under one of five normalizations; right-hand
sides are closed forms built from Appell F1, Humbert Phi1, Gauss 2F1,
confluent 1F1, elementary factors, or Euler integrals.  The module also
carries the generating-function ODE residual for the Charlier family,
the three convolution identities that mix an index-shifted value with
two classical sequences, the weighted classical generating functions,
and the degenerate-argument reduction chain.

All left-hand partial sums run the recurrences in plain binary64
(``exact_on_lattice=False``): the terms carry rapidly decaying weights,
so the dominant-solution contamination that ruins pointwise lattice
values is suppressed term by term, while exact rational values would
overflow the float range at the truncation orders used here.
"""

from __future__ import annotations

import cmath
import enum
import math

from .errors import (
    DenominatorPole,
    DomainError,
    NotConverged,
    Record,
    TailTooLarge,
    _set_field,
)
from .hyperkernel import (
    Accumulator,
    EulerIntegrand,
    EvalOutcome,
    _check_nonneg_int,
    _exp,
    _near_int_in_range,
    _power,
    _sum_series,
    appell_f1,
    euler_integral,
    gauss_2f1,
    humbert_phi1,
    hyp_terminating,
    kummer_1f1,
    pochhammer,
)
from .recurrences import (
    CharlierParams,
    LaguerreParams,
    MeixnerParams,
    charlier_seq,
    classical,
    laguerre_seq,
    meixner_seq,
)
from .report import make_report

__all__ = [
    "Normalization",
    "GFSpec",
    "gf_lhs_partial",
    "gf_lhs_auto",
    "gf_meixner_appell",
    "gf_meixner_classical_2f1",
    "gf_meixner_alt",
    "gf_meixner_elementary",
    "gf_meixner_integral",
    "gf_charlier_phi1",
    "gf_charlier_elementary",
    "gf_charlier_integral",
    "gf_charlier_ode_residual",
    "gf_laguerre",
    "gf_laguerre_elementary",
    "gf_weighted_meixner_rhs",
    "gf_weighted_charlier_rhs",
    "gf_weighted_laguerre_rhs",
    "gf_weighted_laguerre_diag",
    "weighted_classical_gf",
    "convolution_identity",
    "c1_reduction_identity",
    "laguerre_diag_derivative_check",
]

_AUTO_N_CAP = 960
# First truncation order of the weighted classical identity's left side.
_WEIGHTED_N_START = 60


class Normalization(enum.Enum):
    """Per-term normalizing sequence of a generating-function left side.

    For the Meixner family every normalizer except ``PLAIN`` carries
    the extra ``c^n`` power; for the other families none does.

    - ``BY_GAMMA_BETA``: ``(ct)^n / (gamma+beta)_n`` (Meixner only).
    - ``BY_GAMMA_ONE``: ``(c^n) t^n / (gamma+1)_n``.
    - ``BY_FACTORIAL``: ``(c^n) t^n / n!``.
    - ``PLAIN``: ``t^n``.
    - ``WEIGHTED``: ``gamma/(n+gamma)`` times the family's factorial
      normalizer, applied to the *classical* (gamma = 0) sequence; the
      weight ``gamma`` is free.
    """

    BY_GAMMA_BETA = "by-gamma-beta"
    BY_GAMMA_ONE = "by-gamma-one"
    BY_FACTORIAL = "by-factorial"
    PLAIN = "plain"
    WEIGHTED = "weighted"


class GFSpec(Record):
    """One generating-function left side: family, point, t, normalization.

    Attributes
    ----------
    family : MeixnerParams, CharlierParams or LaguerreParams
        Family parameters; for ``WEIGHTED`` normalization the sequence
        itself is evaluated at gamma = 0 and ``family.gamma`` (or
        ``weight_gamma`` when given) only enters the weights
        ``gamma/(n+gamma)``.
    x : float or complex
        Evaluation point.
    t : float or complex
        Series variable.
    normalization : Normalization or str
    truncation_N : int
        Number of the highest retained power of t.
    weight_gamma : float, optional
        Overrides ``family.gamma`` as the free weight for ``WEIGHTED``
        normalization (the family parameter records forbid negative
        gamma, the weight need not be nonnegative).
    """

    __slots__ = ("family", "x", "t", "normalization", "truncation_N",
                 "weight_gamma")

    def __init__(self, family, x, t, normalization=Normalization.BY_GAMMA_ONE,
                 truncation_N=60, weight_gamma=None):
        normalization = Normalization(normalization)
        if not isinstance(truncation_N, int) or truncation_N < 1:
            raise ValueError("truncation_N must be an integer >= 1")
        _set_field(self, "family", family)
        _set_field(self, "x", x)
        _set_field(self, "t", t)
        _set_field(self, "normalization", normalization)
        _set_field(self, "truncation_N", truncation_N)
        _set_field(self, "weight_gamma", weight_gamma)


def _family_sequence(spec):
    params = spec.family
    norm = spec.normalization
    if norm is Normalization.WEIGHTED:
        params = classical(params)
    n_max = spec.truncation_N
    if isinstance(params, MeixnerParams):
        return meixner_seq(spec.x, params, n_max, exact_on_lattice=False)
    if isinstance(params, CharlierParams):
        return charlier_seq(spec.x, params, n_max, exact_on_lattice=False)
    if isinstance(params, LaguerreParams):
        return laguerre_seq(spec.x, params, n_max)
    raise TypeError(f"unsupported family parameter type {type(params)!r}")


def _normalizer_step(spec):
    """The map n -> w_{n+1} / w_n of the chosen normalization (w_0 = 1)."""
    params = spec.family
    norm = spec.normalization
    gamma = params.gamma
    c_factor = params.c if isinstance(params, MeixnerParams) else 1.0
    if norm is Normalization.BY_GAMMA_BETA:
        if not isinstance(params, MeixnerParams):
            raise ValueError(
                "BY_GAMMA_BETA normalization applies to the Meixner family only"
            )
        gamma_beta = gamma + params.beta
        return lambda n: c_factor / (gamma_beta + n)
    if norm is Normalization.BY_GAMMA_ONE:
        gamma_one = gamma + 1.0
        return lambda n: c_factor / (gamma_one + n)
    if norm is Normalization.BY_FACTORIAL:
        return lambda n: c_factor / (n + 1.0)
    if norm is Normalization.PLAIN:
        return lambda n: 1.0
    g = spec.weight_gamma if spec.weight_gamma is not None else gamma
    if isinstance(params, LaguerreParams):
        return lambda n: (n + g) / (n + 1.0 + g)
    return lambda n: c_factor * (n + g) / ((n + 1.0 + g) * (n + 1.0))


def _check_normalizer_poles(spec):
    """Raise DomainError at a normalizer divisor within 1e-6 of 0: n+gamma
    (n <= N) in the weighted chain, gamma+beta+n (n < N) in (gamma+beta)_n.

    Only the integer nearest -Re(g) can lie that close to -g, so only it is
    tested; a NaN or infinite g has none and passes.
    """
    params = spec.family
    top = spec.truncation_N
    if spec.normalization is Normalization.WEIGHTED:
        g = spec.weight_gamma if spec.weight_gamma is not None else params.gamma
        top, what, whose = top + 1, "gamma", "weight gamma"
    elif (spec.normalization is Normalization.BY_GAMMA_BETA
          and isinstance(params, MeixnerParams)):
        g = params.gamma + params.beta
        what = whose = "gamma+beta"
    else:
        return
    if -0.5 <= -g.real < top:
        n = round(-g.real)
        if n < top and abs(n + g) < 1e-6:
            raise DomainError(
                f"{spec.normalization.value} normalization has a vanishing "
                f"denominator n+{what} at n={n} for {whose}={g!r}"
            )


def _lhs_sum(spec):
    """(partial sum, |last term|) of the truncated generating series.

    Term n is ``w_n t^n P_n(x)``, summed compensated.  The normalization
    step n -> w_{n+1}/w_n is chosen once per sum, and the terms take the
    sequence's values list as it is.
    """
    _check_normalizer_poles(spec)
    values = _family_sequence(spec).values
    step = _normalizer_step(spec)
    t = spec.t
    acc = Accumulator()
    weight = 1.0
    t_pow = 1.0
    term = weight * values[0]
    acc.add(term)
    for n in range(spec.truncation_N):
        weight = weight * step(n)
        t_pow = t_pow * t
        term = weight * t_pow * values[n + 1]
        acc.add(term)
    return acc.value, abs(term)


def gf_lhs_partial(spec, rel_tol=1e-9):
    """Truncated generating-series value sum_{n=0}^{N} w_n t^n P_n(x).

    Parameters
    ----------
    spec : GFSpec
    rel_tol : float
        Tail-acceptance threshold.

    Returns
    -------
    float or complex
        Raises :class:`~assocpoly.errors.TailTooLarge` when the last
        retained term exceeds ``rel_tol`` times the partial sum in
        magnitude (the truncation order is too small for this ``t``),
        and :class:`~assocpoly.errors.NotConverged` when the sequence
        values overflow the binary64 range before the tail is accepted
        (a nan sum would otherwise slip through the tail comparison).
    """
    value, last_abs = _lhs_sum(spec)
    if not (cmath.isfinite(complex(value)) and math.isfinite(last_abs)):
        raise NotConverged(
            f"series terms overflowed the binary64 range at "
            f"truncation_N={spec.truncation_N}"
        )
    if last_abs > rel_tol * abs(value):
        raise TailTooLarge(
            f"last term magnitude {last_abs:.3e} exceeds rel_tol * |sum| = "
            f"{rel_tol * abs(value):.3e} at truncation_N={spec.truncation_N}"
        )
    return value


def gf_lhs_auto(spec, rel_tol=1e-9):
    """Like :func:`gf_lhs_partial` but doubling N (cap 960) until the tail passes.

    Returns
    -------
    (value, n_used) : tuple
    """
    n = spec.truncation_N
    while True:
        trial = spec._replace(truncation_N=n)
        try:
            return gf_lhs_partial(trial, rel_tol), n
        except TailTooLarge:
            if n >= _AUTO_N_CAP:
                raise
            n = min(2 * n, _AUTO_N_CAP)


# ---------------------------------------------------------------------------
# Meixner right-hand sides
# ---------------------------------------------------------------------------


def _check_meixner_t(params, t):
    bound = min(1.0, 1.0 / abs(params.c))
    if abs(t) >= bound:
        raise DomainError(
            f"|t| = {abs(t):.6g} is outside the validity disk |t| < {bound:.6g}"
        )


def gf_meixner_appell(x, params, t):
    """Sum of (ct)^n/(gamma+beta)_n M_n(x) as an Appell F1 closed form.

    ``(1-ct)^{-1} F1(1; gamma, -x; gamma+beta; t, t(1-c)/(1-ct))``.
    """
    _check_meixner_t(params, t)
    beta, c, gamma = params.beta, params.c, params.gamma
    if t == 0:
        return 1.0
    y = t * (1.0 - c) / (1.0 - c * t)
    f1 = appell_f1(1.0, gamma, -x, gamma + beta, t, y)
    return f1.value / (1.0 - c * t)


def gf_meixner_classical_2f1(x, beta, c, t):
    """Classical (gamma = 0) series sum of t^n/(beta)_n M_n(x;beta,c).

    ``(1-t)^{-1} 2F1(1, -x; beta; t(1-c)/(c(1-t)))``; this matches
    :func:`gf_meixner_appell` at gamma = 0 after the substitution
    ``t -> ct`` (the Appell normalizer carries the extra ``c^n``).
    """
    if t == 0:
        return 1.0
    z = t * (1.0 - c) / (c * (1.0 - t))
    return gauss_2f1(1.0, -x, beta, z).value / (1.0 - t)


def gf_meixner_alt(x, params, t):
    """Sum of (ct)^n/(gamma+1)_n M_n(x) as an Appell F1 closed form.

    ``(1-ct)^{-beta-x} (1-t)^x F1(gamma; 1-beta-x, 1+x; gamma+1; ct, t)``.
    """
    _check_meixner_t(params, t)
    beta, c, gamma = params.beta, params.c, params.gamma
    if t == 0:
        return 1.0
    f1 = appell_f1(gamma, 1.0 - beta - x, 1.0 + x, gamma + 1.0, c * t, t)
    return _power(1.0 - c * t, -beta - x) * _power(1.0 - t, x) * f1.value


def gf_meixner_elementary(x, beta, c, t):
    """Classical (gamma = 0) closed form (1-ct)^{-beta-x} (1-t)^x."""
    return _power(1.0 - c * t, -beta - x) * _power(1.0 - t, x)


def gf_meixner_integral(x, params, t):
    """Euler-integral form of the (gamma+1)_n-normalized Meixner series.

    ``gamma (1-ct)^{-beta-x} (1-t)^x
    ∫_0^1 u^{gamma-1} (1-ctu)^{x+beta-1} (1-tu)^{-x-1} du``;
    requires ``gamma > 0``.
    """
    _check_meixner_t(params, t)
    beta, c, gamma = params.beta, params.c, params.gamma
    if gamma <= 0:
        raise DomainError(
            f"the integral representation requires gamma > 0, got {gamma!r}"
        )
    spec = EulerIntegrand(
        gamma, factors=((c * t, x + beta - 1.0), (t, -x - 1.0))
    )
    quad = euler_integral(spec)
    return gamma * gf_meixner_elementary(x, beta, c, t) * quad.value


# ---------------------------------------------------------------------------
# Charlier right-hand sides and the generating-function ODE
# ---------------------------------------------------------------------------


def _check_charlier_t(params, t):
    if abs(t) >= abs(params.a):
        raise DomainError(
            f"|t| = {abs(t):.6g} is outside the validity disk |t| < |a| = "
            f"{abs(params.a):.6g}"
        )


def gf_charlier_phi1(x, params, t):
    """Sum of t^n/(gamma+1)_n C_n(x) as a Humbert Phi1 closed form.

    ``e^t (1-t/a)^x Phi1(gamma, x+1; gamma+1; t/a, -t)``.
    """
    _check_charlier_t(params, t)
    a, gamma = params.a, params.gamma
    if t == 0:
        return 1.0
    phi = humbert_phi1(gamma, x + 1.0, gamma + 1.0, t / a, -t)
    return _exp(t) * _power(1.0 - t / a, x) * phi.value


def gf_charlier_elementary(x, a, t):
    """Classical (gamma = 0) closed form e^t (1-t/a)^x."""
    return _exp(t) * _power(1.0 - t / a, x)


def gf_charlier_integral(x, params, t):
    """Euler-integral form of the (gamma+1)_n-normalized Charlier series.

    ``gamma e^t (1-t/a)^x ∫_0^1 u^{gamma-1} e^{-tu} (1-tu/a)^{-x-1} du``;
    requires ``gamma > 0``.
    """
    _check_charlier_t(params, t)
    a, gamma = params.a, params.gamma
    if gamma <= 0:
        raise DomainError(
            f"the integral representation requires gamma > 0, got {gamma!r}"
        )
    spec = EulerIntegrand(gamma, factors=((t / a, -x - 1.0),), exp_scale=-t)
    quad = euler_integral(spec)
    return gamma * gf_charlier_elementary(x, a, t) * quad.value


def gf_charlier_ode_residual(x, params, t, h=None):
    """Residual of the Charlier generating-function ODE at one t.

    The (gamma+1)_n-normalized series G satisfies
    ``t(a-t) G'(t) + [t^2 + (x-a-gamma) t + a gamma] G(t) = a gamma``;
    the derivative uses a 5-point central difference with step ``h``
    (default ``1e-4 * max(1, |t|)``).

    Returns
    -------
    float
        Absolute residual magnitude.
    """
    a, gamma = params.a, params.gamma
    if h is None:
        h = 1e-4 * max(1.0, abs(t))
    if h <= 0:
        raise ValueError("h must be positive")

    def g(tt):
        if gamma == 0:
            return gf_charlier_elementary(x, a, tt)
        return gf_charlier_phi1(x, params, tt)

    deriv = (
        -g(t + 2 * h) + 8.0 * g(t + h) - 8.0 * g(t - h) + g(t - 2 * h)
    ) / (12.0 * h)
    value = g(t)
    residual = (
        t * (a - t) * deriv
        + (t * t + (x - a - gamma) * t + a * gamma) * value
        - a * gamma
    )
    return abs(residual)


# ---------------------------------------------------------------------------
# Laguerre right-hand sides
# ---------------------------------------------------------------------------


def gf_laguerre(x, params, t):
    """Sum of t^n L_n(x) as a Humbert Phi1 closed form.

    ``(1-t)^{-gamma-alpha-1} exp(xt/(t-1))
    Phi1(gamma, gamma+alpha; gamma+1; t/(t-1), -xt/(t-1))``;
    requires ``|t| < 1/2`` so the transformed argument stays inside the
    Phi1 convergence disk.
    """
    if abs(t) >= 0.5:
        raise DomainError(f"|t| = {abs(t):.6g} is outside the validity disk |t| < 1/2")
    alpha, gamma = params.alpha, params.gamma
    if t == 0:
        return 1.0
    w = t / (t - 1.0)
    phi = humbert_phi1(gamma, gamma + alpha, gamma + 1.0, w, -x * w)
    return _power(1.0 - t, -gamma - alpha - 1.0) * _exp(x * t / (t - 1.0)) * phi.value


def gf_laguerre_elementary(x, alpha, t):
    """Classical (gamma = 0) closed form (1-t)^{-alpha-1} exp(xt/(t-1))."""
    return _power(1.0 - t, -alpha - 1.0) * _exp(x * t / (t - 1.0))


# ---------------------------------------------------------------------------
# Weighted classical generating functions
# ---------------------------------------------------------------------------


def gf_weighted_meixner_rhs(x, beta, c, gamma, t):
    """Closed form of sum gamma (ct)^n/((n+gamma) n!) M_n(x;beta,c):
    ``F1(gamma; x+beta, -x; gamma+1; ct, t)``."""
    return appell_f1(gamma, x + beta, -x, gamma + 1.0, c * t, t).value


def gf_weighted_charlier_rhs(x, a, gamma, t):
    """Closed form of sum gamma/((gamma+n) n!) C_n(x;a) t^n:
    ``Phi1(gamma, -x; gamma+1; t/a, t)``."""
    return humbert_phi1(gamma, -x, gamma + 1.0, t / a, t).value


def gf_weighted_laguerre_rhs(x, alpha, gamma, t):
    """Closed form of sum gamma/(n+gamma) L_n^(alpha)(x) t^n:
    ``(1-t)^{-gamma} Phi1(gamma, gamma-alpha; gamma+1; t/(t-1), xt/(t-1))``."""
    w = t / (t - 1.0)
    phi = humbert_phi1(gamma, gamma - alpha, gamma + 1.0, w, x * w)
    return _power(1.0 - t, -gamma) * phi.value


def gf_weighted_laguerre_diag(x, alpha, t):
    """The alpha = gamma case of the weighted Laguerre closed form:
    ``(1-t)^{-alpha} 1F1(alpha; alpha+1; xt/(t-1))``."""
    z = x * t / (t - 1.0)
    return _power(1.0 - t, -alpha) * kummer_1f1(alpha, alpha + 1.0, z).value


def weighted_classical_gf(x, params, t, rel_tol=1e-9, weight_gamma=None):
    """Weighted classical generating-function identity as a report.

    Compares the auto-truncated partial sum of the family's classical
    sequence under ``WEIGHTED`` normalization against the matching
    closed form (Appell F1 for Meixner, Humbert Phi1 for Charlier and
    Laguerre).  The weight gamma defaults to ``params.gamma``.

    Returns
    -------
    IdentityReport
    """
    spec = GFSpec(
        params, x, t, Normalization.WEIGHTED, _WEIGHTED_N_START, weight_gamma
    )
    g = weight_gamma if weight_gamma is not None else params.gamma
    lhs, n_used = gf_lhs_auto(spec, rel_tol)
    if isinstance(params, MeixnerParams):
        rhs = gf_weighted_meixner_rhs(x, params.beta, params.c, g, t)
        ident = "weighted-gf-meixner"
    elif isinstance(params, CharlierParams):
        rhs = gf_weighted_charlier_rhs(x, params.a, g, t)
        ident = "weighted-gf-charlier"
    elif isinstance(params, LaguerreParams):
        rhs = gf_weighted_laguerre_rhs(x, params.alpha, g, t)
        ident = "weighted-gf-laguerre"
    else:
        raise TypeError(f"unsupported family parameter type {type(params)!r}")
    point = {"x": x, "t": t, "gamma": g, "N": n_used}
    return make_report(ident, point, lhs, rhs, rel_tol)


# ---------------------------------------------------------------------------
# Convolution identities
# ---------------------------------------------------------------------------


def convolution_identity(x, params, n, rel_tol=1e-9):
    """Convolution of two classical sequences against one shifted value.

    - Meixner: ``n! M_n(x;beta,c,gamma)/(gamma+1)_n =
      sum_k C(n,k) gamma/(k+gamma) M_{n-k}(x;beta,c)
      M_k(-x-1; 2-beta, c)``.
    - Charlier: ``n! C_n(x;a,gamma)/(gamma+1)_n =
      sum_k C(n,k) gamma (-1)^k/(gamma+k) C_{n-k}(x;a)
      C_k(-x-1; -a)``.
    - Laguerre: ``L_n^(alpha)(x;gamma) =
      sum_k gamma/(k+gamma) L_{n-k}^(alpha)(x) L_k^(-alpha)(-x)``.

    Requires ``gamma > 0`` (the weights divide by ``k+gamma``).

    Returns
    -------
    IdentityReport
    """
    _check_nonneg_int(n, "n")
    gamma = params.gamma
    if gamma <= 0:
        raise DomainError(
            f"the convolution identities require gamma > 0, got {gamma!r}"
        )
    poch = pochhammer(gamma + 1.0, n)
    acc = Accumulator()
    if isinstance(params, MeixnerParams):
        ident = "convolution-meixner"
        beta, c = params.beta, params.c
        lhs = math.factorial(n) * meixner_seq(x, params, n)[n] / poch
        main = meixner_seq(x, MeixnerParams(beta, c, 0.0), n)
        comp = meixner_seq(-x - 1.0, MeixnerParams(2.0 - beta, c, 0.0), n)
        for k in range(n + 1):
            acc.add(
                math.comb(n, k)
                * gamma
                / (k + gamma)
                * main[n - k]
                * comp[k]
            )
    elif isinstance(params, CharlierParams):
        ident = "convolution-charlier"
        a = params.a
        lhs = math.factorial(n) * charlier_seq(x, params, n)[n] / poch
        main = charlier_seq(x, CharlierParams(a, 0.0), n)
        comp = charlier_seq(-x - 1.0, CharlierParams(-a, 0.0), n)
        sign = 1.0
        for k in range(n + 1):
            acc.add(
                math.comb(n, k) * gamma * sign / (gamma + k) * main[n - k] * comp[k]
            )
            sign = -sign
    elif isinstance(params, LaguerreParams):
        ident = "convolution-laguerre"
        alpha = params.alpha
        lhs = laguerre_seq(x, params, n)[n]
        main = laguerre_seq(x, LaguerreParams(alpha, 0.0), n)
        comp = laguerre_seq(-x, LaguerreParams(-alpha, 0.0), n)
        for k in range(n + 1):
            acc.add(gamma / (k + gamma) * main[n - k] * comp[k])
    else:
        raise TypeError(f"unsupported family parameter type {type(params)!r}")
    point = {"x": x, "n": n, "gamma": gamma}
    return make_report(ident, point, lhs, acc.value, rel_tol)


# ---------------------------------------------------------------------------
# Degenerate-argument reduction chain and the diagonal derivative check
# ---------------------------------------------------------------------------


def c1_reduction_identity(beta, gamma, t, rel_tol=1e-9, max_terms=400):
    """Degenerate-argument (c = 1) generating-series reduction as a report.

    Left side: ``sum_n (gamma+beta)_n/n!
    3F2(-n, gamma+beta-1, gamma; gamma+beta, gamma+1; 1) t^n`` summed
    until two consecutive terms fall below ``rel_tol`` times the
    partial sum; :class:`~assocpoly.errors.NotConverged` is raised if
    that takes more than ``max_terms`` terms.  Right side:
    ``(1-t)^{-beta} 2F1(2-beta, gamma; gamma+1; t)``.  A nonpositive
    integer ``gamma + beta`` raises
    :class:`~assocpoly.errors.DenominatorPole`: past ``n = -(gamma+beta)``
    each term is the zero coefficient times a 3F2 with a denominator pole.

    Returns
    -------
    IdentityReport
    """
    if abs(t) >= 1.0:
        raise DomainError(f"the reduction chain requires |t| < 1, got {t!r}")
    if _near_int_in_range(gamma + beta, -math.inf, 0, 0.0) is not None:
        raise DenominatorPole(
            f"gamma + beta = {gamma + beta!r} is a pole of the chain's 3F2"
        )

    def inner(n):
        value = hyp_terminating(
            [-n, gamma + beta - 1.0, gamma],
            [gamma + beta, gamma + 1.0],
            1.0,
            n,
        )
        return EvalOutcome(value, True, 1, 0.0)

    lhs = _sum_series(
        gamma + beta, None, None, t, rel_tol, max_terms,
        "c = 1 reduction series did not converge in {max_terms} terms "
        "at t={z!r}", inner,
    ).value
    rhs = _power(1.0 - t, -beta) * gauss_2f1(
        2.0 - beta, gamma, gamma + 1.0, t
    ).value
    point = {"beta": beta, "gamma": gamma, "t": t}
    return make_report("c1-reduction-chain", point, lhs, rhs, rel_tol)


def laguerre_diag_derivative_check(x=1.0, alpha=0.8, t=0.2, h=1e-4,
                                   rel_tol=1e-6):
    """Derivative link between the diagonal weighted form and the classical GF.

    With ``W(t) = (1-t)^{-alpha} 1F1(alpha; alpha+1; xt/(t-1))``, the
    relation ``d/dt [t^alpha W(t)] =
    alpha t^{alpha-1} (1-t)^{-alpha-1} exp(xt/(t-1))`` is checked with
    a 5-point central difference.

    Returns
    -------
    IdentityReport
    """

    def f(tt):
        return tt**alpha * gf_weighted_laguerre_diag(x, alpha, tt)

    deriv = (-f(t + 2 * h) + 8.0 * f(t + h) - 8.0 * f(t - h) + f(t - 2 * h)) / (
        12.0 * h
    )
    rhs = alpha * t ** (alpha - 1.0) * gf_laguerre_elementary(x, alpha, t)
    point = {"x": x, "alpha": alpha, "t": t, "h": h}
    return make_report("laguerre-diag-derivative", point, deriv, rhs, rel_tol)


# The forms ``assocpoly gf-check`` compares, per family:
# {form: (normalization of the left side, closed form(x, params, t))}, in
# the order the command runs them; None for the weighted and ODE forms,
# which build their own report.  Each closed form is called through this
# module's global name when it runs, so that a wrapper patched over the
# name (perfbench's span recorders) sees the call.
GF_FORMS = {
    "meixner": {
        "appell": (Normalization.BY_GAMMA_BETA,
                   lambda x, p, t: gf_meixner_appell(x, p, t)),
        "alt": (Normalization.BY_GAMMA_ONE,
                lambda x, p, t: gf_meixner_alt(x, p, t)),
        "integral": (Normalization.BY_GAMMA_ONE,
                     lambda x, p, t: gf_meixner_integral(x, p, t)),
        "weighted": None,
        "elementary": (Normalization.BY_GAMMA_ONE,
                       lambda x, p, t: gf_meixner_elementary(
                           x, p.beta, p.c, t)),
    },
    "charlier": {
        "phi1": (Normalization.BY_GAMMA_ONE,
                 lambda x, p, t: gf_charlier_phi1(x, p, t)),
        "integral": (Normalization.BY_GAMMA_ONE,
                     lambda x, p, t: gf_charlier_integral(x, p, t)),
        "weighted": None,
        "elementary": (Normalization.BY_GAMMA_ONE,
                       lambda x, p, t: gf_charlier_elementary(x, p.a, t)),
        "ode": None,
    },
    "laguerre": {
        "phi1": (Normalization.PLAIN, lambda x, p, t: gf_laguerre(x, p, t)),
        "weighted": None,
        "diag": (Normalization.WEIGHTED,
                 lambda x, p, t: gf_weighted_laguerre_diag(x, p.alpha, t)),
        "elementary": (Normalization.PLAIN,
                       lambda x, p, t: gf_laguerre_elementary(
                           x, p.alpha, t)),
    },
}
