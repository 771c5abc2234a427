"""Generating functions of the index-shifted families.

Left-hand sides are truncated power series in ``t`` whose coefficients
come from the recurrences, under one of five normalizations; right-hand
sides are closed forms built from Appell F1, Humbert Phi1, Gauss 2F1,
confluent 1F1, elementary factors, or Euler integrals.  The module also
carries the generating-function ODE residual for the Charlier family,
the three convolution identities that mix an index-shifted value with
two classical sequences, the weighted classical generating functions,
and the degenerate-argument reduction chain.  ``GF_FORMS`` is the one
table of the forms ``assocpoly gf-check`` runs: per family, where each
form applies and the check that turns it into an IdentityReport.

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
    _cauchy,
    _check_nonneg_int,
    _exp,
    _near_int_in_range,
    _power,
    _resums,
    _sum_series,
    appell_f1,
    euler_integral,
    gauss_2f1,
    humbert_phi1,
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
from .report import IdentityReport, make_report

_AUTO_N_CAP = 960
# Terms of the c = 1 reduction chain before NotConverged.
_C1_MAX_TERMS = 400
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
    return gf_meixner_elementary(x, beta, c, t) * f1.value


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
    return gf_charlier_elementary(x, a, t) * phi.value


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


def gf_charlier_ode_residual(x, params, t):
    """Residual ``|lhs - rhs|`` of the Charlier generating-function ODE.

    ``G = e^t (1-u)^x Phi1(gamma, x+1; gamma+1; u, -t)``, ``u = t/a``,
    satisfies ``t(a-t) G' = a gamma - [t^2 + (x-a-gamma) t + a gamma] G``,
    with the exact ``G' = G (1 - x/(a-t)) + e^t (1-u)^x gamma/(gamma+1)
    [(x+1)/a Phi1(gamma+1, x+2; gamma+2; u, -t) - Phi1(gamma+1, x+1;
    gamma+2; u, -t)]``.  Raises DomainError unless |t| < |a|.
    """
    report = _charlier_ode_check(x, params, t, 0.0)
    return abs(report.lhs - report.rhs)


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


def _check_laguerre_t(params, t):
    if abs(t) >= 1.0:
        raise DomainError(f"|t| = {abs(t):.6g} is outside the validity disk |t| < 1")


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
    g = weight_gamma if weight_gamma is not None else params.gamma
    # The left side sums the family's series, so t must lie in its disk.
    if isinstance(params, MeixnerParams):
        _check_meixner_t(params, t)
        ident, closed_form = "weighted-gf-meixner", gf_weighted_meixner_rhs
        shape = (params.beta, params.c)
    elif isinstance(params, CharlierParams):
        _check_charlier_t(params, t)
        ident, closed_form = "weighted-gf-charlier", gf_weighted_charlier_rhs
        shape = (params.a,)
    elif isinstance(params, LaguerreParams):
        _check_laguerre_t(params, t)
        ident, closed_form = "weighted-gf-laguerre", gf_weighted_laguerre_rhs
        shape = (params.alpha,)
    else:
        raise TypeError(f"unsupported family parameter type {type(params)!r}")
    spec = GFSpec(
        params, x, t, Normalization.WEIGHTED, _WEIGHTED_N_START, weight_gamma
    )
    lhs, n_used = gf_lhs_auto(spec, rel_tol)
    rhs = closed_form(x, *shape, g, t)
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
    # The sequence, the sign ratio of consecutive terms, whether C(n, k)
    # and n!/(gamma+1)_n enter, and the x and params of the second
    # classical sequence.
    if isinstance(params, MeixnerParams):
        family, seq, flip, binomial = "meixner", meixner_seq, 1.0, True
        comp_x = -x - 1.0
        comp_params = MeixnerParams(2.0 - params.beta, params.c, 0.0)
    elif isinstance(params, CharlierParams):
        family, seq, flip, binomial = "charlier", charlier_seq, -1.0, True
        comp_x, comp_params = -x - 1.0, CharlierParams(-params.a, 0.0)
    elif isinstance(params, LaguerreParams):
        family, seq, flip, binomial = "laguerre", laguerre_seq, 1.0, False
        comp_x, comp_params = -x, LaguerreParams(-params.alpha, 0.0)
    else:
        raise TypeError(f"unsupported family parameter type {type(params)!r}")
    # (gamma+1)_n first: past binary64 it raises before any sequence runs.
    poch = pochhammer(gamma + 1.0, n) if binomial else None
    lhs = seq(x, params, n)[n]
    if binomial:
        lhs = math.factorial(n) * lhs / poch
    main = seq(x, classical(params), n)
    comp = seq(comp_x, comp_params, n)
    acc = Accumulator()
    sign = 1.0
    for k in range(n + 1):
        comb = math.comb(n, k) if binomial else 1
        acc.add(comb * gamma * sign / (gamma + k) * main[n - k] * comp[k])
        sign *= flip
    point = {"x": x, "n": n, "gamma": gamma}
    return make_report(f"convolution-{family}", point, lhs, acc.value,
                       rel_tol)


# ---------------------------------------------------------------------------
# Degenerate-argument reduction chain and the diagonal derivative check
# ---------------------------------------------------------------------------


def _c1_terms(n, p, g, q, g1, arg):
    """The chain's ``3F2(-n, p, g; q, g1; arg)`` as a lone Cauchy sum."""
    return _cauchy(n, [-n, p, g], [q, g1, 1], arg, [0], [])


def c1_reduction_identity(beta, gamma, t, rel_tol=1e-9):
    """Degenerate-argument (c = 1) generating-series reduction as a report.

    Left side: ``sum_n (gamma+beta)_n/n!
    3F2(-n, gamma+beta-1, gamma; gamma+beta, gamma+1; 1) t^n`` summed
    until two consecutive terms fall below ``rel_tol / 10`` times the
    partial sum, the tail-to-check ratio of gf-check, since the tail of a
    ratio-t series exceeds its last term by about 1/(1-t);
    :class:`~assocpoly.errors.NotConverged` is raised if
    that takes more than ``_C1_MAX_TERMS`` (400) terms.  Right side:
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

    # The 3F2s share their escalations; the argument 1 is an input, so that
    # an escalation converts it too.
    resum = _resums(_c1_terms, (gamma + beta - 1.0, gamma, gamma + beta,
                                gamma + 1.0, 1.0), _C1_MAX_TERMS - 1)
    lhs = _sum_series(
        gamma + beta, None, None, t, rel_tol / 10, _C1_MAX_TERMS,
        "c = 1 reduction series did not converge in {max_terms} terms "
        "at t={z!r}", lambda n: EvalOutcome(resum(n), True, 1, 0.0),
    ).value
    rhs = _power(1.0 - t, -beta) * gauss_2f1(
        2.0 - beta, gamma, gamma + 1.0, t
    ).value
    point = {"beta": beta, "gamma": gamma, "t": t}
    return make_report("c1-reduction-chain", point, lhs, rhs, rel_tol)


def laguerre_diag_derivative_check(x=1.0, alpha=0.8, t=0.2, rel_tol=1e-9):
    """Derivative link between the diagonal weighted form and the classical GF.

    With ``W(t) = (1-t)^{-alpha} 1F1(alpha; alpha+1; z)``, ``z = xt/(t-1)``,
    ``d/dt [t^alpha W(t)] = alpha t^{alpha-1} (1-t)^{-alpha-1} e^z`` is
    checked with the exact ``d/dz 1F1(alpha; alpha+1; z) = (alpha /
    (alpha+1)) 1F1(alpha+1; alpha+2; z)`` and ``dz/dt = -x/(t-1)^2``.

    Returns
    -------
    IdentityReport
    """
    z = x * t / (t - 1.0)
    d_z = alpha / (alpha + 1.0) * kummer_1f1(alpha + 1.0, alpha + 2.0, z).value
    deriv = t**alpha * (
        alpha / (t * (1.0 - t)) * gf_weighted_laguerre_diag(x, alpha, t)
        - _power(1.0 - t, -alpha) * x / (t - 1.0) ** 2 * d_z)
    rhs = alpha * t ** (alpha - 1.0) * gf_laguerre_elementary(x, alpha, t)
    point = {"x": x, "alpha": alpha, "t": t}
    return make_report("laguerre-diag-derivative", point, deriv, rhs, rel_tol)


# ---------------------------------------------------------------------------
# The forms of ``assocpoly gf-check``
# ---------------------------------------------------------------------------


def _gf_point(x, params, t):
    """x, t, gamma, then the family's other fields in slot order (gamma
    is the last slot)."""
    return {"x": x, "t": t, "gamma": params.gamma,
            **{name: getattr(params, name) for name in params.__slots__[:-1]}}


def _series_check(identity_id, norm, closed_form):
    """The check of ``closed_form(x, params, t)`` against its series under
    ``norm``.  The closed form runs first, so that a t outside its disk
    raises its own DomainError; the series tail is held ten times below
    the check, as the library's defaults are (1e-9 against 1e-8)."""
    def check(x, params, t, rel_tol):
        rhs = closed_form(x, params, t)
        lhs, n_used = gf_lhs_auto(GFSpec(params, x, t, norm), rel_tol / 10)
        point = {**_gf_point(x, params, t), "N": n_used}
        return make_report(identity_id, point, lhs, rhs, rel_tol)

    return check


def _charlier_ode_check(x, params, t, rel_tol):
    """The ODE of :func:`gf_charlier_ode_residual` as a report: ``t(a-t)
    G'`` against ``a gamma - [t^2 + (x-a-gamma) t + a gamma] G``, relative
    to the equation's largest term once multiplied out.  Neither side is a
    scale: both vanish as t -> 0, and at t = a - x when gamma = 0.  A NaN
    term makes the difference NaN, which fails."""
    _check_charlier_t(params, t)
    a, gamma, g1 = params.a, params.gamma, params.gamma + 1.0
    u, pre = t / a, gf_charlier_elementary(x, a, t)
    value = pre * humbert_phi1(gamma, x + 1.0, g1, u, -t).value if t else 1.0
    deriv = value * (1.0 - x / (a - t))
    # The terms: t(a-t) G, t x G, t(a-t) pre ratio d_u and d_v on the left;
    # a gamma, t^2 G, (x-a-gamma) t G and a gamma G on the right.
    scale = max(abs(t * value) * max(abs(t), abs(x), abs(a), abs(gamma)),
                abs(a * gamma) * max(1.0, abs(value)))
    if gamma != 0:
        ratio, g2 = gamma / g1, gamma + 2.0
        d_u = (x + 1.0) * humbert_phi1(g1, x + 2.0, g2, u, -t).value / a
        d_v = humbert_phi1(g1, x + 1.0, g2, u, -t).value
        deriv = deriv + pre * ratio * (d_u - d_v)
        scale = max(scale, abs(t * (a - t) * pre * ratio)
                    * max(abs(d_u), abs(d_v)))
    lhs = t * (a - t) * deriv
    rhs = a * gamma - (t * t + (x - a - gamma) * t + a * gamma) * value
    rel = abs(lhs - rhs) / scale if scale else abs(lhs - rhs)
    return IdentityReport("gf-charlier-ode", _gf_point(x, params, t), lhs,
                          rhs, rel, rel <= rel_tol, rel_tol)


def _always(params):
    return True


def _shifted(params):
    return params.gamma > 0.0


def _unshifted(params):
    return params.gamma == 0.0


def _diagonal(params):
    return params.gamma == params.alpha != 0.0


# {family: {form: (applies(params), check(x, params, t, rel_tol) ->
# IdentityReport)}}, in the order gf-check runs them.  Each closed form is
# called through this module's global name when it runs, so that a wrapper
# patched over the name (perfbench's span recorders) sees the call.  A
# closed form that takes no params is guarded by the disk check of its
# series, which returns None or raises DomainError.
GF_FORMS = {
    "meixner": {
        "appell": (_always, _series_check(
            "gf-meixner-appell", Normalization.BY_GAMMA_BETA,
            lambda x, p, t: gf_meixner_appell(x, p, t))),
        "alt": (_always, _series_check(
            "gf-meixner-alt", Normalization.BY_GAMMA_ONE,
            lambda x, p, t: gf_meixner_alt(x, p, t))),
        "integral": (_shifted, _series_check(
            "gf-meixner-integral", Normalization.BY_GAMMA_ONE,
            lambda x, p, t: gf_meixner_integral(x, p, t))),
        "weighted": (_shifted, weighted_classical_gf),
        "elementary": (_unshifted, _series_check(
            "gf-meixner-elementary", Normalization.BY_GAMMA_ONE,
            lambda x, p, t: _check_meixner_t(p, t)
            or gf_meixner_elementary(x, p.beta, p.c, t))),
    },
    "charlier": {
        "phi1": (_always, _series_check(
            "gf-charlier-phi1", Normalization.BY_GAMMA_ONE,
            lambda x, p, t: gf_charlier_phi1(x, p, t))),
        "integral": (_shifted, _series_check(
            "gf-charlier-integral", Normalization.BY_GAMMA_ONE,
            lambda x, p, t: gf_charlier_integral(x, p, t))),
        "weighted": (_shifted, weighted_classical_gf),
        "elementary": (_unshifted, _series_check(
            "gf-charlier-elementary", Normalization.BY_GAMMA_ONE,
            lambda x, p, t: _check_charlier_t(p, t)
            or gf_charlier_elementary(x, p.a, t))),
        "ode": (_always, _charlier_ode_check),
    },
    "laguerre": {
        "phi1": (_always, _series_check(
            "gf-laguerre-phi1", Normalization.PLAIN,
            lambda x, p, t: gf_laguerre(x, p, t))),
        "weighted": (_shifted, weighted_classical_gf),
        "diag": (_diagonal, _series_check(
            "gf-laguerre-diag", Normalization.WEIGHTED,
            lambda x, p, t: _check_laguerre_t(p, t)
            or gf_weighted_laguerre_diag(x, p.alpha, t))),
        "elementary": (_unshifted, _series_check(
            "gf-laguerre-elementary", Normalization.PLAIN,
            lambda x, p, t: _check_laguerre_t(p, t)
            or gf_laguerre_elementary(x, p.alpha, t))),
    },
}
