"""Kernel-level oracles and invariants.

Frozen reference values were computed independently with mpmath at 40
decimal digits (gamma ratios, 2F1/1F1 points, Appell F1 via
``mpmath.appellf1``, Humbert Phi1 via a brute-force high-precision
double sum, Euler integrals via ``mpmath.quad``) or follow from exact
closed forms (Chu-Vandermonde, Gauss summation, binomial cases).
"""

import cmath
import contextlib
import importlib
import itertools
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from assocpoly import (
    DenominatorPole,
    DomainError,
    EulerIntegrand,
    EvalOutcome,
    IllConditioned,
    NotConverged,
    PoleArgument,
    QuadratureNotConverged,
    SingularIntegrand,
    appell_f1,
    c1_reduction_identity,
    euler_integral,
    gamma_value,
    gauss_2f1,
    humbert_phi1,
    hyp_terminating,
    kummer_1f1,
    pochhammer,
)
from assocpoly import certified, genfuncs, hyperkernel


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def gamma_ratio(z, a, b):
    """Gamma(z + a) / Gamma(z + b) by the kernel's gamma quotient."""
    return hyperkernel._gamma_quotient([z + a], [z + b])


def _capped(kernel, max_terms):
    """``kernel`` run with every series cut off after ``max_terms`` terms."""
    def capped(*args):
        with patch.object(hyperkernel, "_MAX_TERMS", max_terms):
            return kernel(*args)
    return capped


# ---------------------------------------------------------------------------
# Pochhammer and gamma machinery
# ---------------------------------------------------------------------------


def test_pochhammer_empty_product():
    assert pochhammer(0.37, 0) == 1.0
    assert pochhammer(-5.0, 0) == 1.0


def test_pochhammer_rising_factorial():
    assert pochhammer(2.0, 3) == 24.0


def test_pochhammer_hits_zero():
    assert pochhammer(-3.0, 5) == 0.0


def test_gamma_value_pole():
    with pytest.raises(PoleArgument):
        gamma_value(0.0)
    with pytest.raises(PoleArgument):
        gamma_value(-3.0)
    assert rel(gamma_value(0.5), math.sqrt(math.pi)) < 1e-15


@pytest.mark.parametrize("w", [
    0.5 + 0.5j, 1.0 + 1e-9j, 2.0 - 0.25j, 7.9 + 0.1j, 3.0 + 30.0j,
    -0.4 + 0.01j, -1.3 + 0.2j, -2.5 - 0.3j, -4.6 + 0.5j, -7.999 + 1e-3j,
    -20.3 + 2.0j, 0.1 - 12.0j,
])
def test_gamma_value_complex_matches_scipy(w):
    # Both sides of the reflection at Re(w) = 1/2 and of the Stirling
    # shift at |w| = 8, near poles and far up the imaginary axis.
    ref = complex(scipy.special.gamma(w))
    assert abs(gamma_value(w) - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("z, a, b", [
    (-0.5, 0.0, 1.0), (-1.5, 0.0, -1.0), (-2.7, 0.4, -0.9), (3.3, -5.6, 1.2),
])
def test_gamma_ratio_real_signs_match_scipy(z, a, b):
    ref = scipy.special.gamma(z + a) / scipy.special.gamma(z + b)
    assert rel(gamma_ratio(z, a, b), ref) < 1e-13


def test_gamma_ratio_integer_steps():
    assert rel(gamma_ratio(5.0, 1.0, 0.0), 5.0) < 1e-14
    assert rel(gamma_ratio(0.0, 3.0, 1.0), 2.0) < 1e-14


def test_gamma_ratio_frozen_oracle():
    assert rel(gamma_ratio(50.0, 0.7, 0.2), 7.0675756515492072) < 1e-13
    # within 1% of 50^0.5
    assert abs(gamma_ratio(50.0, 0.7, 0.2) / math.sqrt(50.0) - 1.0) < 0.01


def test_gamma_ratio_pole():
    with pytest.raises(PoleArgument):
        gamma_ratio(0.0, 0.0, 1.0)


def test_gamma_ratio_stirling_bound():
    # |Gamma(z+a)/Gamma(z+b) z^(b-a) - 1| <= 2|a-b||a+b-1|/z
    a, b = 0.7, 0.2
    for z in (50.0, 200.0):
        dev = abs(gamma_ratio(z, a, b) * z ** (b - a) - 1.0)
        assert dev <= 2.0 * abs(a - b) * abs(a + b - 1.0) / z


@given(
    a=st.floats(-4.0, 4.0),
    m=st.integers(0, 8),
    n=st.integers(0, 8),
)
def test_pochhammer_addition_law(a, m, n):
    # (a)_{m+n} = (a)_m (a+m)_n
    lhs = pochhammer(a, m + n)
    rhs = pochhammer(a, m) * pochhammer(a + m, n)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


# ---------------------------------------------------------------------------
# Terminating series
# ---------------------------------------------------------------------------


def test_terminating_chu_vandermonde():
    # 2F1(-3, 2; 4; 1) = (4-2)_3 / (4)_3 = 24/120
    assert rel(hyp_terminating([-3.0, 2.0], [4.0], 1.0, 3), 0.2) < 1e-14


def test_terminating_3f2_small():
    assert rel(hyp_terminating([-2.0, 1.0, 2.0], [2.0, 3.0], 1.0, 2), 0.5) < 1e-14


def test_terminating_binomial():
    # 2F1(-2, 1; 1; 0.3) = (1 - 0.3)^2
    assert rel(hyp_terminating([-2.0, 1.0], [1.0], 0.3, 2), 0.49) < 1e-14


def test_terminating_denominator_pole():
    with pytest.raises(DenominatorPole):
        hyp_terminating([-3.0, 1.0], [-1.5, -1.0], 1.0, 3)


@given(
    n=st.integers(0, 12),
    b=st.floats(-3.0, 3.0),
    c=st.floats(0.3, 5.0),
)
def test_terminating_chu_vandermonde_property(n, b, c):
    lhs = hyp_terminating([-float(n), b], [c], 1.0, n)
    rhs = pochhammer(c - b, n) / pochhammer(c, n)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


# ---------------------------------------------------------------------------
# Gauss 2F1
# ---------------------------------------------------------------------------


def test_gauss_2f1_equal_bc_binomial():
    out = gauss_2f1(0.5, 3.0, 3.0, 0.5)
    assert rel(out.value, math.sqrt(2.0)) < 1e-13
    assert out.converged


def test_gauss_2f1_terminating_zero():
    assert abs(gauss_2f1(-2.0, -1.0, 2.0, -1.0).value) < 1e-14


def test_gauss_2f1_generic_point():
    assert rel(gauss_2f1(0.3, 1.2, 0.9, 0.5).value,
               1.3333734867193642) < 1e-12


def test_gauss_2f1_at_one_gauss_summation():
    assert rel(gauss_2f1(0.3, 0.4, 2.0, 1.0).value,
               1.1054192265872007) < 1e-12


def test_gauss_2f1_near_one_connection():
    assert rel(gauss_2f1(0.25, 0.75, 1.5, 0.97).value,
               1.3056537796268350) < 1e-11


def test_gauss_2f1_negative_argument():
    assert rel(gauss_2f1(-0.4, 0.9, 1.3, -2.5).value,
               1.4777134977239057) < 1e-11


def test_gauss_2f1_pfaff_invariant():
    for a, b, c, z in ((0.3, 1.2, 2.1, 0.45), (-1.5, 0.7, 0.9, -0.6)):
        base = gauss_2f1(a, b, c, z).value
        pfaff = (1.0 - z) ** (-a) * gauss_2f1(a, c - b, c, z / (z - 1.0)).value
        assert rel(base, pfaff) < 1e-12


def test_gauss_2f1_euler_invariant():
    for a, b, c, z in ((0.3, 1.2, 2.1, 0.45), (2.2, -0.4, 3.3, 0.3)):
        base = gauss_2f1(a, b, c, z).value
        euler = (1.0 - z) ** (c - a - b) * gauss_2f1(c - a, c - b, c, z).value
        assert rel(base, euler) < 1e-12


def test_gauss_2f1_large_parameter_asymptotic_shrinks():
    # 2F1(a + eps*lam, b; c + lam; z) -> (1 - eps*z)^(-b); deviation must
    # shrink by at least 5x between lam = 1e2 and lam = 1e3.
    a, b, c, z = 0.3, 1.2, 0.9, 0.5
    for eps in (0.0, 1.0):
        devs = []
        for lam in (1e2, 1e3):
            value = gauss_2f1(a + eps * lam, b, c + lam, z).value
            devs.append(abs(value - (1.0 - eps * z) ** (-b)))
        assert devs[1] <= devs[0] / 5.0


@pytest.mark.parametrize(
    "a, b, c, z, expected",
    [
        (1e-9, 0.5, 0.375, 0.5, 1.000000000955102793771988840),
        (-0.9999999997, 0.5, 0.375, -0.8, 2.066666666235207608183487604),
        (0.7, -0.9999999997, 1.6, -3.0, 2.312499999362234321279153223),
        (-2.0000000001, 0.5, 0.375, 0.8, -0.2024242424260816615304043065),
    ],
    ids=["direct", "z/(z-1)", "1/(1-z)", "slow-direct"],
)
def test_gauss_2f1_near_nonpositive_integer_keeps_its_tail(a, b, c, z, expected):
    # a or b lies within 1e-9 of a nonpositive integer but not on it, on
    # each series branch of the ladder; truncating there cost 5e-11 to
    # 1e-9 relative.  References are mpmath at 40 digits.
    assert rel(gauss_2f1(a, b, c, z).value, expected) < 1e-13


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(-3.0, 3.0),
    b=st.floats(-3.0, 3.0),
    c=st.floats(0.3, 5.0),
    z=st.floats(-0.9, 0.9),
)
def test_gauss_2f1_matches_scipy(a, b, c, z):
    try:
        mine = gauss_2f1(a, b, c, z).value
    except (IllConditioned, DomainError, PoleArgument):
        assume(False)
    ref = float(scipy.special.hyp2f1(a, b, c, z))
    assume(math.isfinite(ref))
    assert abs(mine - ref) <= 1e-8 * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# Kummer 1F1
# ---------------------------------------------------------------------------


def test_kummer_exponential_case():
    assert rel(kummer_1f1(1.0, 2.0, 1.0).value, math.e - 1.0) < 1e-13


def test_kummer_frozen_negative_argument():
    assert rel(kummer_1f1(0.8, 1.7, -3.2).value,
               0.33760072127030674) < 1e-12


def test_kummer_transformation_invariant():
    for a, b, z in ((0.7, 1.9, -1.5), (-1.3, 0.8, 0.6), (2.4, 3.1, 2.0)):
        base = kummer_1f1(a, b, z).value
        flip = math.exp(z) * kummer_1f1(b - a, b, -z).value
        assert rel(base, flip) < 1e-12


def test_kummer_first_parameter_zero_is_one():
    assert kummer_1f1(0.0, 0.7, -2.0).value == 1.0


@pytest.mark.parametrize(
    "a, expected",
    [
        (1e-9, 1.000000012859529579740079898692854450606),
        (-3 + 1e-10, 1.740031897611337662180560867372284953111),
    ],
    ids=["near-zero", "near-minus-three"],
)
def test_kummer_near_nonpositive_integer_keeps_its_tail(a, expected):
    # a is within 1e-9 of a nonpositive integer but not on it, so the
    # series does not terminate; truncating it costs about |a + m| times
    # the last retained term (1.3e-8 and 6e-11 relative here).
    assert rel(kummer_1f1(a, 0.375, 2.0).value, expected) < 1e-14


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(-3.0, 3.0),
    b=st.floats(0.3, 5.0),
    z=st.floats(-5.0, 5.0),
)
def test_kummer_matches_scipy(a, b, z):
    mine = kummer_1f1(a, b, z).value
    ref = float(scipy.special.hyp1f1(a, b, z))
    assume(math.isfinite(ref))
    assert abs(mine - ref) <= 1e-8 * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# Appell F1 and Humbert Phi1
# ---------------------------------------------------------------------------


def test_appell_f1_frozen_oracle():
    out = appell_f1(0.8, 0.6, 1.1, 2.3, 0.3, -0.4)
    assert rel(out.value, 0.9331609234608286) < 1e-12
    assert out.converged


def test_appell_f1_reduces_to_2f1_on_diagonal():
    lhs = appell_f1(0.9, 0.4, 1.3, 2.2, 0.3, 0.3).value
    rhs = gauss_2f1(0.9, 1.7, 2.2, 0.3).value
    assert rel(lhs, rhs) < 1e-12


def test_appell_f1_transformation_invariant():
    alpha, b1, b2, sigma, x, y = 0.8, 0.6, 1.1, 2.3, -0.3, 0.2
    base = appell_f1(alpha, b1, b2, sigma, x, y).value
    xp, yp = x / (x - 1.0), y / (y - 1.0)
    trans = ((1.0 - x) ** (-b1) * (1.0 - y) ** (-b2)
             * appell_f1(sigma - alpha, b1, b2, sigma, xp, yp).value)
    assert rel(base, trans) < 1e-12


def test_appell_f1_outside_domain_raises():
    with pytest.raises(DomainError):
        appell_f1(0.8, 0.6, 1.1, 2.3, 1.2, 3.5)


def test_humbert_phi1_frozen_oracle():
    out = humbert_phi1(0.7, 1.5, 2.2, 0.4, -0.9)
    assert rel(out.value, 0.9327821388312732) < 1e-12
    assert out.converged


def test_humbert_phi1_confluence_limit_of_f1():
    mu = 1.0e6
    for alpha, lam, sigma, x, y in (
        (0.8, 0.6, 2.3, 0.3, -0.7),
        (1.4, -0.5, 1.9, -0.2, 1.1),
    ):
        lhs = appell_f1(alpha, lam, mu, sigma, x, y / mu).value
        rhs = humbert_phi1(alpha, lam, sigma, x, y).value
        assert rel(lhs, rhs) < 1e-5


@pytest.mark.parametrize("kernel, args, value", [
    (appell_f1, (1.0, -3.0, 0.7, 1.3, 0.4, 0.0), 0.3590757069017939),
    (humbert_phi1, (0.8, -3.0, 1.6, 0.5, 0.0), 0.47596153846153844),
])
def test_series_ending_on_its_last_allowed_term_converges(kernel, args, value):
    # beta1 = -3 ends the series after its fourth term, which is exactly
    # the cap: the polynomial is complete, not a partial sum.
    out = _capped(kernel, 4)(*args)
    assert (out.value, out.converged, out.terms_used, out.err_estimate) == (
        value, True, 4, 0.0)


def test_humbert_phi1_x_outside_disk_raises():
    with pytest.raises(DomainError):
        humbert_phi1(0.7, 1.5, 2.2, 1.0, -0.9)


def _direct_phi1(alpha1, lam, alpha2, x, y):
    """Phi1 summed at x itself, untransformed."""
    return hyperkernel._grouped_series(alpha1, lam, None, alpha2, x, y)


@pytest.mark.parametrize("x", [-0.55, -0.7, -0.89, cmath.rect(0.6, 2.2),
                               cmath.rect(0.85, -2.6), cmath.rect(0.75, 1.9),
                               0.3 + 0.5j, 0.45 - 0.6j])
@pytest.mark.parametrize("y", [-2.3, 1.7, 0.8 - 1.5j, -1.2 + 0.4j])
def test_humbert_phi1_transformed_matches_the_direct_series(x, y):
    # 1/2 < |x| < 0.9 with Re x < 1/2: where |x/(x-1)| < |x| the series is
    # summed at x/(x-1); the last two points lie closer to 1 and are not.
    for alpha1, lam, alpha2 in ((0.7, 1.5, 2.2), (1.3, -0.6, 0.9)):
        out = humbert_phi1(alpha1, lam, alpha2, x, y)
        direct = _direct_phi1(alpha1, lam, alpha2, x, y)
        assert abs(out.value - direct.value) <= 1e-13 * abs(direct.value)


@pytest.mark.parametrize("args, value", [
    ((2.1, 2.4, 1.4, -0.7283554403636052 - 0.4381761660482445j, -1.2 + 0.4j),
     -0.031266036160613464 + 0.007370646305037237j),
    ((0.7, 1.9, 1.7, -0.8, 1.6), 1.1722038844931542),
    ((1.3, -0.6, 0.9, -0.89, -2.3), -0.04370425464686002),
])
def test_humbert_phi1_transformed_is_as_close_as_the_direct_series(args, value):
    # References: mpmath.hyper2d at 40 digits.  At the first point the
    # direct series is 1.0e-13 off and the transformed one 2.9e-15.
    out = humbert_phi1(*args)
    direct = _direct_phi1(*args)
    assert abs(out.value - value) <= 5e-15 * abs(value)
    assert abs(out.value - value) <= abs(direct.value - value)


def test_humbert_phi1_transformed_takes_fewer_terms():
    # gf_laguerre's Phi1 at t = 4/9 has w = t/(t-1) = -0.8, summed at t.
    args = (0.7, 1.9, 1.7, -0.8, 1.6)
    out = humbert_phi1(*args)
    assert out.terms_used * 3 <= _direct_phi1(*args).terms_used


@pytest.mark.parametrize("x", [-1.0, 0.6 + 0.8j, -1.2, 0.9j - 0.5])
def test_humbert_phi1_outside_the_unit_disk_raises(x):
    with pytest.raises(DomainError, match=r"Phi1 requires \|x\| < 1"):
        humbert_phi1(0.7, 1.5, 2.2, x, -0.9)


def test_humbert_phi1_sigma_pole_raises():
    with pytest.raises(PoleArgument):
        humbert_phi1(0.7, 1.5, -2.0, 0.4, -0.9)


def test_humbert_phi1_second_variable_only_is_kummer():
    # lam = 0 kills the x series: Phi1(a, 0; s; x, y) = 1F1(a; s; y)
    lhs = humbert_phi1(0.9, 0.0, 1.8, 0.5, -1.1).value
    rhs = kummer_1f1(0.9, 1.8, -1.1).value
    assert rel(lhs, rhs) < 1e-13


# ---------------------------------------------------------------------------
# F1 and Phi1: the grouped series against exact sums
# ---------------------------------------------------------------------------


def _gmul(p, q):
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _exact_partial_sums(a, b1, b2, c, x, y):
    """Exact terms and partial sums over s = m + n of F1(a; b1, b2; c; x,
    y), or Phi1(a, b1; c; x, y) when b2 is None, for real a and c.

    Every input is ``(u + i w) / 2**k`` for integers u, w (one k for all).
    Yields ``(term, total, den)``: the numerators ``(re, im)`` of term s and
    of the sum to it, over ``den = 2**(2ks) s! prod_{j<s} (c + j) 2**k``.
    The term's numerator is ``2**(2ks) s! (a)_s C_s 2**(ks)``, and C_s
    steps by ``(s+1) C_{s+1} = ((s + b1) x + (u s + w) y) C_s - (u (s - 1 +
    b1) + w) x y C_{s-1}`` with u, w = 1, b2 (0, 1 for Phi1), multiplied
    through so that every step is in integers.
    """
    u = 0 if b2 is None else 1
    parts = [(Fraction(v.real), Fraction(v.imag)) for v in
             map(complex, (a, b1, 1.0 if b2 is None else b2, c, x, y))]
    k = max(f.denominator for pair in parts for f in pair).bit_length() - 1
    one = 1 << k
    (a, _), b1, w, (c, _), x, y = [(int(re * one), int(im * one))
                                   for re, im in parts]
    xy = _gmul(x, y)
    prev, term, total, den = (0, 0), (1, 0), (1, 0), 1
    for s in itertools.count():
        yield term, total, den
        p1 = _gmul((s * one + b1[0], b1[1]), x)
        p2 = _gmul((u * s * one + w[0], w[1]), y)
        pn = _gmul((p1[0] + p2[0], p1[1] + p2[1]), term)
        qn = _gmul(_gmul((u * ((s - 1) * one + b1[0]) + w[0], u * b1[1] + w[1]),
                         xy), prev)
        f, g = a + s * one, s * one * (a + (s - 1) * one)
        prev, term = term, (f * (pn[0] - g * qn[0]), f * (pn[1] - g * qn[1]))
        step = ((c + s * one) * (s + 1)) << 2 * k
        den *= step
        total = (total[0] * step + term[0], total[1] * step + term[1])


def _exact_grouped(a, b1, b2, c, x, y):
    """The exact sum truncated after two terms below 2**-64 times it (a tail
    far below half an ulp), each component correctly rounded."""
    inputs = (a, b1, b2, c, x, y)
    small = 0
    for term, total, den in _exact_partial_sums(*inputs):
        small = small + 1 if max(map(abs, term)) << 64 <= max(map(abs, total)) else 0
        if small == 2:
            # int / int rounds once.
            value = complex(total[0] / den, total[1] / den)
            return value if any(isinstance(v, complex) for v in inputs) else value.real


def _double_sum(a, b1, b2, c, x, y, top):
    """``sum_{m + n <= top} (a)_{m+n} (b1)_m (b2)_n x^m y^n / ((c)_{m+n} m!
    n!)`` in exact (Gaussian) rationals, term by term; ``(b2)_n`` is 1 for
    Phi1."""
    a, b1, c, x, y = map(certified._exact, (a, b1, c, x, y))

    def poch(v, n):
        out = Fraction(1)
        for j in range(n):
            out = out * (v + j)
        return out

    total = Fraction(0)
    for m in range(top + 1):
        for n in range(top + 1 - m):
            term = (poch(a, m + n) * poch(b1, m)
                    * (1 if b2 is None else poch(certified._exact(b2), n))
                    / (poch(c, m + n) * math.factorial(m) * math.factorial(n)))
            for _ in range(m):
                term = term * x
            for _ in range(n):
                term = term * y
            total = total + term
    return total


@pytest.mark.parametrize("args", [
    (0.7, 1.5, None, 2.2, 0.4, 30j),
    (0.9, -1.3, None, 1.1, -0.45 + 0.1j, -1.4 + 3j),
    (2.5, -3.7, 4.2, 0.6, 0.7, -0.8),
    (1.5, 2.5 - 0.5j, -4.5, 0.7, -0.6 + 0.3j, 0.85j),
])
def test_exact_reference_is_the_double_sum(args):
    # The reference's recurrence in integers gives the partial sums of the
    # double series exactly.
    top = 10
    _, (re, im), den = next(itertools.islice(_exact_partial_sums(*args), top, None))
    exact = certified._Gaussian(Fraction(re, den), Fraction(im, den))
    assert exact == _double_sum(*args, top)


def _kernel(a, b1, b2, c, x, y):
    if b2 is None:
        return humbert_phi1(a, b1, c, x, y)
    return appell_f1(a, b1, b2, c, x, y)


@contextlib.contextmanager
def _escalations():
    """The argument tuples of every certified pass run inside the block."""
    calls = []
    engine = certified._certified_cauchy_sum

    def spy(*args):
        calls.append(args)
        return engine(*args)

    with patch.object(certified, "_certified_cauchy_sum", spy):
        yield calls


# (kernel arguments, escalates).  Phi1 at a large imaginary y (condition
# 7e10); near the disk edge at Re y < 0; where the binary64 sum at x would
# be 2.2e-10 off at condition 1.5e6, so it is summed at x/(x-1); at large
# |y| of either sign.  F1 near |y| = 1, on the edge |x| = |y| = 0.9, with
# cancellation (condition 2.7e7), and complex.
_HARD_POINTS = [
    ((0.7, 1.5, None, 2.2, 0.4, 30j), True),
    ((0.5, 3.3, None, 1.5, 0.95, -3.0), False),
    ((3.934346080356606, -1.464855673576777, None, 0.574330541477521,
      0.19724433706830435 + 0.3906873897643358j, -5.632634054877357), False),
    ((0.9, 1.3, None, 1.1, -0.45 + 0.1j, -14 + 3j), False),
    ((1.2, 0.7, None, 1.9, 0.3 - 0.2j, 12 + 20j), False),
    ((0.8, 0.6, 1.1, 2.3, 0.3, 0.95), False),
    ((0.8, 0.6, 1.1, 2.3, 0.9, -0.9), False),
    ((2.5, -3.7, 4.2, 0.6, 0.7, -0.8), True),
    ((0.8, 0.6, 1.1, 2.3, 0.5 + 0.5j, -0.7j), False),
    ((1.5, 2.5, -4.5, 0.7, -0.6 + 0.3j, 0.85j), True),
]


@pytest.mark.parametrize("args, escalates", _HARD_POINTS)
def test_grouped_series_at_hard_points(args, escalates):
    # An escalated value is the exact sum correctly rounded.  An unescalated
    # one keeps the digits its condition estimate leaves: at most
    # _ESCALATE_COND * 2**-52 = 2.2e-12 lost (the Phi1 at y = 12 + 20i, at
    # condition 7.2e3, is 1.5e-12 off), beside a tail below _REL_TOL.
    with _escalations() as calls:
        value = _kernel(*args).value
    reference = _exact_grouped(*args)
    assert bool(calls) == escalates
    if escalates:
        assert value == reference
    else:
        assert abs(value - reference) <= (hyperkernel._ESCALATE_COND * 2.0**-52
                                          * abs(reference))


def test_grouped_series_escalates_exactly_above_the_bound():
    args = (0.7, 1.5, None, 2.2, 0.4, 30j)
    cond = hyperkernel._grouped_sum(*args, hyperkernel._REL_TOL)[3]
    assert 6e10 < cond < 8e10
    for bound, escalates in ((cond, False), (math.nextafter(cond, 0), True)):
        with (patch.object(hyperkernel, "_ESCALATE_COND", bound),
              _escalations() as calls):
            hyperkernel._grouped_series(*args)
        assert len(calls) == escalates


def test_grouped_series_certifies_an_exact_zero_component_in_fixed_point():
    # F1 with b1 = b2 and y = conj(x) is real, so the imaginary part of the
    # escalated truncation is an exact zero.  The zero rule certifies it in
    # fixed point; the exact loop of _sum, which took about a minute here,
    # never runs.
    args = (2.5, -3.7, -3.7, 0.6, 0.85 + 0.1j, 0.85 - 0.1j)
    exact_loops = []
    exact_sum = certified._sum

    def spy(*spec):
        exact_loops.append(spec)
        return exact_sum(*spec)

    start = time.perf_counter()
    with patch.object(certified, "_sum", spy), _escalations() as calls:
        value = appell_f1(*args).value
    assert time.perf_counter() - start < 1.0
    assert len(calls) == 1 and exact_loops == []
    assert repr(value) == "(0.007732112520010318+0j)"


def _draw(rng):
    """Real and complex F1 and Phi1 arguments with |x| <= 0.6, F1's |y| <= 0.6
    and Phi1's |y| <= 8."""
    u = rng.uniform
    kind = rng.randrange(4)
    a, b1, b2, c = u(0.1, 4.0), u(-2.0, 3.0), u(-2.0, 3.0), u(0.1, 4.0)
    r = 8.0 if kind < 2 else 0.6
    if kind % 2:
        x = cmath.rect(u(0.0, 0.6), u(-math.pi, math.pi))
        y = cmath.rect(u(0.0, r), u(-math.pi, math.pi))
    else:
        x, y = u(-0.6, 0.6), u(-r, r)
    return (a, b1, None if kind < 2 else b2, c, x, y)


def test_grouped_series_on_a_seeded_draw():
    # The certified pass runs exactly when the condition estimate of the
    # binary64 sum exceeds _ESCALATE_COND (9 of these points); every value
    # it leaves alone is within 1e-12 of the exact sum (the worst is 3.4e-13).
    rng = random.Random(36)
    grouped_sum = hyperkernel._grouped_sum
    conds = []

    def spy(*args):
        out = grouped_sum(*args)
        if args[-1] == hyperkernel._REL_TOL:
            conds.append(out[3])
        return out

    escalated = 0
    for _ in range(1000):
        args = _draw(rng)
        conds.clear()
        with patch.object(hyperkernel, "_grouped_sum", spy), \
                _escalations() as calls:
            value = _kernel(*args).value
        assert len(calls) == (conds[0] > hyperkernel._ESCALATE_COND)
        escalated += len(calls)
        reference = _exact_grouped(*args)
        if not calls:
            assert abs(value - reference) <= 1e-12 * abs(reference), args
    assert 0 < escalated < 100


def test_kernel_warm_f1_and_phi1_calls_never_escalate(monkeypatch):
    # The F1 and Phi1 arguments of the generating-function operations that
    # open the benchmark's warm stream of seeds 1, 2 and 32.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache in perfbench/
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                    / "perfbench"))
    kernel = importlib.import_module("kernel")
    recorded = []
    for name in ("appell_f1", "humbert_phi1"):
        def record(*args, kernel=getattr(genfuncs, name)):
            recorded.append((kernel, args))
            return kernel(*args)
        monkeypatch.setattr(genfuncs, name, record)
    for seed in (1, 2, 32):
        for op in itertools.islice(kernel.stream(seed), 400):
            if op.name.startswith("gf-"):
                op.run()
    monkeypatch.undo()
    assert len(recorded) > 200
    with _escalations() as calls:
        for kernel, args in recorded:
            kernel(*args)
    assert calls == []


# ---------------------------------------------------------------------------
# Euler integrals
# ---------------------------------------------------------------------------


def test_euler_integral_constant():
    out = euler_integral(EulerIntegrand(1.0))
    assert rel(out.value, 1.0) < 1e-13


def test_euler_integral_power_weight():
    assert rel(euler_integral(EulerIntegrand(0.5)).value, 2.0) < 1e-12


def test_euler_integral_single_factor():
    # int_0^1 u (1 - u/2)^(-1) du = 4 ln 2 - 2
    out = euler_integral(EulerIntegrand(2.0, ((0.5, -1.0),)))
    assert rel(out.value, 0.7725887222397812) < 1e-12


def test_euler_integral_exponential_scale():
    out = euler_integral(EulerIntegrand(1.0, (), -1.0))
    assert rel(out.value, 0.6321205588285577) < 1e-12


def test_euler_integral_two_factors_and_exp():
    out = euler_integral(EulerIntegrand(1.5, ((0.3, 2.2), (0.8, -0.6)), 0.4))
    assert rel(out.value, 0.85608225801690866) < 1e-11


def test_euler_integral_nonpositive_gamma_raises():
    with pytest.raises(DomainError):
        euler_integral(EulerIntegrand(0.0))
    with pytest.raises(DomainError):
        euler_integral(EulerIntegrand(-1.5))


def test_euler_integral_singular_base_raises():
    with pytest.raises(SingularIntegrand):
        euler_integral(EulerIntegrand(1.0, ((1.0, -0.5),)))


@pytest.mark.parametrize("base, exponent", [(2 + 0j, -1.0), (1.5 + 0j, -0.5)])
def test_euler_integral_complex_singular_base_raises(base, exponent):
    # A complex base on the real axis at or past 1 puts the zero of 1 - b*u
    # on (0, 1] as a real one does; it used to divide by zero or run every
    # level before QuadratureNotConverged.
    with pytest.raises(SingularIntegrand) as info:
        euler_integral(EulerIntegrand(0.5, ((base, exponent),)))
    assert str(info.value) == (
        f"factor base {base!r} puts the zero of (1 - b*u) within 1e-8 of "
        "(0, 1]")


@pytest.mark.parametrize("base", [2 + 1e-8j, 2 + 1e-20j, 1.5 + 1e-12j])
def test_euler_integral_base_just_off_the_axis_is_singular(base):
    # The zero 1/b of 1 - b*u lies within |Im b|/|b|^2 of (0, 1]; these
    # bases used to run all 12 levels (about 50 ms) before
    # QuadratureNotConverged.
    with pytest.raises(SingularIntegrand):
        euler_integral(EulerIntegrand(0.5, ((base, -1.0),)))


@pytest.mark.parametrize("base", [2 + 1e-2j, 1.5 + 1e-2j, 1.000001 + 1e-6j])
def test_euler_integral_base_clear_of_the_axis_converges(base):
    # int_0^1 u^(-1/2) / (1 - b*u) du = 2 atanh(sqrt b) / sqrt b.
    out = euler_integral(EulerIntegrand(0.5, ((base, -1.0),)))
    root = cmath.sqrt(base)
    assert out.converged
    assert rel(out.value, 2 * cmath.atanh(root) / root) < 1e-10


def test_euler_integral_raises_once_its_levels_run_out(monkeypatch):
    monkeypatch.setattr(hyperkernel, "_QUAD_LEVELS", 1)
    with pytest.raises(QuadratureNotConverged) as info:
        euler_integral(EulerIntegrand(1.5, ((0.3, 2.2), (0.8, -0.6)), 0.4))
    assert str(info.value) == (
        "tanh-sinh refinement did not converge within 1 levels")


# Integrands with every real and complex combination of gamma, factor base,
# exponent and exponential scale, including a complex zero scale.
_EULER_PINNED_CASES = [
    EulerIntegrand(1.5, ((0.3, 2.2), (0.8, -0.6)), 0.4),
    EulerIntegrand(0.8 + 0.3j, ((0.3, 1.1),)),
    EulerIntegrand(1.1 - 0.4j, (), 0.5),
    EulerIntegrand(1.2, ((0.4 + 0.3j, -0.7),)),
    EulerIntegrand(0.7, ((0.5 + 0.5j, 2.0), (0.2, -1.3))),
    EulerIntegrand(0.6, ((0.5, 0.3 - 0.8j),)),
    EulerIntegrand(1.3, ((0.2, -1.5),), -0.4 + 0.6j),
    EulerIntegrand(0.9, ((0.6, 0.5),), 0j),
    EulerIntegrand(2.0, ((-0.7, 0.5), (0.99, -0.5)), -1.0),
]

# repr of the outcome of each pinned integrand.
_EULER_PINNED = [
    'EvalOutcome(value=0.8560822580169086, converged=True, terms_used=97, err_estimate=0.0)',
    'EvalOutcome(value=(0.9193917986015391-0.38142657443963984j), converged=True, terms_used=97, err_estimate=0.0)',
    'EvalOutcome(value=(1.077927887860918+0.3413860218534857j), converged=True, terms_used=97, err_estimate=5.551115123125783e-17)',
    'EvalOutcome(value=(0.9600264538482479+0.15682496408183227j), converged=True, terms_used=97, err_estimate=2.7755575615628914e-17)',
    'EvalOutcome(value=(0.903847721708467-0.4760037152302385j), converged=True, terms_used=97, err_estimate=5.551115123125783e-17)',
    'EvalOutcome(value=(1.5186591755576782+0.26282743275529286j), converged=True, terms_used=97, err_estimate=0.0)',
    'EvalOutcome(value=(0.6860857111645883+0.23995051409663887j), converged=True, terms_used=97, err_estimate=2.7755575615628914e-17)',
    'EvalOutcome(value=0.9326025239603744, converged=True, terms_used=97, err_estimate=1.1102230246251565e-16)',
    'EvalOutcome(value=0.6706624547457773, converged=True, terms_used=193, err_estimate=0.0)',
]


def test_euler_integral_is_bit_pinned():
    got = [repr(euler_integral(spec)) for spec in _EULER_PINNED_CASES]
    assert got == _EULER_PINNED


# ---------------------------------------------------------------------------
# Refusal branches of the kernels
# ---------------------------------------------------------------------------


_REFUSALS = {
    "2f1-at-one": (
        lambda: gauss_2f1(1, 1, 1.5, 1.0), DomainError,
        "2F1 at z=1 requires Re(c-a-b) > 0"),
    "2f1-exclusion-disk": (
        lambda: gauss_2f1(1, 1, 1.5, 0.99), DomainError,
        "2F1 argument z=0.99 is inside the exclusion disk around 1 with "
        "Re(c-a-b) <= 0"),
    "2f1-connection-near-integer": (
        lambda: gauss_2f1(0.3, 1.3, 2.0, 1 + 2j), IllConditioned,
        "only the 1/(1-z) connection formula reaches z=(1+2j), but "
        "a-b=-1.0 is within 1e-6 of an integer"),
    "2f1-no-route": (
        lambda: gauss_2f1(0.3, 0.7, 1.5, 1.5), DomainError,
        "no evaluation route for 2F1 at z=1.5"),
    "1f1-pole": (
        lambda: kummer_1f1(0.5, -2.0, 1.0), PoleArgument,
        "1F1 denominator parameter b=-2.0 is a gamma pole"),
    "f1-pole": (
        lambda: appell_f1(0.5, 0.5, 0.5, -1.0, 0.2, 0.2), PoleArgument,
        "F1 denominator parameter sigma=-1.0 is a gamma pole"),
    "f1-singular-transformation": (
        lambda: appell_f1(0.5, 0.5, 0.5, 1.5, 1.0, 0.2), DomainError,
        "F1 transformation is singular at x=1 or y=1"),
    "terminating-without-degree": (
        lambda: hyp_terminating([0.5, 1.0], [2.0], 0.5, 3), ValueError,
        "no numerator parameter matches -top_index = -3"),
}


@pytest.mark.parametrize("name", list(_REFUSALS))
def test_kernel_refusal_branches(name):
    call, error, message = _REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# The series stopping rule
# ---------------------------------------------------------------------------


def test_eval_outcome_error_estimate_honours_tolerance():
    out = gauss_2f1(0.3, 1.2, 0.9, 0.5)
    assert out.converged
    assert out.err_estimate <= hyperkernel._REL_TOL * abs(out.value) * 10.0
    assert out.terms_used <= hyperkernel._MAX_TERMS


# ---------------------------------------------------------------------------
# Bit pinning of the series kernels
# ---------------------------------------------------------------------------


def _pinned_cases():
    """Seeded real and complex kernel calls, as ``(kernel, args)`` pairs."""
    rng = random.Random(6)
    u = rng.uniform

    def w(r):
        return cmath.rect(r, u(-3.0, 3.0))

    cases = []
    for _ in range(3):
        a, b, c = u(-1.5, 2.5), complex(u(-1.5, 2.5), u(-1.0, 1.0)), u(0.3, 3.0)
        for z in (u(-0.5, 0.5), u(0.55, 0.95), u(-6.0, -2.5), w(u(0.1, 0.9))):
            cases.append((gauss_2f1, (a, b.real, c, z)))
            cases.append((gauss_2f1, (a, b, c, z)))
    for _ in range(3):
        a, b = u(-2.5, 2.5), u(0.2, 3.0)
        for z in (u(0.1, 4.0), u(-6.0, -0.1), w(u(0.5, 5.0))):
            cases.append((kummer_1f1, (a, b, z)))
            cases.append((kummer_1f1, (complex(a, u(-1.0, 1.0)), b, z)))
    for _ in range(3):
        al, b1, b2, s = u(0.2, 2.0), u(-1.5, 1.5), u(-1.5, 1.5), u(0.5, 3.0)
        for x, y in ((u(-0.6, 0.6), u(-0.6, 0.6)),
                     (w(u(0.1, 0.6)), w(u(0.1, 0.6))),
                     (u(-2.5, -1.2), u(-0.9, 0.4))):
            cases.append((appell_f1, (al, b1, b2, s, x, y)))
    for _ in range(3):
        a1, lam, a2 = u(0.2, 2.0), u(-1.5, 2.0), u(0.5, 3.0)
        for x, y in ((u(-0.7, 0.7), u(-3.0, 3.0)),
                     (w(u(0.1, 0.7)), w(u(0.3, 3.0)))):
            cases.append((humbert_phi1, (a1, lam, a2, x, y)))
    # F1 and Phi1 polynomial in x, whose series over s does not end, and
    # series that end exactly at a zero T_s.
    cases += [(appell_f1, (1.0, -2.0, 0.7, 1.3, 0.4, 0.3)),
              (humbert_phi1, (0.8, -1.0, 1.6, 0.5, -1.2)),
              (appell_f1, (-2.0, 0.6, 0.7, 1.3, 0.4, 0.3)),
              (humbert_phi1, (-1.0, 0.8, 1.6, 0.5, -1.2))]
    # Four series cut off by the term cap, F1 and Phi1 at y = 0.
    cases += [(_capped(gauss_2f1, 4), (0.3, 1.7, 2.2, 0.4)),
              (_capped(kummer_1f1, 4), (0.6, 1.9, -2.0)),
              (_capped(appell_f1, 4), (1.0, 0.5, 0.7, 1.3, 0.6, 0.0)),
              (_capped(humbert_phi1, 4), (0.8, 1.1, 1.6, 0.5, 0.0))]
    # Connection-formula 2F1 whose first inner series reaches an exactly
    # zero numerator (c - b = -2) and keeps summing zero terms.
    cases += [(gauss_2f1, (0.3, 3.5, 1.5, -3.0)),
              (gauss_2f1, (0.3, 3.5, 1.5, -3.0 + 0.5j))]
    # F1 and Phi1 cut off by the term cap at y != 0.
    cases += [(_capped(appell_f1, 4), (0.8, 0.6, 1.1, 2.3, 0.3, 0.45)),
              (_capped(humbert_phi1, 4), (0.7, 1.5, 2.2, 0.4, 3.0))]
    # The c = 1 chain at the points verify_convolutions checks, at a t
    # that needs more terms, and cut off by its own term cap.
    cases += [(_c1_chain, (2.5, 0.7, 0.2)), (_c1_chain, (0.7, 1.4, -0.15)),
              (_c1_chain, (1.8, 0.4, 0.1)), (_c1_chain, (2.5, 0.7, 0.5)),
              (_c1_chain, (2.5, 0.7, 0.2, 3))]
    return cases


def _c1_chain(beta, gamma, t, max_terms=400):
    """Left side of the c = 1 chain at the tolerance of verify_convolutions."""
    with patch.object(genfuncs, "_C1_MAX_TERMS", max_terms):
        report = c1_reduction_identity(beta, gamma, t, 1e-8)
    return EvalOutcome(report.lhs, True, 0, 0.0)


# repr((status, value, terms_used, err_estimate)) of each pinned case,
# where status is "ok" or the NotConverged message.
_PINNED = [
    "('ok', 0.27497992660778264, 60, 1.4689138266332248e-15)",
    "('ok', (0.27491866518776925+0.007076882001418876j), 60, 1.469391907264532e-15)",
    "('ok', 90.14217118964514, 176, 7.773268310751398e-13)",
    "('ok', (89.98038042855426-5.521416068174113j), 176, 7.775837116242675e-13)",
    "('ok', -0.018571692638919404, 38, 1.4348665964978605e-15)",
    "('ok', (-0.018615811360680606+0.000634889398882444j), 38, 1.4012943095457289e-15)",
    "('ok', (-1.706115318666105-2.7213733939161j), 113, 2.47826661656109e-14)",
    "('ok', (-1.711021265804941-2.6096430134980833j), 113, 2.479082046646981e-14)",
    "('ok', 1.0240228556528537, 13, 4.076154909123583e-15)",
    "('ok', (1.0233125621653725-0.03591534456550598j), 14, 8.55956779485957e-16)",
    "('ok', 0.7177964122415779, 86, 5.520926111043545e-15)",
    "('ok', (0.6210044055124843+0.31434477291202867j), 89, 6.808651562404718e-15)",
    "('ok', 1.6561338770470124, 50, 1.7022924870112657e-14)",
    "('ok', (1.186040425398099-1.1198154758383683j), 48, 5.8287781681418574e-15)",
    "('ok', (0.9275206338047368-0.02596845497145161j), 21, 3.524923209606937e-15)",
    "('ok', (0.887161478403762+0.07219615037621534j), 22, 2.370030795169097e-15)",
    "('ok', 0.8673126309305192, 26, 6.51639234884354e-15)",
    "('ok', (0.8490462956954087+0.16846328357716708j), 27, 6.0694359423577934e-15)",
    "('ok', 0.6980514079852649, 65, 5.8305698102881374e-15)",
    "('ok', (0.6058950728485129+0.3199281604236147j), 68, 5.022471295634026e-15)",
    "('ok', 2.09823078811849, 40, 3.621857706342152e-15)",
    "('ok', (1.0516304385727415-1.785117845473959j), 39, 1.0835192475039635e-14)",
    "('ok', (1.0945121207959216-0.22182918851324024j), 79, 8.441600121046204e-15)",
    "('ok', (0.7941835486823757-0.2890477022536879j), 83, 6.766303314162757e-15)",
    "('ok', 0.34742283494615606, 18, 2.7815462004924696e-16)",
    "('ok', (0.3244445251449649+0.3847123603151405j), 18, 3.447776940173481e-16)",
    "('ok', 1.8559727624864426, 25, 1.937847047648533e-15)",
    "('ok', (1.1086789060638373+2.072911660293712j), 25, 2.832638395210428e-15)",
    "('ok', (1.7188706570471624-0.223103199720442j), 23, 3.4761327697489638e-15)",
    "('ok', (1.2814800752531776-1.0373153947522984j), 23, 3.906143714991707e-15)",
    "('ok', -0.10301166563870216, 26, 2.6037903046853903e-16)",
    "('ok', (-0.39522494447425444+0.4621243439783658j), 26, 9.453933549406423e-16)",
    "('ok', 1.667292392276342, 27, 1.0632119172431174e-14)",
    "('ok', (1.3584865627046103-1.0656328181189074j), 27, 1.2119727281368947e-14)",
    "('ok', (0.793301995359449-0.8358158768076316j), 24, 3.1237585077746466e-15)",
    "('ok', (2.3208657586834445-1.8304286226192499j), 24, 2.625428203738071e-14)",
    "('ok', 0.4888989698003415, 18, 4.764560500392165e-16)",
    "('ok', (0.4884663970932759+0.030783650498441055j), 18, 4.848062936166608e-16)",
    "('ok', 1.8306345017337262, 26, 3.728066415239098e-15)",
    "('ok', (1.5470572416259427+1.1091695911588837j), 26, 4.223421768988414e-15)",
    "('ok', (1.2176986075495648-0.23716002172717476j), 19, 1.4437870364917964e-15)",
    "('ok', (1.0916271790268612-0.33099520270168153j), 19, 1.4761440946930903e-15)",
    "('ok', 1.2501502214315636, 33, 1.245115743937798e-14)",
    "('ok', (1.3785420816429796+0.0833505514574147j), 34, 7.352790579236947e-15)",
    "('ok', 2.5677507344498403, 47, 1.7293155296929404e-14)",
    "('ok', 0.9082238640800716, 52, 7.350740803726933e-15)",
    "('ok', (0.8132893059582559+0.1353488754038462j), 37, 3.987809692991516e-15)",
    "('ok', 1.7921150580840226, 34, 1.084964162656798e-14)",
    "('ok', 1.1332415598378116, 32, 9.98368965087533e-15)",
    "('ok', (1.7444711400978152+0.370647346351745j), 46, 9.094323859357782e-15)",
    "('ok', 0.30599582631658134, 64, 2.659660818286417e-15)",
    "('ok', 0.1497400141766095, 26, 1.3976035447434966e-15)",
    "('ok', (0.9857883877872805-3.1215235317912136j), 23, 9.51309821376188e-15)",
    "('ok', 0.8826555208135027, 22, 7.99852835511689e-15)",
    "('ok', (1.3148645671596235-0.04339464100917077j), 44, 9.779341438889781e-15)",
    "('ok', 5.276085136208872, 23, 7.281262101731311e-15)",
    "('ok', (0.14761023883762883+0.11559623682278233j), 26, 6.513773612608709e-16)",
    "('ok', 0.5805345438288484, 26, 3.5426297061429788e-15)",
    "('ok', 0.47358552018833594, 20, 2.6056464678014e-15)",
    "('ok', 0.42859531772575266, 3, 0.0)",
    "('ok', 1.5, 2, 0.0)",
    "('2F1 series did not converge in 4 terms at z=0.4', 1.1202040621185065, 4, 0.001639162767857143)",
    "('1F1 series did not converge in 4 terms at z=2.0', 4.3345679469609975, 4, 0.2686272331073989)",
    "('Appell F1 series did not converge in 4 terms', 1.3821618220000425, 4, 0.020045677275202047)",
    "('Phi1 series did not converge in 4 terms', 1.4321227934260035, 4, 0.017005004964464884)",
    "('ok', 0.5004233751606201, 5, 0.0)",
    "('ok', (0.4980487902501782+0.023518032052334527j), 5, 0.0)",
    "('Appell F1 series did not converge in 4 terms', 1.3347568225215796, 4, 0.007833456403370175)",
    "('Phi1 series did not converge in 4 terms', 4.767917231206293, 4, 0.6114399584790209)",
    # The c = 1 chain, summed to a tenth of its 1e-8 check.
    "('ok', 1.6725475707899007, 0, 0.0)",
    "('ok', 0.8147955232436, 0, 0.0)",
    "('ok', 1.2159878216459694, 0, 0.0)",
    "('ok', 5.017396754485632, 0, 0.0)",
    "('c = 1 reduction series did not converge in 3 terms at t=0.2', 1.611938997821351, 3, 0.1531154684095861)",
]


def test_series_kernels_are_bit_pinned():
    got = []
    for kernel, args in _pinned_cases():
        try:
            out = kernel(*args)
            status = "ok"
        except NotConverged as exc:
            out = exc.outcome
            status = str(exc)
        got.append(repr((status, out.value, out.terms_used, out.err_estimate)))
    assert got == _PINNED


# ---------------------------------------------------------------------------
# Reference: the generator-driven series loop, kept to check the kernels'
# own loop bit for bit
# ---------------------------------------------------------------------------


def _reference_sum_series(terms, rel_tol, max_terms, message, z):
    """Compensated sum of 1 and the ``(term, cost)`` pairs of ``terms``."""
    total = prev_abs = 1.0
    comp = 0.0
    used = 0
    small = 0
    for _taken, (term, cost) in zip(range(1, max_terms + 1), terms):
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        used += cost
        t_abs = abs(term)
        if t_abs <= rel_tol * abs(total):
            small += 1
            if small >= 2:
                return EvalOutcome(total, True, used + 1, max(t_abs, prev_abs))
        else:
            small = 0
        prev_abs = t_abs
    raise NotConverged(
        message.format(max_terms=max_terms, z=z),
        outcome=EvalOutcome(total, False, used, prev_abs),
    )


def _reference_2f1(a, b, c, z, max_terms):
    def terms():
        term = 1.0
        n = 0
        while True:
            term = term * (a + n) * (b + n) / ((c + n) * (n + 1)) * z
            yield term, 1
            n += 1

    return _reference_sum_series(
        terms(), hyperkernel._REL_TOL, max_terms,
        "2F1 series did not converge in {max_terms} terms at z={z!r}", z,
    )


def _reference_1f1(a, b, z, max_terms):
    def terms():
        term = 1.0
        n = 0
        while True:
            term = term * (a + n) / ((b + n) * (n + 1)) * z
            yield term, 1
            n += 1

    return _reference_sum_series(
        terms(), hyperkernel._REL_TOL, max_terms,
        "1F1 series did not converge in {max_terms} terms at z={z!r}", z,
    )


def _outcome_repr(series, *args):
    try:
        out = series(*args)
        status = "ok"
    except NotConverged as exc:
        out = exc.outcome
        status = str(exc)
    except ZeroDivisionError as exc:
        return repr(("ZeroDivisionError", str(exc)))
    return repr((status, out.value, out.converged, out.terms_used,
                 out.err_estimate))


_PARAM = st.one_of(st.floats(-4.0, 4.0),
                   st.complex_numbers(max_magnitude=4.0, allow_nan=False,
                                      allow_infinity=False))
_ARG = st.one_of(st.floats(-0.9, 0.9),
                 st.complex_numbers(max_magnitude=0.9, allow_nan=False,
                                    allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(a=_PARAM, b=_PARAM, c=_PARAM, z=_ARG,
       max_terms=st.sampled_from([3, 40, 10000]))
def test_series_loop_matches_generator_reference(a, b, c, z, max_terms):
    assert (_outcome_repr(_capped(hyperkernel._series_2f1, max_terms), a, b, c, z)
            == _outcome_repr(_reference_2f1, a, b, c, z, max_terms))
    assert (_outcome_repr(_capped(hyperkernel._series_1f1, max_terms), a, c, z)
            == _outcome_repr(_reference_1f1, a, c, z, max_terms))
