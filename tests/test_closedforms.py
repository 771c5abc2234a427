"""Closed-form representation tests.

Frozen oracle values were computed independently: rational recurrence
values with exact ``fractions.Fraction`` arithmetic, hypergeometric
sums with mpmath at 50 significant digits, short cases by hand.
"""

import functools
import math
import random
from fractions import Fraction

import pytest
import scipy.special
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from assocpoly import (
    CharlierParams,
    CharlierVariant,
    DenominatorPole,
    LaguerreParams,
    LaguerreVariant,
    MeixnerParams,
    MeixnerPollaczekParams,
    RestrictedParameter,
    c1_reduction_identity,
    charlier_3f2,
    charlier_classical,
    charlier_seq,
    gauss_2f1,
    hyp_terminating,
    identity_3f2_m_generalized,
    identity_3f2_pochhammer,
    identity_3f2_t_powered,
    identity_4f3_finite_sum,
    kummer_1f1,
    laguerre_3f2,
    laguerre_classical,
    laguerre_seq,
    meixner_4f3,
    meixner_4f3_alt,
    meixner_c1_degenerate,
    meixner_classical,
    meixner_cross_2f1,
    meixner_pollaczek_seq,
    meixner_quadratic,
    meixner_reflection_rhs,
    meixner_seq,
    mp_from_meixner,
    pochhammer,
)
from assocpoly import closedforms, genfuncs, hyperkernel


def rel(a, b):
    scale = max(1.0, abs(b))
    return abs(a - b) / scale


# ---------------------------------------------------------------------------
# Route agreement at a pinned generic point
# ---------------------------------------------------------------------------

# Exact rational recurrence value at x=1/2, beta=3/2, c=2/5, gamma=3/10:
# -66465981/50000, which is exactly representable in decimal.
PINNED_MEIXNER = -1329.31962


@pytest.mark.parametrize(
    "route",
    [meixner_4f3, meixner_4f3_alt, meixner_quadratic, meixner_cross_2f1],
    ids=["4f3", "4f3-alt", "quadratic", "cross"],
)
def test_meixner_routes_match_rational_oracle(route):
    params = MeixnerParams(1.5, 0.4, 0.3)
    assert rel(route(0.5, params, 5), PINNED_MEIXNER) < 1e-9


def test_meixner_recurrence_matches_rational_oracle():
    params = MeixnerParams(1.5, 0.4, 0.3)
    assert rel(meixner_seq(0.5, params, 5)[5], PINNED_MEIXNER) < 1e-12


@pytest.mark.parametrize(
    "route", [meixner_4f3, meixner_4f3_alt, charlier_3f2, laguerre_3f2],
    ids=["meixner-4f3", "meixner-4f3-alt", "charlier-3f2", "laguerre-3f2"],
)
def test_degree_zero_is_one(route):
    params = {
        meixner_4f3: MeixnerParams(1.5, 0.4, 0.3),
        meixner_4f3_alt: MeixnerParams(1.5, 0.4, 0.3),
        charlier_3f2: CharlierParams(2.0, 0.7),
        laguerre_3f2: LaguerreParams(0.5, 0.7),
    }[route]
    assert route(0.9, params, 0) == 1.0


@given(
    beta=st.floats(0.2, 3.0),
    c=st.floats(0.15, 0.9),
    gamma=st.floats(0.0, 2.0),
    x=st.floats(-3.0, 3.0),
    n=st.integers(1, 10),
)
@settings(max_examples=30, deadline=None)
def test_meixner_4f3_matches_recurrence_fuzz(beta, c, gamma, x, n):
    params = MeixnerParams(beta, c, gamma)
    try:
        closed = meixner_4f3(x, params, n)
    except DenominatorPole:
        assume(False)
    ref = meixner_seq(x, params, n)[n]
    assert abs(closed - ref) <= 1e-8 * max(1.0, abs(ref))


def test_lattice_point_escalates_to_exact_arithmetic():
    # x - gamma a nonnegative integer with gamma = 0: the target value is a
    # subdominant solution and the naive double sum loses every digit, so
    # the conditioning monitor must trigger the rational re-run.
    params = MeixnerParams(1.5, 0.4, 0.0)
    exact = meixner_seq(3.0, params, 25)[25]
    closed = meixner_4f3(3.0, params, 25)
    assert rel(closed, exact) < 1e-9


# ---------------------------------------------------------------------------
# Parameter prechecks: every restricted route refuses its bad inputs
# ---------------------------------------------------------------------------


def test_quadratic_rejects_positive_integer_beta():
    with pytest.raises(RestrictedParameter):
        meixner_quadratic(0.5, MeixnerParams(2.0, 0.4, 0.3), 4)


def test_quadratic_rejects_nonpositive_gamma_plus_beta():
    with pytest.raises(RestrictedParameter):
        meixner_quadratic(0.5, MeixnerParams(-0.5, 0.4, 0.3), 4)


_RAHMAN = functools.partial(laguerre_3f2, variant="rahman")


@pytest.mark.parametrize("route, seq, params", [
    (meixner_quadratic, meixner_seq, MeixnerParams(1.5 + 0.1j, 0.4, 0.7)),
    (meixner_quadratic, meixner_seq, MeixnerParams(0.7 - 0.4j, 0.4, 0.7)),
    (_RAHMAN, laguerre_seq, LaguerreParams(0.5 + 1j, 0.7)),
    (_RAHMAN, laguerre_seq, LaguerreParams(-0.3 - 0.5j, 0.7)),
], ids=["quadratic-1.5+0.1j", "quadratic-0.7-0.4j", "rahman-0.5+1j",
        "rahman-0.3-0.5j"])
def test_complex_parameter_routes_match_the_recurrence(route, seq, params):
    # The real-only guards (gamma+beta <= 0, round(alpha)) used to raise
    # TypeError here.
    for x in (0.5, 0.3 + 0.2j):
        values = seq(x, params, 20)
        for n in range(21):
            assert rel(route(x, params, n), values[n]) < 1e-11, (x, n)


def test_quadratic_rejects_gamma_plus_beta_one():
    with pytest.raises(RestrictedParameter):
        meixner_quadratic(0.5, MeixnerParams(0.7, 0.4, 0.3), 4)


def test_4f3_rejects_vanishing_denominator():
    # gamma + beta + x = 0 sits inside the summation range.
    with pytest.raises(DenominatorPole):
        meixner_4f3(-2.0, MeixnerParams(1.5, 0.4, 0.5), 3)


def test_4f3_alt_rejects_lattice_x():
    # x - gamma = 2 lands in [0, n-1].
    with pytest.raises(DenominatorPole):
        meixner_4f3_alt(2.5, MeixnerParams(1.5, 0.4, 0.5), 5)


@pytest.mark.parametrize("x", [2.0, -3.0])
def test_cross_product_rejects_any_integer_offset(x):
    with pytest.raises(DenominatorPole):
        meixner_cross_2f1(x, MeixnerParams(1.5, 0.4, 0.0), 4)


def test_charlier_primary_rejects_lattice_but_transformed_survives():
    # The transformed variant only needs x - gamma away from integers in
    # [0, floor(n/2)-1], so x - gamma = 2 is fine there at n = 5.
    params = CharlierParams(1.5, 0.0)
    with pytest.raises(DenominatorPole):
        charlier_3f2(2.0, params, 5, "primary")
    value = charlier_3f2(2.0, params, 5, "transformed")
    ref = charlier_seq(2.0, params, 5)[5]
    assert rel(value, ref) < 1e-12


def test_charlier_transformed_rejects_small_lattice_offset():
    with pytest.raises(DenominatorPole):
        charlier_3f2(1.0, CharlierParams(1.5, 0.0), 5, "transformed")


def test_laguerre_primary_rejects_vanishing_denominator():
    with pytest.raises(DenominatorPole):
        laguerre_3f2(1.0, LaguerreParams(-1.0, 0.0), 3, "primary")


_DENOMINATOR = "makes a denominator factor vanish for degree"
_AWAY = "away from the nonpositive integers"


# The class and exact message of each degree-dependent band refusal and
# denominator-parameter refusal.
@pytest.mark.parametrize("call, error, message", [
    (lambda: meixner_4f3(-4.0, MeixnerParams(1.5, 0.4, 0.5), 5),
     DenominatorPole, f"gamma+beta+x = -2.0 {_DENOMINATOR} 5"),
    (lambda: meixner_4f3(-4 + 0j, MeixnerParams(1.5, 0.4, 0.5), 5),
     DenominatorPole, f"gamma+beta+x = (-2+0j) {_DENOMINATOR} 5"),
    (lambda: meixner_4f3(0.3, MeixnerParams(-2.5, 0.4, 0.5), 5),
     DenominatorPole, f"gamma+beta = -2.0 {_DENOMINATOR} 5"),
    (lambda: meixner_4f3_alt(0.3, MeixnerParams(-2.5, 0.4, 0.5), 5),
     DenominatorPole, f"gamma+beta = -2.0 {_DENOMINATOR} 5"),
    (lambda: meixner_4f3_alt(2.7, MeixnerParams(1.5, 0.4, 0.7), 5),
     DenominatorPole, f"x - gamma = 2.0 {_DENOMINATOR} 5"),
    (lambda: charlier_3f2(2.7, CharlierParams(1.3, 0.7), 5, "primary"),
     DenominatorPole, f"x - gamma = 2.0 {_DENOMINATOR} 5"),
    (lambda: charlier_3f2(1.7, CharlierParams(1.3, 0.7), 6, "transformed"),
     DenominatorPole, f"x - gamma = 1.0 {_DENOMINATOR} 6 (transformed variant)"),
    (lambda: laguerre_3f2(0.3, LaguerreParams(-3.5, 0.5), 5, "primary"),
     DenominatorPole, f"gamma+alpha+1 = -2.0 {_DENOMINATOR} 5"),
    (lambda: identity_4f3_finite_sum(4, 1.0, 0.4, 0.2, -1.0),
     RestrictedParameter, f"a + y = 0.0 {_DENOMINATOR} 4"),
    (lambda: identity_3f2_pochhammer(4, -2.0, 0.7), RestrictedParameter,
     f"3F2 pochhammer identity requires denominator parameter -1.0 {_AWAY}"),
    (lambda: identity_3f2_pochhammer(4, 0.7, -3.0), RestrictedParameter,
     f"3F2 pochhammer identity requires denominator parameter -2.0 {_AWAY}"),
    (lambda: identity_3f2_t_powered(4, -2.0, 0.7, 0.2), RestrictedParameter,
     f"t-powered 3F2 identity requires denominator parameter -1.0 {_AWAY}"),
    (lambda: identity_3f2_t_powered(4, 0.5, -2.0, 0.2), RestrictedParameter,
     f"t-powered 3F2 identity requires denominator parameter -1.0 {_AWAY}"),
], ids=["4f3-x", "4f3-x-complex", "4f3-beta", "4f3-alt-beta", "4f3-alt-x",
        "charlier-primary", "charlier-transformed", "laguerre-primary",
        "finite-4f3-a-plus-y", "pochhammer-a", "pochhammer-b", "t-powered-a",
        "t-powered-b"])
def test_band_refusal_class_and_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_laguerre_rahman_rejects_integer_alpha():
    with pytest.raises(RestrictedParameter):
        laguerre_3f2(1.0, LaguerreParams(1.0, 0.4), 3, "rahman")


def test_degenerate_c1_rejects_beta_one():
    with pytest.raises(RestrictedParameter):
        meixner_c1_degenerate(1.0, 0.5, 3)


@pytest.mark.parametrize("bad_n", [-1, 2.5])
def test_negative_or_nonint_degree_rejected(bad_n):
    with pytest.raises(ValueError):
        meixner_4f3(0.5, MeixnerParams(1.5, 0.4, 0.3), bad_n)


# ---------------------------------------------------------------------------
# Variant coercion and tag stability
# ---------------------------------------------------------------------------


def test_charlier_variant_accepts_strings():
    params = CharlierParams(2.0, 0.7)
    assert charlier_3f2(0.9, params, 4, "primary") == charlier_3f2(
        0.9, params, 4, CharlierVariant.PRIMARY
    )
    assert charlier_3f2(0.9, params, 4, "transformed") == charlier_3f2(
        0.9, params, 4, CharlierVariant.TRANSFORMED
    )


def test_laguerre_variant_accepts_strings():
    params = LaguerreParams(0.7, 0.4)
    assert laguerre_3f2(1.1, params, 4, "rahman") == laguerre_3f2(
        1.1, params, 4, LaguerreVariant.RAHMAN
    )


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        charlier_3f2(0.9, CharlierParams(2.0, 0.7), 4, "bogus")
    with pytest.raises(ValueError):
        laguerre_3f2(1.1, LaguerreParams(0.7, 0.4), 4, "bogus")


# ---------------------------------------------------------------------------
# Classical forms: hand values and scipy cross-checks
# ---------------------------------------------------------------------------


def test_meixner_classical_hand_value():
    # (2)_2 * [1 - 2 + 1/3] at x=2, beta=2, c=1/2.
    assert rel(meixner_classical(2.0, 2.0, 0.5, 2), -4.0) < 1e-13


def test_charlier_classical_hand_value():
    # 1 - 2x/a + x(x-1)/a^2 at x=3, a=2.
    assert rel(charlier_classical(3.0, 2.0, 2), -0.5) < 1e-13


@pytest.mark.parametrize("alpha", [-0.5, 0.5, 1.7])
@pytest.mark.parametrize("x", [0.0, 1.2, 3.0])
def test_laguerre_classical_matches_scipy(alpha, x):
    for n in range(11):
        ref = scipy.special.eval_genlaguerre(n, alpha, x)
        assert rel(laguerre_classical(x, alpha, n), ref) < 1e-11


def test_classical_reduction_at_zero_shift():
    params = MeixnerParams(1.5, 0.4, 0.0)
    seq = meixner_seq(0.5, params, 10)
    for n in range(11):
        assert rel(seq[n], meixner_classical(0.5, 1.5, 0.4, n)) < 1e-10


# ---------------------------------------------------------------------------
# Reflection, degenerate c = 1, and the complex-parameter connection
# ---------------------------------------------------------------------------


def test_reflection_identity_pinned():
    params = MeixnerParams(1.7, 0.45, 0.6)
    lhs = meixner_seq(1.3, params, 12)[12]
    rhs = meixner_reflection_rhs(1.3, params, 12)
    assert rel(lhs, rhs) < 1e-9


def test_degenerate_c1_value_and_x_independence():
    # [(gamma+beta-1)_4 - (gamma)_4]/(beta-1) = (360 - 59.0625)/1.5.
    assert meixner_c1_degenerate(2.5, 1.5, 3) == pytest.approx(200.625, rel=1e-13)
    params = MeixnerParams(2.5, 1.0, 1.5)
    for x in (0.3, -2.0, 7.25):
        assert rel(meixner_seq(x, params, 3)[3], 200.625) < 1e-12


def test_mp_connection_matches_recurrence():
    params = MeixnerPollaczekParams(0.7, 1.1, 0.4)
    seq = meixner_pollaczek_seq(1.3, params, 8)
    for n in range(9):
        conn = mp_from_meixner(1.3, params, n)
        assert abs(conn - seq[n]) <= 1e-9 * max(1.0, abs(seq[n]))
        # Real evaluation point: imaginary part is rounding residual only.
        assert abs(conn.imag) < 1e-9


def test_laguerre_variants_agree():
    params = LaguerreParams(0.7, 0.4)
    for n in (1, 4, 8):
        primary = laguerre_3f2(1.1, params, n, "primary")
        rahman = laguerre_3f2(1.1, params, n, "rahman")
        assert rel(primary, rahman) < 1e-10


# ---------------------------------------------------------------------------
# Finite-sum identity checkers
# ---------------------------------------------------------------------------

# mpmath 50-digit brute-force sums at the pinned points.
POCHHAMMER_LHS = 0.36599948277021254628
T_POWERED_LHS = 0.19675931368368998475
FINITE_4F3_LHS = 0.19927047223063831805


def test_pochhammer_identity_pinned():
    report = identity_3f2_pochhammer(7, 0.6, 1.9)
    assert report.identity_id == "3f2-pochhammer"
    assert report.point == {"n": 7, "a": 0.6, "b": 1.9}
    assert report.passed
    assert rel(report.lhs, POCHHAMMER_LHS) < 1e-12
    assert report.rel_discrepancy < 1e-12


def test_t_powered_identity_pinned():
    report = identity_3f2_t_powered(5, 0.8, 2.1, 0.25)
    assert report.identity_id == "3f2-t-powered"
    assert report.passed
    assert rel(report.lhs, T_POWERED_LHS) < 1e-12
    assert report.rel_discrepancy < 1e-12


def test_finite_4f3_identity_pinned():
    report = identity_4f3_finite_sum(6, 1.1, 0.4, 0.2, 0.9)
    assert report.identity_id == "finite-sum-4f3"
    assert report.passed
    assert rel(report.lhs, FINITE_4F3_LHS) < 1e-12
    assert report.rel_discrepancy < 1e-12


def test_m_generalized_identity_pinned():
    report = identity_3f2_m_generalized(5, 1.3, 0.7, 2)
    assert report.identity_id == "3f2-m-generalized"
    assert report.passed
    assert report.rel_discrepancy < 1e-12


def test_m_generalized_reduces_to_pochhammer_at_m_one():
    a, b, n = 1.3, 0.7, 6
    general = identity_3f2_m_generalized(n, a, b, 1)
    plain = identity_3f2_pochhammer(n, a, b)
    assert rel(general.lhs, plain.lhs) < 1e-13
    assert rel(general.rhs, plain.rhs) < 1e-12


@given(
    n=st.integers(1, 20),
    a=st.floats(0.1, 4.0),
    b=st.floats(0.1, 4.0),
)
@settings(max_examples=40, deadline=None)
def test_pochhammer_identity_fuzz(n, a, b):
    assume(abs(b - a) > 1e-3)
    report = identity_3f2_pochhammer(n, a, b)
    assert report.rel_discrepancy < 1e-10


def test_finite_4f3_rejects_bad_parameters():
    with pytest.raises(RestrictedParameter):
        identity_4f3_finite_sum(4, -0.5, 0.4, 0.2, 0.9)  # a <= 0
    with pytest.raises(RestrictedParameter):
        identity_4f3_finite_sum(4, 1.1, -1.5, 0.2, 0.9)  # b <= -1
    with pytest.raises(RestrictedParameter):
        identity_4f3_finite_sum(4, 1.1, 0.0, 0.2, 0.9)  # b == 0
    with pytest.raises(RestrictedParameter):
        identity_4f3_finite_sum(4, 0.5, 1.5, 0.2, 0.9)  # b - a integer
    with pytest.raises(RestrictedParameter):
        identity_4f3_finite_sum(4, 1.0, 0.4, 0.2, -1.0)  # a + y = 0


def test_pochhammer_identity_rejects_bad_parameters():
    with pytest.raises(RestrictedParameter):
        identity_3f2_pochhammer(4, 0.7, 0.7)  # a == b
    with pytest.raises(RestrictedParameter):
        identity_3f2_pochhammer(4, -2.0, 0.7)  # a + 1 nonpositive integer


def test_t_powered_identity_rejects_bad_parameters():
    with pytest.raises(RestrictedParameter):
        identity_3f2_t_powered(4, 2.5, 0.5, 0.2)  # b - a + 1 = -1


def test_m_generalized_rejects_bad_parameters():
    with pytest.raises(ValueError):
        identity_3f2_m_generalized(4, 1.3, 0.7, 0)
    with pytest.raises(ValueError):
        identity_3f2_m_generalized(4, 1.3, 0.7, 1.5)
    with pytest.raises(RestrictedParameter):
        identity_3f2_m_generalized(4, -1.0, 0.7, 2)  # a <= 0
    with pytest.raises(RestrictedParameter):
        identity_3f2_m_generalized(4, 1.3, -2.0, 2)  # b nonpositive integer
    with pytest.raises(RestrictedParameter):
        identity_3f2_m_generalized(4, 1.0, 2.0, 2)  # (a-b)_m vanishes


def test_identity_checkers_reject_negative_degree():
    with pytest.raises(ValueError):
        identity_3f2_pochhammer(-1, 0.6, 1.9)


# ---------------------------------------------------------------------------
# Exact re-summation: the engines against a Fraction reference
# ---------------------------------------------------------------------------


class GaussQ:
    """Exact Gaussian rational ``re + i*im`` for the references."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def lift(w):
        return w if isinstance(w, GaussQ) else GaussQ(w)

    def __add__(self, w):
        w = GaussQ.lift(w)
        return GaussQ(self.re + w.re, self.im + w.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussQ(-self.re, -self.im)

    def __sub__(self, w):
        return self + -GaussQ.lift(w)

    def __rsub__(self, w):
        return GaussQ.lift(w) - self

    def __mul__(self, w):
        w = GaussQ.lift(w)
        return GaussQ(self.re * w.re - self.im * w.im,
                      self.re * w.im + self.im * w.re)

    __rmul__ = __mul__

    def __truediv__(self, w):
        w = GaussQ.lift(w)
        norm = w.re * w.re + w.im * w.im
        return self * GaussQ(w.re / norm, -w.im / norm)

    def __rtruediv__(self, w):
        return GaussQ.lift(w) / self

    def __eq__(self, w):
        w = GaussQ.lift(w)
        return self.re == w.re and self.im == w.im

    def __abs__(self):
        return math.hypot(self.re, self.im)

    def rounded(self):
        """Each component correctly rounded to binary64."""
        return complex(float(self.re), float(self.im))


def fraction_hyp(nums, dens, arg, top):
    """Reference terminating sum, term by term in exact arithmetic."""
    nums, remaining = list(nums), []
    for d in dens:
        if d in nums:
            nums.remove(d)
        else:
            remaining.append(d)
    term = total = Fraction(1)
    for j in range(top):
        numprod = math.prod(p + j for p in nums)
        if numprod == 0:
            break
        denprod = math.prod(q + j for q in remaining)
        if denprod == 0:
            raise DenominatorPole(
                f"denominator factor vanishes at offset {j} in terminating sum"
            )
        term = term * numprod / denprod * arg / (j + 1)
        total += term
    return total


def fraction_double_sum(n, outer_nums, outer_dens, outer_scale, inner):
    """Reference double sum, term by term in exact arithmetic."""
    nums, dens, arg, top = inner
    total, coef = Fraction(0), Fraction(1)
    for k in range(n + 1):
        if coef == 0:
            break
        total += coef * fraction_hyp([b + s * k + o for b, s, o in nums],
                                     [b + s * k + o for b, s, o in dens],
                                     arg, top(k))
        coef = coef * outer_scale * math.prod(p + k for p in outer_nums)
        for q in outer_dens:
            coef = coef / (q + k)
    return total


# The paper's double sums, kept here as the references of the sums that
# closedforms evaluates: ``(n, outer_nums, outer_dens, outer_scale,
# inner)`` as ``fraction_double_sum`` reads them.  ``inner = (nums, dens,
# arg, top)`` states the inner terminating sum at every outer step k at
# once: each parameter ``(b, s, o)`` is ``b + s*k + o``, the argument is
# ``arg`` and the last index is ``top(k)``.


def meixner_4f3_terms(n, x, beta, c, gamma):
    gb = gamma + beta
    gbx = gb + x
    inner = ([(-n, 1, 0), (gbx, 1, 0), (gb - 1, 0, 0), (gamma, 0, 0)],
             [(gbx, 0, 0), (gb, 1, 0), (gamma + 1, 1, 0)], 1, lambda k: n - k)
    return n, [-n, gbx], [gamma + 1, gb], 1 - c, inner


def meixner_4f3_alt_terms(n, x, beta, c, gamma):
    gb = gamma + beta
    gx = gamma - x
    inner = ([(-n, 1, 0), (gx, 1, 0), (gb - 1, 0, 0), (gamma, 0, 0)],
             [(gx, 0, 0), (gb, 1, 0), (gamma + 1, 1, 0)], 1, lambda k: n - k)
    return n, [-n, gx], [gamma + 1, gb], (c - 1) / c, inner


def charlier_terms(n, x, a, gamma):
    gx = gamma - x
    inner = ([(-n, 1, 0), (gx, 1, 0), (gamma, 0, 0)],
             [(gx, 0, 0), (gamma, 1, 1)], 1, lambda k: n - k)
    return n, [-n, gx], [gamma + 1], -1 / a, inner


def charlier_transformed_terms(n, x, a, gamma):
    gx = gamma - x
    inner = ([(0, -1, 0), (gamma, 0, 0), (-n, 1, 0)],
             [(-n, 0, 0), (gx, 0, 0)], 1, lambda k: min(k, n - k))
    return n, [-n, gx], [1], -1 / a, inner


def laguerre_terms(n, x, alpha, gamma):
    ga = gamma + alpha
    inner = ([(-n, 1, 0), (ga, 0, 0), (gamma, 0, 0)],
             [(ga, 1, 1), (gamma + 1, 1, 0)], 1, lambda k: n - k)
    return n, [-n], [gamma + 1, ga + 1], x, inner


def laguerre_rahman_terms(n, x, alpha, gamma):
    inner = ([(-n, 1, 0), (1 - alpha, 1, 0), (gamma, 0, 0)],
             [(-alpha - n, 0, 0), (gamma, 1, 1)], 1, lambda k: n - k)
    return n, [-n], [gamma + 1, alpha + 1], x, inner


def finite_4f3_terms(n, a, b, t, y):
    inner = ([(-n, 1, 0), (a + y, 1, 0), (a, 0, 0), (b, 0, 0)],
             [(a + y, 0, 0), (b + 1, 1, 0), (a + 1, 1, 0)], 1, lambda k: n - k)
    return n, [-n, a + y], [a + 1, b + 1], t, inner


def t_powered_terms(n, a, b, t):
    inner = ([(-n, 1, 0), (a, 0, 0), (b, 0, 0)],
             [(a + 1, 0, 0), (b + 1, 1, 0)], 1, lambda k: n - k)
    return n, [-n], [b + 1], t, inner


def single_sum(nums, dens, top, arg=Fraction(1)):
    """A lone terminating sum, as a double sum of degree 0."""
    return 0, [], [], Fraction(1), ([(p, 0, 0) for p in nums],
                                     [(q, 0, 0) for q in dens],
                                     arg, lambda k: top)


def m_generalized_terms(n, a, b, m):
    return single_sum([-n, a, b], [a + m, b + 1], n)


def pochhammer_terms(n, a, b):
    """The sum of identity_3f2_pochhammer: the m = 1 case."""
    return m_generalized_terms(n, a, b, 1)


def meixner_classical_terms(n, x, beta, c):
    return single_sum([-n, -x], [beta], n, 1 - 1 / c)


def charlier_classical_terms(n, x, a):
    return single_sum([-n, -x], [], n, -1 / a)


def laguerre_classical_terms(n, x, alpha):
    return single_sum([-n], [alpha + 1], n, x)


def cauchy_single_sum(nums, dens, top):
    """A lone terminating sum at argument 1, as a route sum (C_m = 1)."""
    return hyperkernel._cauchy(top, nums, dens + [1], 1, [0], [])


def as_route(spec):
    """A double-sum spec of ``fraction_double_sum`` as a closedforms route sum.

    Each inner terminating sum at argument z is a Cauchy sum with s = z,
    ``d_nums = [0]`` (so that C_m = z^m) and a 1 among ``t_dens``.
    """
    n, outer_nums, outer_dens, outer_scale, (nums, dens, arg, top) = spec
    return n, outer_nums, outer_dens, outer_scale, lambda k: (
        top(k), [b + s * k + o for b, s, o in nums],
        [b + s * k + o for b, s, o in dens] + [1], arg, [0], [])


# Each sum: its builder in closedforms, the paper's double sum that it
# evaluates, and the number of inputs after n.
EXACT_SUMS = {
    "meixner-4f3": (closedforms._meixner_4f3_sum, meixner_4f3_terms, 4),
    "meixner-4f3-alt": (closedforms._meixner_4f3_alt_sum,
                        meixner_4f3_alt_terms, 4),
    "charlier-3f2": (closedforms._charlier_sum, charlier_terms, 3),
    "charlier-3f2-transformed": (closedforms._charlier_transformed_sum,
                                 charlier_transformed_terms, 3),
    "laguerre-3f2": (closedforms._laguerre_sum, laguerre_terms, 3),
    "laguerre-3f2-rahman": (closedforms._laguerre_rahman_sum,
                            laguerre_rahman_terms, 3),
    "3f2-pochhammer": (
        lambda n, a, b: closedforms._m_generalized_sum(n, a, b, 1),
        pochhammer_terms, 2),
    "3f2-m-generalized": (
        lambda n, a, b: closedforms._m_generalized_sum(n, a, b, 3),
        lambda n, a, b: m_generalized_terms(n, a, b, 3), 2),
    "finite-sum-4f3": (closedforms._finite_4f3_sum, finite_4f3_terms, 4),
    "3f2-t-powered": (closedforms._t_powered_sum, t_powered_terms, 3),
    "meixner-classical": (closedforms._meixner_classical_sum,
                          meixner_classical_terms, 3),
    "charlier-classical": (closedforms._charlier_classical_sum,
                           charlier_classical_terms, 2),
    "laguerre-classical": (closedforms._laguerre_classical_sum,
                           laguerre_classical_terms, 2),
}
# The sums that stay double sums, also drawn with a complex x.
COMPLEX_X_SUMS = ("charlier-3f2-transformed", "laguerre-3f2-rahman")


def draws(name):
    """Seeded ``(spec, reference spec, gaussian)`` triples of one sum.

    Every binary64 value is a dyadic rational, so seeded uniform draws
    are dyadic inputs with full 53-bit numerators.  The sums of
    ``COMPLEX_X_SUMS`` are drawn again with a dyadic complex x.
    """
    builder, paper, arity = EXACT_SUMS[name]
    rng = random.Random(name)
    for _ in range(6):
        n = rng.randint(1, 14)
        inputs = [Fraction(rng.uniform(-3.0, 3.0)) for _ in range(arity)]
        yield builder(n, *inputs), paper(n, *inputs), False
    if name in COMPLEX_X_SUMS:
        for _ in range(6):
            n = rng.randint(1, 14)
            x, x_ref = gaussian(Fraction(rng.uniform(-3.0, 3.0)),
                                Fraction(rng.uniform(-3.0, 3.0)))
            inputs = [Fraction(rng.uniform(-3.0, 3.0)) for _ in range(arity - 1)]
            yield builder(n, x, *inputs), paper(n, x_ref, *inputs), True


def exact_sum(spec):
    """The exact engine's value of a route sum."""
    return hyperkernel._sum(*spec)[0]


def parts(value):
    """The real and imaginary parts of an exact value."""
    return (value.re, value.im) if hasattr(value, "re") else (value, 0)


@pytest.mark.parametrize("name", list(EXACT_SUMS))
def test_exact_engine_equals_fraction_reference(name):
    # A collapsed Cauchy sum equals the paper's double sum it collapses,
    # exactly, and so does the paper's double sum run by the same engine.
    for spec, reference, _ in draws(name):
        want = parts(fraction_double_sum(*reference))
        assert parts(exact_sum(spec)) == want
        assert parts(exact_sum(as_route(reference))) == want


def test_exact_engine_terminates_early():
    # gamma = 0 is a numerator parameter of every inner sum, so each one
    # stops at its first term, and the double sum is a terminating 2F1.
    x, beta, c = Fraction(3), Fraction(3, 2), Fraction(2, 5)
    spec = meixner_4f3_terms(9, x, beta, c, Fraction(0))
    value = exact_sum(as_route(spec))
    assert value == fraction_double_sum(*spec)
    assert value == fraction_hyp([-9, beta + x], [beta], 1 - c, 9)
    assert exact_sum(closedforms._meixner_4f3_sum(9, x, beta, c, Fraction(0))) == value
    inputs = (Fraction(5, 4), Fraction(1, 2), Fraction(0))
    spec = laguerre_terms(7, *inputs)
    assert exact_sum(as_route(spec)) == fraction_double_sum(*spec)
    assert (exact_sum(closedforms._laguerre_sum(7, *inputs))
            == fraction_double_sum(*spec))
    # The two sums that stay double sums: with gamma = 0 they are the
    # classical 1F1 and 2F0.
    x, alpha, a = Fraction(5, 4), Fraction(1, 3), Fraction(3, 2)
    value = exact_sum(closedforms._laguerre_rahman_sum(7, x, alpha, Fraction(0)))
    assert value == fraction_double_sum(*laguerre_rahman_terms(7, x, alpha, 0))
    assert value == fraction_hyp([-7], [alpha + 1], x, 7)
    value = exact_sum(closedforms._charlier_transformed_sum(7, x, a, Fraction(0)))
    assert value == fraction_double_sum(*charlier_transformed_terms(7, x, a, 0))
    assert value == fraction_hyp([-7, -x], [], -1 / a, 7)


def twice(route):
    """A route sum run as both inner sums of an outer sum of degree 1."""
    inner = route[4](0)
    return 1, [], [], 1, lambda k: inner


@pytest.mark.parametrize(
    "nums, dens, expected",
    [
        # -1 cancels exactly, leaving (1 - 1)^3.
        ([Fraction(-3), Fraction(-1)], [Fraction(-1)], Fraction(0)),
        # The zero numerator at offset 1 ends the sum before the pole at 2.
        ([Fraction(-1)], [Fraction(-2)], Fraction(3, 2)),
    ],
    ids=["exact-cancellation", "termination-before-pole"],
)
def test_exact_engine_cancellation_and_termination(nums, dens, expected):
    spec = single_sum(nums, dens, 5)
    assert fraction_double_sum(*spec) == expected
    floats = ([float(p) for p in nums], [float(q) for q in dens], 5)
    # The sum as the paper's double sum, as a lone Cauchy sum, and as both
    # inner sums of an outer sum cancels and terminates alike.
    for route, binary64, want in (
            (as_route(spec), as_route(single_sum(*floats)), expected),
            (cauchy_single_sum(nums, dens, 5), cauchy_single_sum(*floats),
             expected),
            (twice(cauchy_single_sum(nums, dens, 5)),
             twice(cauchy_single_sum(*floats)), 2 * expected)):
        assert exact_sum(route) == want
        value, _ = hyperkernel._sum(*binary64)
        assert value == float(want)
        # The certified engine: an exact zero straddles 0 at every
        # precision, so it runs every pass and the exact engine decides
        # (a positive zero).
        value, passes = certified(route, 64)
        assert repr(value) == repr(float(want))
        assert len(passes) == (hyperkernel._ZIV_ROUNDS if want == 0 else 1)
        # From 2**1200 on, both ends of a zero's interval round to zeros of
        # opposite sign, which compare equal: only the sign check refuses.
        value, _ = certified(route, 1200)
        assert repr(value) == repr(float(want))


def test_exact_engine_cancels_only_equal_parameters():
    # A numerator 2^-60 away from the denominator -1 does not cancel it.
    nums = [Fraction(-3), Fraction(-1) + Fraction(1, 2**60)]
    for spec in (as_route(single_sum(nums, [Fraction(-1)], 5)),
                 cauchy_single_sum(nums, [Fraction(-1)], 5),
                 twice(cauchy_single_sum(nums, [Fraction(-1)], 5))):
        with pytest.raises(DenominatorPole, match="at offset 1 "):
            exact_sum(spec)
        with pytest.raises(DenominatorPole, match="at offset 1 "):
            certified(spec, 64)


def test_exact_engine_raises_denominator_pole_at_same_offset():
    # a + 1 = -1 is a denominator parameter: it vanishes at offset 1.
    a, b = Fraction(-2), Fraction(7, 4)
    spec = pochhammer_terms(6, a, b)
    cauchy = closedforms._m_generalized_sum(6, a, b, 1)
    binary64 = closedforms._m_generalized_sum(6, float(a), float(b), 1)
    for evaluate in (lambda: fraction_double_sum(*spec),
                     lambda: exact_sum(as_route(spec)),
                     lambda: certified(as_route(spec), 64),
                     lambda: exact_sum(cauchy),
                     lambda: hyperkernel._certified_cauchy_sum(cauchy, 64,
                                                               False, True),
                     lambda: hyperkernel._sum(*binary64),
                     lambda: exact_sum(twice(cauchy)),
                     lambda: certified(twice(cauchy), 64),
                     lambda: hyperkernel._sum(*twice(binary64))):
        with pytest.raises(DenominatorPole, match="at offset 1 "):
            evaluate()


def test_exact_engine_outer_zero_divisor_raises():
    spec = (3, [], [Fraction(-1)], Fraction(1), ([], [], Fraction(1), lambda k: 0))
    with pytest.raises(ZeroDivisionError):
        fraction_double_sum(*spec)
    binary64 = (3, [], [-1.0], 1.0, lambda k: (0, [], [], 1.0, [0], []))
    for evaluate in (lambda: exact_sum(as_route(spec)),
                     lambda: certified(as_route(spec), 64),
                     lambda: hyperkernel._sum(*binary64)):
        with pytest.raises(ZeroDivisionError):
            evaluate()


def test_escalated_routes_round_the_exact_rational(monkeypatch):
    engine = hyperkernel._certified_cauchy_sum
    checked = []

    def recorded(*args):
        value = engine(*args)
        checked.append(value)
        return value

    monkeypatch.setattr(hyperkernel, "_certified_cauchy_sum", recorded)
    params = MeixnerParams(1.5, 0.4, 0.0)
    assert rel(meixner_4f3(3.0, params, 25), meixner_seq(3.0, params, 25)[25]) < 1e-9
    report = identity_3f2_pochhammer(20, 1.5, 0.75)
    assert report.passed
    assert report.lhs == checked[-1]
    # Each escalated sum is the paper's double sum at the given inputs,
    # rounded once.
    exact = [fraction_double_sum(*meixner_4f3_terms(
                 25, *map(Fraction, (3.0, 1.5, 0.4, 0.0)))),
             fraction_double_sum(*pochhammer_terms(
                 20, Fraction(1.5), Fraction(0.75)))]
    assert checked == [float(value) for value in exact]


def test_double_sum_condition_counts_each_inner_value():
    # The peak of an outer term is |coef_k| max(peak_k, |S_k|): the inner
    # 3F2 values of this sum exceed their own term peaks, and with the
    # peaks alone the estimate stays below the escalation threshold and
    # the binary64 sum is 2.9e-11 off.
    inputs = (3.0, -0.5, 2.7)
    value = hyperkernel._resum(closedforms._laguerre_rahman_sum, 25, inputs)
    exact = fraction_double_sum(*laguerre_rahman_terms(25, *map(Fraction, inputs)))
    assert repr(value) == repr(float(exact))


# ---------------------------------------------------------------------------
# The certified fixed-point engine against the exact reference
# ---------------------------------------------------------------------------


def certified(spec, prec, gaussian=False):
    """The certified engine's value for a spec and the precision of each pass."""
    passes = []
    fixed = hyperkernel._fixed_point

    def counted(p, *args):
        passes.append(p)
        return fixed(p, *args)

    hyperkernel._fixed_point = counted
    try:
        return (hyperkernel._certified_cauchy_sum(spec, prec, gaussian,
                                                  not gaussian), passes)
    finally:
        hyperkernel._fixed_point = fixed


@pytest.mark.parametrize("name", list(EXACT_SUMS))
def test_certified_engine_equals_fraction_reference(name):
    # Each seeded dyadic draw summed from every starting precision in
    # 4..94 bits, so that many passes certify at the edge of the last
    # bit, where an error bound that is too small shows as a wrong double.
    for spec, reference, complex_x in draws(name):
        want = fraction_double_sum(*reference)
        want = want.rounded() if complex_x else float(want)
        for prec in range(4, 95, 3):
            value, _ = certified(spec, prec, complex_x)
            assert repr(value) == repr(want), (spec, prec)


NEAR_POLE = Fraction(-1) + Fraction(1, 2**30)
OUTER_NEAR_POLE = (3, [Fraction(1, 3)], [NEAR_POLE], Fraction(-5, 7),
                   ([(Fraction(-3), 1, 0), (Fraction(2, 5), 0, 0)],
                    [(Fraction(3, 4), 1, 0)], Fraction(1), lambda k: 3 - k))


@pytest.mark.parametrize(
    "spec, reference",
    [
        (cauchy_single_sum([Fraction(-4), Fraction(1, 3)], [NEAR_POLE], 4),
         single_sum([Fraction(-4), Fraction(1, 3)], [NEAR_POLE], 4)),
        (as_route(OUTER_NEAR_POLE), OUTER_NEAR_POLE),
        # b + 1 is a denominator of T_m, a + 1 one of d_m.
        (closedforms._t_powered_sum(4, Fraction(1, 3), NEAR_POLE - 1, Fraction(-5, 7)),
         t_powered_terms(4, Fraction(1, 3), NEAR_POLE - 1, Fraction(-5, 7))),
        (closedforms._t_powered_sum(4, NEAR_POLE - 1, Fraction(2, 5), Fraction(-5, 7)),
         t_powered_terms(4, NEAR_POLE - 1, Fraction(2, 5), Fraction(-5, 7))),
    ],
    ids=["inner", "outer", "cauchy-t", "cauchy-d"],
)
def test_certified_engine_bounds_steep_growth(spec, reference):
    # A factor 2**-30 in a denominator multiplies the error of the term
    # before it by 2**30: a bound that does not grow by |a/b| certifies
    # a wrong double from some starting precision.
    want = float(fraction_double_sum(*reference))
    for prec in range(4, 95, 3):
        value, _ = certified(spec, prec)
        assert repr(value) == repr(want), prec


def test_certified_engine_retries_from_a_small_precision(monkeypatch):
    # The lattice-point sum of meixner_4f3: its terms reach 1e12 times
    # its value 2.9e-7 (1e13 times as a Cauchy sum), so 48 bits cannot
    # certify it and 96 can.
    monkeypatch.setattr(hyperkernel, "_sum", None)
    monkeypatch.setattr(hyperkernel, "_cauchy_sum", None)
    inputs = (Fraction(3), Fraction(3, 2), Fraction(2, 5), Fraction(0))
    want = float(fraction_double_sum(*meixner_4f3_terms(25, *inputs)))
    for spec in (as_route(meixner_4f3_terms(25, *inputs)),
                 closedforms._meixner_4f3_sum(25, *inputs)):
        value, passes = certified(spec, 48)
        assert value == want
        assert passes == [48, 96]


def test_certified_engine_sizes_a_retry_from_the_failed_interval(monkeypatch):
    # The c = 1 chain's 3F2 at n = 200 reads -2.96e39 in binary64 against
    # an exact 3.26e-2, so its first pass has 16 bits.  Doubling stopped at
    # 64 bits and fell back to the exact loop; the retry sized from the
    # 16-bit interval certifies.
    inputs = (2.2, 0.7, 3.2, 1.7, 1.0)
    total, cond = hyperkernel._sum(*genfuncs._c1_terms(200, *inputs))
    prec = hyperkernel._first_precision(total, cond)
    exact = [Fraction(v) for v in inputs]
    want = float(fraction_hyp([-200, *exact[:2]], exact[2:4], exact[4], 200))
    monkeypatch.setattr(hyperkernel, "_sum", None)
    value, passes = certified(genfuncs._c1_terms(200, *exact), prec)
    assert value == want
    assert passes[0] == 16 and len(passes) == 2


def test_classical_routes_escalate():
    # The 1F1 terms of L_60^(-1/2)(3) reach 2e8 times its value, so the
    # unescalated sum was off by 3.3e-7.
    x, alpha, n = Fraction(3), Fraction(-1, 2), 60
    exact = (math.prod(alpha + 1 + j for j in range(n)) / math.factorial(n)
             * fraction_hyp([-n], [alpha + 1], x, n))
    assert rel(laguerre_classical(3.0, -0.5, 60), float(exact)) < 1e-14


def test_collapsed_routes_run_one_cauchy_sum(monkeypatch):
    engine = hyperkernel._cauchy_sum
    calls = []

    def counted(*args):
        calls.append(args[0])
        return engine(*args)

    monkeypatch.setattr(hyperkernel, "_cauchy_sum", counted)
    for x in (0.9, 3.0, 0.9 + 0.4j):
        for route, params in ((meixner_4f3, MeixnerParams(1.5, 0.4, 0.3)),
                              (meixner_4f3_alt, MeixnerParams(1.5, 0.4, 0.3)),
                              (charlier_3f2, CharlierParams(2.0, 0.7)),
                              (laguerre_3f2, LaguerreParams(0.5, 0.7)),
                              (_RAHMAN, LaguerreParams(0.5, 0.7))):
            calls.clear()
            route(x, params, 12)
            assert calls == [12]
    # The double sums that do not collapse run one inner sum per outer term.
    calls.clear()
    charlier_3f2(0.9, CharlierParams(2.0, 0.7), 12, "transformed")
    assert calls == [min(k, 12 - k) for k in range(13)]


# ---------------------------------------------------------------------------
# Complex inputs: Gaussian fixed point against the exact Gaussian reference
# ---------------------------------------------------------------------------


def gaussian(re, im):
    """One Gaussian rational for the engine and for the reference."""
    return hyperkernel._Gaussian(re, im), GaussQ(re, im)


# b = -2 + 2^-40 + 2^-30 i: b + 1 + j is 2^-40 + 2^-30 i at offset j = 1,
# so dividing by it scales the error of a component by about 2^30 through
# the imaginary part of its inverse.
NEAR_POLE_B = gaussian(Fraction(-2) + Fraction(1, 2**40), Fraction(1, 2**30))
T_COMPLEX = gaussian(Fraction(-5, 7), Fraction(1, 3))


@pytest.mark.parametrize("steep", ["t", "d"])
def test_gaussian_engine_bounds_steep_growth(steep):
    # The near-pole parameter is b + 1 in the denominators of T_m, or
    # a + 1 in those of d_m: both components must come out right.
    third = Fraction(1, 3)
    if steep == "t":
        spec = closedforms._t_powered_sum(4, third, NEAR_POLE_B[0], T_COMPLEX[0])
        reference = t_powered_terms(4, third, NEAR_POLE_B[1], T_COMPLEX[1])
    else:
        spec = closedforms._t_powered_sum(4, NEAR_POLE_B[0], third, T_COMPLEX[0])
        reference = t_powered_terms(4, NEAR_POLE_B[1], third, T_COMPLEX[1])
    want = fraction_double_sum(*reference)
    value = exact_sum(spec)
    assert (value.re, value.im) == (want.re, want.im)
    for prec in range(4, 95, 3):
        value, _ = certified(spec, prec, gaussian=True)
        assert repr(value) == repr(want.rounded()), prec


def test_gaussian_engine_falls_back_on_an_exact_zero_component():
    # 1 - (t + ab/(a+1))/(b+1) at n = 1, a = b = 1 and t = 3/2 + i/7 is
    # -i/14: its real part straddles 0 at every precision, so every pass
    # runs and the exact loop decides.
    t, t_ref = gaussian(Fraction(3, 2), Fraction(1, 7))
    want = fraction_double_sum(*t_powered_terms(1, 1, 1, t_ref))
    assert want == GaussQ(0, Fraction(-1, 14))
    spec = closedforms._t_powered_sum(1, Fraction(1), Fraction(1), t)
    value, passes = certified(spec, 64, gaussian=True)
    assert repr(value) == repr(want.rounded())
    assert len(passes) == hyperkernel._ZIV_ROUNDS


def test_gaussian_engine_raises_denominator_pole_at_same_offset():
    # a + 1 = -1 + 0i vanishes at offset 1, beside a complex b.
    a, a_ref = gaussian(-2, 0)
    b, b_ref = gaussian(Fraction(7, 4), Fraction(1, 3))
    spec = closedforms._m_generalized_sum(6, a, b, 1)
    binary64 = closedforms._m_generalized_sum(6, -2 + 0j, 1.75 + 1j / 3, 1)
    for evaluate in (lambda: fraction_double_sum(*pochhammer_terms(6, a_ref, b_ref)),
                     lambda: exact_sum(spec),
                     lambda: hyperkernel._certified_cauchy_sum(spec, 64,
                                                               True, False),
                     lambda: hyperkernel._sum(*binary64)):
        with pytest.raises(DenominatorPole, match="at offset 1 "):
            evaluate()


# M_25(x; beta = 0.5, c = 0.2, gamma = 0.3) from the exact Gaussian
# rational, each component rounded once (also checked against mpmath at 80
# digits).  Unescalated complex sums were off by up to 1e-3 relative here.
COMPLEX_MEIXNER = [
    (3.0, -1.1371237335185186e+38),
    (3 + 1e-12j, complex(-1.1371237335185186e+38, 4.39569855099991e+26)),
    (3 + 0.1j, complex(-1.1349425423505767e+38, 4.4783478808233175e+37)),
    (0.5 + 0.5j, complex(-6.148884449869647e+40, 4.784405270634503e+40)),
]


@pytest.mark.parametrize("x, exact", COMPLEX_MEIXNER,
                         ids=["3", "3+1e-12j", "3+0.1j", "0.5+0.5j"])
def test_meixner_4f3_complex_points_match_exact(x, exact):
    value = meixner_4f3(x, MeixnerParams(0.5, 0.2, 0.3), 25)
    assert abs(value - exact) <= 1e-13 * abs(exact)


@pytest.mark.parametrize(
    "route, paper, x, inputs",
    [
        # x next to a real zero of C_25(x; a = 2, gamma = 0.3): the sum
        # cancels to 1e-12 of its terms.
        (lambda x, n: charlier_3f2(x, CharlierParams(2.0, 0.3), n, "transformed"),
         charlier_transformed_terms, complex(0.04993249182026794, 1e-9),
         (2.0, 0.3)),
        (lambda x, n: laguerre_3f2(x, LaguerreParams(-0.5, 2.7), n, "rahman"),
         laguerre_rahman_terms, complex(3.0, 0.1), (-0.5, 2.7)),
    ],
    ids=["charlier-3f2-transformed", "laguerre-3f2-rahman"],
)
def test_double_sums_escalate_complex_x(monkeypatch, route, paper, x, inputs):
    engine = hyperkernel._certified_cauchy_sum
    escalated = []

    def recorded(*args):
        escalated.append(engine(*args))
        return escalated[-1]

    monkeypatch.setattr(hyperkernel, "_certified_cauchy_sum", recorded)
    route(x, 25)
    want = fraction_double_sum(*paper(25, GaussQ(x.real, x.imag),
                                      *map(Fraction, inputs)))
    assert [repr(value) for value in escalated] == [repr(want.rounded())]


def test_rahman_convolution_certifies_in_one_pass(monkeypatch):
    # The slowest kernel-warm operations were escalated Rahman sums such as
    # this one; its convolution pass sizes the scales of its three
    # sequences itself, so the first precision certifies.
    x = complex(2.7972288742646905, 0.0093288878495153)
    alpha, gamma = 0.04649618516698728, 2.0238777036242297
    engine, fixed = hyperkernel._certified_cauchy_sum, hyperkernel._fixed_point
    escalated, passes = [], []

    def recorded(*args):
        escalated.append(engine(*args))
        return escalated[-1]

    def counted(prec, *args):
        passes.append(prec)
        return fixed(prec, *args)

    monkeypatch.setattr(hyperkernel, "_certified_cauchy_sum", recorded)
    monkeypatch.setattr(hyperkernel, "_fixed_point", counted)
    value = hyperkernel._resum(closedforms._laguerre_rahman_sum, 25, (x, alpha, gamma))
    want = fraction_double_sum(*laguerre_rahman_terms(
        25, GaussQ(x.real, x.imag), Fraction(alpha), Fraction(gamma)))
    assert [repr(v) for v in escalated] == [repr(want.rounded())]
    assert value is escalated[0]
    assert len(passes) == 1


# Each route with complex x, its paper double sum, and its parameters
# drawn as in the benchmark's complex-x operations.
COMPLEX_ROUTES = {
    "meixner-4f3": (meixner_4f3, meixner_4f3_terms, MeixnerParams,
                    [(0.3, 2.7), (0.2, 0.8), (0.0, 2.7)]),
    "meixner-4f3-alt": (meixner_4f3_alt, meixner_4f3_alt_terms, MeixnerParams,
                        [(0.3, 2.7), (0.2, 0.8), (0.0, 2.7)]),
    "charlier-3f2": (charlier_3f2, charlier_terms, CharlierParams,
                     [(0.5, 5.0), (0.0, 2.7)]),
    "charlier-3f2-transformed": (
        lambda x, params, n: charlier_3f2(x, params, n, "transformed"),
        charlier_transformed_terms, CharlierParams, [(0.5, 5.0), (0.0, 2.7)]),
    "laguerre-3f2": (laguerre_3f2, laguerre_terms, LaguerreParams,
                     [(-0.5, 1.7), (0.0, 2.7)]),
    "laguerre-3f2-rahman": (
        lambda x, params, n: laguerre_3f2(x, params, n, "rahman"),
        laguerre_rahman_terms, LaguerreParams, [(-0.5, 1.7), (0.0, 2.7)]),
}


@given(
    name=st.sampled_from(sorted(COMPLEX_ROUTES)),
    re=st.floats(-1.2, 3.0),
    log_im=st.floats(-3.0, 0.0),
    shares=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    n=st.integers(1, 25),
)
@settings(max_examples=40, deadline=None)
def test_escalated_complex_components_are_correctly_rounded(name, re, log_im,
                                                            shares, n):
    route, paper, params_type, ranges = COMPLEX_ROUTES[name]
    x = complex(re, 10.0 ** log_im)
    inputs = [lo + share * (hi - lo) for share, (lo, hi) in zip(shares, ranges)]
    engine = hyperkernel._certified_cauchy_sum
    escalated = []

    def recorded(*args):
        escalated.append(engine(*args))
        return escalated[-1]

    hyperkernel._certified_cauchy_sum = recorded
    try:
        route(x, params_type(*inputs), n)
    except (DenominatorPole, RestrictedParameter):
        assume(False)
    finally:
        hyperkernel._certified_cauchy_sum = engine
    for value in escalated:
        want = fraction_double_sum(*paper(n, GaussQ(x.real, x.imag),
                                          *map(Fraction, inputs)))
        assert repr(value) == repr(want.rounded())


# ---------------------------------------------------------------------------
# The kernels' terminating sums run on the same engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "evaluate, nums, dens, arg, top",
    [
        # A term-by-term loop read -3.47e7, 9.2e16, a 1.7e-8 relative
        # error and, for 3F2(-200, ...), 4.2e38 at these sums.
        (lambda: kummer_1f1(-40, 0.5, 30).value, [-40], [0.5], 30, 40),
        (lambda: kummer_1f1(-60, 1.5, 45).value, [-60], [1.5], 45, 60),
        (lambda: gauss_2f1(-40, 0.3, 1.7, 0.9).value, [-40, 0.3], [1.7], 0.9, 40),
        *[(lambda n=n: hyp_terminating([-n, 2.2, 0.7], [3.2, 1.7], 1.0, n),
           [-n, 2.2, 0.7], [3.2, 1.7], 1.0, n) for n in (50, 100, 200)],
    ],
    ids=["1f1-40", "1f1-60", "2f1-40", "3f2-50", "3f2-100", "3f2-200"],
)
def test_terminating_kernels_round_the_exact_sum(evaluate, nums, dens, arg, top):
    want = fraction_hyp([Fraction(p) for p in nums], [Fraction(q) for q in dens],
                        Fraction(arg), top)
    assert repr(evaluate()) == repr(float(want))


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: gauss_2f1(-40, 0.3, 1.7, 0.9),
        lambda: kummer_1f1(-40, 0.5, 30),
        # The inner 3F2(1) sums of the c = 1 chain cancel past 1e4 here.
        lambda: c1_reduction_identity(2.5, 0.7, 0.5, 1e-8),
    ],
    ids=["gauss_2f1", "kummer_1f1", "c1-chain"],
)
def test_kernel_terminating_branches_escalate(monkeypatch, evaluate):
    # An escalated sum is rounded from its own exact pass, or, for the
    # degrees of the c = 1 chain, from the pass they share.
    escalated = []
    for name in ("_certified_cauchy_sum", "_shared_value"):
        def recorded(*args, engine=getattr(hyperkernel, name)):
            value = engine(*args)
            if value is not None:
                escalated.append(value)
            return value

        monkeypatch.setattr(hyperkernel, name, recorded)
    evaluate()
    assert escalated


@given(
    n=st.integers(5, 40),
    a=st.one_of(st.none(), st.complex_numbers(max_magnitude=3.0)),
    b_re=st.floats(0.2, 3.0),
    b_im=st.floats(-1.0, 1.0),
    z_re=st.floats(1.0, 40.0),
    z_im=st.floats(-20.0, 20.0),
)
@example(n=40, a=None, b_re=0.5, b_im=0.25, z_re=30.0, z_im=5.0)
@settings(max_examples=40, deadline=None)
def test_escalated_complex_terminating_sums_are_correctly_rounded(n, a, b_re, b_im,
                                                                  z_re, z_im):
    # A 1F1(-n; b; z) or 2F1(-n, a; b; z) with complex b and z; each
    # escalated component equals the exact Gaussian sum's, rounded once.
    nums = [-n] if a is None else [-n, a]
    b, z = complex(b_re, b_im), complex(z_re, z_im)
    engine = hyperkernel._certified_cauchy_sum
    escalated = []

    def recorded(*args):
        escalated.append(engine(*args))
        return escalated[-1]

    hyperkernel._certified_cauchy_sum = recorded
    try:
        value = hyp_terminating(nums, [b], z, n)
    finally:
        hyperkernel._certified_cauchy_sum = engine
    if escalated:
        want = fraction_hyp([GaussQ(p.real, p.imag) for p in map(complex, nums)],
                            [GaussQ(b.real, b.imag)], GaussQ(z.real, z.imag), n)
        assert [repr(v) for v in escalated] == [repr(want.rounded())]
        assert value is escalated[0]


# ---------------------------------------------------------------------------
# Range forms: degrees lo..hi in one call, with the per-degree bits
# ---------------------------------------------------------------------------

# Each range form, its per-degree route and the family of its parameters.
RANGE_FORMS = {
    "4f3": (closedforms._meixner_4f3_range, meixner_4f3, "meixner"),
    "4f3-alt": (closedforms._meixner_4f3_alt_range, meixner_4f3_alt, "meixner"),
    "quadratic": (closedforms._meixner_quadratic_range, meixner_quadratic,
                  "meixner"),
    "cross": (closedforms._meixner_cross_2f1_range, meixner_cross_2f1,
              "meixner"),
    "meixner-classical": (
        lambda x, p, lo, hi: closedforms._meixner_classical_range(
            x, p.beta, p.c, lo, hi),
        lambda x, p, n: meixner_classical(x, p.beta, p.c, n), "meixner"),
    "charlier-3f2": (closedforms._charlier_3f2_range, charlier_3f2, "charlier"),
    "charlier-classical": (
        lambda x, p, lo, hi: closedforms._charlier_classical_range(
            x, p.a, lo, hi),
        lambda x, p, n: charlier_classical(x, p.a, n), "charlier"),
    "laguerre-3f2": (closedforms._laguerre_3f2_range, laguerre_3f2, "laguerre"),
    "laguerre-classical": (
        lambda x, p, lo, hi: closedforms._laguerre_classical_range(
            x, p.alpha, lo, hi),
        lambda x, p, n: laguerre_classical(x, p.alpha, n), "laguerre"),
}


def per_degree(route, x, params, lo, hi):
    """The repr of each degree's value, up to the first degree that raises,
    and that degree's ``(type, message)`` or None."""
    values = []
    for n in range(lo, hi + 1):
        try:
            values.append(repr(route(x, params, n)))
        except Exception as exc:
            return values, (type(exc), str(exc))
    return values, None


def assert_range_is_per_degree(name, x, params, lo, hi):
    ranged, route, _ = RANGE_FORMS[name]
    want, error = per_degree(route, x, params, lo, hi)
    if error is None:
        assert [repr(v) for v in ranged(x, params, lo, hi)] == want
    else:
        with pytest.raises(error[0]) as info:
            ranged(x, params, lo, hi)
        assert str(info.value) == error[1]
    return error


def near(rng, w, within_tol):
    """w moved by 1e-9 to 1e-3 either way, or to 1e-8 with ``within_tol``,
    where a route takes w for the integer."""
    return w + rng.choice((-1, 1)) * 10 ** rng.uniform(-9, -8 if within_tol
                                                       else -3)


def range_draws(name, kind, count=10):
    """Seeded ``(x, params, lo)`` draws of one kind for a range form; every
    third near draw lies within 1e-8."""
    family = RANGE_FORMS[name][2]
    rng = random.Random(f"{name}/{kind}")
    for i in range(count):
        gamma = rng.uniform(0.0, 3.0)
        if family == "meixner":
            beta = (near(rng, rng.randint(1, 3), i % 3 == 0)
                    if kind == "beta-near-int" else rng.uniform(0.2, 3.0))
            params = MeixnerParams(beta, rng.uniform(0.15, 0.9), gamma)
        elif family == "charlier":
            params = CharlierParams(rng.uniform(0.5, 5.0), gamma)
        else:
            params = LaguerreParams(rng.uniform(-0.9, 2.0), gamma)
        if kind == "complex":
            x = complex(rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0))
        elif kind == "x-near-pole":
            x = near(rng, gamma + rng.randint(0, 8), i % 3 == 0)
        else:
            x = rng.uniform(-3.0, 3.0)
        yield x, params, rng.choice((0, 0, 4))


@pytest.mark.parametrize("name, kind", [
    (name, kind) for name, (_, _, family) in RANGE_FORMS.items()
    for kind in ("real", "complex", "x-near-pole", "beta-near-int")
    if kind != "beta-near-int" or family == "meixner"])
def test_range_form_gives_the_per_degree_bits(name, kind):
    # Near-pole draws escalate at most degrees, and those within 1e-8 of
    # a pole refuse from a middle degree; either way the range form gives
    # each degree's repr, or raises what the first failing degree raises.
    for x, params, lo in range_draws(name, kind):
        assert_range_is_per_degree(name, x, params, lo, 25)


@pytest.mark.parametrize("name, x, params, degree, message", [
    # x - gamma = 4 refuses from degree 5.
    ("4f3-alt", 4.7, MeixnerParams(1.5, 0.4, 0.7), 5, "x - gamma"),
    ("charlier-3f2", 4.7, CharlierParams(1.3, 0.7), 5, "x - gamma"),
    # gamma+beta = -2 refuses from degree 3, before gamma+beta+x = -5 does.
    ("4f3", -3.0, MeixnerParams(-2.5, 0.4, 0.5), 3, "gamma+beta ="),
    ("4f3", -6.0, MeixnerParams(1.5, 0.4, 0.5), 5, "gamma+beta+x"),
    ("laguerre-3f2", 0.3, LaguerreParams(-4.5, 0.5), 4, "gamma+alpha+1"),
])
def test_range_form_refuses_at_the_middle_degree(name, x, params, degree,
                                                 message):
    error = assert_range_is_per_degree(name, x, params, 0, 10)
    assert error[0] is DenominatorPole
    assert error[1].startswith(message)
    assert f"for degree {degree}" in error[1]
    # From a later first degree, the message names that degree.
    error = assert_range_is_per_degree(name, x, params, degree + 2, 10)
    assert f"for degree {degree + 2}" in error[1]


def count_calls(monkeypatch, module, name):
    """Count the calls of ``module.name`` from here on."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


# The lattice point of test_certified_engine_retries_from_a_small_precision,
# where most degrees escalate.
LATTICE = (3.0, MeixnerParams(1.5, 0.4, 0.0))


def test_range_form_escalations_share_one_pass(monkeypatch):
    escalated = count_calls(monkeypatch, hyperkernel, "_certified_cauchy_sum")
    want, _ = per_degree(meixner_4f3, *LATTICE, 0, 25)
    assert len(escalated) > 10
    passes = count_calls(monkeypatch, hyperkernel, "_shared_pass")
    escalated.clear()
    values = closedforms._meixner_4f3_range(*LATTICE, 0, 25)
    assert [repr(v) for v in values] == want
    assert len(passes) == 1
    assert escalated == []


@pytest.mark.parametrize("name, x, params, hi", [
    ("4f3", *LATTICE, 25),
    # The point of test_classical_routes_escalate.
    ("laguerre-classical", 3.0, LaguerreParams(-0.5, 0.0), 60),
])
def test_range_form_falls_back_when_the_shared_pass_misses(monkeypatch, name,
                                                           x, params, hi):
    # At 8 bits no degree's interval rounds to one double, so each
    # escalating degree tries the shared pass and then runs the certified
    # engine alone, with its bits.
    ranged, route, _ = RANGE_FORMS[name]
    escalated = count_calls(monkeypatch, hyperkernel, "_certified_cauchy_sum")
    want, _ = per_degree(route, x, params, 0, hi)
    shared = hyperkernel._shared_pass
    monkeypatch.setattr(hyperkernel, "_shared_pass",
                        lambda prec, spec: shared(8, spec))
    tried = count_calls(monkeypatch, hyperkernel, "_shared_value")
    count = len(escalated)
    escalated.clear()
    assert [repr(v) for v in ranged(x, params, 0, hi)] == want
    assert len(escalated) == len(tried) == count > 3


def test_range_form_shared_pass_stops_at_a_pole():
    # beta = -3 puts a zero at offset 3 into (beta)_m of the classical
    # Meixner sum: the pass keeps Q_0..Q_3, so degrees up to 3 take their
    # value from it, and a later degree runs alone and raises.
    inputs = (Fraction(3, 10), Fraction(-3), Fraction(2, 5))
    prec, terms, complete = hyperkernel._shared_pass(
        96, closedforms._meixner_classical_sum(8, *inputs))
    assert (prec, len(terms), complete) == (96, 4, False)
    for n in range(4):
        want = float(hyperkernel._sum(
            *closedforms._meixner_classical_sum(n, *inputs))[0])
        assert hyperkernel._shared_value(prec, terms, complete, n, True) == want
    assert hyperkernel._shared_value(prec, terms, complete, 4, True) is None
    error = assert_range_is_per_degree("meixner-classical", 0.3,
                                       MeixnerParams(-3.0, 0.4, 0.0), 0, 8)
    assert error[0] is DenominatorPole


@pytest.mark.parametrize("name, x, params, hi", [
    ("4f3", *LATTICE, 110),
    ("laguerre-3f2", 3.0, LaguerreParams(0.5, 0.3), 150),
])
def test_long_range_forms_run_a_new_pass_as_degrees_need_more_bits(
        monkeypatch, name, x, params, hi):
    ranged, route, _ = RANGE_FORMS[name]
    want, _ = per_degree(route, x, params, 0, hi)
    passes = count_calls(monkeypatch, hyperkernel, "_shared_pass")
    assert [repr(v) for v in ranged(x, params, 0, hi)] == want
    bits = [prec for prec, _ in passes]
    assert len(bits) > 2 and bits == sorted(bits)


# The lone Cauchy sums of the range forms, whose first numerator of T is -n.
RANGE_SUMS = ["meixner-4f3", "meixner-4f3-alt", "charlier-3f2", "laguerre-3f2",
              "meixner-classical", "charlier-classical", "laguerre-classical"]


@pytest.mark.parametrize("name", RANGE_SUMS)
def test_shared_pass_equals_fraction_reference(name):
    # One pass at degree 14 from every starting precision in 4..94 bits,
    # so that many degrees certify at the edge of the last bit, where an
    # error bound that is too small shows as a wrong double.
    builder, _, arity = EXACT_SUMS[name]
    rng = random.Random(name)
    certified = 0
    for complex_x in (False, True) if name in COMPLEX_X_SUMS else (False,):
        for _ in range(3):
            inputs = [Fraction(rng.uniform(-3.0, 3.0)) for _ in range(arity)]
            if complex_x:
                inputs[0] = gaussian(Fraction(rng.uniform(-3.0, 3.0)),
                                     Fraction(rng.uniform(-3.0, 3.0)))[0]
            want = [repr(complex(v) if complex_x else float(v))
                    for v in (exact_sum(builder(n, *inputs)) for n in range(15))]
            for prec in range(4, 95, 3):
                shared = hyperkernel._shared_pass(prec, builder(14, *inputs))
                for n in range(15):
                    value = hyperkernel._shared_value(*shared, n, not complex_x)
                    if value is not None:
                        certified += 1
                        value = complex(value) if complex_x else value
                        assert repr(value) == want[n], (inputs, prec, n)
    assert certified > 100


@pytest.mark.parametrize("a, k_max", [(-3.0, 8), (-2.5 + 0.5j, 8), (0.5, 200),
                                      (-171.5, 200)])
def test_rising_chain_gives_pochhammer_bits(a, k_max):
    # A zero product keeps its sign, and overflow raises pochhammer's
    # message at the first k beyond binary64.
    chain = hyperkernel._Rising(a)
    for k in range(k_max + 1):
        try:
            want = repr(pochhammer(a, k))
        except OverflowError as exc:
            with pytest.raises(OverflowError) as info:
                chain(k)
            assert str(info.value) == str(exc)
            return
        assert repr(chain(k)) == want
