"""Closed-form representation tests.

Frozen oracle values were computed independently: rational recurrence
values with exact ``fractions.Fraction`` arithmetic, hypergeometric
sums with mpmath at 50 significant digits, short cases by hand.
"""

import math
import random
from fractions import Fraction

import pytest
import scipy.special
from hypothesis import assume, given, settings
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
    charlier_3f2,
    charlier_classical,
    charlier_seq,
    identity_3f2_m_generalized,
    identity_3f2_pochhammer,
    identity_3f2_t_powered,
    identity_4f3_finite_sum,
    laguerre_3f2,
    laguerre_classical,
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
)
from assocpoly import closedforms


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
# Exact re-summation: the integer engine against a Fraction reference
# ---------------------------------------------------------------------------


def fraction_hyp(nums, dens, arg, top):
    """Reference terminating sum, term by term in Fraction arithmetic."""
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
    """Reference double sum, term by term in Fraction arithmetic."""
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


def pochhammer_terms(n, a, b):
    """The sum of identity_3f2_pochhammer: the m = 1 case."""
    return closedforms._m_generalized_terms(n, a, b, 1)


# Each route's double sum and the number of real inputs after n.
EXACT_SUMS = {
    "meixner-4f3": (closedforms._meixner_4f3_terms, 4),
    "meixner-4f3-alt": (closedforms._meixner_4f3_alt_terms, 4),
    "charlier-3f2": (closedforms._charlier_terms, 3),
    "charlier-3f2-transformed": (closedforms._charlier_transformed_terms, 3),
    "laguerre-3f2": (closedforms._laguerre_terms, 3),
    "laguerre-3f2-rahman": (closedforms._laguerre_rahman_terms, 3),
    "3f2-pochhammer": (pochhammer_terms, 2),
}


@pytest.mark.parametrize("name", list(EXACT_SUMS))
def test_exact_engine_equals_fraction_reference(name):
    # Every binary64 value is a dyadic rational, so seeded uniform draws
    # are dyadic inputs with full 53-bit numerators.
    terms, arity = EXACT_SUMS[name]
    rng = random.Random(name)
    for _ in range(6):
        n = rng.randint(1, 14)
        inputs = [Fraction(rng.uniform(-3.0, 3.0)) for _ in range(arity)]
        spec = terms(n, *inputs)
        assert closedforms._exact_double_sum(*spec) == fraction_double_sum(*spec)


def test_exact_engine_terminates_early():
    # gamma = 0 is a numerator parameter of every inner sum, so each one
    # stops at its first term, and the double sum is a terminating 2F1.
    x, beta, c = Fraction(3), Fraction(3, 2), Fraction(2, 5)
    spec = closedforms._meixner_4f3_terms(9, x, beta, c, Fraction(0))
    value = closedforms._exact_double_sum(*spec)
    assert value == fraction_double_sum(*spec)
    assert value == fraction_hyp([-9, beta + x], [beta], 1 - c, 9)
    spec = closedforms._laguerre_terms(7, Fraction(5, 4), Fraction(1, 2), Fraction(0))
    assert closedforms._exact_double_sum(*spec) == fraction_double_sum(*spec)


def single_sum(nums, dens, top):
    """A lone terminating sum at argument 1, as a double sum of degree 0."""
    return 0, [], [], Fraction(1), ([(p, 0, 0) for p in nums],
                                     [(q, 0, 0) for q in dens],
                                     Fraction(1), lambda k: top)


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
    assert closedforms._exact_double_sum(*spec) == expected
    assert fraction_double_sum(*spec) == expected
    value, _ = closedforms._double_sum(*single_sum(
        [float(p) for p in nums], [float(q) for q in dens], 5))
    assert value == float(expected)
    # The certified engine: an exact zero straddles 0 at every precision,
    # so it runs every pass and the exact engine decides (a positive zero).
    value, passes = certified(spec, 64)
    assert repr(value) == repr(float(expected))
    assert len(passes) == (closedforms._ZIV_ROUNDS if expected == 0 else 1)
    # From 2**1200 on, both ends of a zero's interval round to zeros of
    # opposite sign, which compare equal: only the sign check refuses.
    value, _ = certified(spec, 1200)
    assert repr(value) == repr(float(expected))


def test_exact_engine_cancels_only_equal_parameters():
    # A numerator 2^-60 away from the denominator -1 does not cancel it.
    spec = single_sum([Fraction(-3), Fraction(-1) + Fraction(1, 2**60)],
                      [Fraction(-1)], 5)
    with pytest.raises(DenominatorPole, match="at offset 1 "):
        closedforms._exact_double_sum(*spec)
    with pytest.raises(DenominatorPole, match="at offset 1 "):
        closedforms._certified_double_sum(*spec, 64)


def test_exact_engine_raises_denominator_pole_at_same_offset():
    # a + 1 = -1 is a denominator parameter: it vanishes at offset 1.
    spec = pochhammer_terms(6, Fraction(-2), Fraction(7, 4))
    with pytest.raises(DenominatorPole, match="at offset 1 "):
        fraction_double_sum(*spec)
    with pytest.raises(DenominatorPole, match="at offset 1 "):
        closedforms._exact_double_sum(*spec)
    with pytest.raises(DenominatorPole, match="at offset 1 "):
        closedforms._certified_double_sum(*spec, 64)


def test_exact_engine_outer_zero_divisor_raises():
    spec = (3, [], [Fraction(-1)], Fraction(1), ([], [], Fraction(1), lambda k: 0))
    with pytest.raises(ZeroDivisionError):
        fraction_double_sum(*spec)
    with pytest.raises(ZeroDivisionError):
        closedforms._exact_double_sum(*spec)
    with pytest.raises(ZeroDivisionError):
        closedforms._certified_double_sum(*spec, 64)


def test_escalated_routes_round_the_exact_rational(monkeypatch):
    engine = closedforms._certified_double_sum
    checked = []

    def reference_checked(*args):
        value = engine(*args)
        assert value == float(fraction_double_sum(*args[:5]))
        checked.append(value)
        return value

    monkeypatch.setattr(closedforms, "_certified_double_sum", reference_checked)
    params = MeixnerParams(1.5, 0.4, 0.0)
    assert rel(meixner_4f3(3.0, params, 25), meixner_seq(3.0, params, 25)[25]) < 1e-9
    report = identity_3f2_pochhammer(20, 1.5, 0.75)
    assert report.passed
    assert report.lhs == checked[-1]
    assert len(checked) == 2


# ---------------------------------------------------------------------------
# The certified fixed-point engine against the Fraction reference
# ---------------------------------------------------------------------------


def certified(spec, prec):
    """The certified engine's value and the precision of each pass."""
    passes = []
    fixed = closedforms._fixed_point_sum

    def counted(p, *args):
        passes.append(p)
        return fixed(p, *args)

    closedforms._fixed_point_sum = counted
    try:
        return closedforms._certified_double_sum(*spec, prec), passes
    finally:
        closedforms._fixed_point_sum = fixed


@pytest.mark.parametrize("name", list(EXACT_SUMS))
def test_certified_engine_equals_fraction_reference(name):
    # Dyadic inputs as in the exact-engine test, each summed from every
    # starting precision in 4..94 bits, so that many passes certify at
    # the edge of the last bit, where an error bound that is too small
    # shows as a wrong double.
    terms, arity = EXACT_SUMS[name]
    rng = random.Random(name)
    for _ in range(6):
        n = rng.randint(1, 14)
        inputs = [Fraction(rng.uniform(-3.0, 3.0)) for _ in range(arity)]
        spec = terms(n, *inputs)
        want = float(fraction_double_sum(*spec))
        for prec in range(4, 95, 3):
            value, _ = certified(spec, prec)
            assert repr(value) == repr(want), (inputs, n, prec)


NEAR_POLE = Fraction(-1) + Fraction(1, 2**30)


@pytest.mark.parametrize(
    "spec",
    [
        single_sum([Fraction(-4), Fraction(1, 3)], [NEAR_POLE], 4),
        (3, [Fraction(1, 3)], [NEAR_POLE], Fraction(-5, 7),
         ([(Fraction(-3), 1, 0), (Fraction(2, 5), 0, 0)],
          [(Fraction(3, 4), 1, 0)], Fraction(1), lambda k: 3 - k)),
    ],
    ids=["inner", "outer"],
)
def test_certified_engine_bounds_steep_growth(spec):
    # A factor 2**-30 in a denominator multiplies the error of the term
    # before it by 2**30: a bound that does not grow by |a/b| certifies
    # a wrong double from some starting precision.
    want = float(fraction_double_sum(*spec))
    for prec in range(4, 95, 3):
        value, _ = certified(spec, prec)
        assert repr(value) == repr(want), prec


def test_certified_engine_retries_from_a_small_precision(monkeypatch):
    # The lattice-point sum of meixner_4f3: its terms reach 1e12 times
    # its value 2.9e-7, so 48 bits cannot certify it and 96 can.
    monkeypatch.setattr(closedforms, "_exact_double_sum", None)
    spec = closedforms._meixner_4f3_terms(25, Fraction(3), Fraction(3, 2),
                                          Fraction(2, 5), Fraction(0))
    value, passes = certified(spec, 48)
    assert value == float(fraction_double_sum(*spec))
    assert passes == [48, 96]
