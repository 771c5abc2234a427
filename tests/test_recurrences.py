"""Three-term recurrences: oracles, parameter validation, stability.

Hand oracles follow from one or two recurrence steps; the classical
Laguerre case is cross-checked against ``scipy.special.eval_genlaguerre``.
"""

import math

import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from assocpoly import (
    CharlierParams,
    LaguerreParams,
    MeixnerParams,
    MeixnerPollaczekParams,
    ZeroA,
    ZeroC,
    charlier_seq,
    classical,
    laguerre_seq,
    meixner_4f3,
    meixner_pollaczek_seq,
    meixner_seq,
    pochhammer,
)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------


def test_meixner_zero_c_rejected():
    with pytest.raises(ZeroC):
        MeixnerParams(1.5, 0.0, 0.3)


def test_charlier_zero_a_rejected():
    with pytest.raises(ZeroA):
        CharlierParams(0.0, 0.3)


def test_negative_gamma_rejected():
    with pytest.raises(ValueError):
        MeixnerParams(1.5, 0.4, -0.1)
    with pytest.raises(ValueError):
        LaguerreParams(0.5, -2.0)


def test_mp_angle_range():
    with pytest.raises(ValueError):
        MeixnerPollaczekParams(0.3, 0.0, 0.5)
    with pytest.raises(ValueError):
        MeixnerPollaczekParams(0.3, math.pi, 0.5)


@pytest.mark.parametrize("build, name, value", [
    (lambda v: MeixnerParams(v, 0.4, 0.5), "beta", math.nan),
    # A NaN or infinite gamma+beta, which has no nearest integer for
    # genfuncs._check_normalizer_poles to test.
    (lambda v: MeixnerParams(v, 0.5, 1.0), "beta", -math.inf),
    (lambda v: MeixnerParams(v, 0.5, 1.0), "beta", complex(-3.0, math.nan)),
    (lambda v: MeixnerParams(1.5, v, 0.5), "c", math.inf),
    (lambda v: MeixnerParams(1.5, v, 0.5), "c", complex(0.4, -math.inf)),
    (lambda v: CharlierParams(v, 0.5), "a", math.inf),
    (lambda v: LaguerreParams(v, 0.5), "alpha", math.nan),
    (lambda v: MeixnerPollaczekParams(v, 1.0, 0.5), "nu", -math.inf),
], ids=["meixner-beta", "meixner-beta-inf", "meixner-beta-complex-nan",
        "meixner-c", "meixner-complex-c", "charlier-a", "laguerre-alpha",
        "mp-nu"])
def test_non_finite_shape_parameter_rejected(build, name, value):
    # Such a parameter makes every value NaN from degree 1 on.
    with pytest.raises(ValueError) as info:
        build(value)
    assert str(info.value) == f"{name} must be finite, got {value!r}"


def test_meixner_c_tilde():
    p = MeixnerParams(1.5, 0.4, 0.7)
    assert rel(p.c_tilde, (0.4 - 1.0) / 0.4) < 1e-15


def test_classical_helper_zeroes_gamma():
    p = classical(MeixnerParams(1.5, 0.4, 0.7))
    assert p.gamma == 0.0 and p.beta == 1.5 and p.c == 0.4
    q = classical(CharlierParams(2.0, 1.3))
    assert q.gamma == 0.0 and q.a == 2.0


# ---------------------------------------------------------------------------
# First-step oracles (hand-computed from the recurrences)
# ---------------------------------------------------------------------------


def test_meixner_first_step():
    # c M_1 = (c-1)x + (c+1)gamma + beta c with M_0 = 1
    seq = meixner_seq(0.5, MeixnerParams(1.5, 0.4, 0.7), 1)
    assert rel(seq[1], 3.2) < 1e-14
    assert seq[0] == 1.0


def test_charlier_first_step():
    # a C_1 = gamma + a - x
    seq = charlier_seq(1.0, CharlierParams(2.0, 0.0), 1)
    assert rel(seq[1], 0.5) < 1e-15


def test_laguerre_first_step():
    # (gamma+1) L_1 = 2 gamma + alpha + 1 - x
    seq = laguerre_seq(0.25, LaguerreParams(0.5, 0.8), 1)
    expected = (2 * 0.8 + 0.5 + 1.0 - 0.25) / (0.8 + 1.0)
    assert rel(seq[1], expected) < 1e-15


def test_mp_first_step():
    # (gamma+1) P_1 = 2 [(gamma+nu) cos(phi) + x sin(phi)]
    nu, phi, gamma, x = 0.3, 0.7, 0.5, 1.2
    seq = meixner_pollaczek_seq(x, MeixnerPollaczekParams(nu, phi, gamma), 1)
    expected = 2.0 * ((gamma + nu) * math.cos(phi)
                      + x * math.sin(phi)) / (gamma + 1.0)
    assert rel(seq[1], expected) < 1e-14


def test_sequence_container():
    seq = meixner_seq(0.5, MeixnerParams(1.5, 0.4, 0.7), 5)
    assert len(seq.values) == 6
    assert seq[0] == 1.0
    assert seq.x == 0.5
    assert seq.params.gamma == 0.7


def test_n_max_validation():
    with pytest.raises(ValueError):
        meixner_seq(0.5, MeixnerParams(1.5, 0.4, 0.7), -1)


# ---------------------------------------------------------------------------
# Classical-case cross-checks against scipy
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 15),
    alpha=st.floats(-0.9, 3.0),
    x=st.floats(-5.0, 5.0),
)
def test_laguerre_classical_matches_scipy(n, alpha, x):
    mine = laguerre_seq(x, LaguerreParams(alpha, 0.0), n)[n]
    ref = float(scipy.special.eval_genlaguerre(n, alpha, x))
    assert abs(mine - ref) <= 1e-9 * max(1.0, abs(ref))


def test_charlier_classical_small_table():
    # C_2(x; a) at gamma=0 from two recurrence steps:
    # a C_1 = a - x; a C_2 = (1 + a - x) C_1 - C_0
    a, x = 2.0, 1.0
    seq = charlier_seq(x, CharlierParams(a, 0.0), 2)
    c1 = (a - x) / a
    c2 = ((1.0 + a - x) * c1 - 1.0) / a
    assert rel(seq[2], c2) < 1e-15


# ---------------------------------------------------------------------------
# Lattice points x - gamma in Z>=0: exact-arithmetic escalation
# ---------------------------------------------------------------------------


def test_lattice_point_matches_double_sum():
    # At x - gamma a nonnegative integer the value is a subdominant
    # recurrence solution; the sequence must still match an independent
    # terminating-sum evaluation at n = 25.
    p = MeixnerParams(1.5, 0.4, 0.0)
    seq = meixner_seq(3.0, p, 25)
    ref = meixner_4f3(3.0, p, 25)
    assert rel(seq[25], ref) < 1e-9


def test_lattice_point_plain_float_recursion_degrades():
    # At small c the plain binary64 recursion loses most digits by
    # n = 25 (the wanted solution is subdominant there); this documents
    # why the exact-arithmetic escalation exists.
    p = MeixnerParams(0.5, 0.2, 0.0)
    exact = meixner_seq(0.0, p, 25)[25]
    plain = meixner_seq(0.0, p, 25, exact_on_lattice=False)[25]
    assert rel(plain, exact) > 1e-4


def test_off_lattice_paths_agree():
    p = MeixnerParams(1.5, 0.4, 0.3)
    a = meixner_seq(0.5, p, 25).values
    b = meixner_seq(0.5, p, 25, exact_on_lattice=False).values
    assert a == b  # off lattice the flag must not change the route


def test_charlier_lattice_point_stable():
    p = CharlierParams(1.0, 0.5)
    seq = charlier_seq(2.5, p, 20)  # x - gamma = 2
    # Verify against the recurrence run in exact rational arithmetic via
    # a quick independent forward pass in fractions.
    from fractions import Fraction

    xf, af, gf = Fraction(2.5), Fraction(1.0), Fraction(0.5)
    prev, cur = Fraction(0), Fraction(1)
    for n in range(20):
        s = n + gf
        prev, cur = cur, ((s + af - xf) * cur - s * prev) / af
    assert rel(seq[20], float(cur)) < 1e-12


@pytest.mark.parametrize("seq, params, degree", [
    (meixner_seq, MeixnerParams(1.5, 0.4, 0.7), 148),
    (charlier_seq, CharlierParams(1.3, 0.7), 184),
])
def test_lattice_value_past_binary64_names_the_range(seq, params, degree):
    # The exact loop's float() raised "integer division result too large
    # for a float", which names Python's division, not the range.
    x = 3.700000001  # x - gamma within 1e-6 of 3: the exact loop
    with pytest.raises(OverflowError) as excinfo:
        seq(x, params, 400)
    assert str(excinfo.value) == (
        f"{seq.__name__} value at degree {degree} exceeds binary64 range")
    last = seq(x, params, degree - 1)[degree - 1]
    assert math.isfinite(last) and abs(last) > 1e300


# ---------------------------------------------------------------------------
# Complex evaluation points
# ---------------------------------------------------------------------------


def test_meixner_complex_point_runs():
    p = MeixnerParams(1.5, 0.4, 0.7)
    seq = meixner_seq(0.5 + 0.3j, p, 10)
    assert isinstance(seq[10], complex)


def test_meixner_complex_c_runs():
    import cmath

    p = MeixnerParams(0.6, cmath.exp(-2.0j * 0.7), 0.5)
    seq = meixner_seq(0.25j - 0.3, p, 8)
    assert isinstance(seq[8], complex)


# ---------------------------------------------------------------------------
# Limit relations (first-order in the large parameter)
# ---------------------------------------------------------------------------


def _charlier_limit_errors(x, a, gamma, beta, n_max=10):
    target = charlier_seq(x, CharlierParams(a, gamma), n_max)
    p = MeixnerParams(beta, a / (a + beta), gamma)
    seq = meixner_seq(x, p, n_max)
    return max(
        abs(seq[n] / pochhammer(beta + gamma, n) - target[n])
        for n in range(n_max + 1)
    )


def _laguerre_limit_errors(x, alpha, gamma, eps, n_max=10):
    target = laguerre_seq(x, LaguerreParams(alpha, gamma), n_max)
    p = MeixnerParams(alpha + 1.0, 1.0 - eps, gamma)
    seq = meixner_seq(x / eps, p, n_max)
    return max(
        abs(seq[n] / pochhammer(gamma + 1.0, n) - target[n])
        for n in range(n_max + 1)
    )


def test_charlier_from_meixner_first_order():
    for x, a, gamma in ((0.5, 2.0, 0.8), (-1.0, 0.5, 0.0)):
        e4 = _charlier_limit_errors(x, a, gamma, 1e4)
        e5 = _charlier_limit_errors(x, a, gamma, 1e5)
        assert 8.0 <= e4 / e5 <= 12.0


def test_laguerre_from_meixner_first_order():
    for x, alpha, gamma in ((0.5, 0.5, 0.8), (2.0, -0.5, 0.0)):
        e4 = _laguerre_limit_errors(x, alpha, gamma, 1e-4)
        e5 = _laguerre_limit_errors(x, alpha, gamma, 1e-5)
        assert 8.0 <= e4 / e5 <= 12.0
