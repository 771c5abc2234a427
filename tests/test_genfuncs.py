"""Generating-function tests: truncated series against closed forms.

Frozen values: the classical Meixner example 0.95703125 is the exact
binary value both routes produce at x=2, beta=3/2, c=2/5, t=1/10; the
Charlier example is e^{0.1} * 0.95 evaluated by the standard library.
"""

import itertools
import math
from unittest.mock import patch

import pytest

from assocpoly import (
    CharlierParams,
    DenominatorPole,
    DomainError,
    GFSpec,
    LaguerreParams,
    MeixnerParams,
    MeixnerPollaczekParams,
    Normalization,
    NotConverged,
    TailTooLarge,
    c1_reduction_identity,
    convolution_identity,
    gf_charlier_elementary,
    gf_charlier_integral,
    gf_charlier_ode_residual,
    gf_charlier_phi1,
    gf_laguerre,
    gf_laguerre_elementary,
    gf_lhs_auto,
    gf_lhs_partial,
    gf_meixner_alt,
    gf_meixner_appell,
    gf_meixner_classical_2f1,
    gf_meixner_elementary,
    gf_meixner_integral,
    gf_weighted_laguerre_diag,
    kummer_1f1,
    weighted_classical_gf,
)
from assocpoly import certified, genfuncs, hyperkernel
from assocpoly.hyperkernel import EvalOutcome, humbert_phi1


def rel(a, b):
    scale = max(1.0, abs(b))
    return abs(a - b) / scale


# ---------------------------------------------------------------------------
# Frozen classical examples
# ---------------------------------------------------------------------------


def test_classical_meixner_frozen_example():
    # The Appell form at gamma = 0 and the 2F1 form at t' = c t carry the
    # same series; both evaluate to exactly 0.95703125 here.
    params = MeixnerParams(1.5, 0.4, 0.0)
    assert gf_meixner_appell(2.0, params, 0.1) == pytest.approx(
        0.95703125, rel=1e-12
    )
    assert gf_meixner_classical_2f1(2.0, 1.5, 0.4, 0.04) == pytest.approx(
        0.95703125, rel=1e-12
    )


def test_classical_charlier_frozen_example():
    assert gf_charlier_elementary(1.0, 2.0, 0.1) == pytest.approx(
        math.exp(0.1) * 0.95, rel=1e-14
    )


def test_elementary_forms_stay_real_at_a_negative_base():
    # (1 - ct) = -0.8 and (1 - t) = -1 raised to integer exponents.
    meixner = gf_meixner_elementary(1.0, 1.0, 2.0, 0.9)
    laguerre = gf_laguerre_elementary(0.5, 1.0, 2.0)
    assert type(meixner) is float and type(laguerre) is float
    assert meixner == pytest.approx(0.15625, rel=1e-15)
    assert laguerre == math.exp(1.0)


def test_alt_form_collapses_to_elementary_at_zero_shift():
    params = MeixnerParams(1.5, 0.4, 0.0)
    assert gf_meixner_alt(2.0, params, 0.1) == pytest.approx(
        gf_meixner_elementary(2.0, 1.5, 0.4, 0.1), rel=1e-13
    )


def test_charlier_phi1_collapses_to_elementary_at_zero_shift():
    params = CharlierParams(2.0, 0.0)
    assert gf_charlier_phi1(1.0, params, 0.1) == pytest.approx(
        gf_charlier_elementary(1.0, 2.0, 0.1), rel=1e-12
    )


def test_laguerre_phi1_collapses_to_elementary_at_zero_shift():
    params = LaguerreParams(0.7, 0.0)
    assert gf_laguerre(1.0, params, 0.2) == pytest.approx(
        gf_laguerre_elementary(1.0, 0.7, 0.2), rel=1e-12
    )


@pytest.mark.parametrize(
    "fn,args",
    [
        (gf_meixner_appell, (0.5, MeixnerParams(1.5, 0.4, 0.7))),
        (gf_meixner_alt, (0.5, MeixnerParams(1.5, 0.4, 0.7))),
        (gf_charlier_phi1, (0.5, CharlierParams(2.0, 0.7))),
        (gf_laguerre, (0.5, LaguerreParams(0.7, 0.7))),
    ],
    ids=["meixner-appell", "meixner-alt", "charlier-phi1", "laguerre-phi1"],
)
def test_rhs_forms_are_one_at_t_zero(fn, args):
    assert fn(*args, 0.0) == 1.0


# ---------------------------------------------------------------------------
# Truncated series against each closed form
# ---------------------------------------------------------------------------

_GF_T = (0.05, -0.1)
_GF_X = (0.5, 2.0)


@pytest.mark.parametrize("gamma", [0.4, 1.2])
@pytest.mark.parametrize("t", _GF_T)
@pytest.mark.parametrize("x", _GF_X)
def test_meixner_appell_pairing(gamma, t, x):
    params = MeixnerParams(1.5, 0.4, gamma)
    spec = GFSpec(params, x, t, Normalization.BY_GAMMA_BETA, 60)
    lhs, n_used = gf_lhs_auto(spec)
    rhs = gf_meixner_appell(x, params, t)
    assert n_used <= 120
    assert rel(lhs, rhs) < 1e-8


@pytest.mark.parametrize("gamma", [0.4, 1.2])
@pytest.mark.parametrize("t", _GF_T)
@pytest.mark.parametrize("x", _GF_X)
def test_meixner_alt_pairing(gamma, t, x):
    params = MeixnerParams(1.5, 0.4, gamma)
    spec = GFSpec(params, x, t, Normalization.BY_GAMMA_ONE, 60)
    lhs, n_used = gf_lhs_auto(spec)
    rhs = gf_meixner_alt(x, params, t)
    assert n_used <= 120
    assert rel(lhs, rhs) < 1e-8


@pytest.mark.parametrize("gamma", [0.4, 1.2])
@pytest.mark.parametrize("t", _GF_T)
def test_meixner_integral_pairing(gamma, t):
    params = MeixnerParams(1.5, 0.4, gamma)
    spec = GFSpec(params, 0.5, t, Normalization.BY_GAMMA_ONE, 60)
    lhs, _ = gf_lhs_auto(spec)
    rhs = gf_meixner_integral(0.5, params, t)
    assert rel(lhs, rhs) < 1e-8


@pytest.mark.parametrize("gamma", [0.4, 1.2])
@pytest.mark.parametrize("t", _GF_T)
@pytest.mark.parametrize("x", _GF_X)
def test_charlier_phi1_pairing(gamma, t, x):
    params = CharlierParams(2.0, gamma)
    spec = GFSpec(params, x, t, Normalization.BY_GAMMA_ONE, 60)
    lhs, n_used = gf_lhs_auto(spec)
    rhs = gf_charlier_phi1(x, params, t)
    assert n_used <= 120
    assert rel(lhs, rhs) < 1e-8


@pytest.mark.parametrize("gamma", [0.4, 1.2])
@pytest.mark.parametrize("t", _GF_T)
def test_charlier_integral_pairing(gamma, t):
    params = CharlierParams(2.0, gamma)
    spec = GFSpec(params, 0.5, t, Normalization.BY_GAMMA_ONE, 60)
    lhs, _ = gf_lhs_auto(spec)
    rhs = gf_charlier_integral(0.5, params, t)
    assert rel(lhs, rhs) < 1e-8


@pytest.mark.parametrize("gamma", [0.4, 1.2])
@pytest.mark.parametrize("t", _GF_T)
@pytest.mark.parametrize("x", _GF_X)
def test_laguerre_phi1_pairing(gamma, t, x):
    params = LaguerreParams(0.7, gamma)
    spec = GFSpec(params, x, t, Normalization.PLAIN, 60)
    lhs, n_used = gf_lhs_auto(spec)
    rhs = gf_laguerre(x, params, t)
    assert n_used <= 120
    assert rel(lhs, rhs) < 1e-8


@pytest.mark.parametrize(
    "params",
    [MeixnerParams(1.5, 0.4, 0.7), CharlierParams(2.0, 0.7), LaguerreParams(0.7, 0.7)],
    ids=["meixner", "charlier", "laguerre"],
)
@pytest.mark.parametrize("t", _GF_T)
def test_weighted_pairing(params, t):
    report = weighted_classical_gf(0.5, params, t)
    assert report.passed
    assert report.point["N"] <= 120


def test_laguerre_diagonal_weighted_pairing():
    alpha = 0.8
    params = LaguerreParams(alpha, alpha)
    spec = GFSpec(params, 1.0, 0.2, Normalization.WEIGHTED, 60)
    lhs, _ = gf_lhs_auto(spec)
    rhs = gf_weighted_laguerre_diag(1.0, alpha, 0.2)
    assert rel(lhs, rhs) < 1e-8


# ---------------------------------------------------------------------------
# Truncation control
# ---------------------------------------------------------------------------


def test_partial_sum_raises_when_tail_is_large():
    spec = GFSpec(MeixnerParams(1.5, 0.4, 0.8), 0.5, 0.5, "by-gamma-one", 3)
    with pytest.raises(TailTooLarge):
        gf_lhs_partial(spec)


def test_auto_doubles_until_tail_passes():
    spec = GFSpec(MeixnerParams(1.5, 0.4, 0.8), 0.5, 0.5, "by-gamma-one", 3)
    value, n_used = gf_lhs_auto(spec)
    assert n_used == 24  # 3 -> 6 -> 12 -> 24
    rhs = gf_meixner_alt(0.5, MeixnerParams(1.5, 0.4, 0.8), 0.5)
    assert rel(value, rhs) < 1e-8


def test_auto_raises_at_cap():
    # At t = 1 the plain Laguerre terms never decay, so every N fails the
    # tail check up to and including the doubling cap.
    spec = GFSpec(LaguerreParams(0.7, 0.7), 0.5, 1.0, "plain", 60)
    with pytest.raises(TailTooLarge):
        gf_lhs_auto(spec)


def test_overflowing_series_raises_instead_of_returning_nan():
    # Near the disk edge the Meixner values overflow binary64 while the
    # normalizing weights underflow; the resulting nan must not slip
    # through the tail comparison.
    spec = GFSpec(MeixnerParams(1.5, 0.4, 0.8), 0.5, 0.999, "by-gamma-one", 60)
    with pytest.raises(NotConverged):
        gf_lhs_auto(spec)


def test_spec_validates_truncation_and_normalization():
    with pytest.raises(ValueError):
        GFSpec(MeixnerParams(1.5, 0.4, 0.8), 0.5, 0.1, "by-gamma-one", 0)
    with pytest.raises(ValueError):
        GFSpec(MeixnerParams(1.5, 0.4, 0.8), 0.5, 0.1, "no-such-normalization")
    spec = GFSpec(MeixnerParams(1.5, 0.4, 0.8), 0.5, 0.1, "plain")
    assert spec.normalization is Normalization.PLAIN


def test_gamma_beta_normalization_is_meixner_only():
    spec = GFSpec(CharlierParams(2.0, 0.5), 1.0, 0.1, "by-gamma-beta", 30)
    with pytest.raises(ValueError):
        gf_lhs_partial(spec)


def test_weighted_normalization_rejects_weight_pole():
    # gamma within 1e-6 of 0 makes the first divisor n + gamma vanish.
    with pytest.raises(DomainError):
        weighted_classical_gf(0.5, CharlierParams(2.0, 1e-7), 0.1)


@pytest.mark.parametrize("beta, gamma", [(-3.0, 1.0), (-2.5, 0.5)])
def test_gamma_beta_normalization_rejects_its_pole(beta, gamma):
    # gamma+beta+2 = 0, so the weight 1/(gamma+beta)_3 divides by zero.
    spec = GFSpec(MeixnerParams(beta, 0.5, gamma), 0.5, 0.1, "by-gamma-beta")
    with pytest.raises(DomainError) as info:
        gf_lhs_partial(spec)
    assert str(info.value) == (
        "by-gamma-beta normalization has a vanishing denominator "
        "n+gamma+beta at n=2 for gamma+beta=-2.0")


@pytest.mark.parametrize("gamma, n", [(1e-7, 0)])
def test_weighted_normalization_pole_names_its_n(gamma, n):
    # The weight is the family's gamma >= 0, so only the first divisor,
    # gamma itself, can vanish.
    spec = GFSpec(CharlierParams(2.0, gamma), 0.5, 0.1, "weighted", 30)
    with pytest.raises(DomainError) as info:
        gf_lhs_partial(spec)
    assert str(info.value) == (
        f"weighted normalization has a vanishing denominator n+gamma at n={n} "
        f"for weight gamma={gamma!r}")


@pytest.mark.parametrize("spec", [
    GFSpec(CharlierParams(2.0, 0.5), 0.5, 0.1, "weighted", 30),
    GFSpec(CharlierParams(2.0, 2e-6), 0.5, 0.1, "weighted", 30),
    # gamma+beta = -2 + 1e-5i and -2 + 1e-5, each 1e-5 off the pole.
    GFSpec(MeixnerParams(-3.0 + 1e-5j, 0.5, 1.0), 0.5, 0.1, "by-gamma-beta", 30),
    GFSpec(MeixnerParams(-3.0 + 1e-5, 0.5, 1.0), 0.5, 0.1, "by-gamma-beta", 30),
    # Finite beta and gamma whose sum overflows: gamma+beta = inf has no
    # nearest integer.
    GFSpec(MeixnerParams(1.5e308, 0.5, 1.5e308), 0.5, 0.1, "by-gamma-beta", 30),
    # (gamma+beta)_n for n <= N stops short of the factor gamma+beta+N = 0.
    # The id is the one this case had when two more non-finite specs, now
    # refused by MeixnerParams, stood before it.
    pytest.param(
        GFSpec(MeixnerParams(-31.0, 0.5, 1.0), 0.5, 0.1, "by-gamma-beta", 30),
        id="spec7"),
])
def test_normalizer_pole_check_passes_off_its_poles(spec):
    assert genfuncs._check_normalizer_poles(spec) is None


def test_normalization_values_are_stable():
    assert Normalization.BY_GAMMA_BETA.value == "by-gamma-beta"
    assert Normalization.BY_GAMMA_ONE.value == "by-gamma-one"
    assert Normalization.PLAIN.value == "plain"
    assert Normalization.WEIGHTED.value == "weighted"


# ---------------------------------------------------------------------------
# Validity disks
# ---------------------------------------------------------------------------


def test_meixner_t_disk():
    with pytest.raises(DomainError):
        gf_meixner_appell(0.5, MeixnerParams(1.5, 2.0, 0.5), 0.6)  # 1/|c| = 0.5
    with pytest.raises(DomainError):
        gf_meixner_alt(0.5, MeixnerParams(1.5, 0.4, 0.5), 1.0)


def test_charlier_t_disk():
    with pytest.raises(DomainError):
        gf_charlier_phi1(0.5, CharlierParams(0.5, 0.5), 0.6)  # |t| >= |a|


def test_laguerre_t_disk():
    with pytest.raises(DomainError):
        gf_laguerre(0.5, LaguerreParams(0.7, 0.5), 0.5)


def test_integral_forms_require_positive_shift():
    with pytest.raises(DomainError):
        gf_meixner_integral(0.5, MeixnerParams(1.5, 0.4, 0.0), 0.1)
    with pytest.raises(DomainError):
        gf_charlier_integral(0.5, CharlierParams(2.0, 0.0), 0.1)


# ---------------------------------------------------------------------------
# Charlier generating-function ODE
# ---------------------------------------------------------------------------


def test_ode_residual_is_exactly_zero_at_t_zero():
    assert gf_charlier_ode_residual(0.5, CharlierParams(2.0, 0.7), 0.0) == 0.0


@pytest.mark.parametrize("a", [0.5, 2.0])
@pytest.mark.parametrize("gamma", [0.0, 0.7, 1.5])
@pytest.mark.parametrize("x", [0.5, 2.0])
def test_ode_residual_small_on_grid(a, gamma, x):
    params = CharlierParams(a, gamma)
    for t_frac in (-0.2, 0.1):
        assert gf_charlier_ode_residual(x, params, t_frac * abs(a)) <= 1e-8


# The gamma = 0 residual, bit for bit.  G' is exact, so what is left is
# the rounding of t(a-t) G (1 - x/(a-t)) against -(t^2 + (x-a) t) G.
@pytest.mark.parametrize("x, t, residual", [
    (0.5, 0.0, "0.0"),
    (0.5, -1e-4, "1.3552527156068805e-20"),
    (0.5, 1e-4, "0.0"),
    (0.5, 0.3, "0.0"),
    (0.5, -0.2, "2.7755575615628914e-17"),
    (0.5, 0.1 + 0.1j, "3.925231146709438e-17"),
    (-1.1, -1e-4, "5.421010862427522e-20"),
    (-1.1, -0.2, "0.0"),
    (0.7 + 0.4j, 0.0, "0.0"),
    (0.7 + 0.4j, -1e-4, "9.583083854271089e-21"),
    (0.7 + 0.4j, 0.3, "0.0"),
    (-1.1 + 0.2j, -1e-4, "5.431588454656214e-20"),
    (-1.1 + 0.2j, -0.2, "5.551115123125783e-17"),
    (-1.1 + 0.2j, -0.2j, "6.206335383118183e-17"),
])
def test_ode_residual_at_zero_gamma_is_pinned(x, t, residual):
    assert repr(gf_charlier_ode_residual(x, CharlierParams(1.3, 0.0), t)) \
        == residual


@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("t, message", [
    (1.3, "|t| = 1.3 is outside"),
    (-1.3, "|t| = 1.3 is outside"),
])
def test_ode_residual_rejects_t_whose_stencil_leaves_the_disk(gamma, t,
                                                              message):
    # t on the circle |t| = |a| is refused; a t just inside it is checked
    # (test_ode_residual_at_the_disk_edge).
    with pytest.raises(DomainError, match=message.replace("|", r"\|")):
        gf_charlier_ode_residual(-0.5, CharlierParams(1.3, gamma), t)


@pytest.mark.parametrize("t", [1.2999, -1.2999])
def test_ode_residual_at_the_disk_edge(t):
    # At gamma = 0 the Phi1 factor is 1 and the residual reads 0.  At
    # gamma > 0, Phi1 at u = t/a = 0.99992 does not converge in 10,000
    # terms; at u = -0.99992 it is summed at u/(u-1) = 0.49998, and the
    # residual reads 1.6e-15.
    assert gf_charlier_ode_residual(-0.5, CharlierParams(1.3, 0.0), t) == 0.0
    if t < 0:
        assert gf_charlier_ode_residual(-0.5, CharlierParams(1.3, 0.5), t) < 1e-14
        return
    with pytest.raises(NotConverged, match="Phi1 series did not converge"):
        gf_charlier_ode_residual(-0.5, CharlierParams(1.3, 0.5), t)


# The grid of the ODE row: a, gamma, x and t/a, real and complex.
_ODE_GRID = list(itertools.product(
    (0.5, 2.0), (0.0, 0.7, 1.5), (0.5, 2.0, 0.7 + 0.4j, -1.1 + 0.2j),
    (-0.5, -0.2, 0.1, 0.3, 0.1 + 0.1j, -0.3j)))


def test_ode_row_compares_the_two_sides_on_a_grid():
    worst = 0.0
    for a, gamma, x, t_frac in _ODE_GRID:
        report = genfuncs._charlier_ode_check(x, CharlierParams(a, gamma),
                                              t_frac * a, 1e-8)
        assert report.passed, (a, gamma, x, t_frac, report.rel_discrepancy)
        worst = max(worst, report.rel_discrepancy)
    assert worst <= 1e-12


# Points where the two sides cancel toward 0: at gamma > 0 and small t,
# a gamma - [...] G is the difference of two terms near a gamma; at gamma
# = 0 and t = a - x, both sides vanish.  The row reads them against the
# equation's largest term, so rounding stays far below the tolerance.
@pytest.mark.parametrize("a, gamma, x, t", [
    (1.3, 0.5, 0.5, 1e-9),
    (1.3, 1.5, 0.7 + 0.4j, -1e-7j),
    (2.0, 0.7, -1.1 + 0.2j, 1e-12),
    (1.0, 0.0, 0.3, 0.7),
    (1.3, 0.0, 0.7 + 0.4j, 0.6 - 0.4j),
])
def test_ode_row_passes_where_the_sides_cancel(a, gamma, x, t):
    report = genfuncs._charlier_ode_check(x, CharlierParams(a, gamma), t,
                                          1e-8)
    assert report.passed
    assert report.rel_discrepancy <= 1e-15


# A relative 1e-6 error in G's own Phi1 value reads at least 5.7e-7 on
# the grid.  The two derivative terms enter scaled by t(a-t) gamma/(gamma+1)
# against a gamma, and Phi1_u by |x+1|/|a| as well, so an error in them
# reads as little as 8.5e-9 (a = 2, gamma = 1.5, x = -1.1+0.2i, t = 0.2):
# those cases are checked at 1e-9, still 3e5 times the unperturbed worst.
@pytest.mark.parametrize("call, rel_tol", [(0, 1e-8), (1, 1e-9), (2, 1e-9)],
                         ids=["phi1", "d-u", "d-v"])
def test_ode_row_fails_when_one_phi1_value_is_off(call, rel_tol):
    # One of the three Phi1 values (G's own and its two derivative terms),
    # off by a relative 1e-6, must fail the row at gamma > 0.  At gamma =
    # 0 the derivative terms carry a factor gamma and are not evaluated.
    def perturbed(*args):
        out = humbert_phi1(*args)
        calls.append(args)
        if len(calls) - 1 == call:
            return EvalOutcome(out.value * (1 + 1e-6), out.converged,
                               out.terms_used, out.err_estimate)
        return out

    for a, gamma, x, t_frac in _ODE_GRID:
        if gamma == 0.0:
            continue
        calls = []
        with patch.object(genfuncs, "humbert_phi1", perturbed):
            report = genfuncs._charlier_ode_check(
                x, CharlierParams(a, gamma), t_frac * a, rel_tol)
        assert len(calls) == 3
        assert not report.passed, (a, gamma, x, t_frac)


@pytest.mark.parametrize("params, t", [
    (CharlierParams(1.3, 0.5), 1.5),
    (MeixnerParams(1.5, 0.4, 0.5), 1.2),
    (LaguerreParams(0.8, 0.5), 1.2),
], ids=["charlier", "meixner", "laguerre"])
def test_weighted_rejects_t_outside_the_series_disk(params, t):
    with patch.object(genfuncs, "gf_lhs_auto") as lhs:
        with pytest.raises(DomainError, match="outside the validity disk"):
            weighted_classical_gf(0.5, params, t)
    lhs.assert_not_called()


# ---------------------------------------------------------------------------
# Convolutions and the degenerate reduction chain
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "params",
    [MeixnerParams(1.5, 0.4, 0.7), CharlierParams(2.0, 0.7), LaguerreParams(0.7, 0.7)],
    ids=["meixner", "charlier", "laguerre"],
)
def test_convolution_identity_holds(params):
    for n in range(13):
        report = convolution_identity(0.5, params, n)
        assert report.passed, (n, report.rel_discrepancy)


@pytest.mark.parametrize(
    "params",
    [MeixnerParams(1.5, 0.4, 2000.0), CharlierParams(0.5, 2000.0)],
    ids=["meixner", "charlier"],
)
def test_convolution_raises_when_the_pochhammer_overflows(params):
    # (2001)_100 is about 1e331: the left side would divide by inf.
    with pytest.raises(OverflowError):
        convolution_identity(0.25, params, 100)


def test_laguerre_convolution_runs_past_the_pochhammer_range():
    # (1.7)_180 exceeds binary64; only the Meixner and Charlier identities
    # divide by it.
    report = convolution_identity(0.5, LaguerreParams(0.5, 0.7), 180)
    assert report.passed, report.rel_discrepancy


_CONVOLUTION_PINNED = [
    "IdentityReport(identity_id='convolution-meixner', point={'x': 0.5, "
    "'n': 0, 'gamma': 0.7}, lhs=1.0, rhs=1.0, rel_discrepancy=0.0, "
    "passed=True, rel_tol=1e-09)",
    "IdentityReport(identity_id='convolution-meixner', point={'x': 0.5, "
    "'n': 1, 'gamma': 0.7}, lhs=1.8823529411764706, rhs=1.8823529411764706, "
    "rel_discrepancy=0.0, passed=True, rel_tol=1e-09)",
    "IdentityReport(identity_id='convolution-meixner', point={'x': 0.5, "
    "'n': 12, 'gamma': 0.7}, lhs=-172681126151.25592, "
    "rhs=-172681126151.2588, rel_discrepancy=1.66124255017727e-14, "
    "passed=True, rel_tol=1e-09)",
    "IdentityReport(identity_id='convolution-charlier', point={'x': 0.5, "
    "'n': 0, 'gamma': 0.7}, lhs=1.0, rhs=1.0, rel_discrepancy=0.0, "
    "passed=True, rel_tol=1e-09)",
    "IdentityReport(identity_id='convolution-charlier', point={'x': 0.5, "
    "'n': 1, 'gamma': 0.7}, lhs=0.6470588235294118, rhs=0.6470588235294118, "
    "rel_discrepancy=0.0, passed=True, rel_tol=1e-09)",
    "IdentityReport(identity_id='convolution-charlier', point={'x': 0.5, "
    "'n': 12, 'gamma': 0.7}, lhs=-5415.393769192149, rhs=-5415.393769192152, "
    "rel_discrepancy=5.038385427927634e-16, passed=True, rel_tol=1e-09)",
    "IdentityReport(identity_id='convolution-laguerre', point={'x': 0.5, "
    "'n': 0, 'gamma': 0.7}, lhs=1.0, rhs=1.0, rel_discrepancy=0.0, "
    "passed=True, rel_tol=1e-09)",
    "IdentityReport(identity_id='convolution-laguerre', point={'x': 0.5, "
    "'n': 1, 'gamma': 0.7}, lhs=1.5294117647058822, rhs=1.5294117647058822, "
    "rel_discrepancy=0.0, passed=True, rel_tol=1e-09)",
    "IdentityReport(identity_id='convolution-laguerre', point={'x': 0.5, "
    "'n': 12, 'gamma': 0.7}, lhs=-1.5680671576319232, "
    "rhs=-1.5680671576319214, rel_discrepancy=1.132832118034336e-15, "
    "passed=True, rel_tol=1e-09)",
    "IdentityReport(identity_id='convolution-laguerre', point={'x': 0.5, "
    "'n': 200, 'gamma': 0.7}, lhs=0.3714478455982332, "
    "rhs=0.3714478454494383, rel_discrepancy=4.005807736959376e-10, "
    "passed=True, rel_tol=1e-09)",
]


def test_convolution_reports_are_bit_pinned():
    cases = [(MeixnerParams(1.5, 0.4, 0.7), (0, 1, 12)),
             (CharlierParams(2.0, 0.7), (0, 1, 12)),
             (LaguerreParams(0.7, 0.7), (0, 1, 12)),
             (LaguerreParams(0.5, 0.7), (200,))]
    got = [repr(convolution_identity(0.5, params, n))
           for params, degrees in cases for n in degrees]
    assert got == _CONVOLUTION_PINNED


def test_convolution_requires_positive_shift():
    with pytest.raises(DomainError):
        convolution_identity(0.5, MeixnerParams(1.5, 0.4, 0.0), 4)


def test_convolution_rejects_unknown_family():
    with pytest.raises(TypeError):
        convolution_identity(0.5, MeixnerPollaczekParams(0.7, 1.1, 0.5), 4)


def test_convolution_rejects_negative_degree():
    with pytest.raises(ValueError):
        convolution_identity(0.5, MeixnerParams(1.5, 0.4, 0.7), -1)


@pytest.mark.parametrize(
    "beta,gamma,t", [(2.5, 0.7, 0.2), (0.7, 1.4, -0.15), (1.8, 0.4, 0.1)]
)
def test_degenerate_reduction_chain(beta, gamma, t):
    report = c1_reduction_identity(beta, gamma, t)
    assert report.identity_id == "c1-reduction-chain"
    assert report.passed


_SLOW_CHAIN = [(0.3, 0.05), (2.5, 0.7), (0.7, 1.4), (1.8, 0.4)]


@pytest.mark.parametrize("beta,gamma", _SLOW_CHAIN)
def test_degenerate_reduction_chain_holds_at_a_slow_ratio(beta, gamma):
    # At t = 0.8 the tail after the stopping point is about four times the
    # last term; summed to rel_tol it read 2.6e-9 to 3.2e-9 (FAIL at
    # 1e-9), summed to rel_tol / 10 it reads 2.7e-10 to 3.2e-10.
    assert c1_reduction_identity(beta, gamma, 0.8).passed


@pytest.mark.parametrize("beta,gamma", _SLOW_CHAIN)
def test_degenerate_reduction_chain_fails_on_a_perturbed_side(beta, gamma):
    def perturbed(*args):
        out = gauss_2f1(*args)
        return EvalOutcome(out.value * (1 + 1e-8), out.converged,
                           out.terms_used, out.err_estimate)

    gauss_2f1 = genfuncs.gauss_2f1
    with patch.object(genfuncs, "gauss_2f1", perturbed):
        assert not c1_reduction_identity(beta, gamma, 0.8).passed


def test_degenerate_reduction_chain_requires_unit_disk():
    with pytest.raises(DomainError):
        c1_reduction_identity(1.5, 0.5, 1.0)


@pytest.mark.parametrize("beta,gamma", [(-2.5, 0.5), (-1.5, 0.5), (-0.5, 0.5)])
def test_degenerate_reduction_chain_rejects_pole_of_its_3f2(beta, gamma):
    # gamma + beta = -k: the coefficients vanish past n = k while the 3F2
    # there has a zero denominator factor, so the chain has no value.
    with pytest.raises(DenominatorPole):
        c1_reduction_identity(beta, gamma, 0.2)


@pytest.mark.parametrize("t,max_terms", [(0.97, 400), (0.2, 3)])
def test_degenerate_reduction_chain_raises_when_terms_run_out(t, max_terms):
    # The partial sum was once reported as a failed identity (rel
    # discrepancy 5.7e94 at t = 0.97, 0.036 at t = 0.2 with 3 terms).
    with (patch.object(genfuncs, "_C1_MAX_TERMS", max_terms),
          pytest.raises(NotConverged) as info):
        c1_reduction_identity(2.5, 0.7, t)
    assert info.value.outcome.terms_used == max_terms
    assert not info.value.outcome.converged


def test_reduction_chain_grows_its_shared_pass_geometrically():
    # At t = 0.97 the escalating degrees need more bits as n grows.  Each
    # new shared pass takes at least twice the bits of the last, so five
    # passes (286 to 4,576 bits) serve all 400 terms, where growing by
    # _SHARED_BITS alone built 21, and 12 degrees, not 81, run the Ziv loop
    # alone.  The chain still runs out of terms with the same sum.
    passes, alone = [], []
    shared_pass = certified._shared_pass
    engine = certified._certified_cauchy_sum

    def spy(prec, spec):
        passes.append(prec)
        return shared_pass(prec, spec)

    def spy_alone(*args):
        alone.append(args)
        return engine(*args)

    with (patch.object(certified, "_shared_pass", spy),
          patch.object(certified, "_certified_cauchy_sum", spy_alone),
          pytest.raises(NotConverged) as info):
        c1_reduction_identity(2.5, 0.7, 0.97)
    assert passes == [286, 572, 1144, 2288, 4576]
    assert len(alone) == 12
    assert info.value.outcome.value == 4772.66038755589


def _diag_derivative_discrepancy(x, alpha, t):
    """The derivative link between the diagonal weighted form and the
    classical GF, as a relative discrepancy.

    With ``W(t) = (1-t)^{-alpha} 1F1(alpha; alpha+1; z)``, ``z = xt/(t-1)``,
    ``d/dt [t^alpha W(t)] = alpha t^{alpha-1} (1-t)^{-alpha-1} e^z``, with
    the exact ``d/dz 1F1(alpha; alpha+1; z) = (alpha / (alpha+1))
    1F1(alpha+1; alpha+2; z)`` and ``dz/dt = -x/(t-1)^2``.
    """
    z = x * t / (t - 1.0)
    d_z = alpha / (alpha + 1.0) * kummer_1f1(alpha + 1.0, alpha + 2.0, z).value
    deriv = t**alpha * (
        alpha / (t * (1.0 - t)) * gf_weighted_laguerre_diag(x, alpha, t)
        - hyperkernel._power(1.0 - t, -alpha) * x / (t - 1.0) ** 2 * d_z)
    rhs = alpha * t ** (alpha - 1.0) * gf_laguerre_elementary(x, alpha, t)
    return abs(deriv - rhs) / abs(rhs)


def test_laguerre_diag_derivative_link():
    assert _diag_derivative_discrepancy(1.0, 0.8, 0.2) < 1e-14


@pytest.mark.parametrize("x", [1.0, -0.5, 2.5, 0.3 + 0.7j])
@pytest.mark.parametrize("alpha", [0.3, 1.7])
def test_laguerre_diag_derivative_link_on_a_grid(x, alpha):
    for t in (0.2, 0.5, -0.4, 0.1 + 0.2j):
        discrepancy = _diag_derivative_discrepancy(x, alpha, t)
        assert discrepancy < 1e-14, (t, discrepancy)


# ---------------------------------------------------------------------------
# Bit pinning of the left-hand partial sums
# ---------------------------------------------------------------------------


def _lhs_pinned_specs():
    """A left side for each normalization and family, at real and complex x."""
    families = (
        (MeixnerParams(1.5, 0.4, 0.3713),
         ("by-gamma-beta", "by-gamma-one", "plain", "weighted")),
        (CharlierParams(1.3, 0.3713),
         ("by-gamma-one", "plain", "by-gamma-beta", "weighted")),
        (LaguerreParams(0.8, 0.3713), ("by-gamma-one", "plain", "weighted")),
    )
    return [GFSpec(params, x, t, norm, 30)
            for params, norms in families
            for x, t in ((0.3, 0.3), (0.7 + 0.4j, 0.2 + 0.1j))
            for norm in norms]


# repr of ``_lhs_sum(spec)`` for each pinned spec, or of the error it raised.
_LHS_PINNED = [
    '(1.1729634983901747, 6.34698034760408e-20)',
    '(1.243160898562449, 3.3063772299515113e-19)',
    '(-3.197319554517192e+26, 3.050106317923373e+26)',
    '(1.035040960905776, 1.8688472647740912e-20)',
    '((1.0958523759238656+0.01019390941610382j), 3.3265937253097296e-23)',
    '((1.1334869555989862+0.013271149874542445j), 1.7329459277143761e-22)',
    '((-1.531819190744056e+23-7.225501503477645e+22j), 1.5986286364604305e+23)',
    '((1.0167996085081663-0.010676989091553358j), 1.9307810880082717e-24)',
    '(1.2553801002261191, 5.176227861742387e-22)',
    '(-647942737653.3586, 550523297279.1857)',
    "ValueError('BY_GAMMA_BETA normalization applies to the Meixner family only')",
    '(1.0652331583676071, 1.0467043373467436e-23)',
    '((1.1406968390910173+0.0008949971148424668j), 6.72215201553208e-26)',
    '((-86910673.74034448+5887716.051737572j), 71494172.80785896)',
    "ValueError('BY_GAMMA_BETA normalization applies to the Meixner family only')",
    '((1.0343102120651604-0.006661406401575132j), 8.708583370324627e-28)',
    '(1.4191840973122718, 4.507371649179195e-49)',
    '(1.7552506805567918, 4.793863733683422e-16)',
    '(1.152851508914545, 3.596578294114817e-18)',
    '((1.2383253151605367+0.06449254700776545j), 2.77610590190583e-52)',
    '((1.379932571574504+0.11127788706559043j), 2.952557374858215e-19)',
    '((1.0808618097870581+0.008515536800843429j), 3.667867482454337e-21)',
]


def test_lhs_partial_sums_are_bit_pinned():
    got = []
    for spec in _lhs_pinned_specs():
        try:
            got.append(repr(genfuncs._lhs_sum(spec)))
        except Exception as exc:  # the pin covers the raised error too
            got.append(repr(exc))
    assert got == _LHS_PINNED
