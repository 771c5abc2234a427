"""Generating-function tests: truncated series against closed forms.

Frozen values: the classical Meixner example 0.95703125 is the exact
binary value both routes produce at x=2, beta=3/2, c=2/5, t=1/10; the
Charlier example is e^{0.1} * 0.95 evaluated by the standard library.
"""

import math

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
    laguerre_diag_derivative_check,
    weighted_classical_gf,
)


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


def test_weighted_allows_free_weight():
    report = weighted_classical_gf(
        0.5, CharlierParams(2.0, 0.7), 0.1, weight_gamma=1.9
    )
    assert report.passed
    assert report.point["gamma"] == 1.9


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
    with pytest.raises(DomainError):
        weighted_classical_gf(0.5, CharlierParams(2.0, 0.7), 0.1, weight_gamma=-2.0)


@pytest.mark.parametrize("beta, gamma", [(-3.0, 1.0), (-2.5, 0.5)])
def test_gamma_beta_normalization_rejects_its_pole(beta, gamma):
    # gamma+beta+2 = 0, so the weight 1/(gamma+beta)_3 divides by zero.
    spec = GFSpec(MeixnerParams(beta, 0.5, gamma), 0.5, 0.1, "by-gamma-beta")
    with pytest.raises(DomainError) as info:
        gf_lhs_partial(spec)
    assert str(info.value) == (
        "by-gamma-beta normalization has a vanishing denominator "
        "n+gamma+beta at n=2 for gamma+beta=-2.0")


def test_normalization_values_are_stable():
    assert Normalization.BY_GAMMA_BETA.value == "by-gamma-beta"
    assert Normalization.BY_GAMMA_ONE.value == "by-gamma-one"
    assert Normalization.BY_FACTORIAL.value == "by-factorial"
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


def test_ode_residual_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        gf_charlier_ode_residual(0.5, CharlierParams(2.0, 0.7), 0.1, h=0.0)


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
    with pytest.raises(NotConverged) as info:
        c1_reduction_identity(2.5, 0.7, t, max_terms=max_terms)
    assert info.value.outcome.terms_used == max_terms
    assert not info.value.outcome.converged


def test_laguerre_diag_derivative_link():
    report = laguerre_diag_derivative_check()
    assert report.passed
    assert report.rel_discrepancy < 1e-6
