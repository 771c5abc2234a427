"""Acceptance criteria, one test per numbered criterion.

Every criterion runs at its stated tolerance so that a ``pytest -v``
line per criterion reads as the pass/fail verdict.  Criterion 6 is
split into its clauses: the monotone-decrease and closed-form clauses
hold and are asserted plainly; the two quantitative large-degree error
clauses do not hold for this family of scaled iterates (measured
convergence is first order in 1/n; see tests/test_asymptotics.py) and
are marked as strict expected failures rather than being loosened.
"""

import hashlib
import itertools
import json
import math
import time
from collections import Counter

import pytest

from assocpoly import (
    CharlierParams,
    DenominatorPole,
    GFSpec,
    LaguerreParams,
    MeixnerParams,
    Normalization,
    RestrictedParameter,
    charlier_seq,
    gamma_value,
    gf_charlier_elementary,
    gf_charlier_integral,
    gf_charlier_ode_residual,
    gf_charlier_phi1,
    gf_laguerre,
    gf_laguerre_elementary,
    gf_lhs_auto,
    gf_meixner_alt,
    gf_meixner_appell,
    gf_meixner_classical_2f1,
    gf_meixner_elementary,
    gf_meixner_integral,
    gf_weighted_laguerre_diag,
    laguerre_seq,
    meixner_seq,
    mh_charlier_limit,
    mh_convergence_study,
    pochhammer,
    run_set,
    weighted_classical_gf,
)

BETAS = (0.5, 1.5, 2.5)
CS = (0.2, 0.4, 0.8)
GAMMAS = (0.0, 0.3, 1.0, 2.7)
XS = (-1.2, 0.0, 0.5, 3.0)


@pytest.fixture(scope="module")
def representation_run():
    start = time.monotonic()
    reports = run_set("representations", rel_tol=1e-8, seed=0, n_max=25)
    return reports, time.monotonic() - start


@pytest.fixture(scope="module")
def identity_run():
    start = time.monotonic()
    reports = (
        run_set("transformations", rel_tol=1e-9, seed=0)
        + run_set("finite-sums", rel_tol=1e-9, seed=0)
        + run_set("convolutions", rel_tol=1e-9)
    )
    return reports, time.monotonic() - start


# ---------------------------------------------------------------------------
# 1. Representation agreement on the Meixner grid
# ---------------------------------------------------------------------------


def test_criterion_1_representation_agreement(representation_run):
    reports, elapsed = representation_run
    meixner = [r for r in reports if r.identity_id.startswith("meixner-rep:")]
    assert meixner, "no Meixner pairwise reports produced"
    # Every surviving route pair agrees to 1e-8 over the full grid, n <= 25.
    failures = [r for r in meixner if not r.passed]
    assert not failures, failures[:5]
    assert all(r.rel_tol == 1e-8 for r in meixner)
    # The quadratic route participates wherever it is defined (all three
    # beta values are non-integer; only gamma+beta=1 exclusions drop it).
    quad_pairs = {
        (r.point["beta"], r.point["gamma"])
        for r in meixner
        if "quadratic" in r.identity_id
    }
    expected = {
        (b, g)
        for b, g in itertools.product(BETAS, GAMMAS)
        if abs(b + g - 1.0) > 1e-8
    }
    assert quad_pairs == expected
    assert elapsed < 30.0, f"representation run took {elapsed:.1f}s"


def test_criterion_1_route_pairs_and_grid_points_are_pinned(
    representation_run,
):
    # The ordered (identity_id, grid point) rows, without the worst-n key,
    # which depends on the value bits. A dropped, duplicated or reordered
    # route pair, or a changed grid, changes the counts or the digest.
    reports, _elapsed = representation_run
    rows = [
        (r.identity_id, {k: v for k, v in r.point.items() if k != "n"})
        for r in reports
    ]
    assert Counter(identity_id for identity_id, _ in rows) == {
        "meixner-rep:recurrence~4f3": 144,
        "meixner-rep:recurrence~4f3-alt": 117,
        "meixner-rep:recurrence~cross": 108,
        "meixner-rep:recurrence~quadratic": 144,
        "meixner-rep:4f3~4f3-alt": 117,
        "meixner-rep:4f3~cross": 108,
        "meixner-rep:4f3~quadratic": 144,
        "meixner-rep:4f3-alt~cross": 108,
        "meixner-rep:4f3-alt~quadratic": 117,
        "meixner-rep:cross~quadratic": 108,
        "charlier-rep:recurrence~3f2": 39,
        "charlier-rep:recurrence~3f2-transformed": 39,
        "charlier-rep:3f2~3f2-transformed": 39,
        "laguerre-rep:recurrence~3f2": 48,
        "laguerre-rep:recurrence~3f2-rahman": 48,
        "laguerre-rep:3f2~3f2-rahman": 48,
        "mp-rep:connection~recurrence": 36,
        "meixner-classical-reduction": 36,
        "charlier-classical-reduction": 12,
        "laguerre-classical-reduction": 12,
    }
    assert rows[0] == ("meixner-rep:recurrence~4f3",
                       {"beta": 0.5, "c": 0.2, "gamma": 0.0, "x": -1.2})
    assert rows[-1] == ("laguerre-classical-reduction",
                        {"alpha": 1.7, "x": 3.0})
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == (
        "37d8817274f9351be2953d17da911c63a2318e77417901f1046ccff9c9345550"
    )


# ---------------------------------------------------------------------------
# 2. Classical reductions at zero shift
# ---------------------------------------------------------------------------


def test_criterion_2_classical_reductions(representation_run):
    reports, _elapsed = representation_run
    reductions = [
        r for r in reports if r.identity_id.endswith("-classical-reduction")
    ]
    families = {r.identity_id for r in reductions}
    assert families == {
        "meixner-classical-reduction",
        "charlier-classical-reduction",
        "laguerre-classical-reduction",
    }
    assert all(r.rel_tol == 1e-10 for r in reductions)
    failures = [r for r in reductions if not r.passed]
    assert not failures, failures[:5]


# ---------------------------------------------------------------------------
# 3. Generating functions: closed forms against truncated partial sums
# ---------------------------------------------------------------------------

_GF_TS = (0.1, 0.05, -0.1)
_GF_XS = (0.5, 2.0)
_GF_GAMMAS = (0.3, 1.2)


def _gf_agrees(spec, rhs, what):
    lhs, n_used = gf_lhs_auto(spec)
    assert n_used <= 120, f"{what}: needed N={n_used} > 120"
    scale = max(1.0, abs(rhs))
    assert abs(lhs - rhs) <= 1e-8 * scale, (
        f"{what}: rel {abs(lhs - rhs) / scale:.3e}"
    )


def test_criterion_3_generating_functions():
    for g, t, x in itertools.product(_GF_GAMMAS, _GF_TS, _GF_XS):
        mp_ = MeixnerParams(1.5, 0.4, g)
        _gf_agrees(
            GFSpec(mp_, x, t, Normalization.BY_GAMMA_BETA, 60),
            gf_meixner_appell(x, mp_, t),
            f"meixner-appell g={g} t={t} x={x}",
        )
        _gf_agrees(
            GFSpec(mp_, x, t, Normalization.BY_GAMMA_ONE, 60),
            gf_meixner_alt(x, mp_, t),
            f"meixner-alt g={g} t={t} x={x}",
        )
        _gf_agrees(
            GFSpec(mp_, x, t, Normalization.BY_GAMMA_ONE, 60),
            gf_meixner_integral(x, mp_, t),
            f"meixner-integral g={g} t={t} x={x}",
        )
        cp = CharlierParams(2.0, g)
        _gf_agrees(
            GFSpec(cp, x, t, Normalization.BY_GAMMA_ONE, 60),
            gf_charlier_phi1(x, cp, t),
            f"charlier-phi1 g={g} t={t} x={x}",
        )
        _gf_agrees(
            GFSpec(cp, x, t, Normalization.BY_GAMMA_ONE, 60),
            gf_charlier_integral(x, cp, t),
            f"charlier-integral g={g} t={t} x={x}",
        )
        lp = LaguerreParams(0.7, g)
        _gf_agrees(
            GFSpec(lp, x, t, Normalization.PLAIN, 60),
            gf_laguerre(x, lp, t),
            f"laguerre-phi1 g={g} t={t} x={x}",
        )
        for params in (mp_, cp, lp):
            report = weighted_classical_gf(x, params, t)
            assert report.passed, (report.identity_id, g, t, x)
            assert report.point["N"] <= 120
        dp = LaguerreParams(0.8, 0.8)
        _gf_agrees(
            GFSpec(dp, x, t, Normalization.WEIGHTED, 60),
            gf_weighted_laguerre_diag(x, 0.8, t),
            f"laguerre-diag t={t} x={x}",
        )
    # Classical particular cases at zero shift.
    for t, x in itertools.product(_GF_TS, _GF_XS):
        m0 = MeixnerParams(1.5, 0.4, 0.0)
        _gf_agrees(
            GFSpec(m0, x, t, Normalization.BY_GAMMA_ONE, 60),
            gf_meixner_elementary(x, 1.5, 0.4, t),
            f"meixner-elementary t={t} x={x}",
        )
        _gf_agrees(
            GFSpec(m0, x, t, Normalization.BY_GAMMA_BETA, 60),
            gf_meixner_classical_2f1(x, 1.5, 0.4, 0.4 * t),
            f"meixner-classical-2f1 t={t} x={x}",
        )
        c0 = CharlierParams(2.0, 0.0)
        _gf_agrees(
            GFSpec(c0, x, t, Normalization.BY_GAMMA_ONE, 60),
            gf_charlier_elementary(x, 2.0, t),
            f"charlier-elementary t={t} x={x}",
        )
        l0 = LaguerreParams(0.7, 0.0)
        _gf_agrees(
            GFSpec(l0, x, t, Normalization.PLAIN, 60),
            gf_laguerre_elementary(x, 0.7, t),
            f"laguerre-elementary t={t} x={x}",
        )


# ---------------------------------------------------------------------------
# 4. Charlier generating-function ODE residual
# ---------------------------------------------------------------------------


def test_criterion_4_ode_residual():
    for a, g, x in itertools.product((0.5, 2.0, 5.0), GAMMAS, XS):
        params = CharlierParams(a, g)
        for t_frac in (-0.2, -0.1, 0.0, 0.1, 0.2):
            t = t_frac * abs(a)
            residual = gf_charlier_ode_residual(x, params, t)
            assert residual <= 1e-8, (a, g, x, t, residual)


# ---------------------------------------------------------------------------
# 5. Limit relations with first-order convergence
# ---------------------------------------------------------------------------


def _charlier_limit_error(x, a, gamma, beta, n_max=10):
    target = charlier_seq(x, CharlierParams(a, gamma), n_max)
    seq = meixner_seq(x, MeixnerParams(beta, a / (a + beta), gamma), n_max)
    return max(
        abs(seq[n] / pochhammer(beta + gamma, n) - target[n])
        for n in range(n_max + 1)
    )


def _laguerre_limit_error(x, alpha, gamma, eps, n_max=10):
    target = laguerre_seq(x, LaguerreParams(alpha, gamma), n_max)
    seq = meixner_seq(x / eps, MeixnerParams(alpha + 1.0, 1.0 - eps, gamma), n_max)
    return max(
        abs(seq[n] / pochhammer(gamma + 1.0, n) - target[n])
        for n in range(n_max + 1)
    )


def test_criterion_5_limit_relations():
    for x, a, g in itertools.product((-1.0, 0.5, 2.0), (0.5, 2.0), (0.0, 0.8)):
        ratio = _charlier_limit_error(x, a, g, 1e4) / _charlier_limit_error(
            x, a, g, 1e5
        )
        assert 8.0 <= ratio <= 12.0, ("charlier", x, a, g, ratio)
    for x, alpha, g in itertools.product(
        (-1.0, 0.5, 2.0), (-0.5, 0.5, 1.7), (0.0, 0.8)
    ):
        ratio = _laguerre_limit_error(x, alpha, g, 1e-4) / _laguerre_limit_error(
            x, alpha, g, 1e-5
        )
        assert 8.0 <= ratio <= 12.0, ("laguerre", x, alpha, g, ratio)


# ---------------------------------------------------------------------------
# 6. Large-degree scaled limits
# ---------------------------------------------------------------------------


def test_criterion_6_charlier_errors_strictly_decrease():
    for x, a, g in itertools.product((-0.5, -1.5), (0.5, 1.0, 2.0), (0.0, 0.8)):
        study = mh_convergence_study(x, CharlierParams(a, g), [100, 200, 400])
        errs = [s[2] for s in study.samples]
        assert errs[0] > errs[1] > errs[2], (x, a, g, errs)


def test_criterion_6_charlier_closed_form_at_zero_shift():
    for x, a in itertools.product((-0.5, -1.5, -2.3), (0.5, 1.0, 2.0)):
        value = mh_charlier_limit(x, CharlierParams(a, 0.0))
        ref = math.exp(a) / gamma_value(-x)
        assert abs(value - ref) <= 1e-12 * abs(ref), (x, a)


@pytest.mark.xfail(
    strict=True,
    reason="measured Meixner scaled convergence is first order in 1/n: "
    "relative error ~4.5e-3 at n=400, not 1e-6",
)
def test_criterion_6_meixner_error_at_n400():
    study = mh_convergence_study(
        0.4, MeixnerParams(1.5, 0.4, 0.7), [100, 200, 400]
    )
    _n, _value, err = study.samples[-1]
    assert err <= 1e-6 * abs(study.limit)


@pytest.mark.xfail(
    strict=True,
    reason="the 1e-3 bound at n=400 holds only for small rate parameter "
    "(measured 6.3e-4 at a=0.5 but 1.25e-3 at a=1 and 2.5e-3 at a=2)",
)
def test_criterion_6_charlier_error_at_n400():
    for x, a, g in itertools.product((-0.5, -1.5), (0.5, 1.0, 2.0), (0.0, 0.8)):
        study = mh_convergence_study(x, CharlierParams(a, g), [100, 200, 400])
        _n, _value, err = study.samples[-1]
        assert err <= 1e-3 * abs(study.limit), (x, a, g)


# ---------------------------------------------------------------------------
# 7. Identity suite over 200 seeded random points
# ---------------------------------------------------------------------------


def test_criterion_7_identity_suite(identity_run):
    reports, elapsed = identity_run
    failures = [r for r in reports if not r.passed]
    assert not failures, failures[:5]
    random_counts = {}
    for r in reports:
        random_counts[r.identity_id] = random_counts.get(r.identity_id, 0) + 1
    assert random_counts["meixner-reflection"] == 40
    assert random_counts["meixner-degenerate-c1"] == 20
    assert random_counts["finite-sum-4f3"] == 60
    assert random_counts["3f2-pochhammer"] == 50
    assert random_counts["3f2-t-powered"] == 30
    # total seeded random points
    assert 40 + 20 + 60 + 50 + 30 == 200
    # degenerate-argument checks run at the tighter 1e-12 x-independence bar
    degenerate = [r for r in reports if r.identity_id == "meixner-degenerate-c1"]
    assert all(r.rel_tol == 1e-12 for r in degenerate)
    # convolution identities for all three families are part of the suite
    assert {"convolution-meixner", "convolution-charlier",
            "convolution-laguerre"} <= set(random_counts)
    assert elapsed < 60.0, f"identity run took {elapsed:.1f}s"


def test_criterion_7_degenerate_x_independence():
    # Direct statement of the x-independence clause: three x values at a
    # degenerate-argument point agree to 1e-12 with the closed form.
    from assocpoly import meixner_c1_degenerate

    closed = meixner_c1_degenerate(2.5, 1.5, 3)
    params = MeixnerParams(2.5, 1.0, 1.5)
    for x in (0.3, -2.0, 7.25):
        value = meixner_seq(x, params, 3)[3]
        assert abs(value - closed) <= 1e-12 * abs(closed)


# ---------------------------------------------------------------------------
# 8. Transformation kernel invariants
# ---------------------------------------------------------------------------


def test_criterion_8_transformation_kernel(identity_run):
    reports, _elapsed = identity_run
    by_id = {}
    for r in reports:
        by_id.setdefault(r.identity_id, []).append(r)
    for ident in ("2f1-pfaff", "2f1-euler", "1f1-kummer",
                  "f1-transformation", "phi1-confluence-limit"):
        group = by_id.get(ident, [])
        assert group, f"missing {ident} reports"
        failures = [r for r in group if not r.passed]
        assert not failures, (ident, failures[:3])
    # F1 transformation covers the four (x, y) sign combinations.
    assert len(by_id["f1-transformation"]) == 4
    points = {
        (r.point["x"], r.point["y"]) for r in by_id["f1-transformation"]
    }
    assert points == {(-0.3, -0.3), (-0.3, 0.2), (0.2, -0.3), (0.2, 0.2)}
    # The confluence-limit checks run at their documented 1e-5 tolerance.
    assert all(r.rel_tol == 1e-5 for r in by_id["phi1-confluence-limit"])
