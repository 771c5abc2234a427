"""Identity-verification suites.

Each suite evaluates a batch of identities over fixed grids and/or
seeded random points and returns a list of
:class:`~assocpoly.report.IdentityReport` records.  The suites are:

- ``representations``: pairwise agreement of all evaluation routes for
  each family (recurrence, finite double sums, quadratic and
  cross-product 2F1 forms, the Meixner-Pollaczek connection) plus the
  classical gamma = 0 reductions.
- ``transformations``: hypergeometric kernel invariants (Pfaff, Euler,
  Kummer, the Appell F1 transformation and reduction, the Humbert Phi1
  confluence limit), the reflection identity, and the degenerate c = 1
  closed form (including its x-independence).
- ``convolutions``: the three identities mixing one index-shifted value
  with two classical sequences.
- ``finite-sums``: the standalone terminating-sum identities at seeded
  random points.
- ``all``: the union, in the order above.

With the default counts, the randomized identities draw exactly 200
points per run (reflection 40, degenerate 20, free-argument double sum
60, two-term evaluation 50, t-powered companion 30), reproducible from
the seed.
"""

from __future__ import annotations

import itertools
import math
import random

from .closedforms import (
    charlier_3f2,
    charlier_classical,
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
    meixner_quadratic,
    meixner_reflection_rhs,
    mp_from_meixner,
)
from .errors import DenominatorPole, RestrictedParameter
from .genfuncs import c1_reduction_identity, convolution_identity
from .hyperkernel import appell_f1, gauss_2f1, humbert_phi1, kummer_1f1
from .recurrences import (
    CharlierParams,
    LaguerreParams,
    MeixnerParams,
    MeixnerPollaczekParams,
    charlier_seq,
    laguerre_seq,
    meixner_pollaczek_seq,
    meixner_seq,
)
from .report import make_report

__all__ = [
    "VERIFY_SETS",
    "run_set",
    "verify_representations",
    "verify_transformations",
    "verify_convolutions",
    "verify_finite_sums",
    "summarize",
]

VERIFY_SETS = ("representations", "transformations", "convolutions",
               "finite-sums", "all")

_MEIXNER_BETAS = (0.5, 1.5, 2.5)
_MEIXNER_CS = (0.2, 0.4, 0.8)
_GAMMAS = (0.0, 0.3, 1.0, 2.7)
_XS = (-1.2, 0.0, 0.5, 3.0)
_CHARLIER_AS = (0.5, 2.0, 5.0)
_LAGUERRE_ALPHAS = (-0.5, 0.5, 1.7)


def _severity(report):
    """Ranking key for worst-of selection: a NaN or inf discrepancy ranks
    above every finite one, so a non-finite result is never hidden."""
    rel = report.rel_discrepancy
    return rel if math.isfinite(rel) else math.inf


def _worst(reports):
    """The first report of the largest severity, or None for no reports."""
    return max(reports, key=_severity, default=None)


def _worst_pair_report(identity_id, point, pairs, rel_tol):
    """One report for a (grid point, route pair): the worst-n comparison."""
    return _worst(
        make_report(identity_id, {**point, "n": n}, lhs, rhs, rel_tol)
        for n, lhs, rhs in pairs
    )


def verify_representations(rel_tol=1e-8, n_max=25):
    """Pairwise route agreement and classical reductions.

    Returns
    -------
    list of IdentityReport
    """
    reports = []
    # Meixner: recurrence, two double sums, cross product, and the
    # quadratic form where defined.
    for beta, c, gamma, x in itertools.product(
        _MEIXNER_BETAS, _MEIXNER_CS, _GAMMAS, _XS
    ):
        params = MeixnerParams(beta, c, gamma)
        point = {"beta": beta, "c": c, "gamma": gamma, "x": x}
        values = {"recurrence": list(meixner_seq(x, params, n_max).values)}
        routes = {
            "4f3": meixner_4f3,
            "4f3-alt": meixner_4f3_alt,
            "cross": meixner_cross_2f1,
            "quadratic": meixner_quadratic,
        }
        for tag, fn in routes.items():
            vals = []
            try:
                for n in range(n_max + 1):
                    vals.append(fn(x, params, n))
            except (DenominatorPole, RestrictedParameter):
                continue
            values[tag] = vals
        tags = list(values)
        for i, tag_a in enumerate(tags):
            for tag_b in tags[i + 1:]:
                pairs = [
                    (n, values[tag_a][n], values[tag_b][n])
                    for n in range(n_max + 1)
                ]
                reports.append(
                    _worst_pair_report(
                        f"meixner-rep:{tag_a}~{tag_b}", point, pairs, rel_tol
                    )
                )
    # Charlier: recurrence and the two 3F2 double sums.
    for a, gamma, x in itertools.product(_CHARLIER_AS, _GAMMAS, _XS):
        params = CharlierParams(a, gamma)
        point = {"a": a, "gamma": gamma, "x": x}
        values = {"recurrence": list(charlier_seq(x, params, n_max).values)}
        for tag, variant in (("3f2", "primary"), ("3f2-transformed", "transformed")):
            vals = []
            try:
                for n in range(n_max + 1):
                    vals.append(charlier_3f2(x, params, n, variant))
            except DenominatorPole:
                continue
            values[tag] = vals
        tags = list(values)
        for i, tag_a in enumerate(tags):
            for tag_b in tags[i + 1:]:
                pairs = [
                    (n, values[tag_a][n], values[tag_b][n])
                    for n in range(n_max + 1)
                ]
                reports.append(
                    _worst_pair_report(
                        f"charlier-rep:{tag_a}~{tag_b}", point, pairs, rel_tol
                    )
                )
    # Laguerre: recurrence and the two 3F2 double sums.
    for alpha, gamma, x in itertools.product(_LAGUERRE_ALPHAS, _GAMMAS, _XS):
        params = LaguerreParams(alpha, gamma)
        point = {"alpha": alpha, "gamma": gamma, "x": x}
        values = {"recurrence": list(laguerre_seq(x, params, n_max).values)}
        for tag, variant in (("3f2", "primary"), ("3f2-rahman", "rahman")):
            vals = []
            try:
                for n in range(n_max + 1):
                    vals.append(laguerre_3f2(x, params, n, variant))
            except (DenominatorPole, RestrictedParameter):
                continue
            values[tag] = vals
        tags = list(values)
        for i, tag_a in enumerate(tags):
            for tag_b in tags[i + 1:]:
                pairs = [
                    (n, values[tag_a][n], values[tag_b][n])
                    for n in range(n_max + 1)
                ]
                reports.append(
                    _worst_pair_report(
                        f"laguerre-rep:{tag_a}~{tag_b}", point, pairs, rel_tol
                    )
                )
    # Meixner-Pollaczek: recurrence vs the complex Meixner connection.
    mp_n_max = min(n_max, 20)
    for nu, phi, gamma, x in itertools.product(
        (0.3, 1.0), (0.7, 2.0), (0.0, 0.5, 1.8), (-1.2, 0.0, 2.5)
    ):
        params = MeixnerPollaczekParams(nu, phi, gamma)
        point = {"nu": nu, "phi": phi, "gamma": gamma, "x": x}
        seq = meixner_pollaczek_seq(x, params, mp_n_max)
        pairs = [
            (n, mp_from_meixner(x, params, n), seq[n])
            for n in range(mp_n_max + 1)
        ]
        reports.append(
            _worst_pair_report(
                "mp-rep:connection~recurrence", point, pairs, rel_tol
            )
        )
    # Classical gamma = 0 reductions, tighter tolerance.
    red_tol = min(rel_tol, 1e-10)
    red_n_max = min(n_max, 20)
    for beta, c, x in itertools.product(_MEIXNER_BETAS, _MEIXNER_CS, _XS):
        params = MeixnerParams(beta, c, 0.0)
        seq = meixner_seq(x, params, red_n_max)
        pairs = [
            (n, meixner_classical(x, beta, c, n), seq[n])
            for n in range(red_n_max + 1)
        ]
        reports.append(
            _worst_pair_report(
                "meixner-classical-reduction",
                {"beta": beta, "c": c, "x": x},
                pairs,
                red_tol,
            )
        )
    for a, x in itertools.product(_CHARLIER_AS, _XS):
        params = CharlierParams(a, 0.0)
        seq = charlier_seq(x, params, red_n_max)
        pairs = [
            (n, charlier_classical(x, a, n), seq[n])
            for n in range(red_n_max + 1)
        ]
        reports.append(
            _worst_pair_report(
                "charlier-classical-reduction", {"a": a, "x": x}, pairs, red_tol
            )
        )
    for alpha, x in itertools.product(_LAGUERRE_ALPHAS, _XS):
        params = LaguerreParams(alpha, 0.0)
        seq = laguerre_seq(x, params, red_n_max)
        pairs = [
            (n, laguerre_classical(x, alpha, n), seq[n])
            for n in range(red_n_max + 1)
        ]
        reports.append(
            _worst_pair_report(
                "laguerre-classical-reduction",
                {"alpha": alpha, "x": x},
                pairs,
                red_tol,
            )
        )
    return reports


def verify_transformations(rel_tol=1e-8, seed=0, reflection_points=40,
                           degenerate_points=20):
    """Kernel transformation invariants plus reflection and c = 1 checks.

    Returns
    -------
    list of IdentityReport
    """
    reports = []
    # Pfaff and Euler transformations of 2F1.
    abc_grid = [(0.3, 1.2, 2.1), (-1.5, 0.7, 0.9), (2.2, -0.4, 3.3),
                (0.5, 0.5, 1.7)]
    z_grid = (-0.6, -0.2, 0.3, 0.45)
    for (a, b, c), z in itertools.product(abc_grid, z_grid):
        point = {"a": a, "b": b, "c": c, "z": z}
        base = gauss_2f1(a, b, c, z).value
        pfaff = (1.0 - z) ** (-a) * gauss_2f1(
            a, c - b, c, z / (z - 1.0)
        ).value
        reports.append(make_report("2f1-pfaff", point, pfaff, base, rel_tol))
        euler = (1.0 - z) ** (c - a - b) * gauss_2f1(
            c - a, c - b, c, z
        ).value
        reports.append(make_report("2f1-euler", point, euler, base, rel_tol))
    # Kummer transformation of 1F1.
    for (a, b), z in itertools.product(
        [(0.7, 1.9), (-1.3, 0.8), (2.4, 3.1)], (-1.5, -0.4, 0.6, 2.0)
    ):
        point = {"a": a, "b": b, "z": z}
        base = kummer_1f1(a, b, z).value
        flipped = math.exp(z) * kummer_1f1(b - a, b, -z).value
        reports.append(make_report("1f1-kummer", point, flipped, base, rel_tol))
    # Appell F1 transformation.
    for x, y in itertools.product((-0.3, 0.2), repeat=2):
        alpha, b1, b2, sigma = 0.8, 0.6, 1.1, 2.3
        point = {"alpha": alpha, "beta1": b1, "beta2": b2, "sigma": sigma,
                 "x": x, "y": y}
        base = appell_f1(alpha, b1, b2, sigma, x, y).value
        xp, yp = x / (x - 1.0), y / (y - 1.0)
        trans = (
            (1.0 - x) ** (-b1)
            * (1.0 - y) ** (-b2)
            * appell_f1(sigma - alpha, b1, b2, sigma, xp, yp).value
        )
        reports.append(make_report("f1-transformation", point, trans, base,
                                   rel_tol))
    # Appell F1 equal-argument reduction to 2F1.
    for alpha, l1, l2, sigma, t in (
        (0.9, 0.4, 1.3, 2.2, 0.3),
        (1.7, -0.6, 0.8, 1.4, -0.25),
        (0.5, 1.1, 1.1, 3.0, 0.15),
    ):
        point = {"alpha": alpha, "lambda1": l1, "lambda2": l2,
                 "sigma": sigma, "t": t}
        lhs = appell_f1(alpha, l1, l2, sigma, t, t).value
        rhs = gauss_2f1(alpha, l1 + l2, sigma, t).value
        reports.append(make_report("f1-reduction", point, lhs, rhs, rel_tol))
    # Humbert Phi1 as a confluence limit of F1.
    mu = 1.0e6
    for alpha, lam, sigma, x, y in (
        (0.8, 0.6, 2.3, 0.3, -0.7),
        (1.4, -0.5, 1.9, -0.2, 1.1),
    ):
        point = {"alpha": alpha, "lambda": lam, "sigma": sigma,
                 "x": x, "y": y}
        lhs = appell_f1(alpha, lam, mu, sigma, x, y / mu).value
        rhs = humbert_phi1(alpha, lam, sigma, x, y).value
        reports.append(
            make_report("phi1-confluence-limit", point, lhs, rhs,
                        max(rel_tol, 1e-5))
        )
    rng = random.Random(seed)
    # Reflection identity at random points.
    for _ in range(reflection_points):
        beta = rng.uniform(0.2, 3.0)
        c = rng.uniform(0.15, 0.9)
        gamma = rng.uniform(0.0, 3.0)
        x = rng.uniform(-3.0, 3.0)
        n = rng.randint(1, 20)
        params = MeixnerParams(beta, c, gamma)
        point = {"beta": beta, "c": c, "gamma": gamma, "x": x, "n": n}
        lhs = meixner_seq(x, params, n)[n]
        rhs = meixner_reflection_rhs(x, params, n)
        reports.append(make_report("meixner-reflection", point, lhs, rhs,
                                   rel_tol))
    # Degenerate c = 1 value and its x-independence.
    for _ in range(degenerate_points):
        beta = rng.uniform(0.2, 3.0)
        if abs(beta - 1.0) < 1e-3:
            beta += 0.1
        gamma = rng.uniform(0.0, 3.0)
        n = rng.randint(1, 20)
        closed = meixner_c1_degenerate(beta, gamma, n)
        params = MeixnerParams(beta, 1.0, gamma)
        checks = []
        for _k in range(3):
            x = rng.uniform(-5.0, 5.0)
            value = meixner_seq(x, params, n)[n]
            checks.append(make_report(
                "meixner-degenerate-c1",
                {"beta": beta, "gamma": gamma, "n": n, "x": x},
                value,
                closed,
                1e-12,
            ))
        reports.append(_worst(checks))
    return reports


def verify_convolutions(rel_tol=1e-8):
    """The three convolution identities over fixed grids.

    Returns
    -------
    list of IdentityReport
    """
    reports = []
    for beta, c, gamma, x in itertools.product(
        (0.5, 1.5), (0.4, 0.8), (0.7, 2.1), (0.25, -1.2, 2.0)
    ):
        params = MeixnerParams(beta, c, gamma)
        reports.append(_worst(
            convolution_identity(x, params, n, rel_tol) for n in range(13)
        ))
    for a, gamma, x in itertools.product(
        (0.5, 1.0, 2.0), (0.5, 1.8), (0.25, -1.2, 2.0)
    ):
        params = CharlierParams(a, gamma)
        reports.append(_worst(
            convolution_identity(x, params, n, rel_tol) for n in range(13)
        ))
    for alpha, gamma, x in itertools.product(
        (-0.5, 0.5, 1.7), (0.9, 2.1), (0.0, 1.2, 3.0)
    ):
        params = LaguerreParams(alpha, gamma)
        reports.append(_worst(
            convolution_identity(x, params, n, rel_tol) for n in range(13)
        ))
    # Degenerate-argument reduction chain (fixed pinned point plus two others).
    for beta, gamma, t in ((2.5, 0.7, 0.2), (0.7, 1.4, -0.15), (1.8, 0.4, 0.1)):
        reports.append(c1_reduction_identity(beta, gamma, t, rel_tol))
    return reports


def verify_finite_sums(rel_tol=1e-9, seed=0, free_argument_points=60,
                       two_term_points=50, t_powered_points=30):
    """Terminating-sum identities at seeded random points.

    Returns
    -------
    list of IdentityReport
    """
    rng = random.Random(seed ^ 0x5EED)
    reports = []

    def draw_b_away_from(a, lo, hi):
        while True:
            b = rng.uniform(lo, hi)
            if abs(b) < 1e-3:
                continue
            if abs((b - a) - round(b - a)) < 1e-3:
                continue
            return b

    for _ in range(free_argument_points):
        n = rng.randint(1, 18)
        a = rng.uniform(0.1, 3.0)
        b = draw_b_away_from(a, -0.9, 3.0)
        t = rng.uniform(0.05, 0.4)
        while True:
            y = rng.uniform(-2.0, 2.0)
            ay = a + y
            if abs(ay - round(ay)) > 1e-3 or round(ay) > 0 or round(ay) < -(n - 1):
                break
        reports.append(identity_4f3_finite_sum(n, a, b, t, y, rel_tol))
    for _ in range(two_term_points):
        n = rng.randint(1, 30)
        a = rng.uniform(0.05, 4.0)
        b = draw_b_away_from(a, 0.05, 4.0)
        reports.append(identity_3f2_pochhammer(n, a, b, min(rel_tol, 1e-10)))
    for _ in range(t_powered_points):
        n = rng.randint(1, 20)
        a = rng.uniform(0.05, 3.0)
        b = draw_b_away_from(a, 0.05, 3.0)
        t = rng.uniform(0.05, 0.4)
        reports.append(identity_3f2_t_powered(n, a, b, t, rel_tol))
    return reports


def run_set(set_name, rel_tol=1e-8, seed=0, n_max=25):
    """Run one named verification set (or ``all``).

    Returns
    -------
    list of IdentityReport
    """
    if set_name not in VERIFY_SETS:
        raise ValueError(
            f"unknown verification set {set_name!r}; choose from {VERIFY_SETS}"
        )
    reports = []
    if set_name in ("representations", "all"):
        reports.extend(verify_representations(rel_tol, n_max))
    if set_name in ("transformations", "all"):
        reports.extend(verify_transformations(rel_tol, seed))
    if set_name in ("convolutions", "all"):
        reports.extend(verify_convolutions(rel_tol))
    if set_name in ("finite-sums", "all"):
        reports.extend(verify_finite_sums(min(rel_tol, 1e-9), seed))
    return reports


def summarize(reports):
    """(passed count, failed count, worst report or None)."""
    passed = sum(1 for r in reports if r.passed)
    return passed, len(reports) - passed, _worst(reports)
