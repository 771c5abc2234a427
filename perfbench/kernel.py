"""The ``kernel-warm`` workload: a seeded stream of warm, checked calls.

Each operation is one public call plus the independent side it is
checked against, and returns the :class:`assocpoly.IdentityReport` of
that check.  Every function is looked up on the ``assocpoly`` package
when the operation is drawn, so operations drawn while the span recorders
are installed call through them.

Operations whose inputs fall in one of the package's known defects
(``defects.py``) are kept and carry the defect's name; their failures are
counted like any other, and mark the run incorrect only above a capped
share.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, NamedTuple

import assocpoly as ap
import defects

# Tolerance every check of this workload is stated at.
TOL = 1e-8
# Tail tolerance of the truncated generating series: ten times tighter than
# the check, as with ``gf_lhs_auto``'s default.
TAIL_TOL = 1e-9
# The scaled iterates converge to their limit at first order in 1/n.  The
# check extrapolates r_100, r_200 and r_400 to second order, whose
# remainder stays below 4e-3 over the drawn parameters.
MH_TOL = 1e-2
MH_CHECKPOINTS = (50, 100, 200, 400)


class Op(NamedTuple):
    """One checked call: ``run()`` returns its IdentityReport."""

    name: str
    run: Callable
    defect: str = ""


def _complex_x(rng, lo, hi):
    """Real part uniform in [lo, hi], Im x log-uniform in [1e-3, 1]."""
    return complex(rng.uniform(lo, hi), 10.0 ** rng.uniform(-3.0, 0.0))


def _meixner(rng, gamma_lo=0.0):
    return ap.MeixnerParams(rng.uniform(0.3, 2.7), rng.uniform(0.2, 0.8),
                            rng.uniform(gamma_lo, 2.7))


def _charlier(rng, gamma_lo=0.0):
    return ap.CharlierParams(rng.uniform(0.5, 5.0), rng.uniform(gamma_lo, 2.7))


def _laguerre(rng, gamma_lo=0.0):
    return ap.LaguerreParams(rng.uniform(-0.5, 1.7), rng.uniform(gamma_lo, 2.7))


def _gf_op(rng):
    """A generating-function closed form against the auto-truncated series."""
    form = rng.choice(("meixner-appell", "meixner-alt", "meixner-integral",
                       "charlier-phi1", "charlier-integral", "laguerre-phi1",
                       "weighted"))
    x = rng.uniform(-1.2, 3.0)
    t = rng.uniform(0.05, 0.45)
    if form == "weighted":
        params = rng.choice((_meixner, _charlier, _laguerre))(rng, 0.1)

        def weighted():
            rep = ap.weighted_classical_gf(x, params, t, TAIL_TOL)
            return ap.make_report(rep.identity_id, rep.point, rep.lhs, rep.rhs,
                                  TOL)

        return Op("gf-weighted", weighted, _radius_defect(params, t))
    norm = ap.Normalization.BY_GAMMA_ONE
    if form.startswith("meixner"):
        params = _meixner(rng, 0.1)
        if form == "meixner-appell":
            norm = ap.Normalization.BY_GAMMA_BETA
            rhs = ap.gf_meixner_appell
        else:
            rhs = (ap.gf_meixner_alt if form == "meixner-alt"
                   else ap.gf_meixner_integral)
    elif form.startswith("charlier"):
        params = _charlier(rng, 0.1)
        rhs = (ap.gf_charlier_phi1 if form == "charlier-phi1"
               else ap.gf_charlier_integral)
    else:
        params = _laguerre(rng, 0.1)
        norm = ap.Normalization.PLAIN
        rhs = ap.gf_laguerre
    point = {"x": x, "t": t}

    def op():
        lhs, _n_used = ap.gf_lhs_auto(ap.GFSpec(params, x, t, norm, 60))
        return ap.make_report(f"gf-{form}", point, lhs, rhs(x, params, t), TOL)

    return Op(f"gf-{form}", op, _radius_defect(params, t))


def _radius_defect(params, t):
    if isinstance(params, ap.CharlierParams) and defects.near_radius(t, params.a):
        return defects.NEAR_RADIUS
    return ""


def _route_op(name, x, params, n, route, reference, *extra):
    def op():
        value = route(x, params, n, *extra)
        ref = reference(x, params, n)[n]
        return ap.make_report(name, {"x": x, "n": n}, value, ref, TOL)

    f21_product = route in (ap.meixner_quadratic, ap.meixner_cross_2f1)
    if isinstance(x, complex):
        defect = "" if f21_product else defects.COMPLEX_DOUBLE_SUM
    else:
        defect = (defects.NEAR_LATTICE
                  if f21_product and defects.near_lattice(x, params.gamma) else "")
    return Op(name, op, defect)


def _real_f21_op(rng):
    """A real-x quadratic or cross-product 2F1 route against the recurrence."""
    name, route = rng.choice((("quadratic", ap.meixner_quadratic),
                              ("cross", ap.meixner_cross_2f1)))
    return _route_op(f"real-{name}", rng.uniform(-1.2, 3.0), _meixner(rng),
                     rng.randint(0, 25), route, ap.meixner_seq)


def _complex_route_op(rng):
    """A complex-x double-sum or 2F1 route against the recurrence."""
    n = rng.randint(1, 25)
    kind = rng.choice(("4f3", "4f3-alt", "quadratic", "cross",
                       "charlier-primary", "charlier-transformed",
                       "laguerre-primary", "laguerre-rahman"))
    name = f"complex-{kind}"
    if kind.startswith("charlier"):
        return _route_op(name, _complex_x(rng, -1.2, 3.0), _charlier(rng), n,
                         ap.charlier_3f2, ap.charlier_seq, kind.split("-")[1])
    if kind.startswith("laguerre"):
        return _route_op(name, _complex_x(rng, 0.0, 3.0), _laguerre(rng), n,
                         ap.laguerre_3f2, ap.laguerre_seq, kind.split("-")[1])
    route = {"4f3": ap.meixner_4f3, "4f3-alt": ap.meixner_4f3_alt,
             "quadratic": ap.meixner_quadratic,
             "cross": ap.meixner_cross_2f1}[kind]
    return _route_op(name, _complex_x(rng, -1.2, 3.0), _meixner(rng), n,
                     route, ap.meixner_seq)


def _mh_op(rng):
    """A scaled convergence study to degree 400 against its closed limit."""
    if rng.random() < 0.5:
        params = _meixner(rng)
    else:
        params = _charlier(rng)
    x = rng.uniform(-1.2, 0.8)

    def op():
        study = ap.mh_convergence_study(x, params, MH_CHECKPOINTS)
        r100, r200, r400 = (value for _n, value, _err in study.samples[1:])
        extrapolated = (8.0 * r400 - 6.0 * r200 + r100) / 3.0
        return ap.make_report("mh-richardson", {"x": x}, extrapolated,
                              study.limit, MH_TOL)

    return Op("mh-study", op)


# Relative frequency of each operation kind in the stream.
_KINDS = ((_gf_op, 3), (_real_f21_op, 1), (_complex_route_op, 3), (_mh_op, 1))
_MAKERS = [maker for maker, weight in _KINDS for _ in range(weight)]


def stream(seed):
    """An endless stream of operations drawn from ``seed``."""
    rng = random.Random(seed)
    while True:
        yield rng.choice(_MAKERS)(rng)


def warm_up():
    """Run a fixed pass of every operation kind, independent of the seed."""
    for op in itertools.islice(stream(-1), 64):
        op.run()
