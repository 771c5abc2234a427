"""The ``eval-cold`` workload: a seeded sequence of fresh ``assocpoly eval`` runs.

Each case draws a family, then one of that family's representations,
then parameters, a real or complex ``x`` and a degree ``n <= 25``.  The
printed value is checked against the family's recurrence, evaluated by
the benchmark in its own process.

As in ``kernel-warm``, cases whose inputs fall in one of the package's
known defects (``defects.py``) are kept and carry the defect's name.
"""

from __future__ import annotations

import csv
import io
import random
from typing import Callable, NamedTuple

import assocpoly as ap
import defects

TOL = 1e-8

REPS = {
    "meixner": ("recurrence", "4f3", "4f3-alt", "quadratic", "cross",
                "reflection", "degenerate-c1", "classical"),
    "charlier": ("recurrence", "3f2", "3f2-transformed", "classical"),
    "laguerre": ("recurrence", "3f2", "3f2-rahman", "classical"),
    "meixner-pollaczek": ("recurrence", "connection"),
}
_DOUBLE_SUMS = ("4f3", "4f3-alt", "3f2", "3f2-transformed", "3f2-rahman")


class Case(NamedTuple):
    """One ``assocpoly eval`` invocation and the value it must print."""

    argv: list
    reference: Callable
    defect: str


def _x(rng):
    if rng.random() < 0.5:
        return rng.uniform(-1.2, 3.0)
    return complex(rng.uniform(-1.2, 3.0), 10.0 ** rng.uniform(-3.0, 0.0))


def case(rng):
    """Draw one eval case from ``rng``."""
    family = rng.choice(tuple(REPS))
    rep = rng.choice(REPS[family])
    gamma = 0.0 if rep == "classical" else rng.uniform(0.0, 2.7)
    n = rng.randint(0, 25)
    x = _x(rng)
    if family == "meixner":
        beta = rng.uniform(0.3, 2.7)
        if rep == "degenerate-c1":
            # The closed form divides by beta - 1.
            beta = rng.choice((rng.uniform(0.3, 0.9), rng.uniform(1.1, 2.7)))
            x, c = 0.0, 1.0
        else:
            c = rng.uniform(0.2, 0.8)
        params = ap.MeixnerParams(beta, c, gamma)
        flags = ["--beta", repr(beta), "--c", repr(c)]
        seq = ap.meixner_seq
    elif family == "charlier":
        params = ap.CharlierParams(rng.uniform(0.5, 5.0), gamma)
        flags = ["--a", repr(params.a)]
        seq = ap.charlier_seq
    elif family == "laguerre":
        params = ap.LaguerreParams(rng.uniform(-0.5, 1.7), gamma)
        flags = ["--alpha", repr(params.alpha)]
        seq = ap.laguerre_seq
    else:
        params = ap.MeixnerPollaczekParams(rng.uniform(0.3, 1.0),
                                           rng.uniform(0.5, 2.5), gamma)
        flags = ["--nu", repr(params.nu), "--phi", repr(params.phi)]
        seq = ap.meixner_pollaczek_seq
    argv = ["eval", "--family", family, "--rep", rep, "--n", str(n),
            "--gamma", repr(gamma), *flags]
    if rep != "degenerate-c1":
        argv += ["--x", repr(x)]
    if isinstance(x, complex):
        defect = defects.COMPLEX_DOUBLE_SUM if rep in _DOUBLE_SUMS else ""
    else:
        defect = (defects.NEAR_LATTICE if rep in ("quadratic", "cross")
                  and defects.near_lattice(x, gamma) else "")
    return Case(argv, lambda: seq(x, params, n)[n], defect)


def cases(seed, count):
    """``count`` eval cases drawn from ``seed``."""
    rng = random.Random(seed)
    return [case(rng) for _ in range(count)]


def printed_value(stdout):
    """The value an ``eval`` run printed as CSV."""
    rows = [row for row in csv.DictReader(
        line for line in io.StringIO(stdout) if not line.startswith("#"))]
    if len(rows) != 1:
        raise ValueError(f"expected one CSV row, got {len(rows)}")
    return complex(float(rows[0]["value_re"]), float(rows[0]["value_im"]))


def agrees(value, reference):
    """Relative agreement at TOL; a non-finite value never agrees."""
    return abs(value - reference) <= TOL * abs(reference)
