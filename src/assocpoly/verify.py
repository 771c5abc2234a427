"""Identity-verification suites.

Each suite evaluates a batch of identities over fixed grids and/or
seeded random points and returns a list of
:class:`~assocpoly.report.IdentityReport` records.  The suites are:

- ``representations``: pairwise agreement of all evaluation routes for
  each family (recurrence, finite double sums, quadratic and
  cross-product 2F1 forms, the Meixner-Pollaczek connection) plus the
  classical gamma = 0 reductions.  The routes are those of
  ``cli._FAMILIES``, the package's one family/route table; this module
  holds only the parameter grids and each family's pair order.  Each
  family grid point, Meixner-Pollaczek point and classical-reduction
  point is one task, which sweeps the routes of its pairs; the tasks run
  on every CPU the process may use, one forked worker per extra CPU, and
  the reports, and any error raised, are those of the serial loop.  Each
  route's degrees come from ``_Family.sweep``.
- ``transformations``: hypergeometric kernel invariants (Pfaff, Euler,
  Kummer, the Appell F1 transformation and reduction, the Humbert Phi1
  confluence limit), the reflection identity, and the degenerate c = 1
  closed form (including its x-independence).
- ``convolutions``: the three identities mixing one index-shifted value
  with two classical sequences.
- ``finite-sums``: the standalone terminating-sum identities at seeded
  random points.
- ``all``: the union, in the order above.  The other three sets run as
  three more tasks of the same map, after the representation tasks.

The randomized identities draw exactly 200 points per run (reflection
40, degenerate 20, free-argument double sum 60, two-term evaluation 50,
t-powered companion 30; the ``_*_POINTS`` constants), reproducible from
the seed.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import pickle
import random
import select
import signal
import threading

from .cli import _FAMILIES
from .closedforms import (
    identity_3f2_pochhammer,
    identity_3f2_t_powered,
    identity_4f3_finite_sum,
    meixner_c1_degenerate,
    meixner_reflection_rhs,
)
from .errors import DenominatorPole, RestrictedParameter
from .genfuncs import c1_reduction_identity, convolution_identity
from .hyperkernel import appell_f1, gauss_2f1, humbert_phi1, kummer_1f1
from .recurrences import CharlierParams, LaguerreParams, MeixnerParams, meixner_seq
from .report import VERIFY_SETS, _discrepancy, _rank, _worst, make_report, summarize

_REFLECTION_POINTS = 40
_DEGENERATE_POINTS = 20
_FREE_ARGUMENT_POINTS = 60
_TWO_TERM_POINTS = 50
_T_POWERED_POINTS = 30

_MEIXNER_BETAS = (0.5, 1.5, 2.5)
_MEIXNER_CS = (0.2, 0.4, 0.8)
_GAMMAS = (0.0, 0.3, 1.0, 2.7)
_XS = (-1.2, 0.0, 0.5, 3.0)
_CHARLIER_AS = (0.5, 2.0, 5.0)
_LAGUERRE_ALPHAS = (-0.5, 0.5, 1.7)


def _worst_pair_report(identity_id, point, pairs, rel_tol):
    """One report for a (grid point, route pair): the worst-n comparison.

    Only the worst of the ``(n, lhs, rhs)`` pairs becomes a report, ranked
    as :func:`~assocpoly.report.summarize` ranks reports: a NaN or inf
    discrepancy highest, and the first of equals.
    """
    n, lhs, rhs = max(
        pairs, key=lambda pair: _rank(_discrepancy(pair[1], pair[2])))
    return make_report(identity_id, {**point, "n": n}, lhs, rhs, rel_tol)


# The pairs that ``verify_representations`` compares: each family's
# parameter grids, in the order of its ``cli`` flags, and its routes in
# pair order after the recurrence.  The params classes, recurrences and
# routes are those of ``cli._FAMILIES``, the one family/route table.
_PAIRS = {
    "meixner": ((_MEIXNER_BETAS, _MEIXNER_CS),
                ("4f3", "4f3-alt", "cross", "quadratic")),
    "charlier": ((_CHARLIER_AS,), ("3f2", "3f2-transformed")),
    "laguerre": ((_LAGUERRE_ALPHAS,), ("3f2", "3f2-rahman")),
}


def _usable_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_share(function, tasks, queue, size):
    """``(results, failure)`` of the tasks this worker takes from ``queue``.

    Each record of the pipe ``queue`` is the index of a block of ``size``
    consecutive tasks; the worker takes the next record whenever it is
    free, so a worker on a slower or busier CPU takes fewer tasks.
    ``results`` holds a ``(index, result)`` pair for each task run.  The
    share stops at its first failing task; ``failure`` is that task's
    ``(index, exception)``, or None.
    """
    results = []
    while record := os.read(queue, _RECORD):
        block = int.from_bytes(record, "little") * size
        for i in range(block, min(block + size, len(tasks))):
            try:
                results.append((i, function(tasks[i])))
            except Exception as exc:  # carried to the parent, which raises it
                return results, (i, exc)
    return results, None


def _fork_worker(function, tasks, queue, size):
    """``(pid, read end)`` of a forked child that pickles its share to a pipe."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The child never returns into the caller's stack: it runs no
        # atexit handler and flushes no stdio buffer it inherited.
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pickle.dump(_run_share(function, tasks, queue, size), pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


# Bytes of one record of a ``_map`` task queue: a block index.
_RECORD = 4


def _map(function, tasks):
    """``[function(task) for task in tasks]``, on every CPU the process may use.

    With k = min(usable CPUs, len(tasks)) workers: worker 0 is this
    process, and each other worker a child forked with ``os.fork`` that
    sends its share back through a pipe.  The workers take the tasks in
    order from one queue, each the next task when it is free, so that the
    run ends when the work does, however the CPUs' speeds differ.  A
    worker stops at its first failing task.  Once every share is in, the
    failing task of lowest index is raised: the error that the serial loop
    raises first, since the queue hands the tasks out in order and every
    task below it ran.  The map runs serially when k = 1, without
    ``os.fork``, or while another thread is alive, since forking then can
    deadlock.

    The map is written out rather than run by a fork-context
    ``concurrent.futures.ProcessPoolExecutor``: one that gave the same
    output made ``verify --set all --seed 1`` slower (median wall 0.656
    to 0.815 s over 12 alternating fresh runs on 2 CPUs, faster in none)
    and larger (peak RSS 19.37 to 20.50 MB).
    """
    k = min(_usable_cpus(), len(tasks))
    if k < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [function(task) for task in tasks]
    # The whole queue is written before any worker starts, in one write
    # that a pipe always holds (PIPE_BUF bytes), so that no read sees half
    # a record; past PIPE_BUF / _RECORD tasks a record stands for a block.
    size = -(-len(tasks) // (select.PIPE_BUF // _RECORD))
    queue, fill = os.pipe()
    os.write(fill, b"".join(block.to_bytes(_RECORD, "little") for block
                            in range(-(-len(tasks) // size))))
    os.close(fill)
    pipes, payloads, statuses = {}, {}, {}
    try:
        for _ in range(k - 1):
            pid, pipe = _fork_worker(function, tasks, queue, size)
            pipes[pid] = pipe
        shares = [_run_share(function, tasks, queue, size)]
        for pid, pipe in pipes.items():
            payloads[pid] = pipe.read()
    finally:
        os.close(queue)
        for pid, pipe in pipes.items():
            if pid not in payloads:  # an error or an interrupt came first
                os.kill(pid, signal.SIGKILL)
            pipe.close()
            statuses[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    for pid, status in statuses.items():
        if status != 0:
            raise RuntimeError(
                f"verify worker {pid} exited with status {status} "
                "before sending its results")
        shares.append(pickle.loads(payloads[pid]))
    results = [None] * len(tasks)
    failures = []
    for share, failure in shares:
        for i, result in share:
            results[i] = result
        if failure is not None:
            failures.append(failure)
    if failures:
        raise min(failures)[1]  # indices are distinct: no two errors compared
    return results


def _pair_reports(name, point, pairs, rel_tol, n_max, skip=()):
    """The reports of one family's route pairs at one point.

    ``pairs`` lists ``(identity id, lhs route, rhs route)``.  The point
    gives x and the params, with gamma 0 when it names none.  The routes
    are swept over 0..n_max, the recurrence first and then in the order
    that the pairs name them; a route that raises one of ``skip`` is left
    out with its pairs.  Each pair's report is that of its worst degree.
    """
    family = _FAMILIES[name]
    params = family.params(*(point[flag] for flag in family.flags),
                           point.get("gamma", 0.0))
    tags = ["recurrence"] + [tag for _, *pair in pairs for tag in pair]
    routes = {}
    for tag in dict.fromkeys(tags):
        try:
            routes[tag] = family.sweep(tag, point["x"], params, n_max)
        except skip:
            continue
    return [
        _worst_pair_report(identity_id, point,
                           zip(range(n_max + 1), routes[lhs], routes[rhs]),
                           rel_tol)
        for identity_id, lhs, rhs in pairs if lhs in routes and rhs in routes
    ]


def _representation_tasks(rel_tol, n_max):
    """The tasks of :func:`verify_representations`, in report order: each
    family grid point, then each Meixner-Pollaczek point and each
    classical-reduction point.  A task is a function that returns a list
    of reports."""
    grid, classical = [], []
    for name, (grids, tags) in _PAIRS.items():
        flags = _FAMILIES[name].flags
        # Recurrence against every closed form, and each closed form
        # against the later ones; a route that is not defined at a point
        # is skipped.
        pairs = [(f"{name}-rep:{a}~{b}", a, b)
                 for a, b in itertools.combinations(("recurrence", *tags), 2)]
        grid += [functools.partial(
            _pair_reports, name, dict(zip((*flags, "gamma", "x"), values)),
            pairs, rel_tol, n_max, (DenominatorPole, RestrictedParameter))
            for values in itertools.product(*grids, _GAMMAS, _XS)]
        # The classical gamma = 0 reduction, at a tighter tolerance.
        classical += [functools.partial(
            _pair_reports, name, dict(zip((*flags, "x"), values)),
            [(f"{name}-classical-reduction", "classical", "recurrence")],
            min(rel_tol, 1e-10), min(n_max, 20))
            for values in itertools.product(*grids, _XS)]
    # Meixner-Pollaczek: the recurrence against the complex Meixner
    # connection.
    mp = [functools.partial(
        _pair_reports, "meixner-pollaczek",
        dict(zip(("nu", "phi", "gamma", "x"), values)),
        [("mp-rep:connection~recurrence", "connection", "recurrence")],
        rel_tol, min(n_max, 20))
        for values in itertools.product(
            (0.3, 1.0), (0.7, 2.0), (0.0, 0.5, 1.8), (-1.2, 0.0, 2.5))]
    return [*grid, *mp, *classical]


def _run_tasks(tasks):
    """The reports of tasks, each a function that returns a list of them,
    in task order; the tasks run through :func:`_map`."""
    return [report for reports in _map(lambda task: task(), tasks)
            for report in reports]


def verify_representations(rel_tol=1e-8, n_max=25):
    """Pairwise route agreement and classical reductions.

    Each family grid point, Meixner-Pollaczek point and classical-reduction
    point runs as one task of :func:`_map`, on every CPU the process may
    use; the reports are those of the serial loop, in order.

    Returns
    -------
    list of IdentityReport
    """
    return _run_tasks(_representation_tasks(rel_tol, n_max))


def verify_transformations(rel_tol=1e-8, seed=0):
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
    for _ in range(_REFLECTION_POINTS):
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
    for _ in range(_DEGENERATE_POINTS):
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


# Each family's convolution grids: its params constructor's arguments, then x.
_CONVOLUTION_GRIDS = (
    (MeixnerParams, ((0.5, 1.5), (0.4, 0.8), (0.7, 2.1), (0.25, -1.2, 2.0))),
    (CharlierParams, ((0.5, 1.0, 2.0), (0.5, 1.8), (0.25, -1.2, 2.0))),
    (LaguerreParams, ((-0.5, 0.5, 1.7), (0.9, 2.1), (0.0, 1.2, 3.0))),
)


def verify_convolutions(rel_tol=1e-8):
    """The three convolution identities over fixed grids.

    Returns
    -------
    list of IdentityReport
    """
    reports = []
    for params_class, grids in _CONVOLUTION_GRIDS:
        for *args, x in itertools.product(*grids):
            params = params_class(*args)
            reports.append(_worst(
                convolution_identity(x, params, n, rel_tol) for n in range(13)
            ))
    # Degenerate-argument reduction chain (fixed pinned point plus two others).
    for beta, gamma, t in ((2.5, 0.7, 0.2), (0.7, 1.4, -0.15), (1.8, 0.4, 0.1)):
        reports.append(c1_reduction_identity(beta, gamma, t, rel_tol))
    return reports


def verify_finite_sums(rel_tol=1e-9, seed=0):
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

    for _ in range(_FREE_ARGUMENT_POINTS):
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
    for _ in range(_TWO_TERM_POINTS):
        n = rng.randint(1, 30)
        a = rng.uniform(0.05, 4.0)
        b = draw_b_away_from(a, 0.05, 4.0)
        reports.append(identity_3f2_pochhammer(n, a, b, min(rel_tol, 1e-10)))
    for _ in range(_T_POWERED_POINTS):
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
    if set_name == "representations":
        return verify_representations(rel_tol, n_max)
    # ``all`` runs every set as tasks of one map, the other sets after the
    # representation tasks; the sets are looked up when they run.
    tasks = _representation_tasks(rel_tol, n_max) if set_name == "all" else []
    for name, task in (
        ("transformations", lambda: verify_transformations(rel_tol, seed)),
        ("convolutions", lambda: verify_convolutions(rel_tol)),
        ("finite-sums", lambda: verify_finite_sums(min(rel_tol, 1e-9), seed)),
    ):
        if set_name in (name, "all"):
            tasks.append(task)
    return _run_tasks(tasks)
