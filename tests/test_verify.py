"""The verifier's route table, its worst-of selection and its split grid."""

import itertools
import math
import os
import threading
import time

import pytest

from assocpoly import make_report, run_set, summarize, verify
from assocpoly.cli import _FAMILIES
from assocpoly.errors import NotConverged
from assocpoly.verify import _GAMMAS, _worst_pair_report

NAN = float("nan")


def test_nan_pair_is_the_worst_and_fails():
    report = _worst_pair_report("route-a~route-b", {}, [(0, 1, 1), (1, NAN, 2)], 1e-8)
    assert not report.passed
    assert report.point == {"n": 1}
    assert math.isnan(report.rel_discrepancy)


def test_nan_first_is_not_replaced_by_a_finite_pair():
    report = _worst_pair_report("route-a~route-b", {}, [(0, NAN, 1), (1, 1.5, 1)], 1e-8)
    assert report.point == {"n": 0}
    assert not report.passed


def test_inf_pair_is_the_worst():
    report = _worst_pair_report("route-a~route-b", {}, [(0, math.inf, 1), (1, 3, 1)], 1e-8)
    assert report.point == {"n": 0}
    assert report.rel_discrepancy == math.inf


def test_finite_worst_keeps_the_first_of_equals():
    report = _worst_pair_report("route-a~route-b", {}, [(0, 2, 1), (1, 2, 1), (2, 1, 1)], 1e-8)
    assert report.point == {"n": 0}
    assert report.rel_discrepancy == 1.0


def test_summarize_reports_nan_as_worst():
    reports = [
        make_report("a", {}, 1.0, 1.0 + 1e-3, 1e-8),
        make_report("b", {}, NAN, 1.0, 1e-8),
        make_report("c", {}, 1.0, 1.0, 1e-8),
    ]
    passed, failed, worst = summarize(reports)
    assert (passed, failed) == (1, 2)
    assert worst.identity_id == "b"


@pytest.mark.parametrize("lhs, rhs, rel, passed", [
    (0.0, 0.0, 0.0, True),
    (0j, 0.0, 0.0, True),
    (0.0, 5e-9, 1.0, False),
    (5e-9, 0.0, math.inf, False),
    (1.0, 0.0, math.inf, False),
    (2.0, 1.0, 1.0, False),
], ids=["zeros", "complex-zero", "zero-lhs", "zero-rhs", "one-against-zero",
        "relative"])
def test_make_report_is_relative_at_every_scale(lhs, rhs, rel, passed):
    # No absolute fallback below rel_tol: 0 against 5e-9 used to pass at
    # 1e-8 with a discrepancy of 5e-9.
    report = make_report("a", {}, lhs, rhs, 1e-8)
    assert (report.rel_discrepancy, report.passed) == (rel, passed)


@pytest.mark.parametrize("lhs, rhs", [(NAN, 1.0), (1.0, NAN), (NAN, 0.0),
                                      (0.0, NAN), (NAN, NAN)])
def test_make_report_fails_a_nan(lhs, rhs):
    report = make_report("a", {}, lhs, rhs, 1e-8)
    assert not report.passed
    assert not report.rel_discrepancy <= 1e-8


def test_summarize_of_nothing():
    assert summarize([]) == (0, 0, None)


@pytest.mark.parametrize("family,tag", [
    ("charlier", "3f2"),
    ("meixner", "quadratic"),
    ("laguerre", "classical"),
    ("meixner-pollaczek", "connection"),
])
def test_representations_run_the_cli_route_table(monkeypatch, family, tag):
    # The verifier compares the routes of cli._FAMILIES, not copies of them:
    # the range form that the sweep runs once over 0..n_max, or else the
    # per-degree route.
    spec = _FAMILIES[family]
    ranged = tag in spec.ranges
    table = spec.ranges if ranged else spec.routes
    route = table[tag]
    degrees = []

    def spy(x, params, n):
        degrees.extend(range(n + 1) if ranged else [n])
        return route(x, params, n)

    monkeypatch.setitem(table, tag, spy)
    # In one process, so that the spy sees every task's calls.
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    run_set("representations", n_max=3)
    assert set(degrees) == {0, 1, 2, 3}


# --- The grid split across forked workers -----------------------------------

def _force_cpus(monkeypatch, k):
    """Make ``verify`` see k usable CPUs; return the list of its fork pids."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(verify, "_usable_cpus", lambda: k)
    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("set_name", ["representations", "all"])
def test_split_grid_gives_the_serial_reports_in_order(monkeypatch, k, set_name):
    _force_cpus(monkeypatch, 1)
    serial = run_set(set_name, seed=1)
    forks = _force_cpus(monkeypatch, k)
    split = run_set(set_name, seed=1)
    assert len(forks) == k - 1
    assert [repr(r) for r in split] == [repr(r) for r in serial]
    _assert_no_child_left()


@pytest.mark.parametrize("k", [1, 2])
def test_representations_are_the_head_of_all(monkeypatch, k):
    # One task list serves every set: ``representations`` is the list that
    # ``all`` starts with, whatever the seed.
    monkeypatch.setattr(verify, "_usable_cpus", lambda: k)
    representations = [repr(r) for r in run_set("representations")]
    assert len(representations) == 1572
    for seed in (1, 2):
        head = run_set("all", seed=seed)[:len(representations)]
        assert [repr(r) for r in head] == representations
    _assert_no_child_left()


# Task i of the grid is the i-th point of itertools.product(betas, cs,
# gammas, xs); with two workers either may take either failing task.
_TASKS = list(itertools.product(verify._MEIXNER_BETAS, verify._MEIXNER_CS,
                                verify._GAMMAS, verify._XS))


def _fail_at(monkeypatch, name, tag, points):
    """Make the sweep of route ``tag`` of family ``name`` raise at degree 0
    of each of ``points``, its ``(*flags, gamma, x)`` values."""
    spec = _FAMILIES[name]
    table = spec.ranges if tag in spec.ranges else spec.routes
    route = table[tag]

    def failing(x, params, n):
        flags = (getattr(params, flag) for flag in spec.flags)
        if (*flags, params.gamma, x) in points:
            raise NotConverged(f"no sum at x={x}, gamma={params.gamma}",
                               outcome=0)
        return route(x, params, n)

    monkeypatch.setitem(table, tag, failing)


# The Meixner-Pollaczek points, one task each after the family grids.
_MP_TASKS = list(itertools.product((0.3, 1.0), (0.7, 2.0), (0.0, 0.5, 1.8),
                                   (-1.2, 0.0, 2.5)))


@pytest.mark.parametrize("name, tag, points", [
    ("meixner", "4f3", (_TASKS[1], _TASKS[4])),
    ("meixner", "4f3", (_TASKS[2], _TASKS[5])),
    ("meixner-pollaczek", "connection", (_MP_TASKS[1], _MP_TASKS[4])),
    ("meixner-pollaczek", "connection", (_MP_TASKS[6], _MP_TASKS[7])),
], ids=["child-first", "parent-first", "mp-points", "mp-neighbours"])
def test_split_grid_raises_the_serial_error(monkeypatch, name, tag, points):
    _fail_at(monkeypatch, name, tag, points)
    _force_cpus(monkeypatch, 1)
    with pytest.raises(NotConverged) as serial:
        run_set("representations", n_max=3)
    forks = _force_cpus(monkeypatch, 2)
    with pytest.raises(NotConverged) as split:
        run_set("representations", n_max=3)
    assert len(forks) == 1
    assert str(split.value) == str(serial.value)
    *_, gamma, x = points[0]
    assert str(serial.value) == f"no sum at x={x}, gamma={gamma}"
    assert split.value.outcome == serial.value.outcome == 0
    _assert_no_child_left()


def test_interrupt_in_this_process_kills_every_child(monkeypatch):
    ranges = _FAMILIES["meixner"].ranges
    route = ranges["4f3"]
    parent = os.getpid()
    slept = []

    def interrupted(x, params, n_max):
        if os.getpid() != parent and not slept:
            slept.append(n_max)
            time.sleep(40)  # a child still at work when the parent stops
        elif os.getpid() == parent and params.gamma == _GAMMAS[2]:
            raise KeyboardInterrupt
        return route(x, params, n_max)

    monkeypatch.setitem(ranges, "4f3", interrupted)
    forks = _force_cpus(monkeypatch, 3)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_set("representations", n_max=3)
    assert time.monotonic() - start < 30
    assert len(forks) == 2
    _assert_no_child_left()


def test_child_without_results_names_its_pid_and_status(monkeypatch):
    parent = os.getpid()

    def share(*_args):
        if os.getpid() != parent:
            os._exit(7)
        return [], None

    monkeypatch.setattr(verify, "_run_share", share)
    forks = _force_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError) as info:
        run_set("representations", n_max=3)
    assert str(info.value) == (f"verify worker {forks[0]} exited with status 7 "
                               "before sending its results")
    _assert_no_child_left()


def test_a_slow_worker_takes_fewer_tasks(monkeypatch):
    parent = os.getpid()

    def task(i):
        if os.getpid() != parent:
            time.sleep(0.5)  # a child on a busy CPU
        return i, os.getpid()

    _force_cpus(monkeypatch, 2)
    results = verify._map(task, list(range(20)))
    assert [i for i, _pid in results] == list(range(20))
    assert sum(pid == parent for _i, pid in results) >= 15
    _assert_no_child_left()


def _square_unless(bad):
    def square(i):
        if i in bad:
            raise ValueError(i)
        return i * i
    return square


def test_more_tasks_than_queue_records_run_in_blocks(monkeypatch):
    # 3,000 tasks are 1,000 queue records of 3 tasks each.
    _force_cpus(monkeypatch, 3)
    assert verify._map(_square_unless(()), list(range(3000))) == [
        i * i for i in range(3000)]
    with pytest.raises(ValueError) as info:
        verify._map(_square_unless((2999, 1701, 1702)), list(range(3000)))
    assert info.value.args == (1701,)
    _assert_no_child_left()


def _refuse_fork():
    raise AssertionError("os.fork was called")


def test_one_cpu_never_forks(monkeypatch):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    assert run_set("representations", n_max=2)


def test_a_live_thread_never_forks(monkeypatch):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert run_set("representations", n_max=2)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
