"""The verifier's route table and its worst-of selection."""

import math

import pytest

from assocpoly import make_report, summarize
from assocpoly.cli import _FAMILIES
from assocpoly.verify import _worst_pair_report, verify_representations

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


def test_summarize_of_nothing():
    assert summarize([]) == (0, 0, None)


@pytest.mark.parametrize("family,tag", [
    ("charlier", "3f2"),
    ("meixner", "quadratic"),
    ("laguerre", "classical"),
    ("meixner-pollaczek", "connection"),
])
def test_representations_run_the_cli_route_table(monkeypatch, family, tag):
    # The verifier compares the routes of cli._FAMILIES, not copies of them.
    routes = _FAMILIES[family].routes
    route = routes[tag]
    degrees = []

    def spy(x, params, n):
        degrees.append(n)
        return route(x, params, n)

    monkeypatch.setitem(routes, tag, spy)
    verify_representations(n_max=3)
    assert set(degrees) == {0, 1, 2, 3}
