"""Span recorders wrapped around the package's layer boundaries.

:func:`install` replaces, in each ``assocpoly`` module namespace, the
public functions that one module calls in another (for example
``verify.meixner_4f3`` or ``closedforms.gauss_2f1``) with wrappers that
record a span per call.  A call made inside the module that defines the
function is recorded only where that module calls its own public entry
points (``verify.run_set`` calling ``verify_representations``,
``asymptotics.mh_convergence_study`` calling ``scaled_meixner_seq``,
``genfuncs.weighted_classical_gf`` calling ``gf_lhs_auto``), because those
are the layer boundaries the metrics name.  Nothing in the package changes
on disk.

Spans are aggregated in memory as they close: per span name the call
count, inclusive time, self time (inclusive time minus that of the
child spans), raised exceptions and work counts.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict

_MODULES = ("assocpoly", "assocpoly.verify", "assocpoly.closedforms",
            "assocpoly.genfuncs", "assocpoly.asymptotics", "assocpoly.cli")

DOUBLE_SUMS = ("meixner_4f3", "meixner_4f3_alt", "charlier_3f2",
               "laguerre_3f2", "identity_4f3_finite_sum",
               "identity_3f2_t_powered", "identity_3f2_pochhammer")
F21_PRODUCTS = ("meixner_quadratic", "meixner_cross_2f1")
KERNELS = ("gauss_2f1", "kummer_1f1", "appell_f1", "humbert_phi1",
           "euler_integral")
VERIFY_SETS = ("representations", "transformations", "convolutions",
               "finite-sums")
RECURRENCES = ("meixner_seq", "charlier_seq", "laguerre_seq",
               "meixner_pollaczek_seq")
GF_CLOSED_FORMS = ("gf_meixner_appell", "gf_meixner_alt",
                   "gf_meixner_integral", "gf_meixner_classical_2f1",
                   "gf_charlier_phi1", "gf_charlier_integral", "gf_laguerre",
                   "gf_weighted_meixner_rhs", "gf_weighted_charlier_rhs",
                   "gf_weighted_laguerre_rhs", "gf_weighted_laguerre_diag")

# Public function name -> span name.
SPANS = {
    **{f"verify_{s.replace('-', '_')}": f"verify.{s}" for s in VERIFY_SETS},
    **{name: f"closedforms.{name}" for name in DOUBLE_SUMS + F21_PRODUCTS},
    **{name: f"hyperkernel.{name}" for name in KERNELS + ("hyp_terminating",)},
    **{name: "recurrences" for name in RECURRENCES},
    **{name: "genfuncs.closed_form" for name in GF_CLOSED_FORMS},
    "gf_lhs_auto": "genfuncs.gf_lhs",
    "scaled_meixner_seq": "asymptotics.scaled_seq",
    "scaled_charlier_seq": "asymptotics.scaled_seq",
    "mh_meixner_limit": "asymptotics.limit",
    "mh_charlier_limit": "asymptotics.limit",
    "make_report": "report.make_report",
}
# Functions the CLI evaluates a representation with, for its value and its
# cross-check; inside ``assocpoly.cli`` each call is also a ``cli.route`` span.
CLI_ROUTES = DOUBLE_SUMS[:4] + F21_PRODUCTS + RECURRENCES + (
    "meixner_reflection_rhs", "meixner_c1_degenerate", "meixner_classical",
    "charlier_classical", "laguerre_classical", "mp_from_meixner")
# Spans whose inclusive durations are kept, for a percentile.
_KEEP_DURATIONS = {f"closedforms.{name}" for name in DOUBLE_SUMS}


class Span:
    """Aggregate of every closed span of one name."""

    __slots__ = ("calls", "total", "busy", "raised", "counts", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.busy = 0.0
        self.raised = 0
        self.counts = defaultdict(int)
        self.durations = []

    def to_json(self):
        return {"calls": self.calls, "total": self.total, "busy": self.busy,
                "raised": self.raised, "counts": dict(self.counts),
                "durations": self.durations}


def _count_terms(span, result, args):
    span.counts["terms"] += result.terms_used


def _count_values(span, result, args):
    span.counts["values"] += len(result)


def _count_reports(span, result, args):
    span.counts["reports"] += len(result)


def _count_truncations(span, result, args):
    # gf_lhs_auto doubles N from spec.truncation_N until the tail passes
    # (the last step may be capped); every trial sums terms 0..N.
    n_used = result[1]
    n = args[0].truncation_N
    summed = n + 1
    while n < n_used:
        n = min(2 * n, n_used)
        summed += n + 1
        span.counts["retries"] += 1
    span.counts["terms"] += n_used
    span.counts["accepted"] += n_used + 1
    span.counts["summed"] += summed


def _counter(span_name):
    """The work count a span of this name records from its result, if any."""
    if span_name.startswith("verify."):
        return _count_reports
    if span_name in {f"hyperkernel.{name}" for name in KERNELS}:
        return _count_terms
    return {"recurrences": _count_values,
            "genfuncs.gf_lhs": _count_truncations}.get(span_name)


class Tracer:
    """Records spans; :meth:`install` patches the package, :meth:`remove` undoes it."""

    def __init__(self):
        self.spans = defaultdict(Span)
        self._stack = []
        self._patched = []

    def wrap(self, fn, name):
        span = self.spans[name]
        keep = name in _KEEP_DURATIONS
        count = _counter(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised += 1
                raise
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span.calls += 1
                span.total += elapsed
                span.busy += elapsed - children
                if keep:
                    span.durations.append(elapsed)
            if count is not None:
                count(span, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module_name in _MODULES:
            module = importlib.import_module(module_name)
            for fn_name, span_name in SPANS.items():
                if hasattr(module, fn_name):
                    self._patch(module, fn_name, span_name)
        cli = importlib.import_module("assocpoly.cli")
        for fn_name in CLI_ROUTES:
            self._patch(cli, fn_name, "cli.route")
        return self

    def _patch(self, module, fn_name, span_name):
        original = getattr(module, fn_name)
        self._patched.append((module, fn_name, original))
        setattr(module, fn_name, self.wrap(original, span_name))

    def remove(self):
        for module, fn_name, original in reversed(self._patched):
            setattr(module, fn_name, original)
        self._patched.clear()

    def to_json(self):
        return {name: span.to_json() for name, span in self.spans.items()
                if span.calls}


def merge(traces):
    """Sum span aggregates from several processes (JSON form)."""
    merged = defaultdict(Span)
    for trace in traces:
        for name, data in trace.items():
            span = merged[name]
            span.calls += data["calls"]
            span.total += data["total"]
            span.busy += data["busy"]
            span.raised += data["raised"]
            for key, value in data["counts"].items():
                span.counts[key] += value
            span.durations.extend(data["durations"])
    return merged


def _p99_ms(durations):
    if len(durations) < 2:
        return 1e3 * max(durations, default=0.0)
    return 1e3 * statistics.quantiles(durations, n=100)[98]


def layer_metrics(spans, imports, overhead_frac):
    """Every per-layer metric as ``name -> (value, unit)``.

    ``spans`` maps span names to :class:`Span`; ``imports`` holds the
    median ``scipy_special_s`` and ``assocpoly_s`` of fresh processes.
    """
    empty = Span()

    def get(name):
        return spans.get(name, empty)

    def group(names):
        out = Span()
        for name in names:
            span = get(name)
            out.calls += span.calls
            out.busy += span.busy
            out.durations.extend(span.durations)
        return out

    m = {}
    for s in VERIFY_SETS:
        m[f"verify.{s}.busy_s"] = (get(f"verify.{s}").busy, "s")
    m["verify.reports"] = (sum(get(f"verify.{s}").counts["reports"]
                               for s in VERIFY_SETS), "count")
    double = group(f"closedforms.{name}" for name in DOUBLE_SUMS)
    m["closedforms.double_sum.calls"] = (double.calls, "count")
    m["closedforms.double_sum.busy_s"] = (double.busy, "s")
    m["closedforms.double_sum.p99_ms"] = (_p99_ms(double.durations), "ms")
    for name in DOUBLE_SUMS[:4]:
        m[f"closedforms.{name}.busy_s"] = (get(f"closedforms.{name}").busy, "s")
    f21 = group(f"closedforms.{name}" for name in F21_PRODUCTS)
    m["closedforms.f21_product.calls"] = (f21.calls, "count")
    m["closedforms.f21_product.busy_s"] = (f21.busy, "s")
    for name in KERNELS:
        span = get(f"hyperkernel.{name}")
        m[f"hyperkernel.{name}.calls"] = (span.calls, "count")
        m[f"hyperkernel.{name}.busy_s"] = (span.busy, "s")
        m[f"hyperkernel.{name}.terms"] = (span.counts["terms"], "count")
        m[f"hyperkernel.{name}.raised"] = (span.raised, "count")
    span = get("hyperkernel.hyp_terminating")
    m["hyperkernel.hyp_terminating.calls"] = (span.calls, "count")
    m["hyperkernel.hyp_terminating.busy_s"] = (span.busy, "s")
    span = get("genfuncs.gf_lhs")
    m["genfuncs.gf_lhs.calls"] = (span.calls, "count")
    m["genfuncs.gf_lhs.busy_s"] = (span.busy, "s")
    m["genfuncs.gf_lhs.terms"] = (span.counts["terms"], "count")
    m["genfuncs.gf_lhs.retries"] = (span.counts["retries"], "count")
    summed = span.counts["summed"]
    m["genfuncs.gf_lhs.useful_ratio"] = (
        span.counts["accepted"] / summed if summed else 0.0, "ratio")
    span = get("genfuncs.closed_form")
    m["genfuncs.closed_form.calls"] = (span.calls, "count")
    m["genfuncs.closed_form.busy_s"] = (span.busy, "s")
    m["asymptotics.scaled_seq.busy_s"] = (get("asymptotics.scaled_seq").busy, "s")
    m["asymptotics.limit.busy_s"] = (get("asymptotics.limit").busy, "s")
    span = get("recurrences")
    m["recurrences.calls"] = (span.calls, "count")
    m["recurrences.busy_s"] = (span.busy, "s")
    m["recurrences.values"] = (span.counts["values"], "count")
    span = get("report.make_report")
    m["report.make_report.calls"] = (span.calls, "count")
    m["report.make_report.busy_s"] = (span.busy, "s")
    m["import.scipy_special_s"] = (imports["scipy_special_s"], "s")
    m["import.assocpoly_s"] = (imports["assocpoly_s"], "s")
    m["cli.main.busy_s"] = (get("cli.main").busy, "s")
    m["cli.route.busy_s"] = (get("cli.route").total, "s")
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    return m
