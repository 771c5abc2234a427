"""Benchmark of the ``assocpoly`` package and its command-line tool.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one client, at most one child process at a time):

``verify-all``
    One fresh ``assocpoly verify --set all --seed N`` process; the
    operation is the whole verification.  About 90% of its time is in
    the double sums of ``closedforms``, most of it exact escalation.
``eval-cold``
    A seeded sequence of fresh ``assocpoly eval`` processes, each checked
    against the recurrence evaluated in this process.  Start-up dominates.
``kernel-warm``
    A seeded stream of checked public calls in this warm process: the
    hypergeometric kernel, generating functions, asymptotics and the
    complex-x routes, none of which escalate.

The batch of every workload is fixed by ``--seconds`` alone (about that
long on a 2-CPU Xeon), never by measured speed, so two commits do the
same work.  With ``--trace 0`` the last line of standard output holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of the same
batch run under span recorders, each block of it paired with an untraced
run.  The line before it holds the machine facts and the details behind
the metrics.  ``verify-all`` has one operation per batch, so there
``op_p50_ms`` and ``op_tail_ms`` are both ``wall_s`` in milliseconds.  The exit code is 0 when the
benchmark ran; a failed check is reported in the result, not as an exit
code.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
PYTHON = sys.executable
ENV = {**os.environ, "PYTHONPATH": SRC}

# Fresh processes whose median start-up time is setup_s.
SETUP_SAMPLES = 5
# Batch sizes per second of --seconds: one cold eval takes about 0.75 s and
# one warm kernel operation about 0.4 ms on the reference machine.
EVAL_OPS_PER_S = 1.3
KERNEL_OPS_PER_S = 2400
# The traced run alternates untraced and traced blocks of this many warm
# operations, so that the tracing overhead is a paired comparison.
KERNEL_BLOCK = 2000
# A warm operation whose wall time exceeds the process's CPU time by more
# than this lost the CPU to the host (hypervisor steal or another process,
# typically 5-15 ms at a time).  Its time counts in wall_s but not in the
# latency percentiles, which it would otherwise set: the tail is the 11th
# slowest of about 72,000 sub-millisecond operations.
HOST_GAP_S = 1e-3
# Operations in a known defect's input class (defects.py) are counted
# like any other, and the run is incorrect when more than this share of a
# class, plus a few for the small eval-cold batches, fail.  The largest
# share measured is about 3%, for complex x on a double sum.
KNOWN_DEFECT_SHARE = 0.10
KNOWN_DEFECT_SLACK = 3
# A run that outlives this is stopped with its child, so it exits in time.
DEADLINE_S = 170
# verify draws a fixed number of random points whatever the seed, so each
# set's report count is fixed too.
VERIFY_REPORTS = {"representations": 1572, "transformations": 113,
                  "convolutions": 63, "finite-sums": 140}
_TRANSFORMATION_IDS = {"2f1-pfaff", "2f1-euler", "1f1-kummer",
                       "f1-transformation", "f1-reduction",
                       "phi1-confluence-limit", "meixner-reflection",
                       "meixner-degenerate-c1"}
_FINITE_SUM_IDS = {"finite-sum-4f3", "3f2-pochhammer", "3f2-t-powered"}


class Child(NamedTuple):
    wall_s: float
    code: int
    stdout: str
    stderr: str
    peak_rss_mb: float


def spawn(argv):
    """Run one child process to its end, timing it from spawn to exit."""
    with tempfile.TemporaryFile(dir=ROOT) as out, \
            tempfile.TemporaryFile(dir=ROOT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdout=out,
                                stderr=err)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(wall, proc.returncode, out.read().decode(),
                     err.read().decode(), usage.ru_maxrss / 1024.0)


def child_report(child):
    """The ``PERFBENCH`` JSON a child.py process ended its stderr with.

    A child that crashed printed none; its failure is counted elsewhere.
    """
    for line in reversed(child.stderr.splitlines()):
        if line.startswith("PERFBENCH "):
            return json.loads(line[len("PERFBENCH "):])
    return {}


def setup_probes(warm_up):
    """Median start-up of fresh processes, and their import breakdown."""
    flags = ["--warm-up"] if warm_up else []
    spawn([PYTHON, CHILD, *flags])  # compiles bytecode; not counted
    walls, scipy_s, package_s = [], [], []
    for _ in range(SETUP_SAMPLES):
        child = spawn([PYTHON, CHILD, *flags])
        if child.code != 0:
            raise RuntimeError(f"set-up failed: {child.stderr[-500:]}")
        imports = child_report(child)["imports"]
        walls.append(child.wall_s)
        scipy_s.append(imports["scipy_special_s"])
        package_s.append(imports["assocpoly_s"])
    return {"setup_s": statistics.median(walls),
            "setup_samples_s": walls,
            "imports": {"scipy_special_s": statistics.median(scipy_s),
                        "assocpoly_s": statistics.median(package_s)}}


class Batch:
    """Latencies and outcomes of one batch of operations."""

    def __init__(self):
        self.attempted = 0
        self.latencies = []
        self.interrupted = 0
        self.wall_s = 0.0
        self.peak_rss_mb = 0.0
        self.failed = 0
        # defect name -> [attempted, failed]
        self.defects = {}
        self.unexpected = []

    def record(self, latency, ok, what, defect="", interrupted=False):
        """One operation; ``defect`` names the known defect its inputs are in.

        An ``interrupted`` operation lost the CPU to the host; its latency
        is left out of the percentiles.
        """
        self.attempted += 1
        self.wall_s += latency
        if interrupted:
            self.interrupted += 1
        else:
            self.latencies.append(latency)
        if defect:
            counts = self.defects.setdefault(defect, [0, 0])
            counts[0] += 1
            counts[1] += not ok
        if ok:
            return
        self.failed += 1
        if not defect:
            self.unexpected.append(what)


def _verify_set(identity_id):
    if "-rep:" in identity_id or identity_id.endswith("-classical-reduction"):
        return "representations"
    if identity_id.startswith("convolution-") or identity_id == "c1-reduction-chain":
        return "convolutions"
    if identity_id in _FINITE_SUM_IDS:
        return "finite-sums"
    if identity_id in _TRANSFORMATION_IDS:
        return "transformations"
    return "unknown"


def check_verify(child):
    """Problems with one ``verify --set all`` run; empty when it is right."""
    if child.code != 0:
        return [f"exit {child.code}: {child.stderr[-300:]}"]
    rows = list(csv.DictReader(
        line for line in io.StringIO(child.stdout) if not line.startswith("#")))
    counts = {}
    for row in rows:
        name = _verify_set(row["identity_id"])
        counts[name] = counts.get(name, 0) + 1
    problems = []
    if counts != VERIFY_REPORTS:
        problems.append(f"report counts {counts} != {VERIFY_REPORTS}")
    failing = [row["identity_id"] for row in rows if row["passed"] != "true"]
    if failing:
        problems.append(f"{len(failing)} reports failed: {failing[:5]}")
    return problems


def run_cli(args, paired, traced, traces):
    """One fresh CLI process.

    A traced run starts both processes of a pair through child.py, so
    that they differ only in the span recorders; otherwise the process is
    the user's ``python -m assocpoly``.
    """
    if not paired:
        return spawn([PYTHON, "-m", "assocpoly", *args])
    child = spawn([PYTHON, CHILD, *(["--trace"] if traced else []), "--", *args])
    if traced:
        traces.append(child_report(child).get("spans", {}))
    return child


class VerifyAll:
    """One block: one fresh ``assocpoly verify --set all`` process."""

    def __init__(self, seed, _seconds, paired):
        self.argv = ["verify", "--set", "all", "--seed", str(seed)]
        self.paired = paired
        self.blocks = 1
        self.traces = []

    def run_block(self, _block, batch, traced):
        child = run_cli(self.argv, self.paired, traced, self.traces)
        problems = check_verify(child)
        batch.record(child.wall_s, not problems, problems)
        batch.peak_rss_mb = max(batch.peak_rss_mb, child.peak_rss_mb)


class EvalCold:
    """One block per seeded case: one fresh ``assocpoly eval`` process."""

    def __init__(self, seed, seconds, paired):
        import evalcold

        self.evalcold = evalcold
        self.paired = paired
        self.cases = evalcold.cases(seed, max(1, round(seconds * EVAL_OPS_PER_S)))
        self.blocks = len(self.cases)
        self.traces = []

    def run_block(self, block, batch, traced):
        case = self.cases[block]
        child = run_cli(case.argv, self.paired, traced, self.traces)
        try:
            ok = child.code == 0 and self.evalcold.agrees(
                self.evalcold.printed_value(child.stdout), case.reference())
        except (KeyError, ValueError):  # no value printed
            ok = False
        batch.record(child.wall_s, ok,
                     [case.argv, child.code, child.stderr[-300:]],
                     case.defect)
        batch.peak_rss_mb = max(batch.peak_rss_mb, child.peak_rss_mb)


class KernelWarm:
    """Blocks of checked calls from the seeded stream, in this warm process.

    The untraced and the traced operations come from two streams of the
    same seed, so both see the same calls, each run once.
    """

    def __init__(self, seed, seconds, _paired):
        import kernel
        import spans

        kernel.warm_up()
        self.count = max(1, round(seconds * KERNEL_OPS_PER_S))
        self.blocks = math.ceil(self.count / KERNEL_BLOCK)
        self.streams = {False: kernel.stream(seed), True: kernel.stream(seed)}
        self.tracer = spans.Tracer()

    @property
    def traces(self):
        return [self.tracer.to_json()]

    def run_block(self, block, batch, traced):
        size = min(KERNEL_BLOCK, self.count - block * KERNEL_BLOCK)
        if traced:
            self.tracer.install()
        try:
            # Each operation is drawn while the tracer is in the state it
            # runs in, so a traced one calls through the span recorders.
            for op in itertools.islice(self.streams[traced], size):
                cpu = time.process_time()
                start = time.perf_counter()
                try:
                    rep = op.run()
                    ok, what = rep.passed, [op.name, rep.point,
                                            rep.rel_discrepancy]
                except Exception as exc:  # a raised error is a failed operation
                    ok, what = False, [op.name, repr(exc)]
                wall = time.perf_counter() - start
                gap = wall - (time.process_time() - cpu)
                batch.record(wall, ok, what, op.defect, gap > HOST_GAP_S)
        finally:
            if traced:
                self.tracer.remove()
        batch.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


WORKLOADS = {"verify-all": VerifyAll, "eval-cold": EvalCold,
             "kernel-warm": KernelWarm}


def tail(latencies):
    """(value, percentile, samples): the highest percentile with ten beyond it.

    With ten samples or fewer no percentile has ten beyond it, and the
    maximum is reported as the 100th percentile.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def machine_facts():
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            model = next((line.split(":", 1)[1].strip() for line in info
                          if line.startswith("model name")), model)
    except OSError:
        pass
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    return {"cpu_count": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "scipy": scipy.__version__,
            "commit": commit, "src_sha256": digest.hexdigest()}


def overhead_spread(overheads):
    """Quartiles of the per-block tracing overheads, and whether they resolve it.

    The overhead is resolved when the middle half of the blocks agree on
    its sign.  A workload of fewer than four blocks (``verify-all`` has one)
    does not resolve it.
    """
    if len(overheads) < 4:
        return {"blocks": len(overheads), "resolved": False}
    q1, median, q3 = statistics.quantiles(overheads, n=4)
    return {"blocks": len(overheads), "q1": q1, "median": median, "q3": q3,
            "resolved": q1 > 0.0 or q3 < 0.0}


def measure(workload, seed, seconds, traced):
    """(result line, details line) of one benchmark run.

    Untraced, the run times the workload's blocks once.  Traced, it runs
    each block untraced and traced back to back, the order alternating
    from block to block, and reports the per-layer metrics of the traced
    blocks.
    """
    setup = setup_probes(warm_up=workload == "kernel-warm")
    work = WORKLOADS[workload](seed, seconds, traced)
    plain, spanned = Batch(), Batch()
    overheads = []
    for block in range(work.blocks):
        if not traced:
            work.run_block(block, plain, False)
            continue
        walls = {}
        for trace in (False, True) if block % 2 == 0 else (True, False):
            batch = spanned if trace else plain
            before = batch.wall_s
            work.run_block(block, batch, trace)
            walls[trace] = batch.wall_s - before
        overheads.append(walls[True] / walls[False] - 1.0)
    tail_ms, tail_pct, tail_n = tail(plain.latencies)
    details = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": int(traced), "ops_per_batch": plain.attempted,
               "wall_s": plain.wall_s,
               "op_tail": {"percentile": tail_pct, "samples": tail_n},
               "ops_interrupted_by_host": plain.interrupted,
               "setup_samples_s": setup["setup_samples_s"],
               "imports": setup["imports"]}
    if traced:
        import spans

        details["traced_wall_s"] = spanned.wall_s
        details["trace_overhead_blocks"] = overhead_spread(overheads)
        overhead = spanned.wall_s / plain.wall_s - 1.0
        layers = spans.layer_metrics(spans.merge(work.traces), setup["imports"],
                                     overhead)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}
        batches = [plain, spanned]
    else:
        metrics = {
            "wall_s": {"value": plain.wall_s, "unit": "s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(plain.latencies),
                          "unit": "ms"},
            "op_tail_ms": {"value": 1e3 * tail_ms, "unit": "ms"},
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": plain.peak_rss_mb, "unit": "MB"},
        }
        batches = [plain]
    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    unexpected = [what for b in batches for what in b.unexpected]
    known = {}
    for b in batches:
        for defect, (tried, missed) in b.defects.items():
            counts = known.setdefault(defect, {"attempted": 0, "failed": 0})
            counts["attempted"] += tried
            counts["failed"] += missed
    for counts in known.values():
        counts["cap"] = KNOWN_DEFECT_SHARE * counts["attempted"] + KNOWN_DEFECT_SLACK
    details.update(
        failed_frac={"value": failed / attempted, "unit": "ratio"},
        known_defects=known,
        unexpected_failures=len(unexpected),
        first_unexpected=unexpected[:5],
        machine=machine_facts())
    within_caps = all(c["failed"] <= c["cap"] for c in known.values())
    result = {"correct": not unexpected and within_caps,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, details


def _deadline(_signum, _frame):
    raise TimeoutError(f"benchmark run exceeded {DEADLINE_S} s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "assocpoly", "__init__.py")):
        print(f"perfbench: no assocpoly sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    result, details = measure(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    signal.alarm(0)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
