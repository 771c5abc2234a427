"""Check that a change keeps the outputs of a parent checkout.

Usage::

    python tools/same_outputs.py PARENT_CHECKOUT

Runs each invocation below as a fresh Python process, once on
``PARENT_CHECKOUT/src`` and once on this checkout's ``src``, both with
``PYTHONDONTWRITEBYTECODE=1``, and compares stdout, stderr and the exit
code.  The path of each side's ``src`` is written as ``<src>`` in both
streams, so a traceback through unchanged code reads the same on both
sides.  Each differing invocation is printed with its first difference;
the exit code is 1 when any invocation differs, else 0.

The invocations of ``python -m assocpoly``: ``verify --set all`` for
seeds 0-2; ``eval`` on the argv of ``perfbench/evalcold.cases(seed,
200)`` for seeds 1-3; ``gf-check`` for every family at real and complex
x, and at a pole of a normalizer or the t where a closed form is singular;
``gf-check`` ODE rows at |t| = |a|, just inside it, and at t = -1 and 1
for real and complex x, and weighted rows outside their series disk;
``verify --set convolutions`` with ``--rel-tol 1e-300`` and ``gf-check``
with ``--rel-tol 1e-18``, so that rows fail and are listed on FAIL lines;
``gf-check --forms`` with a form that does not apply at gamma = 0 and
with one the family lacks; ``verify --n-max -1``; ``verify --set
representations`` with ``--rel-tol 1e-300``, so that every inexact pair
fails (FAIL lines from every worker of the split grid, in grid order),
and with ``--n-max 200`` (a route's error, raised from the split grid);
``mh-study``; ``table``; ``table`` of each route that the degree sweep
runs as a range form, at a complex x and where it fails at a middle
degree (a denominator band, or a value beyond binary64 at degree 150 to
171); the Rahman Laguerre route by ``eval`` at complex x (n = 25) and
real x (n = 60) and by ``table``, and a ``gf-check`` whose Laguerre
Phi1 form is summed at w/(w-1); ``gf-check`` rows whose F1 or Phi1 takes
each branch of the grouped series: a Charlier ODE row at Re y < 0 where
x/(x-1) is not taken, Meixner F1 forms near |y| = 1, Laguerre Phi1 forms
at complex x with |x| >= 30 (large |y|) and at x = 30i, where the sums
escalate; ``gf-check`` of every Laguerre form at
alpha = gamma = 0.8, where the weighted ``diag`` row applies; ``eval``
at each degree-dependent denominator band that a closed-form route
refuses; ``eval`` with ``--rel-tol``, a flag it does not take, and with
a flag of another family; ``gf-check``
with a ``--rel-tol`` below the default series tail; ``eval``, ``table``
and ``mh-study`` with ``-inf`` as an x; Meixner and Charlier ``eval`` at
a lattice point whose exact value at degree 400 lies beyond binary64;
the ``--help`` of the command and of each subcommand, an unknown
subcommand and no argument.  Then one run of the warm kernel calls,
which prints the repr of the report (or of the raised error) of each of
the first 3,000 operations of ``perfbench/kernel.stream(seed)`` for seeds
1-3.  Both sides read this checkout's ``perfbench``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_FAMILY_FLAGS = {
    "meixner": ["--beta", "1.5", "--c", "0.4"],
    "charlier": ["--a", "1.3"],
    "laguerre": ["--alpha", "0.8"],
}

# (family, rep, flags, the --x and --n-max of a table that fails at a middle
# degree) of each route that ``_Family.sweep`` runs as a range form.
_RANGE_PROBES = [
    ("meixner", "4f3", ["--beta", "1.5", "--c", "0.4", "--gamma", "0.5"],
     ["--x", "0.3", "-6", "--n-max", "8"]),
    ("meixner", "4f3-alt", ["--beta", "1.5", "--c", "0.4", "--gamma", "0.7"],
     ["--x", "0.3", "3.7", "--n-max", "8"]),
    ("meixner", "quadratic", ["--beta", "1.5", "--c", "0.4", "--gamma", "0.7"],
     ["--x", "0.3", "--n-max", "200"]),
    ("meixner", "cross", ["--beta", "1.5", "--c", "0.01", "--gamma", "0.7"],
     ["--x", "0.3", "--n-max", "200"]),
    ("meixner", "classical", ["--beta", "1.5", "--c", "0.4"],
     ["--x", "0.3", "--n-max", "200"]),
    ("charlier", "3f2", ["--a", "1.3", "--gamma", "0.7"],
     ["--x", "0.3", "3.7", "--n-max", "8"]),
    ("charlier", "classical", ["--a", "1.3"], ["--x", "0.3", "--n-max", "200"]),
    ("laguerre", "3f2", ["--alpha", "-4.5", "--gamma", "0.5"],
     ["--x", "0.3", "--n-max", "8"]),
    ("laguerre", "classical", ["--alpha", "0.8"],
     ["--x", "0.3", "--n-max", "200"]),
]


def eval_argvs():
    """The argv of each eval-cold case of seeds 1-3, drawn as the benchmark draws them."""
    sys.dont_write_bytecode = True  # leave no bytecode cache in perfbench/
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import evalcold

    return [case.argv for seed in (1, 2, 3) for case in evalcold.cases(seed, 200)]


# The warm kernel calls, as arguments to python.
WARM_REPORTS = ["-c", """\
import itertools
import kernel
for seed in (1, 2, 3):
    for op in itertools.islice(kernel.stream(seed), 3000):
        try:
            print(op.name, repr(op.run()))
        except Exception as exc:
            print(op.name, repr(exc))
"""]


def invocations():
    """Every argv the check runs, in order, as arguments to python."""
    argvs = [["verify", "--set", "all", "--seed", str(seed)] for seed in (0, 1, 2)]
    argvs += eval_argvs()
    for family, flags in _FAMILY_FLAGS.items():
        for gamma in ("0", "0.5"):
            for xs in (["0.5"], ["-0.3", "1.2", "0.7+0.4j"]):
                argvs.append(["gf-check", "--family", family, *flags,
                              "--gamma", gamma, "--x", *xs])
    # The (gamma+beta)_n left side at a pole of its normalizer.
    argvs.append(["gf-check", "--family", "meixner", "--forms", "appell",
                  "--beta", "-3", "--c", "0.5", "--gamma", "1", "--x", "0.5",
                  "--t", "0"])
    # Each closed form at the t where it is singular.
    argvs += [["gf-check", "--family", "meixner", *_FAMILY_FLAGS["meixner"],
               "--gamma", "0", "--forms", "elementary", "--t", "2.5", "--x", "0.5"],
              ["gf-check", "--family", "charlier", *_FAMILY_FLAGS["charlier"],
               "--gamma", "0", "--forms", "elementary", "--t", "1.3", "--x", "-0.5"],
              ["gf-check", "--family", "laguerre", *_FAMILY_FLAGS["laguerre"],
               "--gamma", "0", "--forms", "elementary", "--t", "1.0"],
              ["gf-check", "--family", "laguerre", *_FAMILY_FLAGS["laguerre"],
               "--gamma", "0.8", "--forms", "diag", "--t", "1.0"],
              # Every form at a gamma where the weighted Laguerre diag
              # row applies.
              ["gf-check", "--family", "laguerre", "--alpha", "0.8",
               "--gamma", "0.8"]]
    # The ODE row at t = a and just inside it, and at a t far from 0, where
    # the Phi1 terms of the derivative weigh in.
    for gamma in ("0", "0.5"):
        for t in ("1.3", "1.2999"):
            argvs.append(["gf-check", "--family", "charlier",
                          *_FAMILY_FLAGS["charlier"], "--gamma", gamma,
                          "--forms", "ode", "--t", t, "--x", "-0.5"])
        argvs.append(["gf-check", "--family", "charlier",
                      *_FAMILY_FLAGS["charlier"], "--gamma", gamma,
                      "--forms", "ode", "--t", "-1.0", "1.0",
                      "--x", "-0.3", "1.2", "0.7+0.4j"])
    # Each weighted row outside the disk where its left side converges.
    for family, t in (("charlier", "1.5"), ("meixner", "1.2"),
                      ("laguerre", "1.2")):
        argvs.append(["gf-check", "--family", family, *_FAMILY_FLAGS[family],
                      "--gamma", "0.5", "--forms", "weighted", "--t", t])
    # Rows that fail, each listed on a FAIL line.
    argvs += [["verify", "--set", "convolutions", "--rel-tol", "1e-300"],
              ["gf-check", "--family", "laguerre", "--alpha", "0.7",
               "--gamma", "0.4", "--rel-tol", "1e-18"]]
    # A form that does not apply at gamma = 0, and one the family lacks.
    for form in ("integral", "bogus"):
        argvs.append(["gf-check", "--family", "meixner",
                      *_FAMILY_FLAGS["meixner"], "--gamma", "0", "--forms",
                      form])
    argvs.append(["verify", "--set", "convolutions", "--n-max", "-1"])
    argvs += [["verify", "--set", "representations", "--rel-tol", "1e-300"],
              ["verify", "--set", "representations", "--n-max", "200"]]
    for x in ("0.3", "-1.1+0.2j"):
        argvs.append(["mh-study", "--family", "meixner", "--beta", "1.5",
                      "--c", "0.4", "--gamma", "0.7", "--x", x])
        argvs.append(["mh-study", "--family", "charlier", "--a", "1.3",
                      "--gamma", "0.7", "--x", x])
    argvs.append(["table", "--family", "meixner", "--beta", "1.5", "--c", "0.4",
                  "--gamma", "0.7", "--x", "0.3", "1.2", "--rep", "4f3"])
    # Each route with a range form, at complex x and where it fails at a
    # middle degree: a denominator band, or a value past binary64.
    for family, rep, flags, failing in _RANGE_PROBES:
        argvs.append(["table", "--family", family, *flags, "--rep", rep,
                      "--x", "0.7+0.4j", "--n-max", "12"])
        argvs.append(["table", "--family", family, *flags, "--rep", rep,
                      *failing])
    # The Rahman Laguerre sum, an escalating convolution, at complex and
    # real x and over a table; and a Phi1 closed form summed at w/(w-1).
    rahman = ["--family", "laguerre", "--rep", "3f2-rahman"]
    argvs += [["eval", *rahman, "--alpha", "0.04649618516698728", "--gamma",
               "2.0238777036242297", "--x=2.7972288742646905+0.0093288878495153j",
               "--n", "25"],
              ["eval", *rahman, "--alpha", "0.5", "--gamma", "0.7", "--x",
               "2.5", "--n", "60"],
              ["table", *rahman, "--alpha", "0.5", "--gamma", "0.7", "--x",
               "2.5", "--n-max", "40"],
              ["gf-check", "--family", "laguerre", "--alpha", "0.61",
               "--gamma", "2.46", "--x", "2.6", "--t", "0.4457"]]
    # F1 and Phi1 on each branch of their grouped series: Phi1 at Re y < 0
    # where x/(x-1) is not taken (u = t/a = 0.95), F1 near |y| = 1, Phi1
    # at large |y| (complex x with |x| >= 30), and Phi1 sums that escalate.
    argvs += [["gf-check", "--family", "charlier", "--a", "1.3", "--gamma",
               "0.5", "--forms", "ode", "--t", "1.235", "--x", "-0.5"],
              ["gf-check", "--family", "meixner", "--beta", "1.5", "--c", "0.4",
               "--gamma", "0.7", "--forms", "appell", "alt", "weighted",
               "--t", "0.9", "--x", "0.5", "2"],
              ["gf-check", "--family", "meixner", "--beta", "1.5", "--c", "0.4",
               "--gamma", "0.7", "--forms", "appell", "weighted", "--t",
               "0.95", "--x", "2"],
              ["gf-check", "--family", "laguerre", "--alpha", "0.8", "--gamma",
               "0.5", "--forms", "phi1", "weighted", "--t", "0.3", "0.45",
               "--x", "30+10j", "-40+30j"],
              ["gf-check", "--family", "laguerre", "--alpha", "0.8", "--gamma",
               "0.5", "--forms", "phi1", "weighted", "--t", "0.4", "--x",
               "30j"]]
    # Each band of inputs where a closed form's denominator factor vanishes.
    for family, flags in (
        ("meixner", ["--beta", "1.5", "--c", "0.4", "--gamma", "0.5", "--x",
                     "-4", "--n", "5", "--rep", "4f3"]),
        ("meixner", ["--beta", "-2.5", "--c", "0.4", "--gamma", "0.5", "--x",
                     "0.3", "--n", "5", "--rep", "4f3"]),
        ("meixner", ["--beta", "-2.5", "--c", "0.4", "--gamma", "0.5", "--x",
                     "0.3", "--n", "5", "--rep", "4f3-alt"]),
        ("meixner", ["--beta", "1.5", "--c", "0.4", "--gamma", "0.7", "--x",
                     "2.7", "--n", "5", "--rep", "4f3-alt"]),
        ("charlier", ["--a", "1.3", "--gamma", "0.7", "--x", "2.7", "--n",
                      "5", "--rep", "3f2"]),
        ("charlier", ["--a", "1.3", "--gamma", "0.7", "--x", "1.7", "--n",
                      "6", "--rep", "3f2-transformed"]),
        ("laguerre", ["--alpha", "-3.5", "--gamma", "0.5", "--x", "0.3",
                      "--n", "5", "--rep", "3f2"]),
    ):
        argvs.append(["eval", "--family", family, *flags])
    argvs.append(["eval", "--family", "meixner", *_FAMILY_FLAGS["meixner"],
                  "--x", "0.5", "--n", "3", "--rel-tol", "1e-6"])
    argvs.append(["eval", "--family", "charlier", "--a", "1.3", "--beta", "7",
                  "--nu", "3", "--x", "0.5", "--n", "3"])
    # A series that a 1e-9 tail stops short of a 1e-13 check.
    argvs.append(["gf-check", "--family", "charlier", "--a", "1.3", "--gamma",
                  "0.5", "--x", "0.5", "--t", "0.9", "--rel-tol", "1e-13",
                  "--forms", "phi1"])
    # A non-finite word after --x, which the finite check refuses.
    argvs += [["eval", "--family", "charlier", "--a", "1.3", "--x", "-inf",
               "--n", "3"],
              ["table", "--family", "charlier", "--a", "1.3", "--x", "0.5",
               "-inf"],
              ["mh-study", "--family", "charlier", "--a", "1.3", "--gamma",
               "0.7", "--x", "-inf"]]
    # A lattice point, where the recurrence runs exactly, past binary64.
    for family in ("meixner", "charlier"):
        argvs.append(["eval", "--family", family, *_FAMILY_FLAGS[family],
                      "--gamma", "0.7", "--x", "3.700000001", "--n", "400"])
    argvs += [["--help"], *([command, "--help"] for command in (
        "eval", "table", "verify", "gf-check", "mh-study")), ["bogus"], []]
    return [["-m", "assocpoly", *argv] for argv in argvs] + [WARM_REPORTS]


def label(argv):
    """How a report names the invocation ``python argv``."""
    if argv is WARM_REPORTS:
        return "kernel-warm reports of seeds 1-3"
    return " ".join(["assocpoly", *argv[2:]])


def run(checkout, argv):
    """``(stdout, stderr, exit code)`` of ``python argv`` on ``checkout/src``,
    with this checkout's ``perfbench`` on the path for the warm calls."""
    src = str(Path(checkout).resolve() / "src")
    path = [src, str(ROOT / "perfbench")] if argv is WARM_REPORTS else [src]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, env=env, cwd=checkout)
    return (proc.stdout.replace(src, "<src>"), proc.stderr.replace(src, "<src>"),
            proc.returncode)


def first_difference(parent, change):
    """A line naming the first place where two ``run`` results differ, or None."""
    for name, old, new in zip(("stdout", "stderr"), parent, change):
        if old != new:
            old_lines, new_lines = old.splitlines(), new.splitlines()
            for i, (a, b) in enumerate(zip(old_lines, new_lines)):
                if a != b:
                    return f"{name} line {i + 1}: {a!r} -> {b!r}"
            if old_lines == new_lines:  # only the line endings differ
                return f"{name} ends {old[-20:]!r} -> {new[-20:]!r}"
            i = min(len(old_lines), len(new_lines))
            return (f"{name} line {i + 1}: {len(old_lines)} lines -> "
                    f"{len(new_lines)} lines")
    if parent[2] != change[2]:
        return f"exit code {parent[2]} -> {change[2]}"
    return None


def compare(parent, change, argvs, out=None):
    """Run every argv on both checkouts; print each difference and count them."""
    differing = 0
    for argv in argvs:
        diff = first_difference(run(parent, argv), run(change, argv))
        if diff is not None:
            differing += 1
            print(f"differs: {label(argv)}\n  {diff}", file=out)
    print(f"{len(argvs) - differing} of {len(argvs)} invocations identical",
          file=out)
    return differing


def main():
    args = sys.argv[1:]
    if len(args) != 1:
        print("usage: python tools/same_outputs.py PARENT_CHECKOUT", file=sys.stderr)
        return 2
    return 1 if compare(Path(args[0]), ROOT, invocations()) else 0


if __name__ == "__main__":
    sys.exit(main())
