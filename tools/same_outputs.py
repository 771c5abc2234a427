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
x; ``mh-study``; ``table``; ``--help``, an unknown subcommand and no
argument.  Then one run of the warm kernel calls, which prints the repr of
the report (or of the raised error) of each of the first 3,000 operations
of ``perfbench/kernel.stream(seed)`` for seeds 1-3.  Both sides read this
checkout's ``perfbench``.
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
    for x in ("0.3", "-1.1+0.2j"):
        argvs.append(["mh-study", "--family", "meixner", "--beta", "1.5",
                      "--c", "0.4", "--gamma", "0.7", "--x", x])
        argvs.append(["mh-study", "--family", "charlier", "--a", "1.3",
                      "--gamma", "0.7", "--x", x])
    argvs.append(["table", "--family", "meixner", "--beta", "1.5", "--c", "0.4",
                  "--gamma", "0.7", "--x", "0.3", "1.2", "--rep", "4f3"])
    argvs += [["--help"], ["bogus"], []]
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
