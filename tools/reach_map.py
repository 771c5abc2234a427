"""List the functions of ``src/assocpoly`` that no command and no benchmark
operation enters.

Usage::

    python tools/reach_map.py

Runs, in this one process and under ``sys.setprofile``, every ``python -m
assocpoly`` invocation of ``tools/same_outputs.py`` through ``cli.main``,
with ``verify._usable_cpus`` patched to 1 so that ``verify`` runs its
tasks here instead of in forked workers, and then the warm kernel calls
of ``same_outputs.WARM_REPORTS`` (the first 3,000 operations of
``perfbench/kernel.stream(seed)`` for seeds 1-3).  Their output is
discarded.  It then prints, as ``path:line name``, each function, method
and lambda defined in a module of ``src/assocpoly`` that none of them
entered, and their count.  A function nested in another is left out:
whether it runs is a branch of the one that defines it.  The calls that
build the package's tables at import count.  It changes no file.

What it is expected to print, and why each is there:

- the protocol methods that only a library user calls: ``Record.__eq__``,
  ``__hash__``, ``__setattr__``, ``__delattr__`` and ``__reduce__`` (a
  comparison, a hash, an assignment, a pickle or a copy),
  ``PolySequence.__len__`` and ``ScaledSequence.__len__``, and the
  package's ``__dir__``;
- verify's fork code: ``_usable_cpus`` (patched here), ``_run_share``
  and ``_fork_worker``;
- ``hyperkernel._pole``, whose raise no invocation reaches;
- the ``_Gaussian`` operations that no sum builder applies to its inputs
  and that only the exact loop of ``hyperkernel._sum`` uses, which no
  invocation runs: the certified fixed-point passes decide every
  escalated sum first;
- ``genfuncs.gf_meixner_classical_2f1`` and
  ``genfuncs.gf_charlier_ode_residual``, the two library entry points
  that README keeps for the acceptance tests of the paper's classical
  Meixner generating function and Charlier ODE.
"""

from __future__ import annotations

import contextlib
import io
import sys
import types
from pathlib import Path
from unittest.mock import patch

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "assocpoly"

# Code objects that are parts of a function body rather than functions.
_PARTS = {"<module>", "<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def defined_functions():
    """``{(path, line, qualified name)}`` of every function, method and
    lambda that the modules of ``src/assocpoly`` define at their top level
    or in a class."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts
                         if isinstance(c, types.CodeType))
            # A class body is a code object too, but never a function; and
            # whether a function nested in another runs is a branch of the
            # one that defines it.
            if (code.co_name not in _PARTS and code.co_flags & 0x1
                    and "<locals>" not in code.co_qualname):
                found.add(_key(code))
    return found


def _key(code):
    return code.co_filename, code.co_firstlineno, code.co_qualname


def entered_functions():
    """``{(path, line, qualified name)}`` of every function of
    ``src/assocpoly`` that the invocations enter."""
    for path in (ROOT / "src", ROOT / "perfbench", ROOT / "tools"):
        sys.path.insert(0, str(path))
    sys.dont_write_bytecode = True  # leave no bytecode cache behind
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sink = io.StringIO()
    # The profile starts before any module of the package is imported, so
    # that the calls which build its tables at import count too.
    sys.setprofile(profile)
    try:
        import same_outputs
        from assocpoly import cli, verify

        argvs = same_outputs.invocations()
        with (patch.object(verify, "_usable_cpus", lambda: 1),
              contextlib.redirect_stdout(sink),
              contextlib.redirect_stderr(sink)):
            for argv in argvs:
                if argv is same_outputs.WARM_REPORTS:
                    exec(argv[1], {"__name__": "__main__"})
                    continue
                with contextlib.suppress(SystemExit):
                    cli.main(argv[2:])
                sink.seek(0)
                sink.truncate()
    finally:
        sys.setprofile(None)
    package = str(PACKAGE)
    return {_key(code) for code in codes
            if code.co_filename.startswith(package)}


def main():
    defined = defined_functions()
    missed = sorted(defined - entered_functions())
    for path, line, name in missed:
        print(f"{Path(path).relative_to(ROOT)}:{line} {name}")
    print(f"{len(missed)} of {len(defined)} functions not entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
