"""A fresh benchmark process: times its imports, then optionally works.

Usage::

    python3 perfbench/child.py [--warm-up] [--trace] [-- CLI-ARGS...]

It imports ``scipy.special`` alone, then the rest of ``assocpoly``, and
times each.  With ``--warm-up`` it then runs the ``kernel-warm`` warm-up
pass.  Given CLI arguments it runs ``assocpoly``'s command-line entry
point on them, with ``--trace`` under span recorders.  Its last line on
standard error is ``PERFBENCH <json>`` with the import times and, when
traced, the span aggregates.  It exits with the CLI's exit code.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
import scipy.special  # noqa: E402,F401  (timed on its own)

_T1 = time.perf_counter()
import assocpoly  # noqa: E402,F401

_T2 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

MARKER = "PERFBENCH "


def main(argv):
    split = argv.index("--") if "--" in argv else len(argv)
    options, cli_args = argv[:split], argv[split + 1:]
    report = {"imports": {"scipy_special_s": _T1 - _T0,
                          "assocpoly_s": _T2 - _T1}}
    code = 0
    if "--warm-up" in options:
        import kernel

        kernel.warm_up()
    if cli_args:
        from assocpoly import cli

        if "--trace" in options:
            from spans import Tracer

            tracer = Tracer().install()
            code = tracer.wrap(cli.main, "cli.main")(cli_args)
            report["spans"] = tracer.to_json()
        else:
            code = cli.main(cli_args)
    sys.stdout.flush()
    print(MARKER + json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
