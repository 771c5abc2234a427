"""Command-line front end.

Subcommands
-----------
- ``eval``: evaluate one polynomial value by a chosen representation.
- ``table``: tabulate a family over degrees (and several x values).
- ``verify``: run an identity-verification set and stream reports.
- ``gf-check``: run the generating-function checks of
  ``genfuncs.GF_FORMS``: closed forms against their series partial sums,
  and the Charlier ODE residual.
- ``mh-study``: run a large-degree scaled-convergence study.

Output is CSV (default) or JSON via ``--output``; CSV carries a
mandatory header row and values with 17 significant digits, so identical
invocations are byte-identical.  Only ``verify`` takes ``--seed``, and
its CSV begins with a ``# seed=<seed>`` line.  ``verify`` and
``gf-check`` print a summary and a ``FAIL`` line per failing check.

Exit codes: 0 success, 1 verification failure, 2 invalid input
(``errors.InvalidInput``), 3 numerical failure (``errors.NumericalFailure``).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import re
import sys
from typing import Callable, NamedTuple

# Only what ``eval`` and ``table`` run is imported here; the ``verify``,
# ``gf-check`` and ``mh-study`` handlers import the verifier, the
# generating functions and the asymptotics when they run.
from .closedforms import (
    _charlier_3f2_range,
    _charlier_classical_range,
    _laguerre_3f2_range,
    _laguerre_classical_range,
    _meixner_4f3_alt_range,
    _meixner_4f3_range,
    _meixner_classical_range,
    _meixner_cross_2f1_range,
    _meixner_quadratic_range,
    charlier_3f2,
    charlier_classical,
    laguerre_3f2,
    laguerre_classical,
    meixner_4f3,
    meixner_4f3_alt,
    meixner_c1_degenerate,
    meixner_classical,
    meixner_cross_2f1,
    meixner_quadratic,
    meixner_reflection_rhs,
    mp_from_meixner,
)
from .errors import InvalidInput, NumericalFailure
from .recurrences import (
    CharlierParams,
    LaguerreParams,
    MeixnerParams,
    MeixnerPollaczekParams,
    charlier_seq,
    laguerre_seq,
    meixner_pollaczek_seq,
    meixner_seq,
)
from .report import VERIFY_SETS, summarize

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_VALIDATION_ERRORS = (InvalidInput, ValueError, TypeError)
# OverflowError: a value beyond the binary64 range.
_NUMERICAL_ERRORS = (NumericalFailure, OverflowError)


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _scalar(text):
    """Parse a real or complex scalar from the command line."""
    try:
        return float(text)
    except ValueError:
        return complex(text)


def _finite(parse, positive=False):
    """The argparse type that parses with ``parse`` and rejects NaN and inf,
    and with ``positive`` every number that is not above 0.

    Text that does not parse keeps argparse's own message, which names
    ``parse``.
    """
    def finite(text):
        value = parse(text)
        if not cmath.isfinite(value):
            raise argparse.ArgumentTypeError(
                f"not a finite number: {text!r}")
        if positive and not value > 0:
            raise argparse.ArgumentTypeError(
                f"not a positive number: {text!r}")
        return value

    finite.__name__ = parse.__name__
    return finite


# argparse reads an argument that starts with "-" as an option unless it
# matches this; its own pattern misses -1e-3, -1.1+0.2j and -inf, which then
# reaches the finite check.
_NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

_REAL = _finite(float)
_SCALAR = _finite(_scalar)
_POSITIVE = _finite(float, positive=True)


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, dict):
        import json

        return json.dumps(value, sort_keys=True, default=str)
    return str(value)


def _write_records(args, fieldnames, records):
    """Emit records as CSV (with the seed line of a seeded command) or
    JSON to --out/stdout."""
    if args.out is None:
        _write_stream(sys.stdout, args, fieldnames, records)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as stream:
            _write_stream(stream, args, fieldnames, records)


def _write_stream(stream, args, fieldnames, records):
    if args.output == "json":
        import json

        stream.write(json.dumps(records, indent=2, default=str))
        stream.write("\n")
        return
    if "seed" in args:
        stream.write(f"# seed={args.seed}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(fieldnames)
    for record in records:
        writer.writerow([_cell(record.get(name)) for name in fieldnames])


def _write_reports(args, command, reports):
    """Write identity reports, print the summary line and a ``FAIL`` line
    for each failing report, and return the exit code."""
    records = []
    for rep in reports:
        lhs, rhs = complex(rep.lhs), complex(rep.rhs)
        records.append({
            "identity_id": rep.identity_id,
            "point": rep.point,
            "lhs_re": lhs.real,
            "lhs_im": lhs.imag,
            "rhs_re": rhs.real,
            "rhs_im": rhs.imag,
            "rel_discrepancy": float(rep.rel_discrepancy),
            "passed": bool(rep.passed),
        })
    _write_records(args, tuple(records[0]), records)
    passed, failed, worst = summarize(reports)
    print(
        f"{command}: {passed} passed, {failed} failed "
        f"(worst {worst.identity_id}: rel {worst.rel_discrepancy:.3e})",
        file=sys.stderr,
    )
    for rep in reports:
        if not rep.passed:
            print(
                f"  FAIL {rep.identity_id} at {rep.point}: "
                f"rel {rep.rel_discrepancy:.3e} > {rep.rel_tol:.1e}",
                file=sys.stderr,
            )
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# Family table
# ---------------------------------------------------------------------------


def _zero_shift(params):
    if params.gamma != 0.0:
        raise ValueError(
            "--rep classical applies to the gamma = 0 case only"
        )
    return params


def _degenerate_c1(x, params, n):
    if params.c != 1.0:
        raise ValueError("--rep degenerate-c1 requires c = 1")
    return meixner_c1_degenerate(params.beta, params.gamma, n)


class _Family(NamedTuple):
    """What the subcommands need to know about one family."""

    params: type
    # {flag: help} of the flags that must be given, in the params
    # constructor's order; every subcommand with --family offers them all.
    flags: dict
    # seq(x, params, n_max) -> PolySequence
    seq: Callable
    # {rep: route(x, params, n)}; the order is the one "choose from" prints.
    routes: dict
    # {rep: range form(x, params, n_max) -> [route(x, params, n) for n in
    # 0..n_max]}, for the routes that have one.
    ranges: dict

    def sweep(self, rep, x, params, n_max):
        """The values of route ``rep`` at degrees 0..n_max, as a list.

        A route with a range form runs it once over the range: the
        recurrence, and the closed forms that do their n-independent work
        once, with the bits of the per-degree calls.  Any other route runs
        once per degree.  Either way the first degree that fails raises.
        """
        if rep in self.ranges:
            return self.ranges[rep](x, params, n_max)
        route = self.routes[rep]
        return [route(x, params, n) for n in range(n_max + 1)]


def _family(params, flags, seq, routes, ranges=None):
    routes = {"recurrence": lambda x, p, n: seq(x, p, n)[n], **routes}
    ranges = {"recurrence": lambda x, p, n_max: list(seq(x, p, n_max).values),
              **(ranges or {})}
    return _Family(params, flags, seq, routes, ranges)


# The one family/route table: ``eval`` and ``table`` offer its routes, and
# ``verify --set representations`` compares them in pairs; both ``table``
# and ``verify`` take a route's values over 0..n from ``_Family.sweep``,
# which runs the range form of a route where the table has one: the
# recurrence, the lone-Cauchy double sums, the quadratic and cross 2F1
# forms and the classical routes.  Charlier ``3f2-transformed`` and
# Laguerre ``3f2-rahman`` have none, because their outer sums depend on n.
# Every route calls this module's global names when it runs, never a stored
# function object: perfbench patches ``cli.<name>`` after import to time the
# ``cli.route``, ``closedforms.*`` and ``recurrences`` spans, and a function
# captured at import would silently bypass those patches.  That is also why
# the table lives here and not in ``closedforms``.  The range forms are
# private to ``closedforms``, so those spans do not see a sweep's calls.
_FAMILIES = {
    "meixner": _family(
        MeixnerParams,
        {"beta": "Meixner shape parameter", "c": "Meixner geometric parameter"},
        lambda x, p, n: meixner_seq(x, p, n),
        {
            "4f3": lambda x, p, n: meixner_4f3(x, p, n),
            "4f3-alt": lambda x, p, n: meixner_4f3_alt(x, p, n),
            "quadratic": lambda x, p, n: meixner_quadratic(x, p, n),
            "cross": lambda x, p, n: meixner_cross_2f1(x, p, n),
            "reflection": lambda x, p, n: meixner_reflection_rhs(x, p, n),
            "degenerate-c1": _degenerate_c1,
            "classical": lambda x, p, n: meixner_classical(
                x, _zero_shift(p).beta, p.c, n),
        },
        {
            "4f3": lambda x, p, n: _meixner_4f3_range(x, p, 0, n),
            "4f3-alt": lambda x, p, n: _meixner_4f3_alt_range(x, p, 0, n),
            "quadratic": lambda x, p, n: _meixner_quadratic_range(x, p, 0, n),
            "cross": lambda x, p, n: _meixner_cross_2f1_range(x, p, 0, n),
            "classical": lambda x, p, n: _meixner_classical_range(
                x, _zero_shift(p).beta, p.c, 0, n),
        },
    ),
    "charlier": _family(
        CharlierParams, {"a": "Charlier rate parameter"},
        lambda x, p, n: charlier_seq(x, p, n),
        {
            "3f2": lambda x, p, n: charlier_3f2(x, p, n, "primary"),
            "3f2-transformed": lambda x, p, n: charlier_3f2(
                x, p, n, "transformed"),
            "classical": lambda x, p, n: charlier_classical(
                x, _zero_shift(p).a, n),
        },
        {
            "3f2": lambda x, p, n: _charlier_3f2_range(x, p, 0, n),
            "classical": lambda x, p, n: _charlier_classical_range(
                x, _zero_shift(p).a, 0, n),
        },
    ),
    "laguerre": _family(
        LaguerreParams, {"alpha": "Laguerre shape parameter"},
        lambda x, p, n: laguerre_seq(x, p, n),
        {
            "3f2": lambda x, p, n: laguerre_3f2(x, p, n, "primary"),
            "3f2-rahman": lambda x, p, n: laguerre_3f2(x, p, n, "rahman"),
            "classical": lambda x, p, n: laguerre_classical(
                x, _zero_shift(p).alpha, n),
        },
        {
            "3f2": lambda x, p, n: _laguerre_3f2_range(x, p, 0, n),
            "classical": lambda x, p, n: _laguerre_classical_range(
                x, _zero_shift(p).alpha, 0, n),
        },
    ),
    "meixner-pollaczek": _family(
        MeixnerPollaczekParams,
        {"nu": "Meixner-Pollaczek shape parameter",
         "phi": "Meixner-Pollaczek angle in (0, pi)"},
        lambda x, p, n: meixner_pollaczek_seq(x, p, n),
        {"connection": lambda x, p, n: mp_from_meixner(x, p, n)},
    ),
}


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(
                f"--{name} is required for family {args.family!r}"
            )


def _build_params(args):
    family = _FAMILIES[args.family]
    _require(args, *family.flags)
    for other in _FAMILIES.values():
        for name in other.flags:
            if (name not in family.flags
                    and getattr(args, name, None) is not None):
                raise ValueError(
                    f"--{name} does not apply to family {args.family!r}")
    return family.params(*(getattr(args, name) for name in family.flags),
                         args.gamma)


def _lookup(table, what, name, family):
    """``table[name]``, or ValueError naming the family's choices."""
    if name not in table:
        raise ValueError(
            f"{what} {name!r} does not apply to family {family!r}; "
            f"choose from {tuple(table)}"
        )
    return table[name]


def _route(args):
    """The route for ``--rep``; call after ``_build_params``."""
    return _lookup(_FAMILIES[args.family].routes, "representation", args.rep,
                   args.family)


def _finite_value(value):
    """``value``, or ``OverflowError`` (exit 3) when it is inf or nan."""
    if not cmath.isfinite(value):
        raise OverflowError(
            f"non-finite value {value!r}: beyond the binary64 range")
    return value


def _cross_check(args, params, x, n, value):
    """Best-effort independent estimate of the relative error: the
    recurrence against the family's first closed-form route."""
    routes = _FAMILIES[args.family].routes
    other = list(routes)[1] if args.rep == "recurrence" else "recurrence"
    if args.rep == "degenerate-c1" and x is None:
        x = 0.0
    try:
        check = _finite_value(routes[other](x, params, n))
    except (*_VALIDATION_ERRORS, *_NUMERICAL_ERRORS):
        return None
    scale = max(abs(value), abs(check))
    if scale == 0.0:
        return 0.0
    return abs(value - check) / scale


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_eval(args):
    rep = args.rep
    if rep == "degenerate-c1" and args.c is None and args.family == "meixner":
        args.c = 1.0
    params = _build_params(args)
    route = _route(args)
    if args.x is None and rep != "degenerate-c1":
        raise ValueError("--x is required (except --rep degenerate-c1)")
    x = args.x
    value = _finite_value(route(x, params, args.n))
    estimate = _cross_check(args, params, x, args.n, value)
    v = complex(value)
    record = {
        "family": args.family,
        "representation": rep,
        "n": args.n,
        "x_re": None if x is None else complex(x).real,
        "x_im": None if x is None else complex(x).imag,
        "value_re": v.real,
        "value_im": v.imag,
        "terms_used": args.n + 1,
        "err_estimate": estimate,
    }
    _write_records(args, tuple(record), [record])
    return EXIT_OK


def _cmd_table(args):
    params = _build_params(args)
    _route(args)  # rejects a --rep that the family lacks
    if args.n_max < 0:
        raise ValueError("empty grid: --n-max must be >= 0")
    family = _FAMILIES[args.family]
    records = []
    for x in args.x:
        for n, value in enumerate(family.sweep(args.rep, x, params,
                                               args.n_max)):
            v = complex(_finite_value(value))
            records.append({
                "family": args.family,
                "representation": args.rep,
                "x_re": complex(x).real,
                "x_im": complex(x).imag,
                "n": n,
                "value_re": v.real,
                "value_im": v.imag,
            })
    _write_records(
        args,
        ("family", "representation", "x_re", "x_im", "n", "value_re",
         "value_im"),
        records,
    )
    return EXIT_OK


def _cmd_verify(args):
    from .verify import run_set

    if args.n_max < 0:
        raise ValueError("empty grid: --n-max must be >= 0")
    reports = run_set(args.set, rel_tol=args.rel_tol, seed=args.seed,
                      n_max=args.n_max)
    return _write_reports(args, f"verify --set {args.set}", reports)


def _cmd_gf_check(args):
    from .genfuncs import GF_FORMS

    params = _build_params(args)
    forms = GF_FORMS[args.family]
    if args.forms == ["all"]:
        chosen = [form for form, (applies, _) in forms.items()
                  if applies(params)]
    else:
        chosen = args.forms
        for form in chosen:
            applies, _ = _lookup(forms, "form", form, args.family)
            if not applies(params):
                raise ValueError(
                    f"form {form!r} is not applicable at these parameters "
                    f"(gamma-dependent availability)"
                )
    reports = [forms[form][1](x, params, t, args.rel_tol)
               for x in args.x for t in args.t for form in chosen]
    return _write_reports(args, f"gf-check --family {args.family}", reports)


def _cmd_mh_study(args):
    from .asymptotics import mh_convergence_study

    params = _build_params(args)
    study = mh_convergence_study(args.x, params, args.checkpoints)
    limit = complex(study.limit)
    records = []
    for n, value, abs_err in study.samples:
        v = complex(value)
        records.append({
            "n": n,
            "scaled_value_re": v.real,
            "scaled_value_im": v.imag,
            "limit_re": limit.real,
            "limit_im": limit.imag,
            "abs_error": float(abs_err),
        })
    if args.output == "json":
        records.append({"monotone_tail": bool(study.monotone_tail)})
    else:
        records.append({"n": "monotone_tail",
                        "abs_error": bool(study.monotone_tail)})
    _write_records(
        args,
        ("n", "scaled_value_re", "scaled_value_im", "limit_re", "limit_im",
         "abs_error"),
        records,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_output_flags(parser, rel_tol=False):
    """The output flags, and ``--rel-tol`` for the commands that check."""
    parser.add_argument("--output", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="output path (default stdout)")
    if rel_tol:
        parser.add_argument("--rel-tol", type=_POSITIVE, default=1e-8,
                            help="relative tolerance (default 1e-8)")


def _add_family_flags(parser, families=_FAMILIES):
    parser.add_argument("--family", required=True, choices=families)
    for family in families:
        for name, help_text in _FAMILIES[family].flags.items():
            parser.add_argument(f"--{name}", type=_REAL, default=None,
                                help=help_text)
    parser.add_argument("--gamma", type=_REAL, default=0.0,
                        help="index shift (default 0)")


def _eval_flags(p_eval):
    _add_family_flags(p_eval)
    p_eval.add_argument("--x", type=_SCALAR, default=None,
                        help="evaluation point (real or complex)")
    p_eval.add_argument("--n", type=int, required=True, help="degree")
    p_eval.add_argument("--rep", default="recurrence",
                        help="representation (family-dependent)")
    _add_output_flags(p_eval)
    p_eval.set_defaults(func=_cmd_eval)


def _table_flags(p_table):
    _add_family_flags(p_table)
    p_table.add_argument("--x", type=_SCALAR, nargs="+", required=True,
                         help="evaluation points")
    p_table.add_argument("--n-max", type=int, default=10,
                         help="highest degree (default 10)")
    p_table.add_argument("--rep", default="recurrence",
                         help="representation (family-dependent)")
    _add_output_flags(p_table)
    p_table.set_defaults(func=_cmd_table)


def _verify_flags(p_verify):
    p_verify.add_argument("--set", required=True, choices=VERIFY_SETS)
    p_verify.add_argument("--n-max", type=int, default=25,
                          help="highest degree for grids (default 25)")
    _add_output_flags(p_verify, rel_tol=True)
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed for randomized sampling (default 0)")
    p_verify.set_defaults(func=_cmd_verify)


def _gf_check_flags(p_gf):
    _add_family_flags(p_gf, families=("meixner", "charlier", "laguerre"))
    p_gf.add_argument("--x", type=_SCALAR, nargs="+", default=[0.5],
                      help="evaluation points (default 0.5)")
    p_gf.add_argument("--t", type=_REAL, nargs="+", default=[0.05, 0.1],
                      help="series variable values (default 0.05 0.1)")
    p_gf.add_argument("--forms", nargs="+", default=["all"],
                      help="closed forms to check (default all applicable)")
    _add_output_flags(p_gf, rel_tol=True)
    p_gf.set_defaults(func=_cmd_gf_check)


def _mh_study_flags(p_mh):
    _add_family_flags(p_mh, families=("meixner", "charlier"))
    p_mh.add_argument("--x", type=_SCALAR, required=True,
                      help="evaluation point (real or complex)")
    p_mh.add_argument("--checkpoints", type=int, nargs="+",
                      default=[50, 100, 200, 400],
                      help="ascending degrees (default 50 100 200 400)")
    _add_output_flags(p_mh)
    p_mh.set_defaults(func=_cmd_mh_study)


# {subcommand: (help, function that adds its flags)}, in the order that
# the usage line lists them.
_COMMANDS = {
    "eval": ("evaluate one polynomial value", _eval_flags),
    "table": ("tabulate a family", _table_flags),
    "verify": ("run an identity set", _verify_flags),
    "gf-check": ("check generating functions at (x, t) points",
                 _gf_check_flags),
    "mh-study": ("large-degree scaled convergence study", _mh_study_flags),
}


def build_parser(command=None):
    """The argparse parser for the ``assocpoly`` command.

    Given a subcommand name, only that subcommand gets its flags.  The
    others are still listed, so the usage line and the top-level help
    stay the same.
    """
    parser = argparse.ArgumentParser(
        prog="assocpoly",
        description=(
            "Evaluate index-shifted Meixner, Charlier, Laguerre and "
            "Meixner-Pollaczek polynomials and verify their identities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags) in _COMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        subparser._negative_number_matcher = _NEGATIVE_NUMBER
        if command in (None, name):
            add_flags(subparser)
    return parser


def main(argv=None):
    """Entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # A first argument that names a subcommand is the one argparse runs,
    # so only that subcommand's flags are built.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"assocpoly: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _VALIDATION_ERRORS as exc:
        print(f"assocpoly: invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
