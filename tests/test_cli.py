"""Command-line interface tests (in-process via main(argv))."""

import contextlib
import csv
import importlib
import io
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from assocpoly import (
    CharlierParams,
    DenominatorPole,
    LaguerreParams,
    MeixnerParams,
    MeixnerPollaczekParams,
    charlier_3f2,
    charlier_classical,
    charlier_seq,
    gamma_value,
    gauss_2f1,
    laguerre_3f2,
    laguerre_classical,
    laguerre_seq,
    meixner_4f3,
    meixner_4f3_alt,
    meixner_c1_degenerate,
    meixner_classical,
    meixner_cross_2f1,
    meixner_pollaczek_seq,
    meixner_quadratic,
    meixner_reflection_rhs,
    meixner_seq,
    mp_from_meixner,
)
from assocpoly import cli, errors
from assocpoly.cli import (
    _FAMILIES,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    EXIT_VERIFY_FAILED,
    build_parser,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out, seed=None):
    """Header and rows of CSV output.  Only verify takes --seed, and its
    output begins with the ``seed`` line; the others print none."""
    lines = out.splitlines()
    if seed is not None:
        assert lines.pop(0) == f"# seed={seed}"
    assert not lines[0].startswith("#")
    rows = list(csv.reader(lines))
    header, data = rows[0], rows[1:]
    return header, data


def csv_value(header, row, field):
    return row[header.index(field)]


# ---------------------------------------------------------------------------
# eval: the three pinned examples
# ---------------------------------------------------------------------------


def test_eval_meixner_first_recurrence_step(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--family", "meixner", "--beta", "1.5", "--c", "0.4",
        "--gamma", "0.7", "--x", "0.5", "--n", "1", "--rep", "recurrence",
    )
    assert code == EXIT_OK
    header, data = parse_csv(out)
    assert len(data) == 1
    assert float(csv_value(header, data[0], "value_re")) == pytest.approx(
        3.2, rel=1e-12
    )
    assert float(csv_value(header, data[0], "value_im")) == 0.0


def test_eval_charlier_first_step(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--family", "charlier", "--a", "2", "--gamma", "0",
        "--x", "1", "--n", "1",
    )
    assert code == EXIT_OK
    header, data = parse_csv(out)
    assert float(csv_value(header, data[0], "value_re")) == pytest.approx(
        0.5, rel=1e-14
    )


def test_eval_degenerate_c1_ignores_x(capsys):
    values = []
    for x in ("9", "-4.5"):
        code, out, _ = run_cli(
            capsys, "eval", "--family", "meixner", "--c", "1", "--beta", "2",
            "--gamma", "0.5", "--x", x, "--n", "2", "--rep", "degenerate-c1",
        )
        assert code == EXIT_OK
        header, data = parse_csv(out)
        values.append(float(csv_value(header, data[0], "value_re")))
    assert values[0] == values[1] == pytest.approx(11.25, rel=1e-13)


def test_eval_degenerate_c1_defaults_c_and_x(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--family", "meixner", "--beta", "2", "--gamma",
        "0.5", "--n", "2", "--rep", "degenerate-c1",
    )
    assert code == EXIT_OK
    header, data = parse_csv(out)
    assert float(csv_value(header, data[0], "value_re")) == pytest.approx(
        11.25, rel=1e-13
    )


def test_eval_degenerate_c1_rejects_other_c(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--family", "meixner", "--c", "0.7", "--beta", "2",
        "--gamma", "0.5", "--n", "2", "--rep", "degenerate-c1",
    )
    assert code == EXIT_VALIDATION
    assert "invalid input" in err


def test_eval_json_output(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--family", "meixner", "--beta", "1.5", "--c", "0.4",
        "--gamma", "0.7", "--x", "0.5", "--n", "1", "--output", "json",
    )
    assert code == EXIT_OK
    records = json.loads(out)
    assert isinstance(records, list) and len(records) == 1
    assert records[0]["value_re"] == pytest.approx(3.2, rel=1e-12)
    assert records[0]["family"] == "meixner"


def test_eval_reports_cross_check_estimate(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--family", "meixner", "--beta", "1.5", "--c", "0.4",
        "--gamma", "0.7", "--x", "0.5", "--n", "5", "--output", "json",
    )
    assert code == EXIT_OK
    record = json.loads(out)[0]
    assert record["err_estimate"] is not None
    assert float(record["err_estimate"]) < 1e-8
    assert record["terms_used"] == 6


def test_eval_complex_point(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--family", "meixner-pollaczek", "--nu", "0.7",
        "--phi", "1.1", "--gamma", "0.4", "--x", "1+0.5j", "--n", "3",
        "--output", "json",
    )
    assert code == EXIT_OK
    record = json.loads(out)[0]
    assert record["x_im"] == 0.5
    assert record["value_im"] != 0.0


# ---------------------------------------------------------------------------
# eval: every route of the family table against the library call
# ---------------------------------------------------------------------------

# (family, rep) -> the library call, in the order "choose from" prints.
LIBRARY_ROUTES = {
    ("meixner", "recurrence"): lambda x, p, n: meixner_seq(x, p, n)[n],
    ("meixner", "4f3"): meixner_4f3,
    ("meixner", "4f3-alt"): meixner_4f3_alt,
    ("meixner", "quadratic"): meixner_quadratic,
    ("meixner", "cross"): meixner_cross_2f1,
    ("meixner", "reflection"): meixner_reflection_rhs,
    ("meixner", "degenerate-c1"): lambda x, p, n: meixner_c1_degenerate(
        p.beta, p.gamma, n),
    ("meixner", "classical"): lambda x, p, n: meixner_classical(
        x, p.beta, p.c, n),
    ("charlier", "recurrence"): lambda x, p, n: charlier_seq(x, p, n)[n],
    ("charlier", "3f2"): charlier_3f2,
    ("charlier", "3f2-transformed"): lambda x, p, n: charlier_3f2(
        x, p, n, "transformed"),
    ("charlier", "classical"): lambda x, p, n: charlier_classical(x, p.a, n),
    ("laguerre", "recurrence"): lambda x, p, n: laguerre_seq(x, p, n)[n],
    ("laguerre", "3f2"): laguerre_3f2,
    ("laguerre", "3f2-rahman"): lambda x, p, n: laguerre_3f2(
        x, p, n, "rahman"),
    ("laguerre", "classical"): lambda x, p, n: laguerre_classical(
        x, p.alpha, n),
    ("meixner-pollaczek", "recurrence"): lambda x, p, n: meixner_pollaczek_seq(
        x, p, n)[n],
    ("meixner-pollaczek", "connection"): mp_from_meixner,
}

# family -> (params class, {flag: value} in constructor order)
FAMILY_PARAMS = {
    "meixner": (MeixnerParams, {"beta": 1.5, "c": 0.4}),
    "charlier": (CharlierParams, {"a": 2.0}),
    "laguerre": (LaguerreParams, {"alpha": 0.7}),
    "meixner-pollaczek": (MeixnerPollaczekParams, {"nu": 0.7, "phi": 1.1}),
}

TABLE_ROUTES = [(family, rep) for family, spec in _FAMILIES.items()
                for rep in spec.routes]


def test_route_table_lists_every_representation_in_order():
    assert TABLE_ROUTES == list(LIBRARY_ROUTES)


@pytest.mark.parametrize("family,rep", TABLE_ROUTES)
def test_eval_every_route_prints_the_library_value(capsys, family, rep):
    cls, values = FAMILY_PARAMS[family]
    values = dict(values)
    if rep == "degenerate-c1":
        values["c"] = 1.0
    gamma = 0.0 if rep == "classical" else 0.7
    x, n = 0.5, 4
    argv = ["eval", "--family", family, "--rep", rep, "--gamma", repr(gamma),
            "--x", repr(x), "--n", str(n)]
    for name, value in values.items():
        argv += [f"--{name}", repr(value)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    header, data = parse_csv(out)
    expected = complex(
        LIBRARY_ROUTES[family, rep](x, cls(*values.values(), gamma), n))
    assert float(csv_value(header, data[0], "value_re")) == expected.real
    assert float(csv_value(header, data[0], "value_im")) == expected.imag


def test_eval_foreign_representation_lists_the_family_routes(capsys):
    code, out, err = run_cli(
        capsys, "eval", "--family", "meixner", "--beta", "1.5", "--c", "0.4",
        "--x", "0.5", "--n", "1", "--rep", "3f2",
    )
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err == (
        "assocpoly: invalid input: representation '3f2' does not apply to "
        "family 'meixner'; choose from ('recurrence', '4f3', '4f3-alt', "
        "'quadratic', 'cross', 'reflection', 'degenerate-c1', 'classical')\n"
    )


# ---------------------------------------------------------------------------
# eval: validation and numerical exits
# ---------------------------------------------------------------------------


def test_eval_missing_x_exits_validation(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--family", "meixner", "--beta", "1.5", "--c", "0.4",
        "--n", "1",
    )
    assert code == EXIT_VALIDATION
    assert "--x is required" in err


def test_eval_missing_family_parameter_exits_validation(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--family", "meixner", "--beta", "1.5", "--x", "0.5",
        "--n", "1",
    )
    assert code == EXIT_VALIDATION
    assert "--c is required" in err


def test_eval_foreign_representation_exits_validation(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--family", "laguerre", "--alpha", "0.7", "--x",
        "0.5", "--n", "1", "--rep", "4f3",
    )
    assert code == EXIT_VALIDATION
    assert "does not apply" in err


_CHARLIER = ["--family", "charlier", "--a", "1.3", "--gamma", "0.7"]


@pytest.mark.parametrize("command, extra", [
    ("eval", ["--n", "2"]),
    ("table", ["--n-max", "2"]),
    ("gf-check", ["--t", "0.1"]),
    ("mh-study", []),
])
@pytest.mark.parametrize("x", ["-1.1+0.2j", "-1e-1", "-0.5j"])
def test_negative_number_after_x_is_a_value(capsys, command, extra, x):
    code, out, err = run_cli(capsys, command, *_CHARLIER, "--x", x, *extra)
    assert (code, err.startswith("usage")) == (EXIT_OK, False)
    assert (code, out) == run_cli(capsys, command, *_CHARLIER, f"--x={x}",
                                  *extra)[:2]


def test_table_takes_negative_complex_points_in_its_list(capsys):
    code, out, _ = run_cli(capsys, "table", *_CHARLIER, "--x", "0.5",
                           "-1.1+0.2j", "--n-max", "0")
    assert code == EXIT_OK
    header, data = parse_csv(out)
    assert [(csv_value(header, row, "x_re"), csv_value(header, row, "x_im"))
            for row in data] == [("0.5", "0"),
                                 ("-1.1000000000000001", "0.20000000000000001")]


@pytest.mark.parametrize("argv", [
    ["eval", *_CHARLIER, "--n", "2", "--x"],
    ["table", *_CHARLIER, "--x"],
    ["table", *_CHARLIER, "--x", "0.5"],
    ["gf-check", *_CHARLIER, "--x"],
    ["mh-study", *_CHARLIER, "--x"],
    ["verify", "--set", "convolutions", "--rel-tol"],
], ids=["eval", "table", "table-list", "gf-check", "mh-study", "verify"])
@pytest.mark.parametrize("word", ["-inf", "-nan", "-infinity", "-Inf"])
def test_negative_non_finite_word_is_a_value(capsys, argv, word):
    # Read as an option, it gave "expected one argument" or "unrecognized
    # arguments" instead of the finite check's message.
    flag = next(arg for arg in reversed(argv) if arg.startswith("--"))
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, word])
    assert excinfo.value.code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(
        f"error: argument {flag}: not a finite number: {word!r}")


# The family flags of each subcommand that takes --family: the flags of its
# own families, in the family table's order.
FAMILY_FLAG_HELP = {
    "beta": "  --beta BETA           Meixner shape parameter\n",
    "c": "  --c C                 Meixner geometric parameter\n",
    "a": "  --a A                 Charlier rate parameter\n",
    "alpha": "  --alpha ALPHA         Laguerre shape parameter\n",
    "nu": "  --nu NU               Meixner-Pollaczek shape parameter\n",
    "phi": "  --phi PHI             Meixner-Pollaczek angle in (0, pi)\n",
    "gamma": "  --gamma GAMMA         index shift (default 0)\n",
}
COMMAND_FLAGS = {
    "eval": ("beta", "c", "a", "alpha", "nu", "phi"),
    "table": ("beta", "c", "a", "alpha", "nu", "phi"),
    "gf-check": ("beta", "c", "a", "alpha"),
    "mh-study": ("beta", "c", "a"),
}


@pytest.mark.parametrize("command", ["eval", "table", "gf-check", "mh-study"])
def test_family_flags_keep_their_order_and_help(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == EXIT_OK
    expected = "".join(FAMILY_FLAG_HELP[flag]
                       for flag in (*COMMAND_FLAGS[command], "gamma"))
    assert expected in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["gf-check", "--family", "meixner", "--beta", "1.5", "--c", "0.4",
     "--nu", "0.3"],
    ["gf-check", "--family", "charlier", "--a", "1.3", "--phi", "1"],
    ["mh-study", "--family", "meixner", "--beta", "1.5", "--c", "0.4",
     "--alpha", "0.5", "--x", "0.3"],
    ["mh-study", "--family", "charlier", "--a", "1.3", "--nu", "0.3",
     "--x", "0.3"],
], ids=["gf-check-nu", "gf-check-phi", "mh-study-alpha", "mh-study-nu"])
def test_flag_of_no_family_of_the_command_is_not_offered(capsys, argv):
    # gf-check offered --nu and --phi, and mh-study --alpha, --nu and --phi,
    # although none of their families takes them.
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    flag = next(arg for arg in argv if arg in ("--nu", "--phi", "--alpha"))
    assert f"error: unrecognized arguments: {flag} " in captured.err


@pytest.mark.parametrize("argv, flag, family", [
    (["eval", "--family", "charlier", "--a", "1.3", "--beta", "7", "--nu",
      "3", "--x", "0.5", "--n", "3"], "beta", "charlier"),
    (["table", "--family", "charlier", "--a", "1.3", "--nu", "3", "--x",
      "0.5"], "nu", "charlier"),
    (["gf-check", "--family", "laguerre", "--alpha", "0.8", "--a", "1"],
     "a", "laguerre"),
    (["mh-study", "--family", "meixner", "--beta", "1.5", "--c", "0.4",
      "--a", "0.5", "--x", "0.3"], "a", "meixner"),
])
def test_flag_of_another_family_exits_validation(capsys, argv, flag, family):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err == (f"assocpoly: invalid input: --{flag} does not apply to "
                   f"family {family!r}\n")


def test_eval_degenerate_c1_of_another_family_names_the_route(capsys):
    code, _, err = run_cli(capsys, "eval", "--family", "charlier", "--a",
                           "1.3", "--x", "0.5", "--n", "2", "--rep",
                           "degenerate-c1")
    assert code == EXIT_VALIDATION
    assert "representation 'degenerate-c1' does not apply" in err


def test_eval_classical_requires_zero_shift(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--family", "charlier", "--a", "2", "--gamma", "0.5",
        "--x", "1", "--n", "1", "--rep", "classical",
    )
    assert code == EXIT_VALIDATION
    assert "gamma = 0" in err


def test_eval_cross_at_integer_offset_exits_numerical(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--family", "meixner", "--beta", "1.5", "--c", "0.4",
        "--gamma", "0", "--x", "3", "--n", "4", "--rep", "cross",
    )
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in err


@pytest.mark.parametrize("argv", [
    ["--family", "meixner", "--beta", "1.5", "--c", "1e-320", "--rep",
     "reflection"],
    ["--family", "meixner-pollaczek", "--nu", "1e308", "--phi", "1.1",
     "--rep", "connection"],
], ids=["reflection-1/c", "connection-2nu"])
def test_eval_route_parameter_past_binary64_exits_numerical(capsys, argv):
    # 1/c and 2 nu overflow from valid input: a numerical failure, which the
    # parameter records' finite check must not turn into invalid input.
    code, _, err = run_cli(capsys, "eval", *argv, "--gamma", "0.7", "--x",
                           "0.5", "--n", "3")
    assert code == EXIT_NUMERICAL
    assert "exceeds binary64 range" in err


def test_argparse_errors_exit_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["eval", "--family", "nonsense", "--n", "1"])
    assert excinfo.value.code == 2


# One valid command per subcommand, and its real-valued and scalar flags.
NUMERIC_FLAGS = {
    ("eval", "--family", "meixner", "--beta", "1.5", "--c", "0.4",
     "--x", "0.5", "--n", "3"): ("--beta", "--c", "--gamma", "--x"),
    ("eval", "--family", "meixner-pollaczek", "--nu", "0.7", "--phi", "1.1",
     "--x", "0.5", "--n", "3"): ("--nu", "--phi"),
    ("table", "--family", "charlier", "--a", "2", "--x", "0.5",
     "--n-max", "3"): ("--a", "--gamma", "--x"),
    ("gf-check", "--family", "laguerre", "--alpha", "0.7"): (
        "--alpha", "--gamma", "--x", "--t", "--rel-tol"),
    ("mh-study", "--family", "charlier", "--a", "1", "--x", "-0.5",
     "--checkpoints", "50"): ("--a", "--gamma", "--x"),
}
NON_FINITE = ("nan", "inf", "-inf", "NaN", "1e999")
COMPLEX_FLAGS = ("--x",)
# A nonpositive tolerance used to run and fail later: exit 1 with 140 FAIL
# lines, or exit 3 from a series that could not meet it.
NON_POSITIVE = ("0", "-1")


@pytest.mark.parametrize("argv", [argv for argv in NUMERIC_FLAGS
                                  if argv[0] in ("eval", "table",
                                                 "mh-study")])
def test_rel_tol_only_on_the_commands_that_read_it(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--rel-tol", "1e-6"])
    assert excinfo.value.code == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines()[-1] == (
        "assocpoly: error: unrecognized arguments: --rel-tol 1e-6")


# Every error class of the library and its exit code.
ERROR_EXITS = {
    "ZeroC": EXIT_VALIDATION, "ZeroA": EXIT_VALIDATION,
    "RestrictedParameter": EXIT_VALIDATION, "DomainError": EXIT_VALIDATION,
    "PoleArgument": EXIT_NUMERICAL, "DenominatorPole": EXIT_NUMERICAL,
    "NotConverged": EXIT_NUMERICAL, "IllConditioned": EXIT_NUMERICAL,
    "SingularIntegrand": EXIT_NUMERICAL,
    "QuadratureNotConverged": EXIT_NUMERICAL, "TailTooLarge": EXIT_NUMERICAL,
}


def test_every_error_sits_under_one_base_and_keeps_its_exit_code(
        capsys, monkeypatch):
    bases = (errors.InvalidInput, errors.NumericalFailure)
    classes = {name: value for name, value in vars(errors).items()
               if isinstance(value, type)
               and issubclass(value, errors.AssocPolyError)
               and value not in (errors.AssocPolyError, *bases)}
    assert set(classes) == set(ERROR_EXITS)
    for name, cls in classes.items():
        assert [issubclass(cls, base) for base in bases].count(True) == 1

        def raise_it(args, cls=cls):
            raise cls("boom")

        monkeypatch.setattr(cli, "_cmd_eval", raise_it)
        code = main(["eval", "--family", "charlier", "--a", "1", "--x", "0",
                     "--n", "1"])
        assert code == ERROR_EXITS[name], name
        capsys.readouterr()


@pytest.mark.parametrize("argv,flag", [
    pytest.param(argv, flag, id=f"{argv[0]}-{argv[2]}{flag}")
    for argv, flags in NUMERIC_FLAGS.items() for flag in flags])
def test_non_finite_numeric_flag_is_a_parse_error(capsys, argv, flag):
    texts = NON_FINITE + (("nan+1j", "1+infj") if flag in COMPLEX_FLAGS
                          else ())
    rejected = [(text, "not a finite number") for text in texts]
    if flag == "--rel-tol":
        rejected += [(text, "not a positive number") for text in NON_POSITIVE]
    for text, reason in rejected:
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, f"{flag}={text}"])
        assert excinfo.value.code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith(
            f"error: argument {flag}: {reason}: {text!r}")


def test_unparsable_numeric_flag_keeps_the_argparse_message(capsys):
    for flag, kind in (("--beta", "float"), ("--x", "_scalar")):
        with pytest.raises(SystemExit):
            main(["eval", "--family", "meixner", "--beta", "1.5", "--c",
                  "0.4", "--x", "0.5", "--n", "3", flag, "abc"])
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"assocpoly eval: error: argument {flag}: invalid {kind} "
            f"value: 'abc'")


@pytest.mark.parametrize("argv", [
    # The exact escalation of the double sum ends in a float() overflow.
    ("eval", "--family", "charlier", "--rep", "3f2", "--n", "25", "--a",
     "1e-300", "--x", "3", "--gamma", "0.5"),
    # The exact-lattice values of the recurrence overflow binary64.
    ("eval", "--family", "meixner", "--rep", "recurrence", "--n", "25",
     "--beta", "1e200", "--c", "0.5", "--x", "1e200", "--gamma", "0.5"),
])
def test_binary64_overflow_exits_numerical_in_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("assocpoly: numerical failure: ")


# A point where the Meixner value, -4.77e183, is in range at n = 100 but
# the 4F3 prefactor overflows, and the recurrence turns to nan past n = 152.
MEIXNER_FAR = ("--family", "meixner", "--beta", "0.8711151050205395", "--c",
               "0.5265375351775712", "--gamma", "0.998878949679814", "--x",
               "1.336464162104017")


@pytest.mark.parametrize("argv", [
    ("eval", *MEIXNER_FAR, "--n", "100", "--rep", "4f3"),
    ("eval", "--family", "charlier", "--a", "0.3", "--gamma", "0.5", "--x",
     "1.3", "--n", "150", "--rep", "recurrence"),
    ("table", *MEIXNER_FAR, "--n-max", "400"),
], ids=["eval-4f3", "eval-recurrence", "table"])
def test_non_finite_value_exits_numerical_and_writes_nothing(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert err.startswith("assocpoly: numerical failure: non-finite value")


def test_non_finite_cross_check_leaves_the_estimate_empty(capsys):
    code, out, _ = run_cli(capsys, "eval", *MEIXNER_FAR, "--n", "100")
    assert code == EXIT_OK
    header, data = parse_csv(out)
    assert float(csv_value(header, data[0], "value_re")) == pytest.approx(
        -4.770311282464512e183, rel=1e-13)
    assert csv_value(header, data[0], "err_estimate") == ""


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_row_count_and_layout(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "laguerre", "--alpha", "0.7", "--gamma",
        "0.4", "--x", "0.5", "1.5", "--n-max", "6",
    )
    assert code == EXIT_OK
    header, data = parse_csv(out)
    assert header == ["family", "representation", "x_re", "x_im", "n",
                      "value_re", "value_im"]
    assert len(data) == 2 * 7
    assert [row[header.index("n")] for row in data[:7]] == [
        str(n) for n in range(7)
    ]


def test_table_closed_form_representation_matches_recurrence(capsys):
    base = ["table", "--family", "charlier", "--a", "2", "--gamma", "0.7",
            "--x", "0.9", "--n-max", "5"]
    _, out_rec, _ = run_cli(capsys, *base)
    _, out_cf, _ = run_cli(capsys, *base, "--rep", "3f2")
    header, rec_rows = parse_csv(out_rec)
    _, cf_rows = parse_csv(out_cf)
    for row_a, row_b in zip(rec_rows, cf_rows):
        a = float(csv_value(header, row_a, "value_re"))
        b = float(csv_value(header, row_b, "value_re"))
        assert a == pytest.approx(b, rel=1e-9)


def test_table_negative_n_max_exits_validation(capsys):
    code, _, err = run_cli(
        capsys, "table", "--family", "laguerre", "--alpha", "0.7", "--x",
        "0.5", "--n-max", "-1",
    )
    assert code == EXIT_VALIDATION
    assert "empty grid" in err


# ---------------------------------------------------------------------------
# The degree sweep of the route table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family,rep", TABLE_ROUTES)
def test_sweep_gives_each_degree_of_the_route(family, rep):
    cls, values = FAMILY_PARAMS[family]
    values = dict(values)
    if rep == "degenerate-c1":
        values["c"] = 1.0
    params = cls(*values.values(), 0.0 if rep == "classical" else 0.7)
    spec = _FAMILIES[family]
    swept = spec.sweep(rep, 0.5, params, 6)
    assert swept == [spec.routes[rep](0.5, params, n) for n in range(7)]


def test_sweep_runs_the_recurrence_once(monkeypatch):
    calls = []
    seq = cli.meixner_seq
    monkeypatch.setattr(cli, "meixner_seq",
                        lambda *args: calls.append(args) or seq(*args))
    params = MeixnerParams(1.5, 0.4, 0.7)
    swept = _FAMILIES["meixner"].sweep("recurrence", 0.5, params, 8)
    assert calls == [(0.5, params, 8)]
    assert swept == list(meixner_seq(0.5, params, 8).values)


def test_sweep_raises_what_the_first_failing_degree_raises():
    # x - gamma = 2 makes a 4f3-alt denominator vanish from degree 3 on.
    params = MeixnerParams(1.5, 0.4, 0.7)
    meixner_4f3_alt(2.7, params, 2)
    with pytest.raises(DenominatorPole) as first:
        meixner_4f3_alt(2.7, params, 3)
    with pytest.raises(DenominatorPole) as swept:
        _FAMILIES["meixner"].sweep("4f3-alt", 2.7, params, 6)
    assert "for degree 3" in str(first.value)
    assert str(swept.value) == str(first.value)


@pytest.mark.parametrize("family,other", [
    ("meixner", "4f3"), ("charlier", "3f2"), ("laguerre", "3f2"),
    ("meixner-pollaczek", "connection")])
def test_recurrence_cross_check_uses_the_first_closed_form(capsys, family,
                                                           other):
    cls, values = FAMILY_PARAMS[family]
    x, n, gamma = 0.5, 6, 0.7
    argv = ["eval", "--family", family, "--gamma", repr(gamma), "--x",
            repr(x), "--n", str(n)]
    for name, value in values.items():
        argv += [f"--{name}", repr(value)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    header, data = parse_csv(out)
    params = cls(*values.values(), gamma)
    value = LIBRARY_ROUTES[family, "recurrence"](x, params, n)
    check = LIBRARY_ROUTES[family, other](x, params, n)
    expected = abs(value - check) / max(abs(value), abs(check))
    assert float(csv_value(header, data[0], "err_estimate")) == expected


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_convolutions_green_and_deterministic(capsys):
    code1, out1, err1 = run_cli(capsys, "verify", "--set", "convolutions")
    code2, out2, _ = run_cli(capsys, "verify", "--set", "convolutions")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert " 0 failed" in err1
    header, data = parse_csv(out1, seed=0)
    assert list(header) == ["identity_id", "point", "lhs_re", "lhs_im",
                            "rhs_re", "rhs_im", "rel_discrepancy", "passed"]
    assert all(csv_value(header, row, "passed") == "true" for row in data)


def test_verify_unreachable_tolerance_exits_failed(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--set", "convolutions", "--rel-tol", "1e-16",
    )
    assert code == EXIT_VERIFY_FAILED
    assert "FAIL" in err


def test_verify_negative_n_max_exits_validation(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--set", "representations", "--n-max", "-1",
    )
    assert code == EXIT_VALIDATION
    # The same message as table's.
    assert err == ("assocpoly: invalid input: empty grid: --n-max must be "
                   ">= 0\n")


def test_verify_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--set", "convolutions", "--output", "json",
    )
    assert code == EXIT_OK
    records = json.loads(out)
    assert all(record["passed"] for record in records)
    assert all(record["rel_discrepancy"] <= 1e-8 for record in records)


# ---------------------------------------------------------------------------
# gf-check
# ---------------------------------------------------------------------------


def test_gf_check_meixner_green(capsys):
    code, out, err = run_cli(
        capsys, "gf-check", "--family", "meixner", "--beta", "1.5", "--c",
        "0.4", "--gamma", "0.7",
    )
    assert code == EXIT_OK
    assert " 0 failed" in err
    header, data = parse_csv(out)
    ids = {csv_value(header, row, "identity_id") for row in data}
    assert ids == {"gf-meixner-appell", "gf-meixner-alt",
                   "gf-meixner-integral", "weighted-gf-meixner"}


def test_gf_check_charlier_includes_ode(capsys):
    code, out, _ = run_cli(
        capsys, "gf-check", "--family", "charlier", "--a", "2", "--gamma",
        "0.7",
    )
    assert code == EXIT_OK
    header, data = parse_csv(out)
    ids = {csv_value(header, row, "identity_id") for row in data}
    assert "gf-charlier-ode" in ids


def test_gf_check_laguerre_diagonal_applies_at_equal_parameters(capsys):
    code, out, _ = run_cli(
        capsys, "gf-check", "--family", "laguerre", "--alpha", "0.8",
        "--gamma", "0.8",
    )
    assert code == EXIT_OK
    header, data = parse_csv(out)
    ids = {csv_value(header, row, "identity_id") for row in data}
    assert "gf-laguerre-diag" in ids


def test_gf_check_zero_shift_uses_elementary_forms(capsys):
    code, out, _ = run_cli(
        capsys, "gf-check", "--family", "charlier", "--a", "2", "--gamma",
        "0",
    )
    assert code == EXIT_OK
    header, data = parse_csv(out)
    ids = {csv_value(header, row, "identity_id") for row in data}
    assert ids == {"gf-charlier-phi1", "gf-charlier-elementary",
                   "gf-charlier-ode"}


def test_gf_check_gamma_beta_pole_exits_validation(capsys):
    code, out, err = run_cli(
        capsys, "gf-check", "--family", "meixner", "--forms", "appell",
        "--beta", "-3", "--c", "0.5", "--gamma", "1", "--x", "0.5",
        "--t", "0",
    )
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err == (
        "assocpoly: invalid input: by-gamma-beta normalization has a "
        "vanishing denominator n+gamma+beta at n=2 for gamma+beta=-2.0\n")


@pytest.mark.parametrize("argv, message", [
    (("--family", "meixner", "--beta", "1.5", "--c", "0.4", "--gamma", "0",
      "--forms", "elementary", "--t", "2.5", "--x", "0.5"),
     "|t| = 2.5 is outside the validity disk |t| < 1"),
    (("--family", "charlier", "--a", "1.3", "--gamma", "0",
      "--forms", "elementary", "--t", "1.3", "--x", "-0.5"),
     "|t| = 1.3 is outside the validity disk |t| < |a| = 1.3"),
    (("--family", "laguerre", "--alpha", "0.8", "--gamma", "0",
      "--forms", "elementary", "--t", "1.0"),
     "|t| = 1 is outside the validity disk |t| < 1"),
    (("--family", "laguerre", "--alpha", "0.8", "--gamma", "0.8",
      "--forms", "diag", "--t", "1.0"),
     "|t| = 1 is outside the validity disk |t| < 1"),
], ids=["meixner-elementary", "charlier-elementary", "laguerre-elementary",
        "laguerre-diag"])
def test_gf_check_singular_t_exits_validation(capsys, argv, message):
    # The closed form is singular at this t; it used to end in a
    # ZeroDivisionError traceback (exit 1).
    code, out, err = run_cli(capsys, "gf-check", *argv)
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err == f"assocpoly: invalid input: {message}\n"


def _invalid(message):
    return EXIT_VALIDATION, f"assocpoly: invalid input: {message}\n"


@pytest.mark.parametrize("argv, expected", [
    (("--family", "charlier", "--a", "1.3", "--gamma", "0", "--forms", "ode",
      "--t", "1.3", "--x", "-0.5"),
     _invalid("|t| = 1.3 is outside the validity disk |t| < |a| = 1.3")),
    (("--family", "charlier", "--a", "1.3", "--gamma", "0.5", "--forms",
      "ode", "--t", "1.3", "--x", "-0.5"),
     _invalid("|t| = 1.3 is outside the validity disk |t| < |a| = 1.3")),
    # Only t must lie in the disk: at |t| = 1.2999 < |a| = 1.3 the gamma =
    # 0 row is checked, while at gamma = 0.5 Phi1 at u = 0.99992 does not
    # converge in 10,000 terms.
    (("--family", "charlier", "--a", "1.3", "--gamma", "0", "--forms", "ode",
      "--t", "1.2999", "--x", "-0.5"),
     (EXIT_OK, "gf-check --family charlier: 1 passed, 0 failed (worst "
               "gf-charlier-ode: rel 0.000e+00)\n")),
    (("--family", "charlier", "--a", "1.3", "--gamma", "0.5", "--forms",
      "ode", "--t", "1.2999", "--x", "-0.5"),
     (EXIT_NUMERICAL, "assocpoly: numerical failure: Phi1 series did not "
                      "converge in 10000 terms\n")),
    (("--family", "charlier", "--a", "1.3", "--gamma", "0.5", "--forms",
      "weighted", "--t", "1.5"),
     _invalid("|t| = 1.5 is outside the validity disk |t| < |a| = 1.3")),
    (("--family", "meixner", "--beta", "1.5", "--c", "0.4", "--gamma", "0.5",
      "--forms", "weighted", "--t", "1.2"),
     _invalid("|t| = 1.2 is outside the validity disk |t| < 1")),
    (("--family", "laguerre", "--alpha", "0.8", "--gamma", "0.5", "--forms",
      "weighted", "--t", "1.2"),
     _invalid("|t| = 1.2 is outside the validity disk |t| < 1")),
], ids=["ode-t-at-a", "ode-t-at-a-shifted", "ode-stencil",
        "ode-stencil-shifted", "charlier-weighted", "meixner-weighted",
        "laguerre-weighted"])
def test_gf_check_ode_and_weighted_rows_check_their_disk(capsys, argv,
                                                         expected):
    # These used to end in a ZeroDivisionError traceback, name a point
    # other than t, refuse a t inside the disk, or exit 3 from a diverging
    # left side.
    code, out, err = run_cli(capsys, "gf-check", *argv)
    assert (code, err) == expected
    if code == EXIT_OK:
        header, [row] = parse_csv(out)
        assert csv_value(header, row, "passed") == "true"
    else:
        assert out == ""


def test_gf_check_explicit_inapplicable_form_exits_validation(capsys):
    code, _, err = run_cli(
        capsys, "gf-check", "--family", "meixner", "--beta", "1.5", "--c",
        "0.4", "--gamma", "0", "--forms", "integral",
    )
    assert code == EXIT_VALIDATION
    assert "not applicable" in err


def test_gf_check_sums_the_series_below_its_tolerance(capsys):
    # A fixed 1e-9 tail stopped this series at N = 60, 6.3e-13 off: a false
    # FAIL against --rel-tol 1e-13.
    code, out, _ = run_cli(
        capsys, "gf-check", "--family", "charlier", "--a", "1.3", "--gamma",
        "0.5", "--x", "0.5", "--t", "0.9", "--rel-tol", "1e-13", "--forms",
        "phi1",
    )
    assert code == EXIT_OK
    header, [row] = parse_csv(out)
    assert json.loads(csv_value(header, row, "point"))["N"] == 120
    assert float(csv_value(header, row, "rel_discrepancy")) < 1e-13


def test_gf_check_unreachable_tolerance_exits_failed(capsys):
    code, _, err = run_cli(
        capsys, "gf-check", "--family", "laguerre", "--alpha", "0.7",
        "--gamma", "0.4", "--rel-tol", "1e-18",
    )
    assert code == EXIT_VERIFY_FAILED
    # Each failing row is listed, as verify lists its own.
    assert err.splitlines() == [
        "gf-check --family laguerre: 0 passed, 4 failed (worst "
        "weighted-gf-laguerre: rel 2.182e-16)",
        "  FAIL gf-laguerre-phi1 at {'x': 0.5, 't': 0.05, 'gamma': 0.4, "
        "'alpha': 0.7, 'N': 60}: rel 2.065e-16 > 1.0e-18",
        "  FAIL weighted-gf-laguerre at {'x': 0.5, 't': 0.05, 'gamma': 0.4, "
        "'N': 60}: rel 2.182e-16 > 1.0e-18",
        "  FAIL gf-laguerre-phi1 at {'x': 0.5, 't': 0.1, 'gamma': 0.4, "
        "'alpha': 0.7, 'N': 60}: rel 1.915e-16 > 1.0e-18",
        "  FAIL weighted-gf-laguerre at {'x': 0.5, 't': 0.1, 'gamma': 0.4, "
        "'N': 60}: rel 2.143e-16 > 1.0e-18",
    ]


@pytest.mark.parametrize("argv, forms", [
    (("meixner", "--beta", "1.5", "--c", "0.4", "--gamma", "0"),
     ["gf-meixner-appell", "gf-meixner-alt", "gf-meixner-elementary"]),
    (("meixner", "--beta", "1.5", "--c", "0.4", "--gamma", "0.7"),
     ["gf-meixner-appell", "gf-meixner-alt", "gf-meixner-integral",
      "weighted-gf-meixner"]),
    (("charlier", "--a", "2", "--gamma", "0"),
     ["gf-charlier-phi1", "gf-charlier-elementary", "gf-charlier-ode"]),
    (("charlier", "--a", "2", "--gamma", "0.7"),
     ["gf-charlier-phi1", "gf-charlier-integral", "weighted-gf-charlier",
      "gf-charlier-ode"]),
    (("laguerre", "--alpha", "0.8", "--gamma", "0"),
     ["gf-laguerre-phi1", "gf-laguerre-elementary"]),
    (("laguerre", "--alpha", "0.8", "--gamma", "0.7"),
     ["gf-laguerre-phi1", "weighted-gf-laguerre"]),
    (("laguerre", "--alpha", "0.8", "--gamma", "0.8"),
     ["gf-laguerre-phi1", "weighted-gf-laguerre", "gf-laguerre-diag"]),
    # gamma = alpha = 0 is not diagonal: its series divides by n + gamma = 0.
    (("laguerre", "--alpha", "0", "--gamma", "0"),
     ["gf-laguerre-phi1", "gf-laguerre-elementary"]),
], ids=["meixner-0", "meixner-shifted", "charlier-0", "charlier-shifted",
        "laguerre-0", "laguerre-shifted", "laguerre-diagonal",
        "laguerre-0-0"])
def test_gf_check_all_runs_each_applicable_form_in_order(capsys, argv, forms):
    code, out, _ = run_cli(capsys, "gf-check", "--family", *argv, "--t",
                           "0.1")
    assert code == EXIT_OK
    header, data = parse_csv(out)
    assert [csv_value(header, row, "identity_id") for row in data] == forms


# ---------------------------------------------------------------------------
# mh-study
# ---------------------------------------------------------------------------


def test_mh_study_csv_layout_and_limit(capsys):
    code, out, _ = run_cli(
        capsys, "mh-study", "--family", "charlier", "--a", "1", "--gamma",
        "0", "--x", "-0.5", "--checkpoints", "50", "100", "200", "400",
    )
    assert code == EXIT_OK
    header, data = parse_csv(out)
    assert header == ["n", "scaled_value_re", "scaled_value_im", "limit_re",
                      "limit_im", "abs_error"]
    summary, samples = data[-1], data[:-1]
    assert [row[0] for row in samples] == ["50", "100", "200", "400"]
    limits = {csv_value(header, row, "limit_re") for row in samples}
    assert len(limits) == 1
    assert float(limits.pop()) == pytest.approx(
        math.e / math.sqrt(math.pi), rel=1e-12
    )
    assert summary[0] == "monotone_tail"
    assert csv_value(header, summary, "abs_error") == "true"


def test_mh_study_json_summary(capsys):
    code, out, _ = run_cli(
        capsys, "mh-study", "--family", "meixner", "--beta", "1.5", "--c",
        "0.4", "--gamma", "0.7", "--x", "0.4", "--checkpoints", "10", "20",
        "--output", "json",
    )
    assert code == EXIT_OK
    records = json.loads(out)
    assert len(records) == 3
    assert records[-1] == {"monotone_tail": True}
    assert records[0]["n"] == 10


def test_mh_study_at_scaling_pole_exits_numerical(capsys):
    code, _, err = run_cli(
        capsys, "mh-study", "--family", "charlier", "--a", "1", "--gamma",
        "0.5", "--x", "0.5",
    )
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in err


def test_mh_study_where_the_correction_2f1_has_a_pole(capsys):
    # The study's ratio diagnostic has a gamma pole at 2 + x - gamma = -1;
    # the study itself is defined there and is printed.
    code, out, err = run_cli(
        capsys, "mh-study", "--family", "meixner", "--beta", "1.5", "--c",
        "0.4", "--gamma", "0.7", "--x", "-2.3",
    )
    assert code == EXIT_OK, err
    header, data = parse_csv(out)
    assert [row[0] for row in data] == ["50", "100", "200", "400",
                                        "monotone_tail"]
    assert float(csv_value(header, data[0], "limit_re")) == pytest.approx(
        0.40659, abs=1e-5)
    assert csv_value(header, data[-1], "abs_error") == "true"


def test_mh_study_bad_checkpoints_exit_validation(capsys):
    code, _, _ = run_cli(
        capsys, "mh-study", "--family", "charlier", "--a", "1", "--gamma",
        "0", "--x", "-0.5", "--checkpoints", "100", "50",
    )
    assert code == EXIT_VALIDATION


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def test_out_flag_writes_identical_bytes(tmp_path, capsys):
    target = tmp_path / "table.csv"
    args = ["table", "--family", "charlier", "--a", "2", "--gamma", "0.7",
            "--x", "0.9", "--n-max", "5"]
    code, out, _ = run_cli(capsys, *args)
    assert code == EXIT_OK
    code2 = main(args + ["--out", str(target)])
    capsys.readouterr()
    assert code2 == EXIT_OK
    assert target.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("argv", [
    ["eval", *_CHARLIER, "--x", "0.5", "--n", "2"],
    ["table", *_CHARLIER, "--x", "0.5"],
    ["gf-check", *_CHARLIER],
    ["mh-study", *_CHARLIER, "--x", "0.5"],
], ids=lambda argv: argv[0])
def test_only_verify_takes_seed(capsys, argv):
    # The other four took --seed and read it only for the CSV seed line.
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--seed", "7"])
    assert excinfo.value.code == EXIT_VALIDATION
    assert ("error: unrecognized arguments: --seed 7"
            in capsys.readouterr().err)


def test_csv_seed_line_follows_flag(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--set", "convolutions", "--seed", "7",
    )
    assert code == EXIT_OK
    assert out.splitlines()[0] == "# seed=7"


def test_module_entry_point_runs_as_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "assocpoly", "eval", "--family", "charlier",
         "--a", "2", "--gamma", "0", "--x", "1", "--n", "1", "--output",
         "json"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    record = json.loads(result.stdout)[0]
    assert record["value_re"] == pytest.approx(0.5, rel=1e-14)


# The package modules that a cold run of one route loads.
_ROUTE_MODULES = {
    "assocpoly.cli", "assocpoly.errors", "assocpoly.hyperkernel",
    "assocpoly.recurrences", "assocpoly.closedforms", "assocpoly.report",
}
# A fresh ``python -m assocpoly`` for one route of each family, and a table,
# each beside the package modules it loads: the Meixner 4f3 sum escalates,
# so that run loads the certified engine too.
COLD_RUNS = [
    (["eval", "--family", "meixner", "--beta", "1.5", "--c", "0.4", "--gamma",
      "0.7", "--x", "0.5", "--n", "6", "--rep", "4f3"],
     _ROUTE_MODULES | {"assocpoly.certified"}),
    (["eval", "--family", "charlier", "--a", "2", "--gamma", "0.7", "--x",
      "0.5+0.1j", "--n", "6", "--rep", "3f2"], _ROUTE_MODULES),
    (["eval", "--family", "laguerre", "--alpha", "0.7", "--gamma", "0.7",
      "--x", "0.5", "--n", "6", "--rep", "3f2-rahman"], _ROUTE_MODULES),
    (["eval", "--family", "meixner-pollaczek", "--nu", "0.7", "--phi", "1.1",
      "--gamma", "0.7", "--x", "0.5", "--n", "6", "--rep", "connection"],
     _ROUTE_MODULES),
    (["table", "--family", "meixner", "--beta", "1.5", "--c", "0.4",
      "--gamma", "0.7", "--x", "0.5", "1+1j", "--n-max", "5", "--rep",
      "quadratic"], _ROUTE_MODULES),
]
# Runs the package as ``python -m assocpoly`` does, then lists on stderr
# every module the process holds.
_LIST_MODULES_AFTER_RUN = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('assocpoly', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    print(*sorted(sys.modules), file=sys.stderr)\n"
)


def _run_cold(*argv):
    """A fresh ``python -m assocpoly`` run, and the modules it held."""
    result = subprocess.run(
        [sys.executable, "-c", _LIST_MODULES_AFTER_RUN, *argv],
        capture_output=True, text=True, timeout=120,
    )
    return result, set(result.stderr.split())


@pytest.mark.parametrize("argv, expected", COLD_RUNS,
                         ids=[f"{argv[0]}-{argv[2]}" for argv, _ in COLD_RUNS])
def test_cold_eval_and_table_load_only_the_modules_they_run(capsys, argv,
                                                            expected):
    result, modules = _run_cold(*argv)
    assert result.returncode == EXIT_OK, result.stderr
    assert {m for m in modules if m.startswith("assocpoly.")} == expected
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert result.stdout == out


# Standard modules that only start-up machinery or exact arithmetic need.
_HEAVY_MODULES = {"dataclasses", "inspect", "fractions"}


def test_cold_eval_loads_no_dataclasses_inspect_or_fractions():
    # Compared with a bare interpreter, so that whatever the site hooks of
    # this installation import does not count.
    bare = subprocess.run(
        [sys.executable, "-c", "import sys; print(*sys.modules)"],
        capture_output=True, text=True, timeout=120,
    )
    assert bare.returncode == 0, bare.stderr
    result, modules = _run_cold(
        "eval", "--family", "meixner", "--beta", "1.5", "--c", "0.4",
        "--x", "0.3", "--n", "5", "--rep", "4f3")
    assert result.returncode == EXIT_OK, result.stderr
    assert not (modules - set(bare.stdout.split())) & _HEAVY_MODULES
    assert "assocpoly.certified" not in modules


def test_cold_escalating_eval_imports_fractions_and_keeps_its_value():
    # This double sum's condition estimate passes the escalation threshold,
    # so its value comes from the exact engine.
    result, modules = _run_cold(
        "eval", "--family", "laguerre", "--alpha", "0.5", "--x", "2.5",
        "--n", "25", "--rep", "3f2")
    assert result.returncode == EXIT_OK, result.stderr
    assert "fractions" in modules
    assert "assocpoly.certified" in modules
    assert result.stdout.splitlines()[-1] == (
        "laguerre,3f2,25,2.5,0,-0.33917090885152401,0,26,"
        "1.3093375589133081e-15")


# One valid command line per subcommand.
PARSER_SAMPLES = [
    ["eval", "--family", "meixner", "--beta", "1.5", "--c", "0.4", "--x",
     "0.5+0.1j", "--n", "3", "--rep", "4f3", "--output", "json"],
    ["table", "--family", "charlier", "--a", "2", "--x", "0.5", "1.5",
     "--n-max", "4"],
    ["verify", "--set", "finite-sums", "--n-max", "5", "--rel-tol", "1e-9"],
    ["gf-check", "--family", "laguerre", "--alpha", "0.7", "--t", "0.1",
     "--forms", "plain"],
    ["mh-study", "--family", "charlier", "--a", "1", "--x", "-0.5",
     "--checkpoints", "50", "100", "--out", "study.csv"],
]


def _parse(parser, argv):
    """(exit code, stdout, stderr, Namespace) of parsing ``argv``; the code
    is None when parsing returns, and the Namespace None when it exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue(), None
    return None, out.getvalue(), err.getvalue(), args


@pytest.mark.parametrize("argv", PARSER_SAMPLES, ids=lambda argv: argv[0])
def test_one_subcommand_parser_matches_the_full_parser(argv):
    command = argv[0]
    full = build_parser()
    help_full = _parse(full, [command, "--help"])
    assert help_full[0] == 0 and help_full[1].startswith("usage: assocpoly")
    assert _parse(build_parser(command), [command, "--help"]) == help_full
    parsed = _parse(build_parser(command), argv)
    assert parsed[0] is None
    assert parsed == _parse(full, argv)


@pytest.mark.parametrize("argv, code, text", [
    (["--help"], 0, "{eval,table,verify,gf-check,mh-study}"),
    (["bogus"], 2, "invalid choice: 'bogus'"),
    (["eval"], 2, "the following arguments are required: --family, --n"),
    ([], 2, "the following arguments are required: command"),
], ids=["help", "bogus", "eval-no-flags", "empty"])
def test_main_prints_what_the_full_parser_prints(capsys, argv, code, text):
    expected = _parse(build_parser(), argv)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    out, err = capsys.readouterr()
    assert (excinfo.value.code, out, err) == expected[:3]
    assert expected[0] == code
    assert text in out + err


def _perfbench_spans():
    """perfbench's span recorders, loaded from their file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_tracer_times_the_cli_and_restores_it(capsys):
    # perfbench patches every name of spans.CLI_ROUTES on the cli module
    # without checking that it exists, so each must stay a module global.
    spans = _perfbench_spans()
    modules = [importlib.import_module(name) for name in spans._MODULES]
    names = {*spans.SPANS, *spans.CLI_ROUTES}

    def bound():
        return {(module.__name__, name): getattr(module, name)
                for module in modules for name in names
                if hasattr(module, name)}

    before = bound()
    tracer = spans.Tracer().install()
    try:
        code, out, _ = run_cli(
            capsys, "eval", "--family", "meixner", "--beta", "1.5", "--c",
            "0.4", "--gamma", "0.7", "--x", "0.5", "--n", "6", "--rep", "4f3",
        )
    finally:
        tracer.remove()
    assert code == EXIT_OK
    # The value and its cross-check against the recurrence.
    assert tracer.spans["cli.route"].calls == 2
    assert tracer.spans["closedforms.meixner_4f3"].calls == 1
    after = bound()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_cold_process_loads_no_scipy_and_keeps_gamma_bits():
    # A fresh interpreter imports the package and the CLI and runs the gamma
    # paths (complex and negative real gamma_value, the connection and z = 1
    # branches of gauss_2f1) without loading scipy or numpy, and gets the
    # same bits as the same calls in this process.
    script = (
        "import sys\n"
        "import assocpoly, assocpoly.cli\n"
        "from assocpoly import gamma_value, gauss_2f1\n"
        "print(repr(gamma_value(0.5 + 0.5j)))\n"
        "print(repr(gamma_value(-2.5)))\n"
        "print(repr(gauss_2f1(0.3, 1.2, 2.1, -3.0).value))\n"
        "print(repr(gauss_2f1(0.3, 0.4, 2.0, 1.0).value))\n"
        "loaded = [m for m in sys.modules\n"
        "          if m.split('.')[0] in ('scipy', 'numpy')]\n"
        "assert not loaded, loaded\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        repr(gamma_value(0.5 + 0.5j)),
        repr(gamma_value(-2.5)),
        repr(gauss_2f1(0.3, 1.2, 2.1, -3.0).value),
        repr(gauss_2f1(0.3, 0.4, 2.0, 1.0).value),
    ]
