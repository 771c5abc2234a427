"""Command-line interface tests (in-process via main(argv))."""

import csv
import json
import math
import subprocess
import sys

import pytest

from assocpoly import gamma_ratio, gamma_value, gauss_2f1
from assocpoly.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    EXIT_VERIFY_FAILED,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out, seed=0):
    lines = out.splitlines()
    assert lines[0] == f"# seed={seed}"
    rows = list(csv.reader(lines[1:]))
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


def test_argparse_errors_exit_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["eval", "--family", "nonsense", "--n", "1"])
    assert excinfo.value.code == 2


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
# verify
# ---------------------------------------------------------------------------


def test_verify_convolutions_green_and_deterministic(capsys):
    code1, out1, err1 = run_cli(capsys, "verify", "--set", "convolutions")
    code2, out2, _ = run_cli(capsys, "verify", "--set", "convolutions")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert " 0 failed" in err1
    header, data = parse_csv(out1)
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
    assert "empty grid" in err


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


def test_gf_check_explicit_inapplicable_form_exits_validation(capsys):
    code, _, err = run_cli(
        capsys, "gf-check", "--family", "meixner", "--beta", "1.5", "--c",
        "0.4", "--gamma", "0", "--forms", "integral",
    )
    assert code == EXIT_VALIDATION
    assert "not applicable" in err


def test_gf_check_unreachable_tolerance_exits_failed(capsys):
    code, _, _ = run_cli(
        capsys, "gf-check", "--family", "laguerre", "--alpha", "0.7",
        "--gamma", "0.4", "--rel-tol", "1e-18",
    )
    assert code == EXIT_VERIFY_FAILED


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


def test_cold_process_loads_no_scipy_and_keeps_gamma_bits():
    # A fresh interpreter imports the package and the CLI and runs the gamma
    # paths (complex gamma_value, gamma_ratio, the connection and z = 1
    # branches of gauss_2f1) without loading scipy or numpy, and gets the
    # same bits as the same calls in this process.
    script = (
        "import sys\n"
        "import assocpoly, assocpoly.cli\n"
        "from assocpoly import gamma_ratio, gamma_value, gauss_2f1\n"
        "print(repr(gamma_value(0.5 + 0.5j)))\n"
        "print(repr(gamma_ratio(2.5, 0.7, -0.3)))\n"
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
        repr(gamma_ratio(2.5, 0.7, -0.3)),
        repr(gauss_2f1(0.3, 1.2, 2.1, -3.0).value),
        repr(gauss_2f1(0.3, 0.4, 2.0, 1.0).value),
    ]
