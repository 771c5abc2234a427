"""Smoke test of ``tools/same_outputs.py``, the byte-identity check of a change against its parent."""

import importlib.util
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)

_CHEAP = [["-m", "assocpoly", "--help"], ["-m", "assocpoly", "bogus"]]


def test_checkout_matches_itself():
    out = io.StringIO()
    assert same_outputs.compare(ROOT, ROOT, _CHEAP, out) == 0
    assert out.getvalue() == "2 of 2 invocations identical\n"


def test_stub_package_differs(tmp_path):
    package = tmp_path / "src" / "assocpoly"
    package.mkdir(parents=True)
    # A regular package, so it wins over an installed copy of the real one.
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text("print('stub')\n")
    out = io.StringIO()
    assert same_outputs.compare(tmp_path, ROOT, _CHEAP, out) == 2
    report = out.getvalue()
    assert "differs: assocpoly --help\n  stdout line 1: 'stub' -> " in report
    assert "differs: assocpoly bogus\n" in report
    assert report.endswith("0 of 2 invocations identical\n")


def test_invocations_end_with_the_warm_kernel_calls(monkeypatch):
    # Drawing the eval cases puts src and perfbench on sys.path and turns
    # bytecode writing off; both are restored after the test.
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    invocations = same_outputs.invocations()
    assert invocations[-1] is same_outputs.WARM_REPORTS
    assert all(args[:2] == ["-m", "assocpoly"] for args in invocations[:-1])


def test_warm_reports_cover_three_seeds(tmp_path):
    warm = same_outputs.run(ROOT, same_outputs.WARM_REPORTS)
    lines = warm[0].splitlines()
    assert (len(lines), warm[1], warm[2]) == (9000, "", 0)
    assert all(line.startswith(("gf-", "real-", "complex-", "mh-"))
               for line in lines)
    # A stub package fails on the first operation it draws.
    package = tmp_path / "src" / "assocpoly"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    stub = same_outputs.run(tmp_path, same_outputs.WARM_REPORTS)
    assert (same_outputs.first_difference(stub, warm)
            == "stdout line 1: 0 lines -> 9000 lines")
    assert (same_outputs.label(same_outputs.WARM_REPORTS)
            == "kernel-warm reports of seeds 1-3")


def test_first_difference_names_the_stream():
    same = ("a\nb\n", "", 0)
    assert same_outputs.first_difference(same, same) is None
    assert (same_outputs.first_difference(same, ("a\nc\n", "", 0))
            == "stdout line 2: 'b' -> 'c'")
    assert (same_outputs.first_difference(same, ("a\n", "", 0))
            == "stdout line 2: 2 lines -> 1 lines")
    assert (same_outputs.first_difference(same, ("a\nb", "", 0))
            == "stdout ends 'a\\nb\\n' -> 'a\\nb'")
    assert (same_outputs.first_difference(same, ("a\nb\n", "", 2))
            == "exit code 0 -> 2")
