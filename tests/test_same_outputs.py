"""Smoke test of ``tools/same_outputs.py``, the command-line byte-identity check."""

import importlib.util
import io
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)

_CHEAP = [["--help"], ["bogus"]]


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
