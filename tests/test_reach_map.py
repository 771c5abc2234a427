"""Smoke test of ``tools/reach_map.py``, the list of the package's functions
that no command and no benchmark operation enters."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "reach_map", ROOT / "tools" / "reach_map.py")
reach_map = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach_map)


def test_defined_functions_are_top_level_functions_and_methods():
    defined = {(Path(path).name, name)
               for path, _, name in reach_map.defined_functions()}
    assert {("hyperkernel.py", "gauss_2f1"), ("errors.py", "Record._replace"),
            ("verify.py", "_run_share")} <= defined
    # Neither a class body, nor a module, nor a function nested in another
    # (a closure, a lambda, a comprehension); a lambda of a module-level
    # table counts.
    assert ("errors.py", "Record") not in defined
    assert ("cli.py", "<lambda>") in defined
    assert not any("<locals>" in name or name in reach_map._PARTS
                   for _, name in defined)
