"""Each finding's toggle is switched in one place, so it changes only its own finding.

Every ``EngineMode`` field is loaded as an attribute in exactly one function of
``src/tdxmodel``.  ``v1`` models two pre-fix defects, so it is loaded in exactly
the two functions listed below, each with its reason.  A function is named
``module.Class.function``; a load outside any function is named by its module
or class.
"""

import ast
import pathlib
from dataclasses import fields

from tdxmodel.engine import EngineMode

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "tdxmodel"

# The toggle read in two functions: function -> the defect it switches there.
TWO_READS = {
    "v1": {
        "engine.TdxModule.__init__": "compiles the gate's edge table under the START_IMPORT rule",
        "engine.TdxModule.tdh_mng_init": "chooses whether a refused init is rolled back",
    },
}


def _readers() -> dict[str, set[str]]:
    """toggle -> the functions of src/tdxmodel that load it as an attribute."""
    toggles = {f.name for f in fields(EngineMode)}
    readers = {name: set() for name in toggles}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load)
                    and child.attr in toggles):
                readers[child.attr].add(scope)
            visit(child, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return readers


def test_each_toggle_is_read_in_one_function():
    wrong = {}
    for name, functions in _readers().items():
        expected = set(TWO_READS.get(name, ()))
        if functions != expected if expected else len(functions) != 1:
            wrong[name] = sorted(functions)
    assert not wrong, f"toggles read in other than their own place(s): {wrong}"
