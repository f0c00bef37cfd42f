"""The engine's distance history is read only through its public types."""

import ast
from pathlib import Path

import objident

PACKAGE = Path(objident.__file__).parent


def private_engine_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                (node.level and node.module == "engine") or node.module == "objident.engine"):
            found += [f"import {a.name}" for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr == "_replay":
            found.append(f"line {node.lineno}: ._replay")
    return found


def test_only_the_engine_uses_its_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    # The engine itself reads the replay through the guarded attribute, so
    # the guard is aimed at a name that exists.
    own = private_engine_uses(ast.parse((PACKAGE / "engine.py").read_text()))
    assert any(use.endswith("._replay") for use in own)
    offenders = {path.name: private_engine_uses(ast.parse(path.read_text()))
                 for path in modules if path.name != "engine.py"}
    assert {name: uses for name, uses in offenders.items() if uses} == {}


def test_guard_sees_both_kinds_of_use():
    source = ("from .engine import MergeRound, _ClusterTable\n"
              "from objident.engine import _ExactKeys\n"
              "replay = rounds[0]._replay\n")
    assert private_engine_uses(ast.parse(source)) == [
        "import _ClusterTable", "import _ExactKeys", "line 3: ._replay"]
