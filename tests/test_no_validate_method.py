"""No library module defines or calls a method named `validate`.

A record checks itself when it is made, in `__post_init__` (`Allocation`,
`RankValuation`, `RealValuation`, `EncodeOptions`), so no object that skipped
its check can reach an entry point, and no caller checks it again.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "efxlab"


def _validate_lines(tree: ast.AST) -> list[int]:
    """Lines of each function named `validate` and each call of one, `x.validate()` or `validate()`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "validate":
            found.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "validate":
                found.append(node.lineno)
    return sorted(found)


def test_no_module_defines_or_calls_validate():
    stray = [
        (path.name, line)
        for path in sorted(SOURCE.glob("*.py"))
        for line in _validate_lines(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert stray == []


def test_the_walk_finds_a_definition_and_both_kinds_of_call():
    """The walk sees what it looks for, so an empty `stray` list is not a blind walk."""
    source = "class A:\n    def validate(self):\n        pass\n\nA().validate()\nvalidate(A())\n"
    assert _validate_lines(ast.parse(source)) == [2, 5, 6]
