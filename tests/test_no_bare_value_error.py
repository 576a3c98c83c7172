"""No library module raises a bare `ValueError`: a bad argument ends in a typed `EfxLabError`.

Two functions keep `ValueError` by design: `dimacs.read_integer` mirrors `int`, and
`smtlib.tokenize_balanced` checks the library's own SMT text.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "efxlab"
ALLOWED = {("dimacs.py", "read_integer"), ("smtlib.py", "tokenize_balanced")}


def _bare_value_errors(path: Path) -> list[tuple[str, int]]:
    """(enclosing function, line) of each `raise ValueError` or `raise ValueError(...)`."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                raised = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(raised, ast.Name) and raised.id == "ValueError":
                    found.append((function, child.lineno))
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_only_the_two_parsers_raise_a_bare_value_error():
    stray = [
        (path.name, function, line)
        for path in sorted(SOURCE.glob("*.py"))
        for function, line in _bare_value_errors(path)
        if (path.name, function) not in ALLOWED
    ]
    assert stray == []


def test_the_two_parsers_are_still_found():
    """The walk finds the allowed raises, so an empty `stray` list is not a blind walk."""
    seen = {(name, function) for name, _ in ALLOWED for function, _ in _bare_value_errors(SOURCE / name)}
    assert seen == ALLOWED
