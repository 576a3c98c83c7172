"""Every class in `errors.py` is raised somewhere in the library, or is a base
(direct or not) of a raised class that some `except` clause names.

A base that nothing raises and nothing catches only adds a name to the
hierarchy.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "efxlab"


def _names(node: ast.AST | None) -> set[str]:
    """Every name and attribute name inside `node`, so `errors.X` and `(X, Y)` count too."""
    if node is None:
        return set()
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))}


def _raised_and_caught(trees: list[ast.AST]) -> tuple[set[str], set[str]]:
    """Names in `raise` statements, and names in `except` clauses."""
    raised: set[str] = set()
    caught: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                raised |= _names(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
            elif isinstance(node, ast.ExceptHandler):
                caught |= _names(node.type)
    return raised, caught


def _unused(errors: ast.AST, trees: list[ast.AST]) -> list[str]:
    """Classes of `errors` that are neither raised nor a caught ancestor of a raised class."""
    raised, caught = _raised_and_caught(trees)
    classes = [node for node in ast.walk(errors) if isinstance(node, ast.ClassDef)]
    bases = {node.name: set().union(*map(_names, node.bases)) for node in classes}
    ancestors: set[str] = set()
    pending = [name for name in bases if name in raised]
    while pending:
        new = bases.get(pending.pop(), set()) - ancestors
        ancestors |= new
        pending += new
    return [name for name in bases if name not in raised and not (name in caught and name in ancestors)]


def test_every_error_class_is_raised_or_a_caught_base():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SOURCE.glob("*.py"))]
    errors = ast.parse((SOURCE / "errors.py").read_text(encoding="utf-8"))
    assert _unused(errors, trees) == []


def test_the_walk_flags_an_unraised_base_and_an_uncaught_one():
    """The walk sees raises and catches, so an empty list is not a blind walk."""
    errors = ast.parse(
        "class Root(Exception): pass\n"
        "class Group(Root): pass\n"
        "class Leaf(Group): pass\n"
        "class Idle(Root): pass\n"
    )
    use = ast.parse("try:\n    raise errors.Leaf('x')\nexcept (Root, OSError):\n    pass\n")
    assert _unused(errors, [use]) == ["Group", "Idle"]
    assert _unused(errors, [use, ast.parse("try:\n    pass\nexcept Group:\n    pass\n")]) == ["Idle"]
