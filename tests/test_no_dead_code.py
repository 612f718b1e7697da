"""Every module-level private function, class and constant in the package is used.

A name that starts with one underscore is private to the package, so a
module-level function, class or assigned name that nothing in
``src/lbound`` refers to, apart from its own definition, is dead code.
Likewise an error class that no ``raise`` in the package names.
"""

from __future__ import annotations

import ast
import pathlib
from collections import Counter

import lbound

PACKAGE = pathlib.Path(lbound.__file__).resolve().parent


def _names(tree: ast.AST) -> Counter:
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _defined(stmt: ast.stmt) -> list[str]:
    """Names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text("utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_every_private_function_is_referenced():
    trees = _trees()
    used = sum((_names(tree) for tree in trees.values()), Counter())
    dead = [f"{module}:{name}"
            for module, tree in trees.items()
            for stmt in tree.body
            for name in _defined(stmt)
            if _private(name) and used[name] - _names(stmt)[name] <= 0]
    assert dead == []


def _raised(tree: ast.AST) -> set[str]:
    """Class names that a ``raise`` statement instantiates or names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    return names


def test_every_error_class_is_raised():
    trees = _trees()
    raised = set().union(*map(_raised, trees.values()))
    classes = [stmt.name for stmt in trees["errors.py"].body if isinstance(stmt, ast.ClassDef)]
    assert classes[0] == "LboundError"
    assert [name for name in classes[1:] if name not in raised] == []
