"""Every module-level private function in the package has a caller.

A function whose name starts with one underscore is private to the package,
so a name that nothing in ``src/lbound`` refers to, apart from the function
itself, is dead code.
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


def test_every_private_function_is_referenced():
    trees = {path.name: ast.parse(path.read_text("utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    dead = [f"{module}:{fn.name}"
            for module, tree in trees.items()
            for fn in tree.body
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and fn.name.startswith("_") and not fn.name.startswith("__")
            and used[fn.name] - _names(fn)[fn.name] <= 0]
    assert dead == []
