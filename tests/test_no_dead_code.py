"""Every module-level function, class and private constant in the package is used.

A name that starts with one underscore is private to the package, so a
module-level function, class or assigned name that nothing in
``src/lbound`` refers to, apart from its own definition, is dead code,
and so is such a name defined in the body of a module-level class, a
private method among them.
A public function or class is dead when nothing in ``src/lbound``,
``tests/`` or ``bench/`` names it, unless the entry's dispatch table
``cli._COMMANDS`` names it as a command: the command line reaches it by
name. Likewise an error class that no ``raise`` in
the package names, and a record field that nothing in ``src/lbound``,
``tests/`` or ``bench/`` reads as an attribute. A record is a NamedTuple or
a class whose ``__init__`` stores each of its parameters; its fields are
what that ``__init__`` stores.

The benchmark's tracer (``bench/spans.py``) replaces each function it
traces on its module and under every name bound to it in a module it
lists, so no other module binds a traced function by name, and every
function and ``PerfDb`` method it names must exist.
"""

from __future__ import annotations

import ast
import importlib
import pathlib
from collections import Counter

import lbound
from lbound.perfdb import PerfDb

PACKAGE = pathlib.Path(lbound.__file__).resolve().parent
ROOT = PACKAGE.parent.parent


def _names(tree: ast.AST) -> Counter:
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _defined(stmt: ast.stmt) -> list[str]:
    """Names a module-level or class-level statement defines."""
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


def _outside_trees() -> list[ast.Module]:
    return [ast.parse(path.read_text("utf-8"))
            for folder in ("tests", "bench") for path in sorted((ROOT / folder).rglob("*.py"))]


def test_every_private_function_is_referenced():
    trees = _trees()
    used = sum((_names(tree) for tree in trees.values()), Counter())
    dead = [f"{module}:{name}"
            for module, tree in trees.items()
            for stmt in tree.body
            for name in _defined(stmt)
            if _private(name) and used[name] - _names(stmt)[name] <= 0]
    assert dead == []


def test_every_private_class_member_is_referenced():
    trees = _trees()
    used = sum((_names(tree) for tree in trees.values()), Counter())
    dead = [f"{module}:{cls.name}.{name}"
            for module, tree in trees.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for stmt in cls.body
            for name in _defined(stmt)
            if _private(name) and used[name] - _names(stmt)[name] <= 0]
    assert dead == []


def _dispatched(trees: dict[str, ast.Module]) -> set[str]:
    """``module:function`` of each command that ``cli._COMMANDS`` names."""
    table = next(ast.literal_eval(stmt.value) for stmt in trees["cli.py"].body
                 if isinstance(stmt, ast.Assign) and _defined(stmt) == ["_COMMANDS"])
    return {f"{module}.py:{name}" for name, (module, _summary) in table.items()}


def test_every_public_function_and_class_is_referenced():
    trees = _trees()
    used = sum(map(_names, [*trees.values(), *_outside_trees()]), Counter())
    dispatched = _dispatched(trees)
    dead = [f"{module}:{stmt.name}"
            for module, tree in trees.items()
            for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not _private(stmt.name) and f"{module}:{stmt.name}" not in dispatched
            and used[stmt.name] - _names(stmt)[stmt.name] <= 0]
    assert dead == []


def _init(cls: ast.ClassDef) -> ast.FunctionDef | None:
    return next((stmt for stmt in cls.body
                 if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"), None)


def _stored(init: ast.FunctionDef) -> set[str]:
    """Attributes an ``__init__`` stores on ``self``: by assignment, or
    through ``self._set("name", ...)`` in an immutable record."""
    stored = set()
    for node in ast.walk(init):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                and isinstance(node.value, ast.Name) and node.value.id == "self":
            stored.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "_set" and isinstance(node.args[0], ast.Constant):
            stored.add(node.args[0].value)
    return stored


def _params(init: ast.FunctionDef) -> list[ast.arg]:
    return init.args.args[1:] + init.args.kwonlyargs


def _record_classes(tree: ast.Module) -> dict[str, ast.ClassDef]:
    """Module-level records by name: NamedTuples, and classes whose
    ``__init__`` stores each of its parameters under its own name."""
    def is_record(stmt: ast.ClassDef) -> bool:
        if any(getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple"
               for base in stmt.bases):
            return True
        init = _init(stmt)
        return init is not None and bool(_params(init)) \
            and {arg.arg for arg in _params(init)} <= _stored(init)
    return {stmt.name: stmt for stmt in tree.body
            if isinstance(stmt, ast.ClassDef) and is_record(stmt)}


def _fields(cls: ast.ClassDef) -> list[str]:
    init = _init(cls)
    if init is not None:
        return sorted(_stored(init))
    return [stmt.target.id for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def _annotations(cls: ast.ClassDef) -> list[ast.expr]:
    init = _init(cls)
    if init is not None:
        return [arg.annotation for arg in _params(init) if arg.annotation is not None]
    return [stmt.annotation for stmt in cls.body if isinstance(stmt, ast.AnnAssign)]


def _rendered_by_vars(classes: dict[str, ast.ClassDef], root: str) -> set[str]:
    """``root`` and every record class its field annotations reach."""
    seen, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo += [node.id for annotation in _annotations(classes[name])
                 for node in ast.walk(annotation)
                 if isinstance(node, ast.Name) and node.id in classes]
    return seen


def test_every_record_field_is_read():
    """A record field that nothing reads as an attribute is dead.

    ``report_to_json`` renders the analysis report and the records it holds
    through ``vars``, so the JSON reads their fields; they are exempt.
    """
    trees = _trees()
    read = Counter(node.attr for tree in [*trees.values(), *_outside_trees()]
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    exempt = _rendered_by_vars(_record_classes(trees["analyzer.py"]), "AnalysisReport")
    unread = [f"{module}:{name}.{field}"
              for module, tree in trees.items()
              for name, cls in _record_classes(tree).items() if name not in exempt
              for field in _fields(cls) if not read[field]]
    assert unread == []


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


def _spans_table(name: str):
    """A module-level literal of ``bench/spans.py``, read without importing it."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text("utf-8"))
    return next(ast.literal_eval(stmt.value) for stmt in tree.body
                if isinstance(stmt, ast.Assign) and _defined(stmt) == [name])


def test_every_traced_name_exists():
    """Each function the tracer wraps is on its module, and each method on
    ``PerfDb``; a renamed one would otherwise fail only the traced bench run."""
    missing = [f"{module}.{name}" for module, names in _spans_table("FUNCTIONS").items()
               for name in names
               if not callable(getattr(importlib.import_module(f"lbound.{module}"), name, None))]
    missing += [f"perfdb.PerfDb.{method}" for method in _spans_table("METHODS").values()
                if not callable(getattr(PerfDb, method, None))]
    assert missing == []


def test_only_traced_layers_bind_a_traced_function_by_name():
    """A name bound outside the tracer's ``LAYERS`` keeps the unpatched function.

    Its calls would then drop out of the traced run without an error, so
    every other module, the command modules among them, calls a traced
    function through its module (``model_ir.load_model_file``).
    """
    layers, traced = _spans_table("LAYERS"), _spans_table("FUNCTIONS")
    bound = []
    for module, tree in _trees().items():
        if module.removesuffix(".py") in layers:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                source, names = node.module.removeprefix("lbound."), \
                    [alias.name for alias in node.names]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) \
                    and isinstance(node.value, ast.Attribute) \
                    and isinstance(node.value.value, ast.Name):
                source, names = node.value.value.id, [node.value.attr]
            else:
                continue
            bound += [f"{module}:{source}.{name}" for name in names
                      if name in traced.get(source, ())]
    assert bound == []


def _users(tree: ast.Module, name: str) -> list[str]:
    """The module-level function, class method or ``<module>`` statement
    around each reference to ``name``; imports do not count."""
    users = []
    for stmt in tree.body:
        for member in stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]:
            users += [getattr(member, "name", "<module>") for node in ast.walk(member)
                      if isinstance(node, ast.Name) and node.id == name
                      or isinstance(node, ast.Attribute) and node.attr == name]
    return users


def test_a_layer_is_inferred_from_a_graph_or_a_string_only():
    """``infer_layer`` runs in shape inference over a graph and in parsing a
    signature string only; every other consumer reads the ``Layer`` that a
    signature holds."""
    callers = sorted(f"{module}:{user}" for module, tree in _trees().items()
                     for user in _users(tree, "infer_layer"))
    assert callers == ["dedup.py:parse_signature", "model_ir.py:infer_shapes"]
