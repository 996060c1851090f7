"""Every public definition in `src/timelyhls` has a caller in `src/`.

A definition that only tests call can drift from the code the commands
run while its tests stay green, so the tests are pointed at the
production paths instead. Names are matched by text, so a definition
sharing its name with any variable or attribute in `src/` counts as
referenced.
"""

from __future__ import annotations

import ast
from pathlib import Path

import timelyhls

SRC = Path(timelyhls.__file__).parent

# the oracles the tests compare the search against
ALLOWED = {"brute_force", "objective"}


def _registered_by_click(node: ast.AST) -> bool:
    """Whether a function is a command or group: the callback of a
    decorator such as `@main.command()` or `@click.group()`."""
    for decorator in getattr(node, "decorator_list", ()):
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(func, ast.Attribute) and func.attr in ("command", "group"):
            return True
    return False


def _definitions(tree: ast.Module):
    """(name, line) of each module-level function and class and each method."""
    scopes = [tree.body]
    while scopes:
        for node in scopes.pop():
            if isinstance(node, ast.ClassDef):
                scopes.append(node.body)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not _registered_by_click(node):
                    yield node.name, node.lineno


def unreferenced() -> list[str]:
    """`module.name:line` of each public definition no Name or Attribute
    in `src/timelyhls` refers to."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [
        f"{path.stem}.{name}:{line}"
        for path, tree in trees.items()
        for name, line in _definitions(tree)
        if not name.startswith("_") and name not in used and name not in ALLOWED
    ]


def test_every_public_definition_has_a_caller_in_src():
    assert unreferenced() == []
