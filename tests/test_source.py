"""Checks over the package's own source."""

import ast
from pathlib import Path

import sgraph

SOURCES = sorted(Path(sgraph.__file__).parent.rglob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "search.py", "core.py"}


def test_no_assert_statements():
    # a check that guards a verdict must not vanish under python -O
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_unused_imports():
    # a name a module imports but never uses outlives the code that needed
    # it; __init__.py imports to re-export, and __future__ imports are flags
    found = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [
                    f"{path.name}:{node.lineno} {name}"
                    for alias in node.names
                    if (name := alias.asname or alias.name.split(".")[0]) not in used
                ]
    assert found == []
