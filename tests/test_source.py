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
