"""Checks over the package's own source."""

import ast
import os
import subprocess
import sys
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


def test_cli_import_leaves_multiprocessing_out():
    # only a fan-out over worker processes needs multiprocessing, so the
    # start-up of every command would otherwise pay for its import
    src = str(Path(sgraph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, sgraph.cli; print('multiprocessing' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout == "False\n"
