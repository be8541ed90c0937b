"""The package's only runtime dependency is numpy."""

import ast
import pathlib
import sys

import pce_loops

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _absolute_imports(path):
    """Top-level package names that the module at path imports absolutely,
    with the line of each import."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0], node.lineno


def test_source_imports_only_stdlib_and_numpy():
    sources = sorted(pathlib.Path(pce_loops.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    offenders = [
        f"{path.name}:{line} imports {name}"
        for path in sources
        for name, line in _absolute_imports(path)
        if name not in ALLOWED
    ]
    assert offenders == []
