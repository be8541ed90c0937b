"""The package's only runtime dependency is numpy, and importing it loads
no module that set-up does not need."""

import ast
import os
import pathlib
import subprocess
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


LEAN_IMPORT = """
import sys
import pce_loops, pce_loops.cli
lazy = ("concurrent.futures", "hashlib", "numpy.polynomial")
print([m for m in lazy if m in sys.modules])
from pce_loops.bench import run_appendix_b, run_table2
run_table2()
run_appendix_b()
print("numpy.polynomial" in sys.modules)
"""


def test_import_loads_no_module_set_up_does_not_need():
    # the thread pool and the digest import theirs where they are used, and
    # every Gauss rule, the panel rule too, comes from the recurrence kernel
    env = dict(os.environ)
    package_root = str(pathlib.Path(pce_loops.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", LEAN_IMPORT], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.split("\n")[:2] == ["[]", "False"]
