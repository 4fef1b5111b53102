"""Every name a module under src/cagop imports is read by that module.

The one exception is a name the benchmark's tracer wraps in that module
(``TARGETS`` in benchmarks/tracing.py): the tracer swaps the module's
attribute, so the import must stay although the module never reads it.
Package ``__init__`` files re-export names and are not checked.
"""

import ast
from pathlib import Path

from conftest import load_benchmark_module

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cagop"


def unread_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression loads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_unread_imports_finds_what_it_should():
    source = ("from __future__ import annotations\nimport os.path\n"
              "import numpy as np\nfrom .x import a, b as c\nprint(a, os)\n")
    assert unread_imports(source) == ["np", "c"]


def test_modules_read_every_name_they_import():
    traced = {(module, attr) for module, attr, *_ in load_benchmark_module("tracing").TARGETS}
    unread = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        names = [name for name in unread_imports(path.read_text())
                 if (module, name) not in traced]
        if names:
            unread[module] = names
    assert unread == {}
