"""Every module reads each name it imports.

A standard-library check, since no linter is a dependency: ``ast`` finds
the names that each module under ``src/crashguard``, ``tests``, ``scripts``
and ``demos`` binds by an import, and fails on those it never reads.  A
package's ``__init__.py`` imports to re-export, a name in ``__all__`` is
exported, and ``from __future__`` imports are compiler directives, so none
of these counts as unused.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src/crashguard", "tests", "scripts", "demos")
                 for path in (ROOT / folder).rglob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name that ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.partition(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for line, name in imported if name not in read)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import json.decoder\n"
        "from math import pi, tau as turn\n"
        "__all__ = ['pi']\n"
        "print(json.decoder, os)\n"
    )
    assert unused_imports(source) == [(2, "osp"), (4, "turn")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
