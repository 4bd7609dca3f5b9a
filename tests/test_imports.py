"""Every module of the package uses each name it imports.  No linter
runs on the sources, so this walks their syntax trees instead;
__init__.py re-exports on purpose and __future__ imports are
directives, so both are exempt."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bimc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names source imports but never reads, in order of import."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "import os.path\nfrom collections import defaultdict, deque as dq\ndq()\n"
    assert unused_imports(source) == ["os", "defaultdict"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []
