"""Checks on the package's syntax trees, since no linter runs on the
sources.  Every module uses each name it imports; the package's
top-level __init__.py re-exports on purpose and __future__ imports are
directives, so both are exempt.  Every walk under the state budget is
named where the budget is documented."""

import ast
import re
from pathlib import Path

import pytest

from bimc.fsa import StateLimitExceeded

SRC = Path(__file__).resolve().parents[1] / "src" / "bimc"
MODULES = sorted(p for p in SRC.rglob("*.py") if p != SRC / "__init__.py")


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


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_module_uses_its_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def explore_names() -> set[str]:
    """The name literal, the third argument, of every explore call in the
    package: the names StateLimitExceeded messages give."""
    names = set()
    for module in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "explore":
                names.add(ast.literal_eval(node.args[2]))
    return names


def test_every_state_budget_walk_is_documented():
    names = explore_names()
    assert names == {
        "determinize", "squared", "unambiguous expansion", "epsilon closure", "path enumeration",
    }
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^### State budget\n(.*?)^#", readme, re.S | re.M).group(1)
    for doc in (section, StateLimitExceeded.__doc__):
        doc = " ".join(doc.split())  # names may wrap across lines
        assert [name for name in sorted(names) if name not in doc] == []
