"""The benchmark's traced run rebinds module-level names in bimc; a
refactor that renames or inlines one of them silently drops its spans."""

import ast
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# hooks for constructions that were merged into determinize and squared,
# whose spans those names now cover
STALE = {"bimc.compiler.determinize_eps", "bimc.functionality.squared_eps"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_hook_resolves():
    assert set(load_tracing().absent_hooks()) <= STALE


def imported_but_not_called(module: str, name: str) -> bool:
    """Whether module imports name without calling it: a hook on the name
    would then still resolve, but no longer see a call."""
    tree = ast.parse(Path(importlib.util.find_spec(module).origin).read_text(encoding="utf-8"))
    imports = [a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for a in node.names]
    calls = [node.func.id for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    return name in imports and name not in calls


def test_every_imported_hook_is_called_where_it_is_imported():
    hooks = [(module, attr) for module, attr, _, _ in load_tracing().HOOKS if "." not in attr]
    assert [f"{m}.{a}" for m, a in hooks if imported_but_not_called(m, a)] == []
