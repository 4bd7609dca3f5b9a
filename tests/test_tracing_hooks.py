"""The benchmark's traced run rebinds module-level names in bimc; a
refactor that renames or inlines one of them silently drops its spans."""

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
