import importlib
from pathlib import Path

import pytest

# helpers.py holds oracle checks written as asserts; rewriting them, as
# pytest does for the test modules, keeps them running under python -O
pytest.register_assert_rewrite("helpers")


@pytest.fixture
def perfbench_gen(monkeypatch):
    """The benchmark's seeded input generators, perfbench/gen.py, whose
    corpus(size) is the fixed random corpus."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("gen")
