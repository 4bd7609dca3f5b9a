import pytest

# helpers.py holds oracle checks written as asserts; rewriting them, as
# pytest does for the test modules, keeps them running under python -O
pytest.register_assert_rewrite("helpers")
