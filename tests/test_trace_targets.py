"""The benchmark tracer wraps flowsplat functions by name; each name must still exist.

`perfbench/spans.py` is loaded read-only from its file, so a refactor that drops
or renames a wrapped method or function fails here too, not only in the
benchmark's own suite.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_method_exists(spans):
    assert spans.METHODS
    for cls, names in spans.METHODS:
        assert cls.__module__.startswith("flowsplat.")
        for name in names:
            assert callable(cls.__dict__.get(name)), f"{cls.__qualname__}.{name}"


def test_every_traced_function_exists_in_each_module_that_binds_it(spans):
    assert spans.FUNCTIONS
    for name, modules, _ in spans.FUNCTIONS:
        for module in modules:
            assert module.__name__.startswith("flowsplat.")
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
