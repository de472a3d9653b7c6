"""The benchmark tracer wraps flowsplat functions by name; each name must still exist.

`perfbench/spans.py` is loaded read-only from its file, so a refactor that drops
or renames a wrapped method or function fails here too, not only in the
benchmark's own suite.
"""

import importlib.util
from pathlib import Path

import pytest

from flowsplat import providers
from flowsplat.providers import (PrecomputedProviders, SceneSpec, SyntheticProviders,
                                 SyntheticScene, dump_providers)

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


def test_dspt_io_goes_through_the_module_functions_once_per_file(tmp_path, monkeypatch):
    """The benchmark counts DSPT files by wrapping `read_dspt`/`write_dspt` in the module."""
    calls = {"read_dspt": 0, "write_dspt": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(providers, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(providers, name, counted)
    synthetic = SyntheticProviders(SyntheticScene(SceneSpec(frames=12, height=8, width=8)))
    dump_providers(synthetic, tmp_path, [3], [(3, 4)])
    assert calls == {"read_dspt": 0, "write_dspt": 3}
    precomputed = PrecomputedProviders(tmp_path)
    for call, args in (("provide_correspondences", (3, 4)), ("provide_depth_prior", (3,)),
                       ("provide_place_feature", (3,))):
        before = calls["read_dspt"]
        getattr(precomputed, call)(*args)
        assert calls["read_dspt"] == before + 1, call
