"""The benchmark's traced-run tracer names spanembed functions and methods
by string; each name must still resolve, or every traced run breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("module, function", tracer.FUNCTIONS)
def test_traced_function_resolves(module, function):
    owner = importlib.import_module(f"spanembed.{module}")
    assert callable(getattr(owner, function, None)), f"spanembed.{module}.{function}"


@pytest.mark.parametrize("module, cls, method", tracer.METHODS + tracer.AGGREGATED)
def test_traced_method_resolves(module, cls, method):
    owner = getattr(importlib.import_module(f"spanembed.{module}"), cls)
    # the tracer patches the class attribute itself
    assert callable(owner.__dict__.get(method)), f"spanembed.{module}.{cls}.{method}"


def test_tracer_finds_every_binding():
    names = {name for _, _, _, name in tracer.Tracer().targets()}
    expected = {f"{m}.{f}" for m, f in tracer.FUNCTIONS} | {
        f"{m}.{c}.{f}" for m, c, f in tracer.METHODS + tracer.AGGREGATED
    }
    assert names == expected
