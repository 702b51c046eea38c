"""Every function that the benchmark's tracer patches exists in sparsect, so
a rename in `src/` fails here and not only in the benchmark's smoke test."""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module, function, span", _targets())
def test_traced_function_resolves(module, function, span):
    assert callable(getattr(importlib.import_module("sparsect." + module), function))
