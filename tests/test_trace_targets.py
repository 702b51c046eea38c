"""Every function that the benchmark's tracer patches exists in sparsect, so
a rename in `src/` fails here and not only in the benchmark's smoke test,
and runs on its caller's thread, where the tracer's span stack lives."""

import importlib
import importlib.util
import os
import sys
import threading

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



def test_traced_functions_run_on_the_calling_thread(monkeypatch):
    """The tracer keeps one span stack, which is not thread-safe, so no
    function it patches may run on a kernel's worker thread.  At 128²/180
    every kernel splits in two, which `_band`, called in every part, shows."""
    from sparsect import fbp, projector
    from sparsect.numerics import Rng

    monkeypatch.setattr(projector, "_cpus", lambda: 2)
    calls, bands, open_spans = [], [], []

    def recording(fn, span):
        def wrapper(*args, **kwargs):
            calls.append((span, threading.get_ident()))
            open_spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                open_spans.pop()
        return wrapper

    def band(*args):
        bands.append((open_spans[-1], threading.get_ident()))
        return original_band(*args)
    namespaces = [m for k, m in sorted(sys.modules.items())
                  if k == "sparsect" or k.startswith("sparsect.")]
    for module, function, span in _targets():
        original = getattr(importlib.import_module("sparsect." + module), function)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    monkeypatch.setattr(ns, key, recording(original, span))
    original_band = projector._band
    monkeypatch.setattr(projector, "_band", band)

    geom = projector.uniform_geometry(128, 180)
    x = Rng(41).normal((128, 128))
    sino = projector.forward(projector.Image(x, geom.pixel_spacing), geom)
    fbp.fbp_reconstruct(sino)
    fbp.deconvolution_form(sino)
    caller = threading.get_ident()
    split = {span for span, ident in bands if ident != caller}
    assert split == {"projector.forward", "projector.backproject", "projector.pixel_driven"}
    assert [span for span, ident in calls if ident != caller] == []
