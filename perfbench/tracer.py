"""Span tracer that instruments sparsect from the outside.

`Tracer.install` replaces each traced public function with a wrapper in every
loaded `sparsect.*` module namespace that binds it (for example both
`projector.forward` and `sparse.forward`), because a module calls the name
bound in its own globals.  The closures returned by `normal_operator` and the
`grad_fn` of every autodiff op are wrapped as well.  Spans stay in memory as
`[name, start, end, parent, op, extra]` lists and are summarized, or written
out, after the run.
"""

import functools
import json
import sys
import time

import numpy as np

# (module, function, span name); several functions may share one span name
TARGETS = [
    ("projector", "forward", "projector.forward"),
    ("projector", "backproject_values", "projector.backproject"),
    ("projector", "backproject_pixel_driven", "projector.pixel_driven"),
    ("projector", "system_matrix", "projector.system_matrix"),
    ("projector", "normal_operator", "projector.normal_operator"),
    ("numerics", "fft_1d", "numerics.fft"),
    ("numerics", "fft_2d", "numerics.fft"),
    ("fbp", "make_ramp", "fbp.make_ramp"),
    ("fbp", "filter_views", "fbp.filter_views"),
    ("fbp", "fbp_reconstruct", "fbp.fbp_reconstruct"),
    ("fbp", "deconvolution_form", "fbp.deconvolution_form"),
    ("sparse", "estimate_lipschitz", "sparse.lipschitz"),
    ("sparse", "wavelet_analysis", "sparse.wavelet"),
    ("sparse", "wavelet_synthesis", "sparse.wavelet"),
    ("sparse", "synthesis_objective", "sparse.objective"),
    ("sparse", "soft_threshold", "sparse.soft_threshold"),
    ("sparse", "grad_pairs", "sparse.grad_pairs"),
    ("sparse", "grad_pairs_adjoint", "sparse.grad_pairs"),
    ("sparse", "tv_admm_reconstruct", "sparse.tv_admm"),
    ("sparse", "ista_reconstruct", "sparse.ista"),
    ("autodiff", "conv2d", "autodiff.conv2d.fwd"),
    ("autodiff", "relu", "autodiff.pointwise"),
    ("autodiff", "maxpool2", "autodiff.pointwise"),
    ("autodiff", "upsample2", "autodiff.pointwise"),
    ("autodiff", "concat_channels", "autodiff.pointwise"),
    ("autodiff", "add", "autodiff.pointwise"),
    ("autodiff", "backward", "autodiff.backward"),
    ("net", "train", "net.train"),
    ("net", "forward_net", "net.forward_net"),
    ("phantom", "analytic_sinogram", "phantom.analytic_sinogram"),
    ("phantom", "rasterize", "phantom.rasterize"),
]

NAME, START, END, PARENT, OP, EXTRA = range(6)


def _geometry_key(geom, *args, **kwargs):
    return (geom.angles.tobytes(), geom.n_bins, geom.det_spacing,
            geom.image_side, geom.pixel_spacing)


def _fft_points(x, *args, **kwargs):
    return int(np.size(x))


def _conv_flop(x, w, b):
    """Multiply-adds of one same-size conv, counted as 2 flop each."""
    oc, ic, kh, kw = w.value.shape
    _, h, wd = x.value.shape
    return 2 * oc * ic * kh * kw * h * wd


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = 0          # id of the benchmark operation in progress (0: setup)
        self._stack = []
        self._undo = []

    def _call(self, name, fn, extra, args, kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, extra]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, extra=None, post=None):
        """Wrapper recording a span per call; `extra(*args)` is stored with
        the span and `post(result, *args)` may wrap what the call returns."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._call(name, fn, extra(*args, **kwargs) if extra else None,
                                args, kwargs)
            return post(result, *args) if post else result
        return traced

    def _wrap_fft(self, fn):
        """FFT spans count outermost calls only (fft_2d calls fft_1d)."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][NAME] == "numerics.fft":
                return fn(*args, **kwargs)
            return self._call("numerics.fft", fn, _fft_points(*args), args, kwargs)
        return traced

    def _wrapper_for(self, name, fn):
        if name == "numerics.fft":
            return self._wrap_fft(fn)
        if name == "projector.system_matrix":
            return self.wrap(name, fn, extra=_geometry_key)
        if name == "projector.normal_operator":
            return self.wrap(name, fn, post=lambda op, *a: self.wrap("projector.normal_op", op))
        if name == "autodiff.conv2d.fwd":
            def post(var, x, w, b):
                var.grad_fn = self.wrap("autodiff.conv2d.bwd", var.grad_fn,
                                        extra=lambda g, f=_conv_flop(x, w, b): 2 * f)
                return var
            return self.wrap(name, fn, extra=_conv_flop, post=post)
        if name == "autodiff.pointwise":
            def post(var, *args):
                var.grad_fn = self.wrap(name, var.grad_fn)
                return var
            return self.wrap(name, fn, post=post)
        return self.wrap(name, fn)

    def install(self):
        """Patch every binding of every target in the loaded sparsect modules."""
        namespaces = [m for k, m in sorted(sys.modules.items())
                      if k == "sparsect" or k.startswith("sparsect.")]
        for mod_name, attr, name in TARGETS:
            original = getattr(sys.modules["sparsect." + mod_name], attr)
            wrapper = self._wrapper_for(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._undo.append((ns, key, original))

    def uninstall(self):
        for ns, key, original in reversed(self._undo):
            setattr(ns, key, original)
        self._undo = []

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "extra"],
                       "spans": [s[:EXTRA] + [s[EXTRA] if isinstance(s[EXTRA], int) else None]
                                 for s in self.spans]}, fh)

    def summarize(self):
        """Per span name: calls, inclusive seconds, self seconds (inclusive
        minus the time covered by direct children), and extra summed."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        agg = {}
        for s, c in zip(self.spans, child):
            a = agg.setdefault(s[NAME], {"calls": 0, "incl": 0.0, "self": 0.0, "extra": 0})
            a["calls"] += 1
            a["incl"] += s[END] - s[START]
            a["self"] += s[END] - s[START] - c
            if isinstance(s[EXTRA], int):
                a["extra"] += s[EXTRA]
        return agg

    def layer_metrics(self, overhead_frac):
        """The per-layer metrics named in BENCHMARK.json, as {name: value}."""
        agg = self.summarize()

        def get(name, field):
            return agg.get(name, {}).get(field, 0)

        geoms = {s[EXTRA] for s in self.spans if s[NAME] == "projector.system_matrix"}
        tv_ops = 0
        for s in self.spans:
            if s[NAME] != "projector.normal_op":
                continue
            p = s[PARENT]
            while p >= 0 and self.spans[p][NAME] != "sparse.tv_admm":
                p = self.spans[p][PARENT]
            tv_ops += p >= 0
        conv_s = get("autodiff.conv2d.fwd", "self") + get("autodiff.conv2d.bwd", "self")
        conv_flop = get("autodiff.conv2d.fwd", "extra") + get("autodiff.conv2d.bwd", "extra")
        m = {
            "projector.forward.calls": get("projector.forward", "calls"),
            "projector.forward.s": get("projector.forward", "self"),
            "projector.backproject.calls": get("projector.backproject", "calls"),
            "projector.backproject.s": get("projector.backproject", "self"),
            "projector.pixel_driven.s": get("projector.pixel_driven", "self"),
            "projector.system_matrix.calls": get("projector.system_matrix", "calls"),
            "projector.system_matrix.s": get("projector.system_matrix", "self"),
            "projector.system_matrix.builds_per_geometry":
                get("projector.system_matrix", "calls") / max(len(geoms), 1),
            "projector.normal_operator.s": get("projector.normal_operator", "self"),
            "projector.normal_op.applies": get("projector.normal_op", "calls"),
            "projector.normal_op.s": get("projector.normal_op", "self"),
            "sparse.normal_op_per_tv_solve": tv_ops / max(get("sparse.tv_admm", "calls"), 1),
            "numerics.fft.calls": get("numerics.fft", "calls"),
            "numerics.fft.s": get("numerics.fft", "self"),
            "numerics.fft.points": get("numerics.fft", "extra"),
            "fbp.make_ramp.s": get("fbp.make_ramp", "self"),
            "fbp.filter_views.s": get("fbp.filter_views", "self"),
            "fbp.fbp_reconstruct.s": get("fbp.fbp_reconstruct", "self"),
            "fbp.deconvolution_form.s": get("fbp.deconvolution_form", "self"),
            "sparse.lipschitz.s": get("sparse.lipschitz", "self"),
            "sparse.wavelet.s": get("sparse.wavelet", "self"),
            "sparse.objective.s": get("sparse.objective", "self"),
            "sparse.soft_threshold.s": get("sparse.soft_threshold", "self"),
            "sparse.grad_pairs.s": get("sparse.grad_pairs", "self"),
            "sparse.tv_admm.s": get("sparse.tv_admm", "self"),
            "sparse.ista.s": get("sparse.ista", "self"),
            "autodiff.conv2d.fwd.calls": get("autodiff.conv2d.fwd", "calls"),
            "autodiff.conv2d.fwd.s": get("autodiff.conv2d.fwd", "self"),
            "autodiff.conv2d.bwd.s": get("autodiff.conv2d.bwd", "self"),
            "autodiff.conv2d.flop": conv_flop,
            "autodiff.conv2d.gflop_per_s": conv_flop / conv_s / 1e9 if conv_s > 0 else 0.0,
            "autodiff.pointwise.s": get("autodiff.pointwise", "self"),
            "autodiff.backward.s": get("autodiff.backward", "self"),
            "net.train.s": get("net.train", "self"),
            "net.forward_net.calls": get("net.forward_net", "calls"),
            "net.forward_net.s": get("net.forward_net", "self"),
            "phantom.analytic_sinogram.s": get("phantom.analytic_sinogram", "self"),
            "phantom.rasterize.s": get("phantom.rasterize", "self"),
            "trace.overhead_frac": overhead_frac,
        }
        return m
