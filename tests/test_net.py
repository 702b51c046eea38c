import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import sparsect.autodiff as ad
from sparsect.numerics import Rng
from sparsect.net import (NetworkParams, TrainConfig, layer_specs, init_params,
                          forward_net, backward_net, train)
from sparsect import formats


def _conv2d_tensordot(x, w, b):
    """conv2d as one tensordot per tap on padded slices: the reference that
    the flat-padded conv2d must reproduce bit for bit."""
    xv, wv, bv = x.value, w.value, b.value
    oc, ic, kh, kw = wv.shape
    _, h, ww_ = xv.shape
    pt, pl = (kh - 1) // 2, (kw - 1) // 2
    xpad = np.pad(xv, ((0, 0), (pt, kh - 1 - pt), (pl, kw - 1 - pl)))
    out = np.empty((oc, h, ww_), dtype=xv.dtype)
    out[:] = bv[:, None, None]
    for dy in range(kh):
        for dx in range(kw):
            out += np.tensordot(wv[:, :, dy, dx], xpad[:, dy:dy + h, dx:dx + ww_],
                                axes=([1], [0]))

    def grad_fn(g):
        w.grad += np.stack([
            np.stack([
                np.tensordot(g, xpad[:, dy:dy + h, dx:dx + ww_], axes=([1, 2], [1, 2]))
                for dx in range(kw)], axis=-1)
            for dy in range(kh)], axis=-2)
        b.grad += g.sum(axis=(1, 2))
        gxpad = np.zeros_like(xpad)
        for dy in range(kh):
            for dx in range(kw):
                gxpad[:, dy:dy + h, dx:dx + ww_] += np.tensordot(
                    wv[:, :, dy, dx].T, g, axes=([1], [0]))
        x.grad += gxpad[:, pt:pt + h, pl:pl + ww_]

    return ad.Var(out, parents=(x, w, b), grad_fn=grad_fn)


def _maxpool2_argmax(x):
    """maxpool2 by argmax over each 2x2 block: the reference for the strided
    maxpool2's bytes and its first-argmax tie rule."""
    c, h, w = x.value.shape
    blocks = x.value.reshape(c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4)
    blocks = blocks.reshape(c, h // 2, w // 2, 4)
    idx = blocks.argmax(axis=-1)
    out = np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0]

    def grad_fn(g):
        gb = np.zeros_like(blocks)
        np.put_along_axis(gb, idx[..., None], g[..., None], axis=-1)
        x.grad += gb.reshape(c, h // 2, w // 2, 2, 2).transpose(0, 1, 3, 2, 4) \
                    .reshape(c, h, w)

    return ad.Var(out, parents=(x,), grad_fn=grad_fn)


def _upsample2_reshape_sum(x):
    """upsample2 whose gradient sums each 2x2 block by reshape: the reference
    for the strided quadrant sums."""
    out = x.value.repeat(2, axis=1).repeat(2, axis=2)

    def grad_fn(g):
        c, h, w = x.value.shape
        x.grad += g.reshape(c, h, 2, w, 2).sum(axis=(2, 4))

    return ad.Var(out, parents=(x,), grad_fn=grad_fn)


def _backward_zero_filled(root, seed):
    """backward with a zero gradient on every node, interior ones included:
    the reference for writing an interior gradient on first use."""
    order = ad._toposort(root)
    for node in order:
        node.grad = np.zeros_like(node.value)
    root.grad = np.asarray(seed, dtype=root.value.dtype)
    for node in reversed(order):
        if node.grad_fn is not None:
            node.grad_fn(node.grad)


def _network_conv_shapes(depth=3, base_channels=16, side=64):
    """{layer name: (out_ch, in_ch, kh, kw, height, width)}, one entry per
    distinct conv shape of the network at side^2."""
    shapes = {}
    for name, oc, ic, kh, kw in layer_specs(depth, base_channels):
        if name.startswith(("enc", "dec")):
            level = int(name[3])
        else:
            level = depth if name.startswith("mid") else 0
        s = side >> level
        if (oc, ic, kh, kw, s, s) not in shapes.values():
            shapes[name] = (oc, ic, kh, kw, s, s)
    return shapes


CONV_SHAPES = {**_network_conv_shapes(),
               "nonsquare_3x3": (3, 2, 3, 3, 7, 10),
               "nonsquare_2x2": (3, 2, 2, 2, 6, 9),
               "nonsquare_1x3": (3, 2, 1, 3, 5, 8),
               "nonsquare_3x1": (3, 2, 3, 1, 5, 8)}


def _conv_and_grads(conv, x, w, b, seed):
    xv, wv, bv = ad.Var(x), ad.Var(w), ad.Var(b)
    out = conv(xv, wv, bv)
    ad.backward(out, seed)
    return out.value, xv.grad, wv.grad, bv.grad


class TestConvMatchesTensordotReference:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(CONV_SHAPES))
    def test_output_and_gradients_bit_identical(self, name, dtype):
        oc, ic, kh, kw, h, w = CONV_SHAPES[name]
        rng = Rng(20)
        args = [rng.normal(shape).astype(dtype) for shape in
                ((ic, h, w), (oc, ic, kh, kw), (oc,), (oc, h, w))]
        got = _conv_and_grads(ad.conv2d, *args)
        want = _conv_and_grads(_conv2d_tensordot, *args)
        for label, a, e in zip(("output", "x.grad", "w.grad", "b.grad"), got, want):
            assert a.shape == e.shape and a.dtype == e.dtype, label
            assert np.array_equal(a, e), label

    def test_training_run_bit_identical(self, monkeypatch):
        rng = Rng(21)
        pairs = [((50.0 * rng.normal((64, 64))).astype(np.float32),
                  (50.0 * rng.normal((64, 64))).astype(np.float32))
                 for _ in range(3)]
        start = init_params(3, 16, Rng(22))
        got, h_got = train(start, pairs, TrainConfig(epochs=2), Rng(23))
        monkeypatch.setattr(ad, "conv2d", _conv2d_tensordot)
        monkeypatch.setattr(ad, "maxpool2", _maxpool2_argmax)
        monkeypatch.setattr(ad, "upsample2", _upsample2_reshape_sum)
        monkeypatch.setattr(ad, "backward", _backward_zero_filled)
        want, h_want = train(start, pairs, TrainConfig(epochs=2), Rng(23))
        assert [row[:2] for row in h_got] == [row[:2] for row in h_want]
        assert not np.array_equal(got.weights["enc0_conv1.w"],
                                  start.weights["enc0_conv1.w"])
        for k in want.weights:   # tobytes: array_equal takes -0.0 for 0.0
            assert got.weights[k].tobytes() == want.weights[k].tobytes(), k


def _tied(shape, dtype, seed):
    """Values from {-1, -0.0, 0.0, 1, 2}: most 2x2 blocks hold ties, and ReLU
    turns the negatives into -0.0 beside the +0.0 ones."""
    levels = np.array([-1.0, -0.0, 0.0, 1.0, 2.0])
    return levels[Rng(seed).integers(0, 4, shape)].astype(dtype)


class TestPoolUpsampleMatchReference:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op, ref", [(ad.maxpool2, _maxpool2_argmax),
                                         (ad.upsample2, _upsample2_reshape_sum)],
                             ids=["maxpool2", "upsample2"])
    def test_same_bytes_on_ties(self, op, ref, dtype):
        # leaf -> relu -> op, so the op's input holds ReLU zeros of both signs
        # and its gradient is an interior one
        z = _tied((5, 12, 10), dtype, 30)
        results = []
        for pool_or_up, backward in ((op, ad.backward), (ref, _backward_zero_filled)):
            leaf = ad.Var(z.copy())
            out = pool_or_up(ad.relu(leaf))
            backward(out, Rng(31).normal(out.value.shape).astype(dtype))
            results.append((out.value, leaf.grad))
        for got, want in zip(*results):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_maxpool_tie_goes_to_the_first_element(self):
        x = ad.Var(np.full((2, 2, 4), 3.0))
        ad.backward(ad.maxpool2(x), np.arange(1.0, 5.0).reshape(2, 1, 2))
        assert np.array_equal(x.grad, [[[1, 0, 2, 0], [0, 0, 0, 0]],
                                       [[3, 0, 4, 0], [0, 0, 0, 0]]])


class TestAutodiffOps:
    @pytest.mark.parametrize("x_shape, w_shape", [
        ((2, 9, 9), (3, 2, 3, 3)),
        ((2, 7, 10), (3, 2, 3, 3)),
        ((2, 7, 10), (3, 2, 2, 2)),
        ((2, 7, 10), (3, 2, 1, 1)),
        ((2, 7, 10), (3, 2, 1, 3)),
        ((2, 10, 7), (3, 2, 3, 1)),
    ], ids=["9x9-k3x3", "7x10-k3x3", "7x10-k2x2", "7x10-k1x1", "7x10-k1x3",
            "10x7-k3x1"])
    def test_conv2d_matches_scipy(self, x_shape, w_shape):
        from scipy.signal import correlate2d
        rng = Rng(0)
        x = rng.normal(x_shape)
        w = rng.normal(w_shape)
        b = rng.normal(3)
        out = ad.conv2d(ad.Var(x), ad.Var(w), ad.Var(b)).value
        assert out.shape == (3,) + x_shape[1:]
        for oc in range(3):
            expected = b[oc] + sum(
                correlate2d(x[ic], w[oc, ic], mode="same") for ic in range(2))
            assert np.allclose(out[oc], expected, atol=1e-12)

    @pytest.mark.parametrize("x_shape, w_shape", [
        ((2, 6, 6), (2, 2, 3, 3)),
        ((2, 5, 7), (3, 2, 2, 3)),
    ], ids=["6x6-k3x3", "5x7-k2x3"])
    def test_conv2d_gradients_finite_difference(self, x_shape, w_shape):
        rng = Rng(1)
        x = rng.normal(x_shape)
        w = rng.normal(w_shape)
        b = rng.normal(w_shape[0])
        seed = rng.normal((w_shape[0],) + x_shape[1:])

        def loss(xv, wv, bv):
            return np.sum(ad.conv2d(ad.Var(xv), ad.Var(wv), ad.Var(bv)).value * seed)

        xv, wv, bv = ad.Var(x), ad.Var(w), ad.Var(b)
        out = ad.conv2d(xv, wv, bv)
        ad.backward(out, seed)
        eps = 1e-6
        for var, arr in ((xv, x), (wv, w), (bv, b)):
            flat = arr.ravel()
            for idx in range(0, flat.size, max(1, flat.size // 7)):
                orig = flat[idx]
                flat[idx] = orig + eps
                up = loss(x, w, b)
                flat[idx] = orig - eps
                dn = loss(x, w, b)
                flat[idx] = orig
                fd = (up - dn) / (2 * eps)
                assert abs(var.grad.ravel()[idx] - fd) < 1e-6 * max(1, abs(fd))

    def test_maxpool_upsample_shapes_and_grads(self):
        x = ad.Var(Rng(2).normal((3, 8, 8)))
        pooled = ad.maxpool2(x)
        assert pooled.value.shape == (3, 4, 4)
        up = ad.upsample2(pooled)
        assert up.value.shape == (3, 8, 8)
        ad.backward(up, np.ones_like(up.value))
        # each kept element receives the 2x2 block sum (=4) routed to the argmax
        assert np.sum(x.grad) == pytest.approx(3 * 4 * 4 * 4)
        assert np.count_nonzero(x.grad) == 3 * 4 * 4

    def test_relu_and_concat(self):
        a = ad.Var(np.array([[[-1.0, 2.0]]]))
        r = ad.relu(a)
        assert np.array_equal(r.value, [[[0.0, 2.0]]])
        b = ad.Var(np.ones((2, 1, 2)))
        cat = ad.concat_channels(a, b)
        assert cat.value.shape == (3, 1, 2)
        ad.backward(cat, np.ones_like(cat.value))
        assert np.array_equal(a.grad, np.ones((1, 1, 2)))
        assert np.array_equal(b.grad, np.ones((2, 1, 2)))

    @pytest.mark.parametrize("op", [ad.add, ad.concat_channels])
    @pytest.mark.parametrize("h_first", [True, False])
    def test_pass_through_gradients_are_copies(self, op, h_first):
        # h's first contribution comes from op, a later one from relu(h):
        # adding that one must touch neither the caller's seed nor relu(h)'s
        x = ad.Var(1.0 + Rng(3).random((1, 2, 3)))
        h = ad.relu(x)
        pair = (h, ad.relu(h)) if h_first else (ad.relu(h), h)
        out = op(*pair)
        seed = Rng(4).normal(out.value.shape)
        kept = seed.copy()
        ad.backward(out, seed)
        assert np.array_equal(seed, kept)
        want = 2 * seed if op is ad.add else seed[:1] + seed[1:]
        assert np.array_equal(x.grad, want)

    def test_conv2d_weight_and_bias_may_be_interior(self):
        # gradients reach the leaves behind an op-made weight and bias too
        rng = Rng(5)
        x, w, b, seed = (rng.normal(s) for s in ((2, 5, 6), (3, 2, 3, 3), (3,), (3, 5, 6)))
        direct = _conv_and_grads(ad.conv2d, x, w, b, seed)
        w_leaf, b_leaf = ad.Var(w), ad.Var(b)
        out = ad.conv2d(ad.Var(x), ad.add(w_leaf, ad.Var(np.zeros_like(w))),
                        ad.add(b_leaf, ad.Var(np.zeros_like(b))))
        ad.backward(out, seed)
        assert np.array_equal(w_leaf.grad, direct[2])
        assert np.array_equal(b_leaf.grad, direct[3])

    def test_shared_node_grads_accumulate(self):
        x = ad.Var(np.ones((1, 2, 2)))
        y = ad.add(x, x)
        ad.backward(y, np.ones_like(y.value))
        assert np.array_equal(x.grad, 2 * np.ones((1, 2, 2)))

    def test_interior_gradients_are_dropped_once_read(self):
        x = ad.Var(np.ones((1, 2, 2)))
        h = ad.relu(x)
        y = ad.add(h, h)
        ad.backward(y, np.ones_like(y.value))
        assert h.grad is None and y.grad is None
        assert np.array_equal(x.grad, 2 * np.ones((1, 2, 2)))


class TestNetwork:
    def test_layer_specs_channels(self):
        specs = dict((n, (oc, ic)) for n, oc, ic, _, _ in layer_specs(2, 4))
        assert specs["enc0_conv1"] == (4, 1)
        assert specs["enc1_conv1"] == (8, 4)
        assert specs["mid_conv1"] == (16, 8)
        assert specs["dec1_up"] == (8, 16)
        assert specs["dec1_conv1"] == (8, 16)   # after skip concat
        assert specs["final"] == (1, 4)

    def test_zero_init_is_identity(self):
        params = init_params(2, 4, Rng(0))
        for k in params.weights:
            params.weights[k][:] = 0.0
        x = Rng(1).normal((16, 16)).astype(np.float32)
        assert np.array_equal(forward_net(params, x), x)

    def test_final_layer_zero_by_default(self):
        assert not init_params(2, 4, Rng(0)).weights["final.w"].any()
        assert init_params(2, 4, Rng(0), zero_final=False).weights["final.w"].any()

    def test_depth_zero_network(self):
        params = init_params(0, 4, Rng(2), zero_final=False)
        x = Rng(3).normal((8, 8)).astype(np.float32)
        out = forward_net(params, x)
        w = params.weights["final.w"][0, 0, 0, 0]
        b = params.weights["final.b"][0]
        assert np.allclose(out, x + (w * x + b), atol=1e-6)

    def test_gradient_check_subset(self):
        params = init_params(1, 2, Rng(4), dtype=np.float64, zero_final=False)
        x = Rng(5).normal((8, 8))
        seed = Rng(6).normal((8, 8))
        grads = backward_net(params, x, seed)
        eps = 1e-6
        for name in ("enc0_conv1.w", "dec0_up.w", "final.b"):
            arr = params.weights[name]
            flat = arr.ravel()
            for idx in range(0, flat.size, max(1, flat.size // 5)):
                orig = flat[idx]
                flat[idx] = orig + eps
                up = np.sum(forward_net(params, x) * seed)
                flat[idx] = orig - eps
                dn = np.sum(forward_net(params, x) * seed)
                flat[idx] = orig
                fd = (up - dn) / (2 * eps)
                g = grads[name].ravel()[idx]
                assert abs(g - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_rejects_bad_input(self):
        params = init_params(2, 4, Rng(7))
        with pytest.raises(ValueError):
            forward_net(params, np.zeros((10, 10)))   # not divisible by 4
        with pytest.raises(ValueError):
            forward_net(params, np.zeros(16))


class TestTraining:
    def _toy_dataset(self, n=6):
        rng = Rng(8)
        data = []
        for _ in range(n):
            # amplitude ~50: the clipped-SGD defaults need a large dynamic range
            t = (50.0 * rng.normal((8, 8))).astype(np.float32)
            x = (t + 25.0 * rng.normal((8, 8))).astype(np.float32)
            data.append((x, t))
        return data

    def test_loss_decreases(self):
        data = self._toy_dataset()
        params = init_params(1, 4, Rng(9))
        out, history = train(params, data, TrainConfig(epochs=8),
                             Rng(10))
        assert history[-1][1] < history[0][1]

    def test_deterministic(self):
        data = self._toy_dataset()
        p1, h1 = train(init_params(1, 4, Rng(9)), data, TrainConfig(epochs=2),
                       Rng(10))
        p2, h2 = train(init_params(1, 4, Rng(9)), data, TrainConfig(epochs=2),
                       Rng(10))
        assert h1 == h2
        for k in p1.weights:
            assert np.array_equal(p1.weights[k], p2.weights[k])

    def test_threads_match_sequential_runs(self):
        # two trainings at once share no state: each gives the bytes it gives
        # alone (a factor per thread, as the pipeline may train them)
        rng = Rng(13)
        data = [tuple((50.0 * rng.normal((16, 16))).astype(np.float32) for _ in "xt")
                for _ in range(4)]

        def run(seed):
            params, _ = train(init_params(2, 4, Rng(seed)), data, TrainConfig(epochs=3),
                              Rng(seed + 1))
            return b"".join(params.weights[k].tobytes() for k in sorted(params.weights))

        seeds = (14, 16)
        want = [run(seed) for seed in seeds]
        got = [None] * len(seeds)

        def work(i):
            got[i] = run(seeds[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(seeds))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want

    def test_does_not_mutate_input_params(self):
        data = self._toy_dataset(2)
        params = init_params(1, 2, Rng(11))
        before = {k: v.copy() for k, v in params.weights.items()}
        train(params, data, TrainConfig(epochs=1), Rng(12))
        for k in before:
            assert np.array_equal(params.weights[k], before[k])

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train(init_params(1, 2, Rng(0)), [], TrainConfig(epochs=1))


class TestWeightsIo:
    # each example overwrites the same files, so a per-test tmp_path is enough
    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(depth=st.integers(min_value=0, max_value=2),
           channels=st.integers(min_value=1, max_value=4),
           gain=st.floats(allow_nan=False, allow_infinity=False).filter(bool),
           offset=st.floats(allow_nan=False, allow_infinity=False),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_roundtrip(self, tmp_path, depth, channels, gain, offset, seed):
        params = init_params(depth, channels, Rng(seed), zero_final=False)
        params.gain, params.offset = gain, offset
        path = tmp_path / "w.net"
        formats.save_weights(params, path)
        back = formats.load_weights(path)
        assert back.depth == depth and back.base_channels == channels
        assert (back.gain, back.offset) == (gain, offset)
        assert set(back.weights) == set(params.weights)
        for k in params.weights:
            assert np.array_equal(back.weights[k], params.weights[k])

    def test_rejects_an_array_named_twice(self, tmp_path):
        # a second final.b, holding 7, after the others and counted in the header
        path = tmp_path / "w.net"
        params = init_params(1, 2, Rng(8))
        formats.save_weights(params, path)
        raw = bytearray(path.read_bytes())
        raw[16:20] = struct.pack("<I", len(params.weights) + 1)
        n_out = params.weights["final.b"].shape[0]
        raw += (struct.pack("<H", 7) + b"final.b" + struct.pack("<BI", 1, n_out)
                + np.full(n_out, 7.0, "<f4").tobytes())
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="array 'final.b' appears twice") as exc:
            formats.load_weights(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("magic", [b"NOTMAGIC", b"SPCTNET1"])
    def test_rejects_wrong_magic(self, tmp_path, magic):
        # SPCTNET1, version 1: the current layout without the input map
        path = tmp_path / "w.net"
        formats.save_weights(init_params(1, 2, Rng(8)), path)
        raw = path.read_bytes()
        path.write_bytes(magic + raw[8:20] + raw[36:])
        with pytest.raises(ValueError, match="not a weights file"):
            formats.load_weights(path)
