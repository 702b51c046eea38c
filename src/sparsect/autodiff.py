"""Minimal reverse-mode autodiff over numpy arrays.

A Var wraps an ndarray plus a gradient slot; each op records its parents and
a closure computing their gradient contributions (the tape).  Backward walks
the tape in reverse topological order.  Enough ops for a small convolutional
encoder-decoder: same-size conv, relu, 2x2 max pooling, nearest-neighbor
upsampling, channel concat, add.

Feature maps are (channels, height, width).  Conv kernels are
(out_ch, in_ch, kh, kw).  conv2d pads its input into a flat buffer whose
rows are w + kw - 1 wide, so every kernel tap is one matmul on a contiguous
view of it, with no copy per tap.
"""

import numpy as np

__all__ = ["Var", "conv2d", "relu", "maxpool2", "upsample2", "concat_channels",
           "add", "backward"]


class Var:
    """Tape node: forward value, gradient accumulator, parent links."""

    __slots__ = ("value", "grad", "parents", "grad_fn")

    def __init__(self, value, parents=(), grad_fn=None):
        self.value = value
        self.grad = None
        self.parents = parents
        self.grad_fn = grad_fn


def _toposort(root):
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    return order


def backward(root: Var, seed):
    """Accumulate d(root . seed)/d(node) into every node's .grad."""
    order = _toposort(root)
    for node in order:
        node.grad = np.zeros_like(node.value)
    root.grad = np.asarray(seed, dtype=root.value.dtype)
    for node in reversed(order):
        if node.grad_fn is not None:
            node.grad_fn(node.grad)


def conv2d(x: Var, w: Var, b: Var):
    """Same-size 2-D correlation with zero padding.

    Odd kernels pad symmetrically; even kernels pad one less on the top/left.

    The input is zero-padded once into a (c, rows, pitch) buffer, pitch =
    w + kw - 1, and viewed flat: the window of tap (dy, dx) is then the
    contiguous column range [o, o + h*pitch) with o = dy*pitch + dx, so each
    tap is one matmul on a view.  The kw - 1 scratch columns per row are
    dropped at the end; for kw > 1 a spare zero row takes the last tap's
    overrun.  The input gradient runs the same layout in reverse, and the
    weight gradient contracts with a channels-last copy of the buffer.
    Taps are summed in a fixed order with the operand layouts of one
    tensordot per tap, which on the network's layer shapes at 64^2 gives
    the tensordot result bit for bit (BLAS rounding can depend on the row
    length, so other shapes may differ at rounding level).
    """
    xv, wv, bv = x.value, w.value, b.value
    oc, ic, kh, kw = wv.shape
    c, h, ww_ = xv.shape
    if c != ic:
        raise ValueError(f"conv2d channel mismatch: input {c}, kernel {ic}")
    pt, pl = (kh - 1) // 2, (kw - 1) // 2
    pitch = ww_ + kw - 1
    n = h * pitch
    xpad = np.zeros((c, h + kh - 1 + (kw > 1), pitch), dtype=xv.dtype)
    xpad[:, pt:pt + h, pl:pl + ww_] = xv
    xf = xpad.reshape(c, -1)
    taps = [(dy, dx, dy * pitch + dx) for dy in range(kh) for dx in range(kw)]
    acc = np.empty((oc, n), dtype=xv.dtype)
    acc[:] = bv[:, None]
    for dy, dx, o in taps:
        acc += np.dot(wv[:, :, dy, dx], xf[:, o:o + n])
    out = acc.reshape(oc, h, pitch)[:, :, :ww_]

    def grad_fn(g):
        g2 = g.reshape(oc, -1)
        if kw == 1:
            # pitch == w: the flat window, transposed, is the very (h*w, ic)
            # view tensordot hands to BLAS, so the rounding matches
            for dy, dx, o in taps:
                w.grad[:, :, dy, dx] += np.dot(g2, xf[:, o:o + n].T)
        else:
            xt = np.ascontiguousarray(xpad.transpose(1, 2, 0))
            for dy, dx, o in taps:
                w.grad[:, :, dy, dx] += np.dot(
                    g2, xt[dy:dy + h, dx:dx + ww_].reshape(-1, ic))
        b.grad += g.sum(axis=(1, 2))
        gpad = np.zeros((oc, h, pitch), dtype=g.dtype)
        gpad[:, :, :ww_] = g
        gf = gpad.reshape(oc, n)
        gx = np.zeros_like(xf)
        for dy, dx, o in taps:
            gx[:, o:o + n] += np.dot(wv[:, :, dy, dx].T, gf)
        x.grad += gx.reshape(xpad.shape)[:, pt:pt + h, pl:pl + ww_]

    return Var(out, parents=(x, w, b), grad_fn=grad_fn)


def relu(x: Var):
    mask = x.value > 0
    out = x.value * mask

    def grad_fn(g):
        x.grad += g * mask

    return Var(out, parents=(x,), grad_fn=grad_fn)


def maxpool2(x: Var):
    """2x2 max pooling; gradient routes to the first argmax on ties."""
    c, h, w = x.value.shape
    if h % 2 or w % 2:
        raise ValueError("maxpool2 needs even spatial dims")
    blocks = x.value.reshape(c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4)
    blocks = blocks.reshape(c, h // 2, w // 2, 4)
    idx = blocks.argmax(axis=-1)
    out = np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0]

    def grad_fn(g):
        gb = np.zeros_like(blocks)
        np.put_along_axis(gb, idx[..., None], g[..., None], axis=-1)
        x.grad += gb.reshape(c, h // 2, w // 2, 2, 2).transpose(0, 1, 3, 2, 4) \
                    .reshape(c, h, w)

    return Var(out, parents=(x,), grad_fn=grad_fn)


def upsample2(x: Var):
    """Nearest-neighbor 2x upsampling."""
    out = x.value.repeat(2, axis=1).repeat(2, axis=2)

    def grad_fn(g):
        c, h, w = x.value.shape
        x.grad += g.reshape(c, h, 2, w, 2).sum(axis=(2, 4))

    return Var(out, parents=(x,), grad_fn=grad_fn)


def concat_channels(a: Var, b: Var):
    ca = a.value.shape[0]
    out = np.concatenate([a.value, b.value], axis=0)

    def grad_fn(g):
        a.grad += g[:ca]
        b.grad += g[ca:]

    return Var(out, parents=(a, b), grad_fn=grad_fn)


def add(a: Var, b: Var):
    def grad_fn(g):
        a.grad += g
        b.grad += g

    return Var(a.value + b.value, parents=(a, b), grad_fn=grad_fn)
