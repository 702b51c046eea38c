"""Residual micro U-net, trained from scratch with plain SGD.

The body is a dyadic encoder-decoder: two same-size 3x3 convs per scale,
2x2 max pooling down, nearest-neighbor upsample + 2x2 conv up, channel
concat skips, and a final 1x1 conv back to one channel.  Zero padding keeps
every conv output the same size, so skip concats never need cropping.  An
input-to-output skip makes the network learn only the correction to its
input: with all-zero weights it is exactly the identity map.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .numerics import Rng

__all__ = ["NetworkParams", "TrainConfig", "init_params", "forward_net",
           "backward_net", "train", "layer_specs"]


@dataclass
class NetworkParams:
    depth: int
    base_channels: int
    weights: dict = field(default_factory=dict)  # name -> ndarray
    # the network sees gain * image + offset: the map of its training data
    gain: float = 1.0
    offset: float = 0.0

    def net_input(self, values):
        """An image as the network sees it: gain * values + offset, float32."""
        return (self.gain * values + self.offset).astype(np.float32)

    def copy(self):
        return NetworkParams(self.depth, self.base_channels,
                             {k: v.copy() for k, v in self.weights.items()},
                             self.gain, self.offset)


LR_START, LR_END = 0.01, 0.001  # geometric decay across epochs
MOMENTUM = 0.99
CLIP = 1e-2                     # elementwise gradient clip


@dataclass
class TrainConfig:
    epochs: int = 30


def layer_specs(depth, base_channels):
    """(name, out_ch, in_ch, kh, kw) for every conv layer, in forward order."""
    specs = []
    if depth == 0:
        specs.append(("final", 1, 1, 1, 1))
        return specs
    ch_in = 1
    for k in range(depth):
        ch = base_channels << k
        specs.append((f"enc{k}_conv1", ch, ch_in, 3, 3))
        specs.append((f"enc{k}_conv2", ch, ch, 3, 3))
        ch_in = ch
    ch = base_channels << depth
    specs.append(("mid_conv1", ch, ch_in, 3, 3))
    specs.append(("mid_conv2", ch, ch, 3, 3))
    for k in reversed(range(depth)):
        ch = base_channels << k
        specs.append((f"dec{k}_up", ch, ch * 2, 2, 2))
        specs.append((f"dec{k}_conv1", ch, ch * 2, 3, 3))
        specs.append((f"dec{k}_conv2", ch, ch, 3, 3))
    specs.append(("final", 1, base_channels, 1, 1))
    return specs


def init_params(depth=3, base_channels=16, rng: Rng = None,
                dtype=np.float32, zero_final=True) -> NetworkParams:
    """Gaussian kernels with std sqrt(2/fan_in), zero biases.

    With `zero_final` (the default) the last conv starts at zero, so the
    residual network begins as the exact identity map with live features.
    Starting from a random body instead makes the first training steps crush
    every body weight toward zero to kill the large initial residual, which
    silences the ReLUs and freezes learning at the identity.  Disable it only
    for gradient checking, where a zero layer would zero out every upstream
    gradient.
    """
    rng = rng or Rng(0)
    weights = {}
    for name, oc, ic, kh, kw in layer_specs(depth, base_channels):
        std = np.sqrt(2.0 / (kh * kw * ic))
        weights[name + ".w"] = (std * rng.normal((oc, ic, kh, kw))).astype(dtype)
        weights[name + ".b"] = np.zeros(oc, dtype=dtype)
    if zero_final:
        weights["final.w"][:] = 0.0
    return NetworkParams(depth, base_channels, weights)


def _conv_block(x, pvars, name):
    for i in (1, 2):
        x = ad.relu(ad.conv2d(x, pvars[f"{name}_conv{i}.w"],
                              pvars[f"{name}_conv{i}.b"]))
    return x


def _build_graph(params: NetworkParams, input_values):
    """Returns (output Var, param Vars by name, input Var)."""
    depth = params.depth
    xin = np.asarray(input_values)
    if xin.ndim != 2:
        raise ValueError("network input must be a 2-D image")
    if xin.shape[0] % (1 << depth) or xin.shape[1] % (1 << depth):
        raise ValueError(f"input side must be divisible by 2^{depth}")
    pvars = {k: ad.Var(v) for k, v in params.weights.items()}
    x0 = ad.Var(xin[None, :, :])

    if depth == 0:
        body = ad.conv2d(x0, pvars["final.w"], pvars["final.b"])
        return ad.add(x0, body), pvars, x0

    skips = []
    x = x0
    for k in range(depth):
        x = _conv_block(x, pvars, f"enc{k}")
        skips.append(x)
        x = ad.maxpool2(x)
    x = _conv_block(x, pvars, "mid")
    for k in reversed(range(depth)):
        x = ad.relu(ad.conv2d(ad.upsample2(x), pvars[f"dec{k}_up.w"],
                              pvars[f"dec{k}_up.b"]))
        x = ad.concat_channels(skips[k], x)
        x = _conv_block(x, pvars, f"dec{k}")
    body = ad.conv2d(x, pvars["final.w"], pvars["final.b"])
    return ad.add(x0, body), pvars, x0


def forward_net(params: NetworkParams, input_values):
    """Residual inference: input + body(input), as a 2-D array."""
    out, _, _ = _build_graph(params, input_values)
    return out.value[0]


def backward_net(params: NetworkParams, input_values, loss_grad):
    """Exact reverse-mode gradients of sum(loss_grad * output) w.r.t. params."""
    out, pvars, _ = _build_graph(params, input_values)
    ad.backward(out, np.asarray(loss_grad, dtype=out.value.dtype)[None, :, :])
    return {k: v.grad for k, v in pvars.items()}


def train(params: NetworkParams, dataset, schedule: TrainConfig, rng: Rng = None):
    """SGD (batch 1) with momentum, elementwise gradient clipping, geometric
    learning-rate decay, and flip augmentation applied identically to input
    and target.  Returns (params, history) where history rows are
    (epoch, mean_train_loss).

    A non-finite loss aborts, returning the last finite checkpoint.
    """
    if not dataset:
        raise ValueError("training dataset is empty")
    rng = rng or Rng(0)
    if schedule.epochs < 1:
        raise ValueError("need at least one epoch")
    params = params.copy()
    velocity = {k: np.zeros_like(v) for k, v in params.weights.items()}
    history = []
    checkpoint = params.copy()
    for epoch in range(schedule.epochs):
        frac = epoch / max(schedule.epochs - 1, 1)
        lr = LR_START * (LR_END / LR_START) ** frac
        order = _permutation(rng, len(dataset))
        losses = []
        for i in order:
            x, t = dataset[i]
            if rng.random() < 0.5:
                x, t = x[:, ::-1], t[:, ::-1]
            if rng.random() < 0.5:
                x, t = x[::-1, :], t[::-1, :]
            out, pvars, _ = _build_graph(params, np.ascontiguousarray(x))
            diff = out.value[0] - t
            loss = float(np.mean(diff * diff))
            if not np.isfinite(loss):
                return checkpoint, history
            losses.append(loss)
            seed = (2.0 / diff.size) * diff
            ad.backward(out, seed.astype(out.value.dtype)[None, :, :])
            for k, v in pvars.items():
                g = np.clip(v.grad, -CLIP, CLIP, out=v.grad)
                velocity[k] *= MOMENTUM
                velocity[k] -= np.multiply(lr, g, out=g)
                params.weights[k] += velocity[k]
        checkpoint = params.copy()
        history.append((epoch, float(np.mean(losses))))
    return params, history


def _permutation(rng: Rng, n):
    """Fisher-Yates shuffle driven by the portable Rng."""
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = rng.integers(0, i)
        perm[i], perm[j] = perm[j], perm[i]
    return perm
