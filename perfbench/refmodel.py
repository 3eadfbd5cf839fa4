"""Reference forward pass, objective and predictions, written apart from pmptrain.

The network runs in the standard layer order (affine map, activation,
pooling) in float64 numpy. The convolution accumulates one kernel offset at
a time and the pooling reshapes into 2x2 tiles, so neither shares code nor
summation order with `pmptrain.kernels` (sliding windows and one
tensordot). Agreement with the program is therefore checked with a tight
relative tolerance, never bitwise.

Layers are plain dicts, the same ones the benchmark renders into the
program's architecture text:

    {"kind": "conv", "out": 6, "k": 5, "stride": 1, "pad": 2,
     "act": "tanh", "pool": "avg2"}
    {"kind": "fc", "out": 10, "act": "identity"}
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

CHUNK = 500  # images per reference forward call; bounds transient memory


def arch_text(layers) -> str:
    """The program's one-layer-per-line architecture text for `layers`."""
    lines = []
    for spec in layers:
        if spec["kind"] == "conv":
            lines.append(f"conv out={spec['out']} k={spec['k']} "
                         f"stride={spec['stride']} pad={spec['pad']} "
                         f"act={spec['act']} pool={spec['pool']}")
        else:
            lines.append(f"fc out={spec['out']} act={spec['act']}")
    return "\n".join(lines) + "\n"


def layer_shapes(layers, input_shape=(1, 28, 28)):
    """Per layer: (weight shape, bias shape, output shape, pooled shape)."""
    shapes = []
    shape = tuple(input_shape)
    for spec in layers:
        if spec["kind"] == "conv":
            c, h, w = shape
            k, s, p = spec["k"], spec["stride"], spec["pad"]
            oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
            wshape = (spec["out"], c, k, k)
            out = (spec["out"], oh, ow)
            pooled = (spec["out"], oh // 2, ow // 2) \
                if spec["pool"] != "none" else out
        else:
            wshape = (spec["out"], int(np.prod(shape)))
            out = pooled = (spec["out"],)
        shapes.append((wshape, (spec["out"],), out, pooled))
        shape = pooled
    return shapes


def conv2d(x, kernel, bias, stride, pad):
    """Cross-correlation of (N, C, H, W) with (Co, C, k, k), one offset at a time."""
    n, _, h, w = x.shape
    co, _, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((n, oh, ow, co))
    for ky in range(kh):
        for kx in range(kw):
            patch = xp[:, :, ky:ky + stride * (oh - 1) + 1:stride,
                       kx:kx + stride * (ow - 1) + 1:stride]
            out += np.tensordot(patch, kernel[:, :, ky, kx], axes=([1], [1]))
    return out.transpose(0, 3, 1, 2) + bias[None, :, None, None]


def pool2(x, mode):
    """Non-overlapping 2x2 average or maximum of (N, C, H, W)."""
    n, c, h, w = x.shape
    tiles = x.reshape(n, c, h // 2, 2, w // 2, 2)
    if mode == "avg2":
        return tiles.mean(axis=(3, 5))
    if mode == "max2":
        return tiles.max(axis=(3, 5))
    raise ValueError(f"unknown pool {mode!r}")


def activate(x, act):
    if act == "tanh":
        return np.tanh(x)
    if act == "relu":
        return np.maximum(x, 0.0)
    if act == "identity":
        return x
    raise ValueError(f"unknown activation {act!r}")


def _logits_chunk(layers, blocks, x):
    h = x
    for spec, (w, b) in zip(layers, blocks):
        if spec["kind"] == "conv":
            h = conv2d(h, w, b, spec["stride"], spec["pad"])
        else:
            h = h.reshape(h.shape[0], -1) @ w.T + b
        h = activate(h, spec["act"])
        if spec["kind"] == "conv" and spec["pool"] != "none":
            h = pool2(h, spec["pool"])
    return h


def logits(layers, blocks, x, chunk=CHUNK):
    """Network outputs for all images in `x`, computed `chunk` images at a time."""
    return np.concatenate([_logits_chunk(layers, blocks, x[i:i + chunk])
                           for i in range(0, x.shape[0], chunk)])


def regularizer(reg, blocks) -> float:
    """rho * sum over every weight and bias block of R(u)."""
    if reg["kind"] == "none" or reg["rho"] == 0.0:
        return 0.0
    alpha, total = reg["alpha"], 0.0
    for block in (a for pair in blocks for a in pair):
        smooth = 0.5 * alpha * float(np.sum(block * block))
        if reg["kind"] == "l2l0":
            total += smooth + (1.0 - alpha) * float(np.count_nonzero(block))
        else:
            total += smooth + (1.0 - alpha) * float(np.sum(np.abs(block)))
    return reg["rho"] * total


def cross_entropy(z, classes) -> float:
    """Mean softmax cross-entropy of logits `z` against class indices."""
    per_sample = logsumexp(z, axis=1) - z[np.arange(z.shape[0]), classes]
    return float(per_sample.mean())


def predictions(z):
    """(argmax class, gap between the two largest logits) per row."""
    top2 = np.sort(z, axis=1)[:, -2:]
    return np.argmax(z, axis=1), top2[:, 1] - top2[:, 0]
