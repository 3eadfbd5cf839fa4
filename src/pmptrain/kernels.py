"""Dense float64 tensor primitives with hand-written vector-Jacobian products.

Forward maps (affine, 2-D cross-correlation, pooling, componentwise
activations) and the VJPs the adjoint sweep needs. Everything is a pure
function over ndarrays; no state, no views escape. The fully-connected
VJPs are single matrix products and live inline in the sweeps.

Conventions:
  - dtype is float64 everywhere; inputs are validated and rejected if
    non-finite.
  - the forward maps and pool_vjp accept a single sample or a batch with
    one extra leading axis (vectors become (N, d), images (C, H, W) become
    (N, C, H, W)); the convolution VJPs take batches only;
  - gradient outputs that live in parameter space (kernel_grad, bias_grad)
    are SUMMED over the batch axis, matching their use as sums of
    per-sample adjoint products;
  - an input VJP always has the shape of the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError, ShapeError

POOL_MODES = ("avg", "max")


def as_tensor(a, name: str = "array") -> np.ndarray:
    """Validate and return `a` as a C-contiguous float64 ndarray.

    Rejects NaN/Inf at the boundary so downstream arithmetic can assume
    finite inputs.
    """
    try:
        out = np.ascontiguousarray(a, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name}: cannot interpret as a float64 array ({exc})") from None
    if out.size and not np.all(np.isfinite(out)):
        raise InputError(f"{name}: non-finite values rejected")
    return out


@dataclass(frozen=True)
class ConvGeometry:
    """Shape bookkeeping for a 2-D cross-correlation layer."""

    kernel_h: int
    kernel_w: int
    stride: int
    pad: int
    in_channels: int
    out_channels: int

    def __post_init__(self):
        if self.stride < 1:
            raise InputError(f"stride must be >= 1, got {self.stride}")
        if self.pad < 0:
            raise InputError(f"padding must be >= 0, got {self.pad}")
        for field in ("kernel_h", "kernel_w", "in_channels", "out_channels"):
            if getattr(self, field) < 1:
                raise InputError(f"{field} must be >= 1, got {getattr(self, field)}")

    def out_hw(self, in_h: int, in_w: int) -> tuple[int, int]:
        oh = (in_h + 2 * self.pad - self.kernel_h) // self.stride + 1
        ow = (in_w + 2 * self.pad - self.kernel_w) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ShapeError(
                f"conv geometry yields empty output: input {in_h}x{in_w}, "
                f"kernel {self.kernel_h}x{self.kernel_w}, stride {self.stride}, "
                f"pad {self.pad}")
        return oh, ow


def _batched(x: np.ndarray, sample_ndim: int) -> tuple[np.ndarray, bool]:
    """Promote a single sample to a batch of one; report whether it was one."""
    if x.ndim == sample_ndim:
        return x[None], False
    if x.ndim == sample_ndim + 1:
        return x, True
    raise ShapeError(
        f"expected {sample_ndim}-d sample or {sample_ndim + 1}-d batch, "
        f"got ndim={x.ndim}")


# ---------------------------------------------------------------------------
# affine


def affine(weight: np.ndarray, bias: np.ndarray, x: np.ndarray) -> np.ndarray:
    """W x + b for a single vector x (n,) or a batch (N, n)."""
    weight = np.asarray(weight, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if weight.ndim != 2 or bias.ndim != 1 or weight.shape[0] != bias.shape[0]:
        raise ShapeError(
            f"affine expects weight (m,n) and bias (m,), got {weight.shape} "
            f"and {bias.shape}")
    x = np.asarray(x, dtype=np.float64)
    xb, batched = _batched(x, 1)
    if xb.shape[1] != weight.shape[1]:
        raise ShapeError(
            f"affine input length {xb.shape[1]} does not match weight "
            f"columns {weight.shape[1]}")
    out = xb @ weight.T + bias
    return out if batched else out[0]


# ---------------------------------------------------------------------------
# convolution


def _check_conv_shapes(kernel, x, geom: ConvGeometry):
    if kernel.shape != (geom.out_channels, geom.in_channels,
                        geom.kernel_h, geom.kernel_w):
        raise ShapeError(
            f"kernel shape {kernel.shape} does not match geometry "
            f"({geom.out_channels},{geom.in_channels},{geom.kernel_h},{geom.kernel_w})")
    if x.shape[1] != geom.in_channels:
        raise ShapeError(
            f"input has {x.shape[1]} channels, geometry expects {geom.in_channels}")


def _pad_hw(x: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return x
    width = [(0, 0)] * (x.ndim - 2) + [(pad, pad), (pad, pad)]
    return np.pad(x, width)


def _conv_windows(x: np.ndarray, geom: ConvGeometry) -> np.ndarray:
    """Strided (N, C, OH, OW, kh, kw) view of the padded input."""
    xp = _pad_hw(x, geom.pad)
    if xp.shape[-2] < geom.kernel_h or xp.shape[-1] < geom.kernel_w:
        raise ShapeError(
            f"kernel {geom.kernel_h}x{geom.kernel_w} larger than padded "
            f"input {xp.shape[-2]}x{xp.shape[-1]}")
    win = sliding_window_view(xp, (geom.kernel_h, geom.kernel_w), axis=(-2, -1))
    return win[..., ::geom.stride, ::geom.stride, :, :]


def conv2d(kernel: np.ndarray, bias: np.ndarray, x: np.ndarray,
           geom: ConvGeometry) -> np.ndarray:
    """2-D cross-correlation with per-output-channel bias.

    kernel: (C_out, C_in, kh, kw); x: (C_in, H, W) or (N, C_in, H, W).
    Equals the explicit Toeplitz-matrix product on the flattened input.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    xb, batched = _batched(x, 3)
    _check_conv_shapes(kernel, xb, geom)
    if bias.shape != (geom.out_channels,):
        raise ShapeError(
            f"bias shape {bias.shape} does not match out_channels {geom.out_channels}")
    win = _conv_windows(xb, geom)  # (N, Ci, OH, OW, kh, kw)
    out = np.tensordot(win, kernel, axes=((1, 4, 5), (1, 2, 3)))  # (N, OH, OW, Co)
    out = np.ascontiguousarray(np.moveaxis(out, 3, 1)) + bias[:, None, None]
    return out if batched else out[0]


def _conv_param_grads(x: np.ndarray, p: np.ndarray, geom: ConvGeometry):
    """(kernel_grad, bias_grad) of <p, conv2d(., b, x)>, batch-summed.

    x is a batch (N, Ci, H, W) and p its adjoint (N, Co, OH, OW).
    """
    win = _conv_windows(x, geom)  # (N, Ci, OH, OW, kh, kw)
    kernel_grad = np.tensordot(p, win, axes=((0, 2, 3), (0, 2, 3)))
    bias_grad = p.sum(axis=(0, 2, 3))
    return kernel_grad, bias_grad


def _conv_input_vjp(kernel: np.ndarray, p: np.ndarray, in_hw: tuple[int, int],
                    geom: ConvGeometry) -> np.ndarray:
    """Input VJP of conv2d for a batched adjoint p of shape (N, Co, OH, OW).

    Scatter-adds the kernel-weighted adjoint back onto the padded input,
    one strided slice add per kernel offset.
    """
    oh, ow = p.shape[2], p.shape[3]
    col = np.tensordot(p, kernel, axes=((1,), (0,)))  # (N, OH, OW, Ci, kh, kw)
    col = np.moveaxis(col, 3, 1)  # (N, Ci, OH, OW, kh, kw)
    n = p.shape[0]
    hpad, wpad = in_hw[0] + 2 * geom.pad, in_hw[1] + 2 * geom.pad
    xg = np.zeros((n, geom.in_channels, hpad, wpad))
    s = geom.stride
    for ky in range(geom.kernel_h):
        for kx in range(geom.kernel_w):
            xg[:, :, ky:ky + s * (oh - 1) + 1:s,
               kx:kx + s * (ow - 1) + 1:s] += col[:, :, :, :, ky, kx]
    if geom.pad:
        xg = xg[:, :, geom.pad:geom.pad + in_hw[0],
                geom.pad:geom.pad + in_hw[1]]
    return np.ascontiguousarray(xg)


# ---------------------------------------------------------------------------
# pooling


def _pool_windows(x: np.ndarray, window: int, stride: int) -> np.ndarray:
    h, w = x.shape[-2], x.shape[-1]
    if window < 1 or stride < 1:
        raise InputError("pool window and stride must be >= 1")
    if h < window or w < window:
        raise ShapeError(f"pool window {window} larger than input {h}x{w}")
    if (h - window) % stride or (w - window) % stride:
        raise ShapeError(
            f"pool window {window}/stride {stride} does not tile input {h}x{w}")
    win = sliding_window_view(x, (window, window), axis=(-2, -1))
    return win[..., ::stride, ::stride, :, :]


def pool(x: np.ndarray, mode: str, window: int, stride: int) -> np.ndarray:
    """Window means (avg) or maxima (max) over non-overlapping tiles."""
    if mode not in POOL_MODES:
        raise InputError(f"unknown pool mode {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    win = _pool_windows(x, window, stride)
    if mode == "avg":
        out = win.mean(axis=(-2, -1))
    else:
        out = win.max(axis=(-2, -1))
    return np.ascontiguousarray(out)


def pool_vjp(x: np.ndarray, p: np.ndarray, mode: str, window: int,
             stride: int) -> np.ndarray:
    """VJP of <p, pool(x)>.

    avg spreads p / window^2 over each tile; max routes p to the first
    row-major argmax of each tile.
    """
    if mode not in POOL_MODES:
        raise InputError(f"unknown pool mode {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    xb, batched = _batched(x, 3)
    pb, pbatched = _batched(p, 3)
    if batched != pbatched:
        raise ShapeError("pool_vjp: x and p must share the batch axis")
    win = _pool_windows(xb, window, stride)
    if pb.shape != win.shape[:4]:
        raise ShapeError(
            f"adjoint shape {pb.shape} does not match pooled shape {win.shape[:4]}")
    xg = np.zeros_like(xb)
    oh, ow = win.shape[2], win.shape[3]
    if mode == "avg":
        spread = pb / float(window * window)
        for wy in range(window):
            for wx in range(window):
                xg[:, :, wy:wy + stride * (oh - 1) + 1:stride,
                   wx:wx + stride * (ow - 1) + 1:stride] += spread
    else:
        flat = win.reshape(win.shape[:4] + (window * window,))
        idx = flat.argmax(axis=-1)  # first max in row-major window order
        iy = idx // window + stride * np.arange(oh)[None, None, :, None]
        ix = idx % window + stride * np.arange(ow)[None, None, None, :]
        n, c = xb.shape[0], xb.shape[1]
        ni = np.arange(n)[:, None, None, None]
        ci = np.arange(c)[None, :, None, None]
        flat_idx = ((ni * c + ci) * xb.shape[2] + iy) * xb.shape[3] + ix
        np.add.at(xg.reshape(-1), flat_idx.reshape(-1), pb.reshape(-1))
    return xg if batched else xg[0]


# ---------------------------------------------------------------------------
# activations


def activate(x: np.ndarray, kind: str) -> np.ndarray:
    """Componentwise activation map."""
    x = np.asarray(x, dtype=np.float64)
    if kind == "tanh":
        return np.tanh(x)
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "identity":
        return x.copy()
    raise InputError(f"unknown activation {kind!r}")


def _activate_vjp_from_value(value: np.ndarray, p: np.ndarray,
                             kind: str) -> np.ndarray:
    """p times the activation derivative, read from the forward value.

    value = activate(x, kind); relu's derivative at 0 is 0, and
    value > 0 exactly where x > 0.
    """
    if kind == "tanh":
        return p * (1.0 - value * value)
    if kind == "relu":
        return p * (value > 0.0)
    if kind == "identity":
        return p.copy()
    raise InputError(f"unknown activation {kind!r}")
