"""Dense float64 tensor primitives with hand-written vector-Jacobian products.

Forward maps (affine, 2-D cross-correlation, pooling, componentwise
activations) and the VJPs the adjoint sweep needs. Everything is a pure
function over ndarrays; no state, no views escape. The fully-connected
VJPs are single matrix products and live inline in the sweeps.

Conventions:
  - dtype is float64 everywhere; inputs are validated and rejected if
    non-finite.
  - affine and conv2d accept a single sample or a batch with one extra
    leading axis (vectors become (N, d), images (C, H, W) become
    (N, C, H, W)); the convolution VJPs take batches only;
  - pooling takes non-overlapping 2x2 tiles of the last two axes, which
    must have even sizes; pool and pool_vjp accept any leading axes;
  - gradient outputs that live in parameter space (kernel_grad, bias_grad)
    are SUMMED over the batch axis, matching their use as sums of
    per-sample adjoint products;
  - an input VJP always has the shape of the input.

Convolution is GEMM-based (im2col). For a chunk of samples, one reused
column block of shape (m, Ci, kh, kw, OH, OW) is filled by kh*kw strided
slice copies of the padded input; viewed as (m, K, OH*OW) with
K = Ci*kh*kw, it feeds one GEMM per sample: the forward kernel (Co, K) @
columns, the kernel gradient p_n (Co, OH*OW) @ columns^T, and, run the
other way, the input VJP kernel^T @ p_n followed by the strided adds of
col2im. The chunk holds as many samples as COLUMN_BLOCK_BYTES allows, so
memory does not grow with the batch beyond the inputs and outputs. Since
every GEMM is per sample with the same shape, a sample's result does not
depend on the chunk size or on how the caller splits the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ShapeError

POOL_MODES = ("avg", "max")
# bytes of one convolution column block (m, Ci, kh, kw, OH, OW): a few
# samples at a time, so the block stays in cache and memory does not grow
# with the batch; every GEMM is per sample, so results do not depend on it
COLUMN_BLOCK_BYTES = 2 << 20


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


def _column_chunk(geom: ConvGeometry, oh: int, ow: int, n: int) -> int:
    """Samples per column block for a batch of n: as many as
    COLUMN_BLOCK_BYTES holds, at most n and at least 1."""
    per_sample = 8 * geom.in_channels * geom.kernel_h * geom.kernel_w * oh * ow
    return max(1, min(n, COLUMN_BLOCK_BYTES // per_sample))


def _tap(a: np.ndarray, ky: int, kx: int, oh: int, ow: int, s: int):
    """The (OH, OW) strided view of a's last two axes that kernel tap (ky, kx) reads."""
    return a[..., ky:ky + s * (oh - 1) + 1:s, kx:kx + s * (ow - 1) + 1:s]


def _column_blocks(x: np.ndarray, geom: ConvGeometry, oh: int, ow: int):
    """Yield (i, cols): the (m, Ci*kh*kw, OH*OW) columns of samples x[i:i+m].

    cols[n, (ci, ky, kx), (oy, ox)] = padded x[i+n, ci, oy*s + ky, ox*s + kx].
    One buffer is filled by kh*kw strided slice copies per chunk and reused,
    so the caller must be done with a block before asking for the next.
    """
    n, ci, h, w = x.shape
    kh, kw, s, pad = geom.kernel_h, geom.kernel_w, geom.stride, geom.pad
    m = _column_chunk(geom, oh, ow, n)
    cols = np.empty((m, ci, kh, kw, oh, ow))
    if pad:
        xp = np.zeros((m, ci, h + 2 * pad, w + 2 * pad))  # borders stay zero
    for i in range(0, n, m):
        c = cols[:min(m, n - i)]
        src = x[i:i + m]
        if pad:
            xp[:len(c), :, pad:pad + h, pad:pad + w] = src
            src = xp[:len(c)]
        for ky in range(kh):
            for kx in range(kw):
                c[:, :, ky, kx] = _tap(src, ky, kx, oh, ow, s)
        yield i, c.reshape(len(c), ci * kh * kw, oh * ow)


def conv2d(kernel: np.ndarray, bias: np.ndarray, x: np.ndarray,
           geom: ConvGeometry) -> np.ndarray:
    """2-D cross-correlation with per-output-channel bias.

    kernel: (C_out, C_in, kh, kw); x: (C_in, H, W) or (N, C_in, H, W).
    Equals the explicit Toeplitz-matrix product on the flattened input.
    Each sample's output is one GEMM, kernel (Co, K) @ columns (K, OH*OW),
    written straight into the NCHW result.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    xb, batched = _batched(x, 3)
    _check_conv_shapes(kernel, xb, geom)
    if bias.shape != (geom.out_channels,):
        raise ShapeError(
            f"bias shape {bias.shape} does not match out_channels {geom.out_channels}")
    oh, ow = geom.out_hw(*xb.shape[2:])
    co = geom.out_channels
    k2 = kernel.reshape(co, -1)
    out = np.empty((xb.shape[0], co, oh * ow))
    for i, cols in _column_blocks(xb, geom, oh, ow):
        o = out[i:i + len(cols)]
        np.matmul(k2, cols, out=o)
        o += bias[:, None]
    out = out.reshape(-1, co, oh, ow)
    return out if batched else out[0]


def _conv_param_grads(x: np.ndarray, p: np.ndarray, geom: ConvGeometry):
    """(kernel_grad, bias_grad) of <p, conv2d(., b, x)>, batch-summed.

    x is a batch (N, Ci, H, W) and p its adjoint (N, Co, OH, OW). Each
    sample contributes p_n (Co, OH*OW) @ columns_n^T; the N blocks are
    summed once at the end, so no sum depends on the chunking.
    """
    n, co, oh, ow = p.shape
    blocks = np.empty((n, co, geom.in_channels * geom.kernel_h * geom.kernel_w))
    pf = p.reshape(n, co, oh * ow)
    for i, cols in _column_blocks(x, geom, oh, ow):
        np.matmul(pf[i:i + len(cols)], cols.transpose(0, 2, 1),
                  out=blocks[i:i + len(cols)])
    kernel_grad = blocks.sum(axis=0).reshape(co, geom.in_channels,
                                             geom.kernel_h, geom.kernel_w)
    bias_grad = p.sum(axis=(0, 2, 3))
    return kernel_grad, bias_grad


def _conv_input_vjp(kernel: np.ndarray, p: np.ndarray, in_hw: tuple[int, int],
                    geom: ConvGeometry) -> np.ndarray:
    """Input VJP of conv2d for a batched adjoint p of shape (N, Co, OH, OW).

    Per sample, kernel^T (K, Co) @ p_n (Co, OH*OW) gives a column block,
    which is scatter-added back onto the padded input (col2im), one
    strided slice add per kernel offset.
    """
    n, co, oh, ow = p.shape
    ci, kh, kw, s, pad = (geom.in_channels, geom.kernel_h, geom.kernel_w,
                          geom.stride, geom.pad)
    h, w = in_hw
    kt = kernel.reshape(co, -1).T
    pf = p.reshape(n, co, oh * ow)
    m = _column_chunk(geom, oh, ow, n)
    cols = np.empty((m, ci * kh * kw, oh * ow))
    xg = np.empty((m, ci, h + 2 * pad, w + 2 * pad))
    out = np.empty((n, ci, h, w))
    for i in range(0, n, m):
        c = cols[:min(m, n - i)]
        g = xg[:len(c)]
        np.matmul(kt, pf[i:i + m], out=c)
        c6 = c.reshape(len(c), ci, kh, kw, oh, ow)
        g.fill(0.0)
        for ky in range(kh):
            for kx in range(kw):
                tap = _tap(g, ky, kx, oh, ow, s)
                tap += c6[:, :, ky, kx]
        out[i:i + len(c)] = g[:, :, pad:pad + h, pad:pad + w]
    return out


# ---------------------------------------------------------------------------
# pooling


def _pool_tiles(x: np.ndarray, mode: str) -> list[np.ndarray]:
    """The four strided views x[..., dy::2, dx::2] of the 2x2 tiles, row-major."""
    if mode not in POOL_MODES:
        raise InputError(f"unknown pool mode {mode!r}")
    if x.ndim < 2 or x.shape[-2] % 2 or x.shape[-1] % 2:
        raise ShapeError(
            f"2x2 pooling needs even height and width, got shape {x.shape}")
    return [x[..., dy::2, dx::2] for dy in (0, 1) for dx in (0, 1)]


def pool(x: np.ndarray, mode: str) -> np.ndarray:
    """Means (avg) or maxima (max) over non-overlapping 2x2 tiles."""
    x = np.asarray(x, dtype=np.float64)
    a, b, c, d = _pool_tiles(x, mode)
    if mode == "avg":
        # numpy's mean over (2, 2) windows adds each tile row first when the
        # input is at least 4 wide; this grouping reproduces it bit for bit,
        # while ((a + b) + c) + d and (a + c) + (b + d) can differ in the last bit
        return ((a + b) + (c + d)) / 4.0
    return np.maximum(np.maximum(a, b), np.maximum(c, d))


def pool_vjp(x: np.ndarray, p: np.ndarray, mode: str,
             top: np.ndarray) -> np.ndarray:
    """VJP of <p, pool(x)>, where top = pool(x, mode) from the forward pass.

    avg spreads p / 4 over each tile; max routes p to the first row-major
    tile entry equal to top. Either way p is added into zeros, so a -0.0
    adjoint lands as +0.0.
    """
    x = np.asarray(x, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    tiles = _pool_tiles(x, mode)
    if p.shape != tiles[0].shape or np.shape(top) != p.shape:
        raise ShapeError(
            f"adjoint {p.shape} and pooled values {np.shape(top)} must both "
            f"have the pooled shape {tiles[0].shape}")
    xg = np.zeros(x.shape)
    grads = _pool_tiles(xg, mode)  # views: adding into them fills xg
    if mode == "avg":
        spread = p / 4.0
        for g in grads:
            g += spread
    else:
        free = np.ones(p.shape, dtype=bool)
        for tile, g in zip(tiles, grads):
            hit = free & (tile == top)
            free &= ~hit
            g += p * hit
    return xg


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
