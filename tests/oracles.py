"""Independent oracles shared by the test modules.

Gradients come from central finite differences and structure checks from
explicit index arithmetic. Beyond forward maps passed in as closures, the
only package code used here is the public per-layer forward maps and
per-block HP values, composed in the order the definitions state.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from pmptrain.hamiltonian import aug_hp_value, hp_value
from pmptrain.kernels import activate, affine, conv2d, pool
from pmptrain.regularization import Regularizer

ACCEPT_SLACK = 1e-12  # absolute rounding slack in the acceptance inequality


def fd_grad(f, x, p, h=1e-6):
    """Central-difference gradient of g(x) = <p, f(x)>, coordinate by coordinate."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = g.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        step = h * max(1.0, abs(xf[i]))
        xp = xf.copy()
        xm = xf.copy()
        xp[i] += step
        xm[i] -= step
        fp = np.vdot(p, f(xp.reshape(x.shape)))
        fm = np.vdot(p, f(xm.reshape(x.shape)))
        flat[i] = (fp - fm) / (2.0 * step)
    return g


def fd_scalar_grad(f, x, h=1e-6):
    """Central-difference gradient of a scalar-valued f."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = g.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        step = h * max(1.0, abs(xf[i]))
        xp = xf.copy()
        xm = xf.copy()
        xp[i] += step
        xm[i] -= step
        flat[i] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2.0 * step)
    return g


def rel_err(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = max(np.linalg.norm(want), 1e-12)
    return np.linalg.norm(got - want) / denom


def toeplitz_matrix(kernel, stride, pad, in_h, in_w):
    """Explicit matrix T with conv(k, 0, x) == (T @ x.ravel()).reshape(out).

    Built purely from index arithmetic: output position (co, oy, ox) reads
    input position (ci, oy*s - pad + ky, ox*s - pad + kx) with weight
    kernel[co, ci, ky, kx].
    """
    co, ci, kh, kw = kernel.shape
    oh = (in_h + 2 * pad - kh) // stride + 1
    ow = (in_w + 2 * pad - kw) // stride + 1
    t = np.zeros((co * oh * ow, ci * in_h * in_w))
    for c_out in range(co):
        for oy in range(oh):
            for ox in range(ow):
                row = (c_out * oh + oy) * ow + ox
                for c_in in range(ci):
                    for ky in range(kh):
                        for kx in range(kw):
                            iy = oy * stride - pad + ky
                            ix = ox * stride - pad + kx
                            if 0 <= iy < in_h and 0 <= ix < in_w:
                                col = (c_in * in_h + iy) * in_w + ix
                                t[row, col] = kernel[c_out, c_in, ky, kx]
    return t, (co, oh, ow)


def window_mean_pool(x):
    """2x2 average pooling as the mean over strided (2, 2) sliding windows."""
    win = sliding_window_view(x, (2, 2), axis=(-2, -1))[..., ::2, ::2, :, :]
    return win.mean(axis=(-2, -1))


def _conv_windows(x, geom):
    """Strided (N, C, OH, OW, kh, kw) view of the zero-padded input."""
    pad = geom.pad
    xp = np.pad(x, [(0, 0), (0, 0), (pad, pad), (pad, pad)])
    win = sliding_window_view(xp, (geom.kernel_h, geom.kernel_w), axis=(-2, -1))
    return win[..., ::geom.stride, ::geom.stride, :, :]


def window_conv2d(kernel, bias, x, geom):
    """Batched conv2d as one tensordot over sliding windows."""
    out = np.tensordot(_conv_windows(x, geom), kernel,
                       axes=((1, 4, 5), (1, 2, 3)))  # (N, OH, OW, Co)
    return np.ascontiguousarray(np.moveaxis(out, 3, 1)) + bias[:, None, None]


def window_conv2d_grads(kernel, x, p, geom):
    """(input VJP, kernel_grad, bias_grad) of <p, conv2d> over sliding windows.

    The parameter gradients are one tensordot of p with the windows; the
    input VJP scatter-adds tensordot(p, kernel) back, one strided slice add
    per kernel offset, and crops the padding.
    """
    n, _, oh, ow = p.shape
    kernel_grad = np.tensordot(p, _conv_windows(x, geom),
                               axes=((0, 2, 3), (0, 2, 3)))
    col = np.moveaxis(np.tensordot(p, kernel, axes=((1,), (0,))), 3, 1)
    h, w, pad, s = x.shape[2], x.shape[3], geom.pad, geom.stride
    xg = np.zeros((n, geom.in_channels, h + 2 * pad, w + 2 * pad))
    for ky in range(geom.kernel_h):
        for kx in range(geom.kernel_w):
            xg[:, :, ky:ky + s * (oh - 1) + 1:s,
               kx:kx + s * (ow - 1) + 1:s] += col[:, :, :, :, ky, kx]
    return xg[:, :, pad:pad + h, pad:pad + w], kernel_grad, p.sum(axis=(0, 2, 3))


def argmax_route_pool(x, p):
    """(max pooling of x, VJP of <p, max pooling>) by first-argmax routing.

    Each 2x2 tile becomes a row-major length-4 axis; argmax picks the first
    maximum, and a one-hot mask routes p there, added into zeros.
    """
    *lead, h, w = x.shape
    tiles = x.reshape(*lead, h // 2, 2, w // 2, 2).swapaxes(-3, -2)
    tiles = tiles.reshape(*lead, h // 2, w // 2, 4)
    hot = np.arange(4) == tiles.argmax(axis=-1)[..., None]
    routed = np.where(hot, p[..., None], 0.0)
    routed = routed.reshape(*lead, h // 2, w // 2, 2, 2).swapaxes(-3, -2)
    return tiles.max(axis=-1), np.zeros(x.shape) + routed.reshape(x.shape)


LENET_ARCH = """\
# classic 5-layer layout for 28x28 grayscale digits
conv out=6 k=5 stride=1 pad=2 act=tanh pool=avg2
conv out=16 k=5 stride=1 pad=0 act=tanh pool=avg2
fc out=120 act=tanh
fc out=84 act=tanh
fc out=10 act=identity
"""


def naive_lenet_forward(blocks, image):
    """Straight-line loop evaluation of the 5-layer network on one image.

    blocks is the list of (weight, bias) pairs; image is (1, 28, 28).
    Returns the 10-vector of logits. Deliberately dumb: explicit Python
    loops, standard activation-after-affine order.
    """

    def conv_loops(k, b, x, pad):
        co, ci, kh, kw = k.shape
        h, w = x.shape[1], x.shape[2]
        xp = np.zeros((ci, h + 2 * pad, w + 2 * pad))
        xp[:, pad:pad + h, pad:pad + w] = x
        oh = h + 2 * pad - kh + 1
        ow = w + 2 * pad - kw + 1
        out = np.zeros((co, oh, ow))
        for o in range(co):
            for y in range(oh):
                for xx in range(ow):
                    acc = b[o]
                    for c in range(ci):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += k[o, c, ky, kx] * xp[c, y + ky, xx + kx]
                    out[o, y, xx] = acc
        return out

    def avgpool2(x):
        c, h, w = x.shape
        out = np.zeros((c, h // 2, w // 2))
        for ch in range(c):
            for y in range(h // 2):
                for xx in range(w // 2):
                    out[ch, y, xx] = x[ch, 2 * y:2 * y + 2, 2 * xx:2 * xx + 2].mean()
        return out

    h1 = avgpool2(np.tanh(conv_loops(blocks[0][0], blocks[0][1], image, pad=2)))
    h2 = avgpool2(np.tanh(conv_loops(blocks[1][0], blocks[1][1], h1, pad=0)))
    flat = h2.reshape(-1)
    h3 = np.tanh(blocks[2][0] @ flat + blocks[2][1])
    h4 = np.tanh(blocks[3][0] @ h3 + blocks[3][1])
    return blocks[4][0] @ h4 + blocks[4][1]


def standard_forward(model, params, inputs):
    """Activation-after-affine composition (the unreformulated order)."""
    h = np.asarray(inputs, dtype=np.float64)
    for spec, (w, b) in zip(model.layers, params.blocks):
        if spec.kind == "conv":
            h = conv2d(w, b, h, spec.geom)
        else:
            h = affine(w, b, h.reshape(h.shape[0], -1))
        h = activate(h, spec.act)
        if spec.pool is not None:
            h = pool(h, spec.pool)
    return h


def hp_value_pair(f_pair, u_pair, reg):
    """Layer HP over the concatenated (weight, bias) control block."""
    bias_reg = reg if reg.include_bias else Regularizer("none")
    return hp_value(f_pair[0], u_pair[0], reg) \
        + hp_value(f_pair[1], u_pair[1], bias_reg)


def hp_total(f, u, reg):
    """Sum of layer HP values."""
    assert len(f) == len(u)
    return sum(hp_value_pair(fp, up, reg) for fp, up in zip(f.blocks, u.blocks))


def satisfies_aug_inequality(f, w, u, reg, eps):
    """Relaxed acceptance: augmented HP at w >= plain HP at u (with slack)."""
    return aug_hp_value(f, w, u, reg, eps) >= hp_value(f, u, reg) - ACCEPT_SLACK
