"""Deterministic synthetic digit images.

Renders the ten digits from fixed 5x7 dot-matrix glyphs into 28x28
grayscale images with a random affine warp (rotation, scale, shear,
shift), light blur, and speckle noise. The result is a ten-class image
problem with the same tensor layout as scanned-digit data (N, 1, 28, 28)
in [0, 1], byte-quantized so files written with save_idx round-trip
exactly.

Everything is derived from a single seed, so a (seed, n_per_class) pair
always yields the same arrays.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .data import Dataset
from .errors import InputError

_GLYPHS = [
    ("01110", "10001", "10011", "10101", "11001", "10001", "01110"),
    ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    ("01110", "10001", "00001", "00010", "00100", "01000", "11111"),
    ("11111", "00010", "00100", "00010", "00001", "10001", "01110"),
    ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
]

IMAGE_HW = 28


def _glyph_canvas(digit: int) -> np.ndarray:
    rows = _GLYPHS[digit]
    bitmap = np.array([[float(c) for c in row] for row in rows])
    big = np.kron(bitmap, np.ones((3, 3)))  # 21 x 15
    canvas = np.zeros((IMAGE_HW, IMAGE_HW))
    top = (IMAGE_HW - big.shape[0]) // 2
    left = (IMAGE_HW - big.shape[1]) // 2
    canvas[top:top + big.shape[0], left:left + big.shape[1]] = big
    return canvas


def _warp(canvas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    angle = rng.uniform(-0.20, 0.20)
    scale = rng.uniform(0.85, 1.15)
    shear = rng.uniform(-0.15, 0.15)
    shift = rng.uniform(-2.5, 2.5, size=2)
    c, s = np.cos(angle), np.sin(angle)
    lin = np.array([[c, -s], [s, c]]) @ np.array([[1.0, shear], [0.0, 1.0]])
    lin = lin / scale
    center = (IMAGE_HW - 1) / 2.0
    offset = np.array([center, center]) - lin @ np.array(
        [center + shift[0], center + shift[1]])
    warped = ndimage.affine_transform(canvas, lin, offset=offset, order=1,
                                      mode="constant", cval=0.0)
    warped = ndimage.gaussian_filter(warped, sigma=0.6)
    warped = warped + rng.normal(0.0, 0.02, size=warped.shape)
    warped = np.clip(warped, 0.0, 1.0)
    return np.round(warped * 255.0) / 255.0


def synthetic_digits(seed: int, n_per_class: int, split: str = "") -> Dataset:
    """Balanced ten-class digit set, shuffled, shapes (N,1,28,28)/(N,10)."""
    if n_per_class < 1:
        raise InputError("n_per_class must be at least 1")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    n = 10 * n_per_class
    images = np.zeros((n, 1, IMAGE_HW, IMAGE_HW))
    labels = np.zeros((n, 10))
    canvases = [_glyph_canvas(d) for d in range(10)]
    idx = 0
    for digit in range(10):
        for _ in range(n_per_class):
            images[idx, 0] = _warp(canvases[digit], rng)
            labels[idx, digit] = 1.0
            idx += 1
    order = rng.permutation(n)
    return Dataset(inputs=images[order], labels=labels[order], m=10,
                   split=split)
