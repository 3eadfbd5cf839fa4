"""Dataset ingestion (IDX files), synthetic data, class weighting.

IDX is the big-endian binary layout used by the classic handwritten-digit
files: magic 0x00000803 for uint8 image tensors of rank 3, 0x00000801 for
uint8 label vectors. Pixels map to [0, 1] by division by 255 on load, so a
save after a plain load reproduces the original bytes exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (IdxCountMismatchError, IdxFormatError,
                     IdxTruncationError, InputError)

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """Sample-major inputs with exact one-hot labels."""

    inputs: np.ndarray  # (N, ...) float64
    labels: np.ndarray  # (N, m) one-hot float64
    m: int
    split: str = ""

    def __post_init__(self):
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise InputError(
                f"{self.inputs.shape[0]} inputs vs {self.labels.shape[0]} labels")
        if self.labels.ndim != 2 or self.labels.shape[1] != self.m:
            raise InputError(f"labels must be (N, {self.m})")
        is01 = (self.labels == 0.0) | (self.labels == 1.0)
        if not (np.all(is01) and np.all(self.labels.sum(axis=1) == 1.0)):
            raise InputError("labels must be exact one-hot rows")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def class_indices(self) -> np.ndarray:
        return np.argmax(self.labels, axis=1)


def _read_idx(path, want_magic: int, want_rank: int) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise IdxTruncationError(f"{path}: too short for a magic number")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic != want_magic:
        raise IdxFormatError(
            f"{path}: magic 0x{magic:08x}, expected 0x{want_magic:08x}")
    header_len = 4 + 4 * want_rank
    if len(raw) < header_len:
        raise IdxTruncationError(f"{path}: truncated dimension header")
    dims = struct.unpack(f">{want_rank}I", raw[4:header_len])
    count = int(np.prod(dims))
    if len(raw) < header_len + count:
        raise IdxTruncationError(
            f"{path}: payload has {len(raw) - header_len} bytes, header "
            f"promises {count}")
    if len(raw) > header_len + count:
        raise IdxFormatError(f"{path}: {len(raw) - header_len - count} trailing bytes")
    data = np.frombuffer(raw, dtype=np.uint8, offset=header_len, count=count)
    return data.reshape(dims)


def load_idx(image_path, label_path, m: int | None = None,
             split: str = "") -> Dataset:
    """Load an IDX image/label pair; pixels scale to [0, 1]."""
    images = _read_idx(image_path, IMAGE_MAGIC, want_rank=3)
    raw_labels = _read_idx(label_path, LABEL_MAGIC, want_rank=1)
    if images.shape[0] != raw_labels.shape[0]:
        raise IdxCountMismatchError(
            f"{image_path} has {images.shape[0]} images but {label_path} "
            f"has {raw_labels.shape[0]} labels")
    if m is None:
        m = int(raw_labels.max()) + 1
    if raw_labels.max() >= m:
        raise IdxFormatError(f"label {raw_labels.max()} out of range for m={m}")
    n, h, w = images.shape
    inputs = images.astype(np.float64).reshape(n, 1, h, w) / 255.0
    labels = np.zeros((n, m))
    labels[np.arange(n), raw_labels] = 1.0
    return Dataset(inputs=inputs, labels=labels, m=m, split=split)


def save_idx(dataset: Dataset, image_path, label_path):
    """Write a dataset back to IDX bytes (inverse of load_idx scaling)."""
    x = dataset.inputs
    if x.ndim != 4 or x.shape[1] != 1:
        raise InputError("save_idx expects (N, 1, H, W) image inputs")
    pixels = np.round(x * 255.0)
    if pixels.min() < 0 or pixels.max() > 255:
        raise InputError("pixel values outside [0, 1]; cannot encode as bytes")
    n, _, h, w = x.shape
    with open(image_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGE_MAGIC, n, h, w))
        fh.write(pixels.astype(np.uint8).tobytes())
    with open(label_path, "wb") as fh:
        fh.write(struct.pack(">II", LABEL_MAGIC, n))
        fh.write(dataset.class_indices.astype(np.uint8).tobytes())


def synthetic_blobs(seed: int, n_per_class: int, m: int, dim: int,
                    separation: float, split: str = "") -> Dataset:
    """Gaussian clusters with unit scatter at centers `separation` apart.

    Centers sit on a circle of radius `separation` in the first two
    coordinates (on a line for dim = 1), so separation 0 collapses every
    class onto the same cloud and large separation gives a margin.
    """
    if m < 2:
        raise InputError(f"need at least 2 classes, got {m}")
    if dim < 1 or n_per_class < 1:
        raise InputError("dim and n_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    centers = np.zeros((m, dim))
    angles = 2.0 * np.pi * np.arange(m) / m
    if dim == 1:
        centers[:, 0] = separation * np.arange(m)
    else:
        centers[:, 0] = separation * np.cos(angles)
        centers[:, 1] = separation * np.sin(angles)
    xs = []
    ys = []
    for c in range(m):
        xs.append(centers[c] + rng.normal(size=(n_per_class, dim)))
        ys.append(np.full(n_per_class, c))
    inputs = np.concatenate(xs, axis=0)
    classes = np.concatenate(ys)
    order = rng.permutation(len(classes))
    inputs = inputs[order]
    classes = classes[order]
    labels = np.zeros((len(classes), m))
    labels[np.arange(len(classes)), classes] = 1.0
    return Dataset(inputs=inputs, labels=labels, m=m, split=split)


def class_weights(dataset: Dataset) -> np.ndarray:
    """w_i = exp(|B| / (m * c_i)) from the class counts of the dataset."""
    counts = dataset.labels.sum(axis=0)
    if np.any(counts == 0):
        missing = int(np.argmin(counts))
        raise InputError(f"class {missing} has no samples")
    return np.exp(len(dataset) / (dataset.m * counts))

