"""Dataset loading, IDX byte format, synthetic sources, class weighting."""

import os
import struct

import numpy as np
import pytest

from pmptrain.data import (Dataset, IMAGE_MAGIC, LABEL_MAGIC, class_weights,
                           load_idx, save_idx, synthetic_blobs)
from pmptrain.digits import synthetic_digits
from pmptrain.errors import (IdxCountMismatchError, IdxFormatError,
                             IdxTruncationError, InputError)


def write_idx_pair(tmp_path, pixels, labels, prefix=""):
    """Craft a tiny IDX image/label file pair from uint8 arrays."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, h, w = pixels.shape
    ip = tmp_path / f"{prefix}images.idx"
    lp = tmp_path / f"{prefix}labels.idx"
    ip.write_bytes(struct.pack(">IIII", IMAGE_MAGIC, n, h, w) + pixels.tobytes())
    lp.write_bytes(struct.pack(">II", LABEL_MAGIC, n) + labels.tobytes())
    return ip, lp


# ------------------------------------------------------------ IDX parsing

def test_load_idx_scales_bytes(tmp_path):
    pixels = np.array([[[0, 51], [102, 255]],
                       [[255, 0], [0, 128]]], dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, pixels, [1, 0])
    data = load_idx(ip, lp)
    assert data.inputs.shape == (2, 1, 2, 2)
    assert data.inputs[0, 0, 0, 0] == 0.0
    assert data.inputs[0, 0, 0, 1] == 51.0 / 255.0
    assert data.inputs[0, 0, 1, 1] == 1.0
    assert data.m == 2
    assert np.array_equal(data.class_indices, [1, 0])


def test_load_idx_explicit_class_count(tmp_path):
    ip, lp = write_idx_pair(tmp_path, np.zeros((3, 1, 1), dtype=np.uint8),
                            [0, 1, 1])
    data = load_idx(ip, lp, m=10)
    assert data.labels.shape == (3, 10)


def test_load_idx_rejects_wrong_magic(tmp_path):
    ip, lp = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
    with pytest.raises(IdxFormatError):
        load_idx(lp, lp)  # label magic where image magic is required
    with pytest.raises(IdxFormatError):
        load_idx(ip, ip)


def test_load_idx_rejects_truncation(tmp_path):
    ip, lp = write_idx_pair(tmp_path, np.zeros((2, 3, 3), dtype=np.uint8),
                            [0, 1])
    raw = ip.read_bytes()
    ip.write_bytes(raw[:-5])
    with pytest.raises(IdxTruncationError):
        load_idx(ip, lp)
    short = tmp_path / "short.idx"
    short.write_bytes(b"\x00\x00")
    with pytest.raises(IdxTruncationError):
        load_idx(short, lp)


def test_load_idx_rejects_trailing_bytes(tmp_path):
    ip, lp = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
    ip.write_bytes(ip.read_bytes() + b"\x00")
    with pytest.raises(IdxFormatError):
        load_idx(ip, lp)


def test_load_idx_rejects_count_mismatch(tmp_path):
    ip, _ = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8),
                           [0, 1])
    _, lp3 = write_idx_pair(tmp_path, np.zeros((3, 2, 2), dtype=np.uint8),
                            [0, 1, 0], prefix="three-")
    with pytest.raises(IdxCountMismatchError):
        load_idx(ip, lp3)


def test_load_idx_rejects_label_out_of_range(tmp_path):
    ip, lp = write_idx_pair(tmp_path, np.zeros((2, 1, 1), dtype=np.uint8),
                            [0, 7])
    with pytest.raises(IdxFormatError):
        load_idx(ip, lp, m=3)


def test_idx_round_trip_bit_for_bit(tmp_path):
    rng = np.random.default_rng(42)
    pixels = rng.integers(0, 256, size=(5, 4, 6)).astype(np.uint8)
    labels = rng.integers(0, 3, size=5).astype(np.uint8)
    ip, lp = write_idx_pair(tmp_path, pixels, labels)
    original_images = ip.read_bytes()
    original_labels = lp.read_bytes()
    data = load_idx(ip, lp, m=3)
    ip2, lp2 = tmp_path / "i2.idx", tmp_path / "l2.idx"
    save_idx(data, ip2, lp2)
    assert ip2.read_bytes() == original_images
    assert lp2.read_bytes() == original_labels


def test_save_idx_rejects_out_of_range_pixels(tmp_path):
    data = Dataset(inputs=np.full((1, 1, 2, 2), 1.5),
                   labels=np.array([[1.0, 0.0]]), m=2)
    with pytest.raises(InputError):
        save_idx(data, tmp_path / "i.idx", tmp_path / "l.idx")


# ------------------------------------------------------- dataset container

def test_dataset_rejects_soft_labels():
    with pytest.raises(InputError):
        Dataset(inputs=np.zeros((1, 2)), labels=np.array([[0.5, 0.5]]), m=2)
    with pytest.raises(InputError):
        Dataset(inputs=np.zeros((1, 2)), labels=np.array([[1.0, 1.0]]), m=2)


def test_dataset_rejects_count_mismatch():
    with pytest.raises(InputError):
        Dataset(inputs=np.zeros((3, 2)), labels=np.eye(2), m=2)


# --------------------------------------------------------- synthetic data

def test_blobs_shapes_and_balance():
    data = synthetic_blobs(seed=7, n_per_class=12, m=4, dim=5, separation=3.0)
    assert data.inputs.shape == (48, 5)
    assert data.labels.shape == (48, 4)
    assert np.array_equal(data.labels.sum(axis=0), [12, 12, 12, 12])


def test_blobs_deterministic():
    a = synthetic_blobs(seed=7, n_per_class=6, m=3, dim=2, separation=2.0)
    b = synthetic_blobs(seed=7, n_per_class=6, m=3, dim=2, separation=2.0)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)


def test_blobs_separation_moves_class_means_apart():
    far = synthetic_blobs(seed=1, n_per_class=200, m=2, dim=2,
                          separation=6.0)
    idx = far.class_indices
    mean0 = far.inputs[idx == 0].mean(axis=0)
    mean1 = far.inputs[idx == 1].mean(axis=0)
    # centers are 12 apart with unit scatter; sample means land close
    assert np.linalg.norm(mean0 - mean1) > 10.0


def test_digits_shapes_and_determinism():
    a = synthetic_digits(seed=5, n_per_class=3)
    b = synthetic_digits(seed=5, n_per_class=3)
    assert a.inputs.shape == (30, 1, 28, 28)
    assert a.labels.shape == (30, 10)
    assert a.m == 10
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)
    assert a.inputs.min() >= 0.0 and a.inputs.max() <= 1.0


def test_digits_are_byte_quantized(tmp_path):
    data = synthetic_digits(seed=2, n_per_class=2)
    scaled = data.inputs * 255.0
    assert np.allclose(scaled, np.round(scaled), atol=1e-9)
    ip, lp = tmp_path / "d.idx", tmp_path / "dl.idx"
    save_idx(data, ip, lp)
    back = load_idx(ip, lp, m=10)
    assert np.array_equal(back.inputs, data.inputs)
    assert np.array_equal(back.labels, data.labels)


def test_digits_classes_distinguishable():
    # different digits must differ in pixels, else the task is degenerate
    data = synthetic_digits(seed=0, n_per_class=1)
    idx = data.class_indices
    for a in range(10):
        for b in range(a + 1, 10):
            xa = data.inputs[idx == a][0]
            xb = data.inputs[idx == b][0]
            assert np.abs(xa - xb).sum() > 1.0


# ---------------------------------------------------------- class weights

def test_class_weights_formula():
    labels = np.zeros((6, 2))
    labels[:4, 0] = 1.0
    labels[4:, 1] = 1.0
    data = Dataset(inputs=np.zeros((6, 3)), labels=labels, m=2)
    w = class_weights(data)
    assert w[0] == np.exp(6.0 / (2.0 * 4.0))
    assert w[1] == np.exp(6.0 / (2.0 * 2.0))
    assert w[1] > w[0]  # rarer class weighs more


def test_class_weights_balanced_case():
    data = synthetic_blobs(seed=0, n_per_class=10, m=5, dim=2, separation=1.0)
    w = class_weights(data)
    assert np.allclose(w, np.exp(1.0), atol=0.0)


def test_class_weights_missing_class():
    labels = np.zeros((3, 3))
    labels[:, 0] = 1.0
    data = Dataset(inputs=np.zeros((3, 2)), labels=labels, m=3)
    with pytest.raises(InputError):
        class_weights(data)


# ----------------------------------------------- scanned-digit files (opt)

MNIST_DIR = os.environ.get("MNIST_DIR")

needs_mnist = pytest.mark.skipif(
    MNIST_DIR is None,
    reason="MNIST_DIR not set; place train/t10k IDX files there to enable")


@needs_mnist
def test_mnist_loader_matches_raw_bytes():
    ip = os.path.join(MNIST_DIR, "train-images-idx3-ubyte")
    lp = os.path.join(MNIST_DIR, "train-labels-idx1-ubyte")
    data = load_idx(ip, lp, m=10)
    with open(ip, "rb") as fh:
        raw = fh.read()
    n, h, w = struct.unpack(">III", raw[4:16])
    assert data.inputs.shape == (n, 1, h, w)
    # the loader must reproduce the exact byte-level pixel sum
    byte_sum = int(np.frombuffer(raw, dtype=np.uint8, offset=16).sum())
    assert np.isclose(data.inputs.sum() * 255.0, byte_sum, atol=1e-3)
    with open(lp, "rb") as fh:
        raw_labels = np.frombuffer(fh.read(), dtype=np.uint8, offset=8)
    assert np.array_equal(data.class_indices, raw_labels)
