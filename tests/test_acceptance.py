"""Acceptance gate: ten checks at stated tolerances, one test per check.

Checks 4 through 7 define a fixed protocol: LeNet-style network, 300
full-batch iterations, elastic-net or l2l0 regularizer at rho = 1e-4,
alpha = 0.8, eps0 = 1, eta = 1e-9, with sqh (mu = 7, zeta = 0.01) or ma
(mu = 1.1, zeta = 1, omega = 5). The protocol runs twice:

* on scanned handwritten digits when MNIST_DIR points at the classic
  IDX files (2,000-image training subset, full 10,000-image test set);
  these tests skip when the files are absent, since the images cannot
  be fabricated;
* unconditionally on the synthetic glyph digits, same code path and
  hyperparameters, smaller corpus (600 train / 1,000 test) — thresholds
  below were calibrated on this corpus and hold with wide margin.
"""

import dataclasses
import itertools
import math
import os
import time

import numpy as np
import pytest
from oracles import hp_total

from pmptrain.cli import _prox_gap, main
from pmptrain.data import load_idx
from pmptrain.digits import synthetic_digits
from pmptrain.errors import PmpTrainError
from pmptrain.metrics import accuracy, sparsity_pct
from pmptrain.network import (batch_objective, build_model, init_params,
                              param_shapes)
from pmptrain.regularization import Regularizer
from pmptrain.trainer import TrainConfig, diagnostics, sweeps, train
from pmptrain.data import synthetic_blobs

LENET_ARCH = """
conv out=6 k=5 stride=1 pad=2 act=tanh pool=avg2
conv out=16 k=5 stride=1 pad=0 act=tanh pool=avg2
fc out=120 act=tanh
fc out=84 act=tanh
fc out=10 act=identity
"""

PROTOCOL_SEED = 11
PROTOCOL_ITERATIONS = 300
ELASTIC = Regularizer("elastic-net", alpha=0.8, rho=1e-4)
L2L0 = Regularizer("l2l0", alpha=0.8, rho=1e-4)

MNIST_DIR = os.environ.get("MNIST_DIR")
MNIST_SKIP = ("MNIST_DIR not set; the scanned-digit protocol needs the "
              "classic IDX files (train-images-idx3-ubyte etc.)")

# thresholds for the synthetic-glyph mirror of checks 5-7, calibrated on
# this exact corpus and protocol
SURROGATE_MIN_TEST_ACC = 90.0
SURROGATE_MIN_SPARSITY = 50.0
SURROGATE_ACC_GAP_PTS = 3.0
LS_STEP_RATIO = 0.7


def protocol_run(model, train_set, reg, strategy):
    mu, zeta = (7.0, 0.01) if strategy == "sqh" else (1.1, 1.0)
    config = TrainConfig(seed=PROTOCOL_SEED, k_max=PROTOCOL_ITERATIONS,
                         eps0=1.0, mu=mu, eta=1e-9, strategy=strategy,
                         zeta=zeta, omega=5, reg=reg)
    params, log = train(config, model, train_set)
    return config, params, log


def monotonicity_violations(config, log):
    bad = 0
    for r in log.records:
        if not r.mb_loss_after <= r.mb_loss_before - config.eta * r.step_sq:
            bad += 1
    for prev, nxt in zip(log.records, log.records[1:]):
        if nxt.mb_loss_before != prev.mb_loss_after:
            bad += 1
    return bad


# ------------------------------------------------------ protocol fixtures

@pytest.fixture(scope="module")
def surrogate_sets():
    return (synthetic_digits(seed=101, n_per_class=60, split="train"),
            synthetic_digits(seed=202, n_per_class=100, split="test"))


@pytest.fixture(scope="module")
def surrogate_model():
    return build_model(LENET_ARCH, (1, 28, 28))


@pytest.fixture(scope="module")
def surrogate_en(surrogate_model, surrogate_sets):
    return protocol_run(surrogate_model, surrogate_sets[0], ELASTIC, "sqh")


@pytest.fixture(scope="module")
def surrogate_l0(surrogate_model, surrogate_sets):
    return protocol_run(surrogate_model, surrogate_sets[0], L2L0, "sqh")


@pytest.fixture(scope="module")
def surrogate_ma(surrogate_model, surrogate_sets):
    return protocol_run(surrogate_model, surrogate_sets[0], ELASTIC, "ma")


@pytest.fixture(scope="module")
def mnist_sets():
    if MNIST_DIR is None:
        pytest.skip(MNIST_SKIP)
    full = load_idx(os.path.join(MNIST_DIR, "train-images-idx3-ubyte"),
                    os.path.join(MNIST_DIR, "train-labels-idx1-ubyte"),
                    m=10, split="train")
    test = load_idx(os.path.join(MNIST_DIR, "t10k-images-idx3-ubyte"),
                    os.path.join(MNIST_DIR, "t10k-labels-idx1-ubyte"),
                    m=10, split="test")
    # seeded 2,000-image subset without replacement, in index order
    idx = np.sort(np.random.default_rng(4242).choice(len(full), size=2000,
                                                     replace=False))
    return dataclasses.replace(full, inputs=full.inputs[idx],
                               labels=full.labels[idx]), test


@pytest.fixture(scope="module")
def mnist_en(surrogate_model, mnist_sets):
    return protocol_run(surrogate_model, mnist_sets[0], ELASTIC, "sqh")


@pytest.fixture(scope="module")
def mnist_l0(surrogate_model, mnist_sets):
    return protocol_run(surrogate_model, mnist_sets[0], L2L0, "sqh")


@pytest.fixture(scope="module")
def mnist_ma(surrogate_model, mnist_sets):
    return protocol_run(surrogate_model, mnist_sets[0], ELASTIC, "ma")


# -------------------------------------------------------------- criterion 1

def test_criterion_01_layer_update_prox_exactness():
    """10,000 random coordinate instances vs a dense candidate oracle."""
    rng = np.random.default_rng(424242)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10000):
        worst = max(worst, _prox_gap(rng))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10, f"worst objective gap {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


# -------------------------------------------------------------- criterion 2

def test_criterion_02_minibatch_hamiltonian_unbiased():
    """Mean over all 20 half-size batches equals the full-batch HP."""
    model = build_model("fc out=6 act=tanh\nfc out=3 act=identity", (4,))
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(6, 4))
    labels = np.zeros((6, 3))
    labels[np.arange(6), rng.integers(0, 3, 6)] = 1.0
    reg = Regularizer("elastic-net", alpha=0.5, rho=1e-3)
    subsets = list(itertools.combinations(range(6), 3))
    assert len(subsets) == 20

    def grad_at(params, idx):
        return sweeps(model, params, xs[idx], labels[idx], reg)[1]

    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        u = init_params(model, 1000 + trial)
        w = init_params(model, 2000 + trial)
        full = hp_total(grad_at(u, np.arange(6)), w, reg)
        mini = [hp_total(grad_at(u, np.array(s)), w, reg)
                for s in subsets]
        worst = max(worst, abs(float(np.mean(mini)) - full))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12, f"worst bias {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.1f}s"


# -------------------------------------------------------------- criterion 3

def test_criterion_03_gradient_matches_finite_differences():
    """Every layer's F equals -d(mean loss)/du to 1e-6 relative error."""
    arch = """
    conv out=4 k=3 stride=1 pad=1 act=tanh pool=avg2
    conv out=6 k=3 stride=1 pad=1 act=tanh pool=avg2
    fc out=32 act=tanh
    fc out=10 act=identity
    """
    model = build_model(arch, (1, 12, 12))
    params = init_params(model, 5)
    assert sum(math.prod(ws) + math.prod(bs)
               for ws, bs in param_shapes(model)) <= 5000
    rng = np.random.default_rng(9)
    xs = rng.uniform(0.0, 1.0, size=(8, 1, 12, 12))
    ys = np.zeros((8, 10))
    ys[np.arange(8), rng.integers(0, 10, 8)] = 1.0

    _, f = sweeps(model, params, xs, ys, Regularizer())

    def mean_loss():
        return batch_objective(model, params, xs, ys, Regularizer())

    t0 = time.perf_counter()
    h = 1e-6
    for l, (fw, fb) in enumerate(f.blocks):
        w, b = params.blocks[l]
        fd = np.zeros(w.size + b.size)
        for c in range(fd.size):
            target = w.reshape(-1) if c < w.size else b.reshape(-1)
            off = c if c < w.size else c - w.size
            keep = target[off]
            target[off] = keep + h
            up = mean_loss()
            target[off] = keep - h
            down = mean_loss()
            target[off] = keep
            fd[c] = (up - down) / (2.0 * h)
        flat = np.concatenate([fw.ravel(), fb.ravel()])
        rel = np.linalg.norm(flat + fd) / max(np.linalg.norm(fd), 1e-30)
        assert rel <= 1e-6, f"layer {l}: relative error {rel:.3e}"
    assert time.perf_counter() - t0 < 60.0


# ----------------------------------------------------------- criteria 4-7

def test_criterion_04_full_batch_monotonicity(surrogate_en, surrogate_model,
                                              surrogate_sets):
    config, params, log = surrogate_en
    assert len(log.records) == PROTOCOL_ITERATIONS
    assert monotonicity_violations(config, log) == 0
    # the logged chain must end at the objective the final parameters give
    recomputed = batch_objective(surrogate_model, params,
                                 surrogate_sets[0].inputs,
                                 surrogate_sets[0].labels, config.reg)
    assert recomputed == log.records[-1].mb_loss_after


def test_criterion_05_protocol_reaches_test_accuracy(surrogate_en,
                                                     surrogate_model,
                                                     surrogate_sets):
    _, params, _ = surrogate_en
    acc = accuracy(surrogate_model, params, surrogate_sets[1])
    assert acc >= SURROGATE_MIN_TEST_ACC, f"test accuracy {acc:.2f}%"


def test_criterion_06_l0_sparsity_with_held_accuracy(surrogate_en,
                                                     surrogate_l0,
                                                     surrogate_model,
                                                     surrogate_sets):
    config, params, _ = surrogate_l0
    sp = sparsity_pct(params, config.reg.include_bias)
    assert sp >= SURROGATE_MIN_SPARSITY, f"sparsity {sp:.2f}%"
    acc_l0 = accuracy(surrogate_model, params, surrogate_sets[1])
    acc_en = accuracy(surrogate_model, surrogate_en[1], surrogate_sets[1])
    assert acc_l0 >= acc_en - SURROGATE_ACC_GAP_PTS, \
        f"l2l0 {acc_l0:.2f}% vs elastic-net {acc_en:.2f}%"
    # zeroed entries are exact zeros, not small numbers
    tiny = 0
    for w, b in params.blocks:
        for block in (w, b):
            nonzero = block[block != 0.0]
            tiny += int(np.sum(np.abs(nonzero) < 1e-300))
    assert tiny == 0


def test_criterion_07_ma_linesearch_efficiency(surrogate_en, surrogate_ma):
    sqh_steps = surrogate_en[2].records[-1].ls_steps_cum
    ma_steps = surrogate_ma[2].records[-1].ls_steps_cum
    assert ma_steps <= LS_STEP_RATIO * sqh_steps, \
        f"ma {ma_steps} vs sqh {sqh_steps}"


def test_criterion_04_full_batch_monotonicity_mnist(mnist_en, surrogate_model,
                                                    mnist_sets):
    config, params, log = mnist_en
    assert len(log.records) == PROTOCOL_ITERATIONS
    assert monotonicity_violations(config, log) == 0
    recomputed = batch_objective(surrogate_model, params,
                                 mnist_sets[0].inputs,
                                 mnist_sets[0].labels, config.reg)
    assert recomputed == log.records[-1].mb_loss_after


def test_criterion_05_test_accuracy_mnist(mnist_en, surrogate_model,
                                          mnist_sets):
    _, params, _ = mnist_en
    acc = accuracy(surrogate_model, params, mnist_sets[1])
    assert acc >= 90.0, f"test accuracy {acc:.2f}%"


def test_criterion_06_l0_sparsity_mnist(mnist_en, mnist_l0, surrogate_model,
                                        mnist_sets):
    config, params, _ = mnist_l0
    sp = sparsity_pct(params, config.reg.include_bias)
    assert sp >= 50.0, f"sparsity {sp:.2f}%"
    acc_l0 = accuracy(surrogate_model, params, mnist_sets[1])
    acc_en = accuracy(surrogate_model, mnist_en[1], mnist_sets[1])
    assert acc_l0 >= acc_en - 3.0, \
        f"l2l0 {acc_l0:.2f}% vs elastic-net {acc_en:.2f}%"
    tiny = 0
    for w, b in params.blocks:
        for block in (w, b):
            nonzero = block[block != 0.0]
            tiny += int(np.sum(np.abs(nonzero) < 1e-300))
    assert tiny == 0


def test_criterion_07_ma_linesearch_efficiency_mnist(mnist_en, mnist_ma):
    sqh_steps = mnist_en[2].records[-1].ls_steps_cum
    ma_steps = mnist_ma[2].records[-1].ls_steps_cum
    assert ma_steps <= LS_STEP_RATIO * sqh_steps, \
        f"ma {ma_steps} vs sqh {sqh_steps}"


# -------------------------------------------------------------- criterion 8

def test_criterion_08_rho_zero_update_is_explicit():
    """One unregularized step equals u + F/eps entrywise to 1e-12."""
    arch = """
    conv out=3 k=3 stride=1 pad=1 act=tanh pool=max2
    fc out=10 act=identity
    """
    model = build_model(arch, (1, 28, 28))
    data = synthetic_digits(seed=31, n_per_class=4)
    config = TrainConfig(seed=13, k_max=1, reg=Regularizer("none"))
    u0 = init_params(model, 13)
    u1, log = train(config, model, data, params=u0)
    eps = log.records[0].epsilon

    _, f = sweeps(model, u0, data.inputs, data.labels, Regularizer())
    worst = 0.0
    for (w1, b1), (w0, b0), (fw, fb) in zip(u1.blocks, u0.blocks, f.blocks):
        worst = max(worst, float(np.max(np.abs(w1 - (w0 + fw / eps)))))
        worst = max(worst, float(np.max(np.abs(b1 - (b0 + fb / eps)))))
    assert worst <= 1e-12, f"max deviation {worst:.3e}"


# -------------------------------------------------------------- criterion 9

def test_criterion_09_gap_shrinks_with_batch_size():
    """Mean distance-to-maximizer falls as M grows; zero at full batch."""
    arch = "fc out=16 act=tanh\nfc out=4 act=identity"
    data = synthetic_blobs(seed=7, n_per_class=32, m=4, dim=8,
                           separation=2.0)
    model = build_model(arch, (8,))
    reg = Regularizer("none")
    k_max, tail = 60, 50

    def mean_gap(m_batch, seed):
        config = TrainConfig(seed=seed, m_batch=m_batch, k_max=k_max,
                             eps0=1.0, strategy="ma", reg=reg)
        records, gaps = [], []
        prev = None

        def on_step(record, u):
            nonlocal prev
            # Delta_h of step k: the full-batch gap of u^(k+1)
            records.append(record)
            if record.k >= k_max - tail:
                gaps.append(diagnostics(model, prev, u, records, data,
                                        reg)[0])
            prev = u

        train(config, model, data, on_iteration=on_step)
        return float(np.mean(gaps)), float(np.max(gaps))

    seeds = range(5)
    by_m = {}
    for m_batch in (8, 32, None):
        runs = [mean_gap(m_batch, s) for s in seeds]
        by_m[m_batch] = [mean for mean, _ in runs]
        if m_batch is None:
            assert all(worst <= 1e-10 for _, worst in runs), \
                "full-batch gap must vanish"
    # larger batches track the full-batch maximizer more closely, both
    # pooled over seeds and seed by seed
    pooled = {m: float(np.mean(v)) for m, v in by_m.items()}
    assert pooled[8] >= pooled[32] >= pooled[None]
    for s in seeds:
        assert by_m[8][s] >= by_m[32][s] >= by_m[None][s]


# ------------------------------------------------------------- criterion 10

def test_criterion_10_bitwise_determinism(tmp_path):
    """Same config, same seed: identical snapshots and logs (sans wall_s)."""
    config_text = (
        "seed = 5\n"
        "arch = conv out=4 k=3 stride=1 pad=1 act=tanh pool=avg2; "
        "fc out=10 act=identity\n"
        "data = digits:seed=3,train_per_class=8,test_per_class=4\n"
        "M = 20\n"
        "k_max = 25\n"
        "eval_every = 5\n"
        "strategy = ma\n"
        "reg_kind = l2l0\n"
        "rho = 1e-4\n"
        "alpha = 0.8\n")
    outputs = []
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        cfg = d / "run.cfg"
        cfg.write_text(config_text, encoding="utf-8")
        assert main(["train", str(cfg)]) == 0
        snapshot = (d / "run_out" / "params.bin").read_bytes()
        sidecar = (d / "run_out" / "params.bin.json").read_text()
        rows = (d / "run_out" / "log.csv").read_text().splitlines()
        header = rows[0].split(",")
        assert header[-1] == "wall_s"
        trimmed = [",".join(r.split(",")[:-1]) for r in rows]
        outputs.append((snapshot, sidecar, trimmed))
    assert outputs[0][0] == outputs[1][0], "parameter snapshots differ"
    assert outputs[0][1] == outputs[1][1]
    assert outputs[0][2] == outputs[1][2], "CSV logs differ beyond wall_s"
