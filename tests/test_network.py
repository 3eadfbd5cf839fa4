"""Model, sweep, and Hamiltonian-gradient tests.

Oracles: straight-line loop evaluation of the 5-layer reference net, an
explicit Toeplitz-matrix forward pass, a self-contained reverse-mode
recursion for fully-connected stacks, and central finite differences.
"""

import math
import tracemalloc

import numpy as np
import pytest
from oracles import (LENET_ARCH, fd_scalar_grad, naive_lenet_forward, rel_err,
                     standard_forward, toeplitz_matrix)

from pmptrain import network
from pmptrain.digits import synthetic_digits
from pmptrain.errors import (InputError, NumericOverflowError, ParseError,
                             ShapeError)
from pmptrain.network import (ParamSet, Trajectory, backward_sweep,
                              batch_objective, build_model, forward_logits,
                              forward_sweep, hamiltonian_gradient, init_params,
                              param_shapes, terminal_loss, triple_norm_sq)
from pmptrain.regularization import Regularizer
from pmptrain.trainer import sweeps

TINY_CNN = """\
conv out=2 k=3 stride=1 pad=1 act=tanh pool=avg2
conv out=3 k=3 stride=1 pad=0 act=tanh pool=avg2
fc out=12 act=tanh
fc out=4 act=identity
"""

TINY_CNN_RELU = """\
conv out=2 k=3 stride=1 pad=1 act=relu pool=max2
conv out=3 k=3 stride=1 pad=0 act=relu pool=max2
fc out=12 act=relu
fc out=4 act=identity
"""


def random_params(model, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    return ParamSet([(rng.normal(scale=scale, size=ws), rng.normal(scale=scale, size=bs))
                     for ws, bs in param_shapes(model)])


def one_hot(idx, m):
    out = np.zeros((len(idx), m))
    out[np.arange(len(idx)), idx] = 1.0
    return out


class TestBuildModel:
    def test_smallest_valid_model(self):
        model = build_model("fc out=10 act=identity", 784)
        assert model.depth == 1
        assert model.m == 10
        assert model.fin_shapes == ((784,),)
        assert param_shapes(model) == [((10, 784), (10,))]

    def test_five_layer_reference_net(self):
        model = build_model(LENET_ARCH, (1, 28, 28))
        assert model.depth == 5
        assert model.m == 10
        shapes = param_shapes(model)
        assert sum(math.prod(ws) + math.prod(bs) for ws, bs in shapes) == 61706
        assert shapes[0] == ((6, 1, 5, 5), (6,))
        assert shapes[1] == ((16, 6, 5, 5), (16,))
        assert model.fin_shapes[1] == (6, 14, 14)
        assert model.fin_shapes[2] == (16, 5, 5)

    def test_conv_after_flat_input_is_composition_error(self):
        text = "fc out=10 act=tanh\nconv out=2 k=3 act=tanh\nfc out=10 act=identity"
        with pytest.raises(ShapeError):
            build_model(text, 784)

    def test_odd_pooled_conv_output_names_layer_and_line(self):
        text = "\nconv out=2 k=3 stride=1 pad=1 act=tanh pool=avg2\nfc out=2 act=identity"
        with pytest.raises(ShapeError, match=r"layer 0 \(line 2\).*5x5"):
            build_model(text, (1, 5, 5))

    def test_parse_error_carries_line_number(self):
        text = "fc out=10 act=tanh\nfc out=abc act=identity"
        with pytest.raises(ParseError) as err:
            build_model(text, 784)
        assert err.value.line_no == 2

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\nfc out=3 act=identity  # trailing\n"
        model = build_model(text, 5)
        assert model.depth == 1 and model.m == 3

    def test_rejects_nonlinear_output_layer(self):
        with pytest.raises(ParseError):
            build_model("fc out=10 act=tanh", 20)
        with pytest.raises(ParseError):
            build_model("conv out=4 k=3 act=relu\nfc out=2 act=identity\nfc out=3 act=relu",
                        (1, 8, 8))

    def test_rejects_unknown_fields_and_kinds(self):
        with pytest.raises(ParseError):
            build_model("fc out=3 act=identity bogus=1", 5)
        with pytest.raises(ParseError):
            build_model("dense out=3 act=identity", 5)
        with pytest.raises(ParseError):
            build_model("fc out=3 out=4 act=identity", 5)
        with pytest.raises(ParseError):
            build_model("", 5)

    def test_errors_come_in_line_order(self):
        # the shape error on line 2 is raised before line 5 is read
        text = ("fc out=10 act=tanh\nconv out=2 k=3 act=tanh\n"
                "fc out=4 act=tanh\n\nfc out=2 act=identity bogus=1")
        with pytest.raises(ShapeError, match=r"layer 1 \(line 2\)"):
            build_model(text, 784)
        with pytest.raises(ParseError) as err:
            build_model(text.replace("conv out=2 k=3", "fc out=2"), 784)
        assert err.value.line_no == 5

    def test_final_layer_error_names_its_line(self):
        with pytest.raises(ParseError) as err:
            build_model("fc out=4 act=tanh\nfc out=3 act=relu\n# end\n\n", 5)
        assert err.value.line_no == 2

    def test_rejects_single_class_output(self):
        with pytest.raises(ParseError):
            build_model("fc out=1 act=identity", 5)


class TestInitParams:
    def test_biases_exactly_zero(self):
        model = build_model(LENET_ARCH, (1, 28, 28))
        params = init_params(model, seed=3)
        for _, b in params.blocks:
            assert np.all(b == 0.0)

    def test_same_seed_bitwise_identical(self):
        model = build_model(TINY_CNN, (1, 12, 12))
        a = init_params(model, seed=11)
        b = init_params(model, seed=11)
        for (wa, ba), (wb, bb) in zip(a.blocks, b.blocks):
            np.testing.assert_array_equal(wa, wb)
            np.testing.assert_array_equal(ba, bb)

    def test_xavier_variance(self):
        model = build_model("fc out=1000 act=tanh\nfc out=2 act=identity", 1000)
        params = init_params(model, seed=5)
        var = params.blocks[0][0].var()
        assert abs(var - 2.0 / 2000) <= 0.05 * (2.0 / 2000)


class TestForwardSweep:
    def test_single_linear_layer(self):
        model = build_model("fc out=2 act=identity", 1)
        params = ParamSet([(np.array([[2.0], [0.0]]), np.array([1.0, 0.0]))])
        traj = forward_sweep(model, params, np.array([[3.0]]))
        np.testing.assert_array_equal(traj.outputs[0], [7.0, 0.0])

    def test_reformulation_matches_standard_order(self):
        text = "fc out=8 act=tanh\nfc out=6 act=tanh\nfc out=3 act=identity"
        model = build_model(text, 5)
        params = random_params(model, seed=21)
        x = np.random.default_rng(22).normal(size=(7, 5))
        got = forward_sweep(model, params, x).outputs
        want = standard_forward(model, params, x)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_reformulation_matches_standard_order_cnn(self):
        model = build_model(TINY_CNN, (1, 12, 12))
        params = random_params(model, seed=23)
        x = np.random.default_rng(24).normal(size=(3, 1, 12, 12))
        got = forward_sweep(model, params, x).outputs
        want = standard_forward(model, params, x)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_five_layer_net_matches_naive_loop_oracle(self):
        model = build_model(LENET_ARCH, (1, 28, 28))
        params = random_params(model, seed=31, scale=0.2)
        image = np.random.default_rng(32).normal(size=(1, 1, 28, 28))
        got = forward_sweep(model, params, image).outputs[0]
        want = naive_lenet_forward(params.blocks, image[0])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_matches_toeplitz_forward(self):
        model = build_model(TINY_CNN, (1, 12, 12))
        params = random_params(model, seed=33)
        x = np.random.default_rng(34).normal(size=(2, 1, 12, 12))
        # independent path: conv layers as explicit matrix products
        def toeplitz_net(sample):
            h = sample
            for l, spec in enumerate(model.layers):
                w, b = params.blocks[l]
                if spec.kind == "conv":
                    t, out_shape = toeplitz_matrix(w, spec.geom.stride,
                                                   spec.geom.pad,
                                                   h.shape[1], h.shape[2])
                    h = (t @ h.ravel()).reshape(out_shape) + b[:, None, None]
                else:
                    h = w @ h.reshape(-1) + b
                if spec.act == "tanh":
                    h = np.tanh(h)
                if spec.pool is not None:
                    c, hh, ww = h.shape
                    h = h.reshape(c, hh // 2, 2, ww // 2, 2).mean(axis=(2, 4))
            return h
        got = forward_sweep(model, params, x).outputs
        for i in range(2):
            np.testing.assert_allclose(got[i], toeplitz_net(x[i]), rtol=0, atol=1e-10)

    def test_forward_logits_matches_sweep_and_chunks(self, monkeypatch):
        model = build_model(TINY_CNN, (1, 12, 12))
        params = random_params(model, seed=35)
        x = np.random.default_rng(36).normal(size=(9, 1, 12, 12))
        full = forward_sweep(model, params, x).outputs
        np.testing.assert_array_equal(forward_logits(model, params, x), full)
        monkeypatch.setattr(network, "FORWARD_CHUNK", 4)
        np.testing.assert_allclose(forward_logits(model, params, x),
                                   full, rtol=0, atol=1e-12)

    def test_overflow_names_layer(self):
        model = build_model("fc out=4 act=identity\nfc out=2 act=identity", 2)
        params = ParamSet([(np.full((4, 2), 1e200), np.zeros(4)),
                           (np.full((2, 4), 1e200), np.zeros(2))])
        with np.errstate(over="ignore"), pytest.raises(NumericOverflowError) as err:
            forward_sweep(model, params, np.ones((1, 2)))
        assert err.value.layer == 1

    def test_input_shape_mismatch(self):
        model = build_model("fc out=2 act=identity", 4)
        params = init_params(model, 0)
        # (2, 2, 2) would flatten to the right width without the check
        for bad in (np.ones((2, 5)), np.ones((2, 2, 2))):
            for run in (forward_sweep, forward_logits):
                with pytest.raises(ShapeError):
                    run(model, params, bad)


class TestTerminalLoss:
    def test_uniform_logits_log_m(self):
        logits = np.zeros((4, 10))
        labels = one_hot([0, 3, 5, 9], 10)
        loss, _ = terminal_loss(logits, labels)
        assert loss == pytest.approx(np.log(10.0), abs=1e-12)

    def test_two_class_symmetric_gradient(self):
        loss, grads = terminal_loss(np.zeros((1, 2)), one_hot([0], 2))
        np.testing.assert_allclose(grads[0], [-0.5, 0.5], rtol=0, atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        logits = rng.normal(size=(6, 5))
        labels = one_hot(rng.integers(0, 5, size=6), 5)
        weights = rng.uniform(0.5, 2.0, size=5)
        _, grads = terminal_loss(logits, labels, weights)
        # per-sample gradient excludes the 1/N mean factor
        want = fd_scalar_grad(
            lambda z: terminal_loss(z, labels, weights)[0] * 6.0, logits)
        assert rel_err(grads, want) <= 1e-8

    def test_rejects_bad_labels_and_weights(self):
        logits = np.zeros((2, 3))
        bad = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(InputError):
            terminal_loss(logits, bad)
        two_hot = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(InputError):
            terminal_loss(logits, two_hot)
        with pytest.raises(InputError):
            terminal_loss(logits, one_hot([0, 1], 3), np.array([1.0, 0.0, 1.0]))


class TestBackwardSweep:
    def test_single_layer_seed(self):
        model = build_model("fc out=2 act=identity", 3)
        params = random_params(model, seed=51)
        x = np.random.default_rng(52).normal(size=(1, 3))
        traj = forward_sweep(model, params, x)
        g = np.array([[0.3, -0.7]])
        padj = backward_sweep(model, params, traj, g)
        np.testing.assert_array_equal(padj[1], -g)

    def test_zero_terminal_gradients_zero_adjoints(self):
        model = build_model(TINY_CNN, (1, 12, 12))
        params = random_params(model, seed=53)
        x = np.random.default_rng(54).normal(size=(2, 1, 12, 12))
        traj = forward_sweep(model, params, x)
        padj = backward_sweep(model, params, traj, np.zeros_like(traj.outputs))
        for p in padj[1:]:
            assert np.all(p == 0.0)

    def test_matches_independent_reverse_mode(self):
        # self-contained recursion for an fc tanh stack, written from the
        # chain rule directly: q_{l} = (1 - tanh(xt_l)^2) * (W_l^T q_{l+1})
        text = "fc out=7 act=tanh\nfc out=6 act=tanh\nfc out=5 act=tanh\nfc out=3 act=identity"
        model = build_model(text, 4)
        params = random_params(model, seed=55)
        rng = np.random.default_rng(56)
        x = rng.normal(size=(5, 4))
        labels = one_hot(rng.integers(0, 3, size=5), 3)
        traj = forward_sweep(model, params, x)
        _, tg = terminal_loss(traj.outputs, labels)
        padj = backward_sweep(model, params, traj, tg)

        states = [x]
        for l, (w, b) in enumerate(params.blocks):
            z = states[-1] if l == 0 else np.tanh(states[-1])
            states.append(z @ w.T + b)
        want = [None] * (model.depth + 1)
        want[model.depth] = -(1.0 / 5) * tg
        for l in range(model.depth - 1, 0, -1):
            w = params.blocks[l][0]
            t = np.tanh(states[l])
            want[l] = (want[l + 1] @ w) * (1.0 - t * t)
        for l in range(1, model.depth + 1):
            np.testing.assert_allclose(padj[l], want[l], rtol=0, atol=1e-10)

    def test_boundedness_regression(self):
        model = build_model(TINY_CNN, (1, 12, 12))
        rng = np.random.default_rng(57)
        x = rng.normal(size=(4, 1, 12, 12))
        labels = one_hot(rng.integers(0, 4, size=4), 4)
        worst = 0.0
        for _ in range(100):
            params = ParamSet([(rng.uniform(-1, 1, size=ws), rng.uniform(-1, 1, size=bs))
                               for ws, bs in param_shapes(model)])
            traj = forward_sweep(model, params, x)
            _, tg = terminal_loss(traj.outputs, labels)
            padj = backward_sweep(model, params, traj, tg)
            worst = max(worst, max(np.linalg.norm(p) for p in padj[1:]))
        assert worst < 50.0

    def test_mismatched_trajectory_rejected(self):
        model = build_model("fc out=2 act=identity", 3)
        params = random_params(model, seed=58)
        traj = forward_sweep(model, params, np.ones((2, 3)))
        with pytest.raises(InputError):
            backward_sweep(model, params, traj, np.zeros((3, 2)))
        empty = forward_sweep(model, params, np.ones((0, 3)))
        with pytest.raises(InputError, match="empty batch"):
            backward_sweep(model, params, empty, np.zeros((0, 2)))


class TestHamiltonianGradient:
    def test_single_fc_direct(self):
        model = build_model("fc out=2 act=identity", 1)
        params = ParamSet([(np.zeros((2, 1)), np.zeros(2))])
        x = np.array([[3.0]])
        traj = Trajectory(fin=[x], act_full=[None], outputs=np.zeros((1, 2)))
        padj = [None, np.array([[1.0, 2.0]])]
        f = hamiltonian_gradient(model, params, traj, padj)
        np.testing.assert_array_equal(f.blocks[0][0], [[3.0], [6.0]])
        np.testing.assert_array_equal(f.blocks[0][1], [1.0, 2.0])

    def test_zero_adjoints_zero_gradient(self):
        model = build_model(TINY_CNN, (1, 12, 12))
        params = random_params(model, seed=61)
        x = np.random.default_rng(62).normal(size=(2, 1, 12, 12))
        traj = forward_sweep(model, params, x)
        padj = backward_sweep(model, params, traj, np.zeros_like(traj.outputs))
        f = hamiltonian_gradient(model, params, traj, padj)
        for wg, bg in f.blocks:
            assert np.all(wg == 0.0) and np.all(bg == 0.0)

    # With relu/max2 the derivative is taken off its kinks: for these seeds
    # no FD step below moves a relu input across 0 or changes the first
    # argmax of a max-pool window, so the loss is smooth along every step.
    @pytest.mark.parametrize("arch", [TINY_CNN, TINY_CNN_RELU],
                             ids=["tanh-avg", "relu-max"])
    def test_equals_negative_loss_gradient(self, arch):
        model = build_model(arch, (1, 12, 12))
        params = random_params(model, seed=63, scale=0.4)
        rng = np.random.default_rng(64)
        x = rng.normal(size=(4, 1, 12, 12))
        labels = one_hot(rng.integers(0, 4, size=4), 4)
        _, f = sweeps(model, params, x, labels, Regularizer())

        def mean_loss_with(l, which, value):
            trial = params.copy()
            block = list(trial.blocks[l])
            block[which] = value
            trial.blocks[l] = tuple(block)
            logits = forward_logits(model, trial, x)
            return terminal_loss(logits, labels)[0]

        for l in range(model.depth):
            for which in (0, 1):
                want = -fd_scalar_grad(
                    lambda v, l=l, which=which: mean_loss_with(l, which, v),
                    params.blocks[l][which], h=1e-5)
                assert rel_err(f.blocks[l][which], want) <= 1e-6


class TestBatchObjective:
    def test_rho_zero_equals_mean_loss(self):
        model = build_model("fc out=3 act=identity", 4)
        params = random_params(model, seed=71)
        rng = np.random.default_rng(72)
        x = rng.normal(size=(6, 4))
        labels = one_hot(rng.integers(0, 3, size=6), 3)
        j = batch_objective(model, params, x, labels, Regularizer("none"))
        loss, _ = terminal_loss(forward_logits(model, params, x), labels)
        assert j == loss

    def test_l0_count_enters_objective(self):
        model = build_model("fc out=2 act=identity", 2)
        params = ParamSet([(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([3.0, 0.0]))])
        rng = np.random.default_rng(73)
        x = rng.normal(size=(3, 2))
        labels = one_hot([0, 1, 0], 2)
        reg = Regularizer("l2l0", alpha=0.0, rho=1.0)
        j = batch_objective(model, params, x, labels, reg)
        loss, _ = terminal_loss(forward_logits(model, params, x), labels)
        assert j == pytest.approx(loss + 3.0, abs=1e-12)

    def test_include_bias_flag(self):
        model = build_model("fc out=2 act=identity", 2)
        params = ParamSet([(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([5.0, 0.0]))])
        x = np.zeros((1, 2))
        labels = one_hot([0], 2)
        with_b = batch_objective(model, params, x, labels,
                                 Regularizer("l2l0", 0.0, 1.0, include_bias=True))
        without_b = batch_objective(model, params, x, labels,
                                    Regularizer("l2l0", 0.0, 1.0, include_bias=False))
        assert with_b - without_b == pytest.approx(1.0, abs=1e-12)

    def test_peak_memory_stays_at_one_chunk(self):
        # a LeNet forward copies its layer-0 conv windows, about 190 MiB
        # per 1,000 images; in chunks, 2,048 images cost what 1,024 do
        model = build_model(LENET_ARCH, (1, 28, 28))
        params = init_params(model, seed=0)
        data = synthetic_digits(seed=76, n_per_class=205)
        reg = Regularizer("none")

        def peak(n):
            tracemalloc.start()
            try:
                batch_objective(model, params, data.inputs[:n],
                                data.labels[:n], reg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(network.FORWARD_CHUNK)
        two = peak(2 * network.FORWARD_CHUNK)
        assert two <= 1.1 * one, f"{two / 2**20:.0f} MiB vs {one / 2**20:.0f} MiB"

    def test_five_layer_batch_matches_independent_recomputation(self):
        model = build_model(LENET_ARCH, (1, 28, 28))
        params = random_params(model, seed=74, scale=0.15)
        rng = np.random.default_rng(75)
        x = rng.normal(size=(100, 1, 28, 28))
        idx = rng.integers(0, 10, size=100)
        labels = one_hot(idx, 10)
        reg = Regularizer("elastic-net", alpha=0.5, rho=1e-3)
        got = batch_objective(model, params, x, labels, reg)

        # independent path: toeplitz conv + hand softmax CE + hand penalty
        def sample_logits(sample):
            h = sample
            for l, spec in enumerate(model.layers):
                w, b = params.blocks[l]
                if spec.kind == "conv":
                    t, out_shape = toeplitz_matrix(w, spec.geom.stride, spec.geom.pad,
                                                   h.shape[1], h.shape[2])
                    h = (t @ h.ravel()).reshape(out_shape) + b[:, None, None]
                else:
                    h = w @ h.reshape(-1) + b
                if spec.act == "tanh":
                    h = np.tanh(h)
                if spec.pool is not None:
                    c, hh, ww = h.shape
                    h = h.reshape(c, hh // 2, 2, ww // 2, 2).mean(axis=(2, 4))
            return h

        total = 0.0
        for s in range(100):
            z = sample_logits(x[s])
            z = z - z.max()
            total += -(z[idx[s]] - np.log(np.exp(z).sum()))
        pen = 0.0
        for w, b in params.blocks:
            for u in (w, b):
                pen += 0.5 * 0.5 * np.sum(u * u) + 0.5 * np.abs(u).sum()
        want = total / 100 + 1e-3 * pen
        assert abs(got - want) <= 1e-10


class TestTripleNorm:
    def test_zero_iff_equal(self):
        model = build_model("fc out=2 act=identity", 3)
        a = random_params(model, seed=81)
        zero = ParamSet([(np.zeros_like(w), np.zeros_like(b))
                         for w, b in a.blocks])
        assert triple_norm_sq(a, a) == 0.0
        assert triple_norm_sq(a, zero) > 0.0

    def test_sums_all_layers(self):
        model = build_model("fc out=4 act=tanh\nfc out=2 act=identity", 3)
        a = random_params(model, seed=82)
        b = a.copy()
        b.blocks[0] = (b.blocks[0][0] + 1.0, b.blocks[0][1])
        b.blocks[1] = (b.blocks[1][0], b.blocks[1][1] + 2.0)
        want = a.blocks[0][0].size * 1.0 + a.blocks[1][1].size * 4.0
        assert triple_norm_sq(a, b) == pytest.approx(want, abs=1e-12)
