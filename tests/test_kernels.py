"""Tensor primitive tests.

The VJPs under test are the ones the sweeps call; the fully-connected VJPs,
which live inline in the sweeps, are reached through a two-layer identity
stack. Oracles used here are independent of the implementation:
  - central finite differences of <p, f(x)> for every VJP;
  - an explicit Toeplitz matrix assembled by index arithmetic for conv2d.
"""

import numpy as np
import pytest
from oracles import fd_grad, rel_err, toeplitz_matrix

from pmptrain.errors import InputError, ShapeError
from pmptrain.kernels import (ConvGeometry, _activate_vjp_from_value,
                              _conv_input_vjp, _conv_param_grads, activate,
                              affine, as_tensor, conv2d, pool, pool_vjp)
from pmptrain.network import (ParamSet, backward_sweep, build_model,
                              forward_sweep, hamiltonian_gradient)


def fc_vjp(w, x, p):
    """(input_vjp, weight_grad, bias_grad) of <p, W x + b> as the sweeps form them.

    The second layer of an identity stack sees x exactly (the first layer
    is the identity matrix) and, seeded with -p at M = 1, the adjoint p.
    """
    x2, p2 = np.atleast_2d(x), np.atleast_2d(p)
    m, n = w.shape
    model = build_model(f"fc out={n} act=identity\nfc out={m} act=identity", n)
    params = ParamSet([(np.eye(n), np.zeros(n)), (w, np.zeros(m))])
    traj = forward_sweep(model, params, x2)
    adj = backward_sweep(model, params, traj, -p2, batch_m=1)
    wg, bg = hamiltonian_gradient(model, params, traj, adj).blocks[1]
    ivjp = adj.padj[1]
    return (ivjp if x.ndim == 2 else ivjp[0]), wg, bg


def conv_vjp(k, x, p, geom):
    """(input_vjp, kernel_grad, bias_grad) of <p, conv2d(k, b, x)> for one sample."""
    kg, bg = _conv_param_grads(x[None], p[None], geom)
    ivjp = _conv_input_vjp(k, p[None], x.shape[1:], geom)
    return ivjp[0], kg, bg


class TestAsTensor:
    def test_accepts_and_casts(self):
        out = as_tensor([[1, 2], [3, 4]])
        assert out.dtype == np.float64
        assert out.flags["C_CONTIGUOUS"]

    def test_rejects_nan_and_inf(self):
        with pytest.raises(InputError):
            as_tensor([1.0, np.nan])
        with pytest.raises(InputError):
            as_tensor([np.inf])

    def test_rejects_non_numeric(self):
        with pytest.raises(InputError):
            as_tensor(["a", "b"])


class TestAffine:
    def test_forward_direct(self):
        out = affine(np.array([[1.0, 2.0]]), np.array([3.0]), np.array([1.0, 1.0]))
        np.testing.assert_array_equal(out, [6.0])

    def test_vjp_direct(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        ivjp, wg, bg = fc_vjp(w, np.array([1.0, 1.0]), np.array([1.0, 2.0]))
        np.testing.assert_array_equal(wg, [[1.0, 1.0], [2.0, 2.0]])
        np.testing.assert_array_equal(bg, [1.0, 2.0])
        np.testing.assert_array_equal(ivjp, [7.0, 10.0])

    def test_vjp_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            w = rng.normal(size=(4, 3))
            b = rng.normal(size=4)
            x = rng.normal(size=3)
            p = rng.normal(size=4)
            ivjp, wg, bg = fc_vjp(w, x, p)
            assert rel_err(ivjp, fd_grad(lambda v: affine(w, b, v), x, p)) <= 1e-8
            assert rel_err(wg, fd_grad(lambda v: affine(v, b, x), w, p)) <= 1e-8
            assert rel_err(bg, fd_grad(lambda v: affine(w, v, x), b, p)) <= 1e-8

    def test_batch_sums_parameter_grads(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(4, 3))
        x = rng.normal(size=(5, 3))
        p = rng.normal(size=(5, 4))
        ivjp, wg, bg = fc_vjp(w, x, p)
        assert ivjp.shape == x.shape
        wg_sum = sum(fc_vjp(w, x[i], p[i])[1] for i in range(5))
        bg_sum = sum(fc_vjp(w, x[i], p[i])[2] for i in range(5))
        np.testing.assert_allclose(wg, wg_sum, rtol=0, atol=1e-12)
        np.testing.assert_allclose(bg, bg_sum, rtol=0, atol=1e-12)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            affine(np.ones((2, 3)), np.ones(2), np.ones(4))
        with pytest.raises(ShapeError):
            affine(np.ones((2, 3)), np.ones(3), np.ones(3))


class TestConv2d:
    def test_forward_direct(self):
        geom = ConvGeometry(2, 2, 1, 0, 1, 1)
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        k = np.array([[[[1.0, 0.0], [0.0, 1.0]]]])
        out = conv2d(k, np.zeros(1), x, geom)
        np.testing.assert_array_equal(out, [[[5.0]]])

    def test_vjp_direct(self):
        geom = ConvGeometry(2, 2, 1, 0, 1, 1)
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        k = np.array([[[[1.0, 0.0], [0.0, 1.0]]]])
        p = np.array([[[1.0]]])
        ivjp, kg, bg = conv_vjp(k, x, p, geom)
        np.testing.assert_array_equal(kg, [[[[1.0, 2.0], [3.0, 4.0]]]])
        np.testing.assert_array_equal(bg, [1.0])
        np.testing.assert_array_equal(ivjp, [[[1.0, 0.0], [0.0, 1.0]]])

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 2), (2, 1), (3, 0)])
    def test_matches_toeplitz_product(self, stride, pad):
        rng = np.random.default_rng(20 + stride * 10 + pad)
        geom = ConvGeometry(3, 3, stride, pad, 2, 4)
        x = rng.normal(size=(2, 6, 6))
        k = rng.normal(size=(4, 2, 3, 3))
        b = rng.normal(size=4)
        t, out_shape = toeplitz_matrix(k, geom.stride, geom.pad, 6, 6)
        want = (t @ x.ravel()).reshape(out_shape) + b[:, None, None]
        got = conv2d(k, b, x, geom)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_vjp_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        geom = ConvGeometry(3, 3, 2, 1, 2, 3)
        x = rng.normal(size=(2, 6, 6))
        k = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        oh, ow = geom.out_hw(6, 6)
        p = rng.normal(size=(3, oh, ow))
        ivjp, kg, bg = conv_vjp(k, x, p, geom)
        assert rel_err(ivjp, fd_grad(lambda v: conv2d(k, b, v, geom), x, p)) <= 1e-8
        assert rel_err(kg, fd_grad(lambda v: conv2d(v, b, x, geom), k, p)) <= 1e-8
        np.testing.assert_allclose(bg, p.sum(axis=(1, 2)), rtol=0, atol=1e-12)

    def test_input_vjp_equals_toeplitz_transpose(self):
        rng = np.random.default_rng(34)
        geom = ConvGeometry(3, 3, 1, 1, 2, 3)
        x = rng.normal(size=(2, 5, 5))
        k = rng.normal(size=(3, 2, 3, 3))
        t, out_shape = toeplitz_matrix(k, geom.stride, geom.pad, 5, 5)
        p = rng.normal(size=out_shape)
        ivjp = conv_vjp(k, x, p, geom)[0]
        np.testing.assert_allclose(ivjp.ravel(), t.T @ p.ravel(), rtol=0, atol=1e-12)

    def test_batch_consistency(self):
        rng = np.random.default_rng(35)
        geom = ConvGeometry(2, 2, 2, 0, 1, 2)
        x = rng.normal(size=(4, 1, 6, 6))
        k = rng.normal(size=(2, 1, 2, 2))
        b = rng.normal(size=2)
        out = conv2d(k, b, x, geom)
        for i in range(4):
            np.testing.assert_allclose(out[i], conv2d(k, b, x[i], geom),
                                       rtol=0, atol=0)
        p = rng.normal(size=out.shape)
        kg, bg = _conv_param_grads(x, p, geom)
        ivjp = _conv_input_vjp(k, p, x.shape[2:], geom)
        kg_sum = sum(conv_vjp(k, x[i], p[i], geom)[1] for i in range(4))
        bg_sum = sum(conv_vjp(k, x[i], p[i], geom)[2] for i in range(4))
        np.testing.assert_allclose(kg, kg_sum, rtol=0, atol=1e-12)
        np.testing.assert_allclose(bg, bg_sum, rtol=0, atol=1e-12)
        for i in range(4):
            np.testing.assert_allclose(ivjp[i], conv_vjp(k, x[i], p[i], geom)[0],
                                       rtol=0, atol=0)

    def test_shape_errors(self):
        geom = ConvGeometry(3, 3, 1, 0, 2, 4)
        with pytest.raises(ShapeError):
            conv2d(np.zeros((4, 2, 3, 3)), np.zeros(4), np.zeros((3, 6, 6)), geom)
        with pytest.raises(ShapeError):
            conv2d(np.zeros((4, 2, 3, 3)), np.zeros(4), np.zeros((2, 2, 2)), geom)
        with pytest.raises(InputError):
            ConvGeometry(3, 3, 0, 0, 1, 1)
        with pytest.raises(InputError):
            ConvGeometry(3, 3, 1, -1, 1, 1)


class TestPool:
    def test_avg_direct(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = pool(x, "avg", 2, 2)
        np.testing.assert_array_equal(out, [[[2.5]]])
        vjp = pool_vjp(x, np.array([[[1.0]]]), "avg", 2, 2)
        np.testing.assert_array_equal(vjp, [[[0.25, 0.25], [0.25, 0.25]]])

    def test_max_direct(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = pool(x, "max", 2, 2)
        np.testing.assert_array_equal(out, [[[4.0]]])
        vjp = pool_vjp(x, np.array([[[1.0]]]), "max", 2, 2)
        np.testing.assert_array_equal(vjp, [[[0.0, 0.0], [0.0, 1.0]]])

    def test_max_tie_routes_to_first_position(self):
        x = np.ones((1, 2, 2))
        vjp = pool_vjp(x, np.array([[[1.0]]]), "max", 2, 2)
        np.testing.assert_array_equal(vjp, [[[1.0, 0.0], [0.0, 0.0]]])

    def test_avg_vjp_matches_finite_differences(self):
        rng = np.random.default_rng(40)
        x = rng.normal(size=(2, 6, 6))
        p = rng.normal(size=(2, 3, 3))
        got = pool_vjp(x, p, "avg", 2, 2)
        want = fd_grad(lambda v: pool(v, "avg", 2, 2), x, p)
        assert rel_err(got, want) <= 1e-8

    def test_max_vjp_matches_finite_differences_off_ties(self):
        # distinct window entries keep max locally smooth
        rng = np.random.default_rng(41)
        x = rng.permutation(36).astype(np.float64).reshape(1, 6, 6)
        p = rng.normal(size=(1, 3, 3))
        got = pool_vjp(x, p, "max", 2, 2)
        want = fd_grad(lambda v: pool(v, "max", 2, 2), x, p, h=1e-4)
        assert rel_err(got, want) <= 1e-8

    def test_batch_matches_per_sample(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(3, 2, 4, 4))
        for mode in ("avg", "max"):
            out = pool(x, mode, 2, 2)
            p = rng.normal(size=out.shape)
            vjp = pool_vjp(x, p, mode, 2, 2)
            for i in range(3):
                np.testing.assert_array_equal(out[i], pool(x[i], mode, 2, 2))
                np.testing.assert_array_equal(vjp[i],
                                              pool_vjp(x[i], p[i], mode, 2, 2))

    def test_window_errors(self):
        with pytest.raises(ShapeError):
            pool(np.ones((1, 2, 2)), "avg", 3, 1)
        with pytest.raises(ShapeError):
            pool(np.ones((1, 5, 5)), "avg", 2, 2)
        with pytest.raises(InputError):
            pool(np.ones((1, 2, 2)), "median", 2, 2)


class TestActivate:
    def test_tanh_identity_point(self):
        np.testing.assert_array_equal(activate(np.zeros(3), "tanh"), np.zeros(3))
        np.testing.assert_array_equal(
            _activate_vjp_from_value(np.zeros(3), np.ones(3), "tanh"), np.ones(3))

    def test_relu_direct(self):
        np.testing.assert_array_equal(activate(np.array([-1.0, 2.0]), "relu"),
                                      [0.0, 2.0])
        value = activate(np.array([-1.0, 2.0]), "relu")
        np.testing.assert_array_equal(
            _activate_vjp_from_value(value, np.ones(2), "relu"), [0.0, 1.0])

    def test_relu_derivative_at_zero_is_zero(self):
        value = activate(np.array([0.0, -0.0]), "relu")
        np.testing.assert_array_equal(
            _activate_vjp_from_value(value, np.ones(2), "relu"), [0.0, 0.0])

    def test_tanh_vjp_matches_finite_differences(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=64)
        p = rng.normal(size=64)
        got = _activate_vjp_from_value(activate(x, "tanh"), p, "tanh")
        want = fd_grad(lambda v: activate(v, "tanh"), x, p)
        assert rel_err(got, want) <= 1e-8

    def test_identity(self):
        x = np.arange(4, dtype=np.float64)
        np.testing.assert_array_equal(activate(x, "identity"), x)
        p = np.ones(4)
        np.testing.assert_array_equal(
            _activate_vjp_from_value(activate(x, "identity"), p, "identity"), p)

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            activate(np.zeros(2), "gelu")


class TestDeterminism:
    def test_forward_maps_bitwise_repeatable(self):
        rng = np.random.default_rng(60)
        geom = ConvGeometry(3, 3, 1, 1, 2, 3)
        x = rng.normal(size=(4, 2, 6, 6))
        k = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        a1 = conv2d(k, b, x, geom)
        a2 = conv2d(k, b, x, geom)
        np.testing.assert_array_equal(a1, a2)
        w = rng.normal(size=(5, 8))
        c = rng.normal(size=5)
        v = rng.normal(size=(3, 8))
        np.testing.assert_array_equal(affine(w, c, v), affine(w, c, v))
        np.testing.assert_array_equal(pool(x, "max", 2, 2), pool(x, "max", 2, 2))
        np.testing.assert_array_equal(activate(x, "tanh"), activate(x, "tanh"))
