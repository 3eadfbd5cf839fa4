"""HP value, closed-form update, and acceptance-inequality tests.

The maximizer oracle is a per-coordinate candidate set (0, the scaled
inner point, a dense grid); the unbiasedness check enumerates all 20
3-of-6 mini-batches directly.
"""

from itertools import combinations

import numpy as np
import pytest
from oracles import hp_total, hp_value_pair, satisfies_aug_inequality

from pmptrain.errors import InputError
from pmptrain.hamiltonian import (aug_hp_value, hamiltonian_gap, hp_value,
                                  layer_update, layer_update_pair,
                                  update_params)
from pmptrain.network import (ParamSet, backward_sweep, build_model,
                              forward_sweep, hamiltonian_gradient,
                              param_shapes, terminal_loss)
from pmptrain.regularization import Regularizer, l0_count, reg_value


def coord_obj(f, w, u, reg, eps):
    """Augmented HP for scalar coordinates, written out longhand."""
    if reg.kind == "l2l0":
        r = 0.5 * reg.alpha * w * w + (1 - reg.alpha) * (w != 0.0)
    elif reg.kind == "elastic-net":
        r = 0.5 * reg.alpha * w * w + (1 - reg.alpha) * abs(w)
    else:
        r = 0.0
    return f * w - reg.rho * r - 0.5 * eps * (w - u) ** 2


class TestHpValue:
    def test_inner_product(self):
        assert hp_value(np.array([3.0]), np.array([3.0]), Regularizer("none")) == 9.0

    def test_zero_point(self):
        reg = Regularizer("l2l0", alpha=0.5, rho=2.0)
        assert hp_value(np.array([5.0, -1.0]), np.zeros(2), reg) == 0.0

    def test_matches_direct_recomputation(self):
        # tiny model: H_l(u) must equal sum_s <p_{l+1}, affine_l(fin_l, u)> - rho R(u)
        model = build_model("fc out=4 act=tanh\nfc out=3 act=identity", 3)
        rng = np.random.default_rng(5)
        params = ParamSet([(rng.normal(size=ws), rng.normal(size=bs))
                           for ws, bs in param_shapes(model)])
        x = rng.normal(size=(6, 3))
        labels = np.zeros((6, 3))
        labels[np.arange(6), rng.integers(0, 3, size=6)] = 1.0
        traj = forward_sweep(model, params, x)
        _, tg = terminal_loss(traj.outputs, labels)
        adj = backward_sweep(model, params, traj, tg, batch_m=6)
        f = hamiltonian_gradient(model, params, traj, adj)
        reg = Regularizer("elastic-net", alpha=0.3, rho=0.7)
        for l in range(model.depth):
            got = hp_value_pair(f.blocks[l], params.blocks[l], reg)
            w, b = params.blocks[l]
            direct = 0.0
            for s in range(6):
                direct += float(np.vdot(adj.padj[l + 1][s], traj.fin[l][s] @ w.T + b))
            direct -= reg.rho * (reg_value(reg, w) + reg_value(reg, b))
            assert got == pytest.approx(direct, abs=1e-12)

    def test_linearity_in_u_when_rho_zero(self):
        rng = np.random.default_rng(6)
        f = rng.normal(size=10)
        u = rng.normal(size=10)
        reg = Regularizer("none")
        assert hp_value(f, 2.0 * u, reg) == pytest.approx(2.0 * hp_value(f, u, reg),
                                                          rel=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            hp_value(np.zeros(2), np.zeros(3), Regularizer("none"))


class TestAugHpValue:
    def test_zero_penalty_at_u(self):
        rng = np.random.default_rng(7)
        f = rng.normal(size=4)
        u = rng.normal(size=4)
        reg = Regularizer("l2l0", alpha=0.2, rho=0.5)
        assert aug_hp_value(f, u, u, reg, 3.0) == hp_value(f, u, reg)

    def test_monotone_in_eps(self):
        f = np.array([1.0])
        u = np.array([0.0])
        w = np.array([1.0])
        reg = Regularizer("none")
        values = [aug_hp_value(f, w, u, reg, e) for e in (0.5, 1, 2, 4, 8, 1e6)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_hand_value(self):
        got = aug_hp_value(np.array([1.0]), np.array([1.0]), np.array([0.0]),
                           Regularizer("none"), 2.0)
        assert got == 0.0

    def test_rejects_bad_eps(self):
        with pytest.raises(InputError):
            aug_hp_value(np.zeros(1), np.zeros(1), np.zeros(1),
                         Regularizer("none"), 0.0)
        with pytest.raises(InputError):
            layer_update(np.zeros(1), np.zeros(1), Regularizer("none"), -1.0)


class TestLayerUpdate:
    def test_rho_zero_explicit_step(self):
        got = layer_update(np.array([2.0]), np.array([1.0]), Regularizer("none"), 2.0)
        np.testing.assert_array_equal(got, [2.0])

    def test_l2l0_hand_case_keep(self):
        reg = Regularizer("l2l0", alpha=0.8, rho=0.1)
        got = layer_update(np.array([2.0]), np.array([1.0]), reg, 2.0)
        np.testing.assert_allclose(got, [2.0 / 2.08 * 2.0], rtol=0, atol=1e-12)

    def test_l2l0_hand_case_zero(self):
        reg = Regularizer("l2l0", alpha=0.0, rho=1.0)
        got = layer_update(np.array([0.0]), np.array([0.1]), reg, 1.0)
        np.testing.assert_array_equal(got, [0.0])

    @pytest.mark.parametrize("kind", ["l2l0", "elastic-net"])
    def test_maximizer_beats_candidate_oracle(self, kind):
        rng = np.random.default_rng(11)
        for _ in range(300):
            f = rng.normal(scale=2.0)
            u = rng.normal(scale=2.0)
            eps = rng.uniform(0.05, 10.0)
            rho = rng.uniform(0.0, 3.0)
            alpha = rng.uniform(0.0, 0.999)
            reg = Regularizer(kind, alpha=alpha, rho=rho)
            w = float(layer_update(np.array([f]), np.array([u]), reg, eps)[0])
            inner = (eps / (eps + alpha * rho)) * (u + f / eps)
            cands = np.concatenate([np.linspace(-abs(inner) - 2, abs(inner) + 2, 2001),
                                    [0.0, inner, u, w]])
            got = coord_obj(f, w, u, reg, eps)
            best = coord_obj(f, cands, u, reg, eps).max()
            assert got >= best - 1e-10

    def test_step_contracts_in_eps(self):
        rng = np.random.default_rng(12)
        for kind in ("l2l0", "elastic-net", "none"):
            reg = Regularizer(kind, alpha=0.4, rho=0.6)
            f = rng.normal(size=20)
            u = rng.normal(size=20)
            last = np.inf
            for eps in (0.1, 1.0, 10.0, 100.0, 1e4, 1e8):
                d = np.linalg.norm(layer_update(f, u, reg, eps) - u)
                assert d <= last + 1e-12
                last = d
            assert last <= 1e-6

    def test_pair_honors_include_bias(self):
        reg = Regularizer("l2l0", alpha=0.0, rho=5.0, include_bias=False)
        f_pair = (np.array([[0.0]]), np.array([0.0]))
        u_pair = (np.array([[0.5]]), np.array([0.5]))
        ww, wb = layer_update_pair(f_pair, u_pair, reg, 1.0)
        # weight hits the cutoff sqrt(2*rho/eps) and zeroes; bias takes the
        # unregularized u + F/eps step
        np.testing.assert_array_equal(ww, [[0.0]])
        np.testing.assert_array_equal(wb, [0.5])


class TestAcceptanceInequality:
    def test_equality_at_u(self):
        rng = np.random.default_rng(13)
        f = rng.normal(size=6)
        u = rng.normal(size=6)
        reg = Regularizer("elastic-net", alpha=0.1, rho=0.3)
        assert satisfies_aug_inequality(f, u.copy(), u, reg, 2.0)

    def test_maximizer_always_accepted(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            f = rng.normal(size=8)
            u = rng.normal(size=8)
            eps = rng.uniform(0.01, 100.0)
            reg = Regularizer("l2l0", alpha=rng.uniform(0, 0.99),
                              rho=rng.uniform(0, 2.0))
            w = layer_update(f, u, reg, eps)
            assert satisfies_aug_inequality(f, w, u, reg, eps)

    def test_far_point_with_large_eps_rejected(self):
        f = np.array([1.0])
        u = np.array([0.0])
        w = np.array([10.0])
        assert not satisfies_aug_inequality(f, w, u, Regularizer("none"), 1e6)


class TestParamSetLevel:
    def test_update_params_matches_per_layer(self):
        model = build_model("fc out=4 act=tanh\nfc out=2 act=identity", 3)
        rng = np.random.default_rng(15)
        u = ParamSet([(rng.normal(size=ws), rng.normal(size=bs))
                      for ws, bs in param_shapes(model)])
        f = ParamSet([(rng.normal(size=ws), rng.normal(size=bs))
                      for ws, bs in param_shapes(model)])
        reg = Regularizer("l2l0", alpha=0.5, rho=0.2)
        w = update_params(f, u, reg, 1.5)
        for l in range(2):
            ww, wb = layer_update_pair(f.blocks[l], u.blocks[l], reg, 1.5)
            np.testing.assert_array_equal(w.blocks[l][0], ww)
            np.testing.assert_array_equal(w.blocks[l][1], wb)

    def test_gap_zero_at_closed_form_maximizer(self):
        model = build_model("fc out=4 act=tanh\nfc out=2 act=identity", 3)
        rng = np.random.default_rng(16)
        u = ParamSet([(rng.normal(size=ws), rng.normal(size=bs))
                      for ws, bs in param_shapes(model)])
        f = ParamSet([(rng.normal(size=ws), rng.normal(size=bs))
                      for ws, bs in param_shapes(model)])
        reg = Regularizer("elastic-net", alpha=0.5, rho=0.2)
        w = update_params(f, u, reg, 2.5)
        assert abs(hamiltonian_gap(f, w, u, reg, 2.5)) <= 1e-12

    def test_gap_positive_elsewhere(self):
        model = build_model("fc out=2 act=identity", 2)
        rng = np.random.default_rng(17)
        u = ParamSet([(rng.normal(size=ws), rng.normal(size=bs))
                      for ws, bs in param_shapes(model)])
        f = ParamSet([(rng.normal(size=ws), rng.normal(size=bs))
                      for ws, bs in param_shapes(model)])
        reg = Regularizer("none")
        not_max = u.copy()  # u itself is not the maximizer unless F = 0
        assert hamiltonian_gap(f, not_max, u, reg, 1.0) > 0.0


class TestUnbiasedness:
    def test_minibatch_hp_mean_equals_full_batch(self):
        # 6 samples, M = 3: enumerate all 20 mini-batches; adjoints seeded
        # with 1/M make the mini-batch HP an unbiased estimator of the
        # full-batch one.
        model = build_model("fc out=5 act=tanh\nfc out=3 act=identity", 4)
        rng = np.random.default_rng(18)
        x = rng.normal(size=(6, 4))
        labels = np.zeros((6, 3))
        labels[np.arange(6), rng.integers(0, 3, size=6)] = 1.0
        reg = Regularizer("l2l0", alpha=0.3, rho=0.4)

        def f_of(batch_idx, params, m_seed):
            xs, ys = x[list(batch_idx)], labels[list(batch_idx)]
            traj = forward_sweep(model, params, xs)
            _, tg = terminal_loss(traj.outputs, ys)
            adj = backward_sweep(model, params, traj, tg, batch_m=m_seed)
            return hamiltonian_gradient(model, params, traj, adj)

        for trial in range(20):
            params = ParamSet([(rng.normal(size=ws), rng.normal(size=bs))
                               for ws, bs in param_shapes(model)])
            w = ParamSet([(rng.normal(size=ws), rng.normal(size=bs))
                          for ws, bs in param_shapes(model)])
            full = hp_total(f_of(range(6), params, 6), w, reg)
            mini = [hp_total(f_of(batch, params, 3), w, reg)
                    for batch in combinations(range(6), 3)]
            assert len(mini) == 20
            assert np.mean(mini) == pytest.approx(full, abs=1e-12)

    def test_l0_count_sanity_after_update(self):
        rng = np.random.default_rng(19)
        f = rng.normal(size=50)
        u = rng.normal(size=50)
        reg = Regularizer("l2l0", alpha=0.0, rho=2.0)
        w = layer_update(f, u, reg, 1.0)
        inner = u + f
        assert l0_count(w) == int(np.sum(np.abs(inner) > np.sqrt(2 * 2.0)))
