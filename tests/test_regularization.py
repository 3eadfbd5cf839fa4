"""Regularizer and threshold-operator tests.

The prox oracle is a dense 1-D grid search augmented with the exact
candidate points (0, v, and the shifted minimizers), independent of the
closed forms under test.
"""

import numpy as np
import pytest

from pmptrain.errors import InputError
from pmptrain.regularization import (Regularizer, hard_threshold, l0_count,
                                     reg_value, soft_threshold)


def prox_oracle_1d(v, gamma, penalty):
    """argmin_x 0.5*(x-v)^2 + penalty(x) by grid-plus-candidates search."""
    span = abs(v) + 2.0 * gamma + 1.0
    grid = np.linspace(-span, span, 4001)
    cands = np.concatenate([grid, [0.0, v, v - gamma, v + gamma]])
    objs = 0.5 * (cands - v) ** 2 + penalty(cands)
    return cands[np.argmin(objs)], objs.min()


def l0_penalty(gamma):
    return lambda x: gamma * (x != 0.0)


def l1_penalty(gamma):
    return lambda x: gamma * np.abs(x)


class TestRegValue:
    def test_zero_vector(self):
        for kind in ("l2l0", "elastic-net"):
            reg = Regularizer(kind, alpha=0.5, rho=1.0)
            assert reg_value(reg, np.zeros(5)) == 0.0

    def test_l2l0_hand_value(self):
        reg = Regularizer("l2l0", alpha=0.8, rho=1.0)
        assert reg_value(reg, np.array([2.0, 0.0])) == pytest.approx(1.8, abs=1e-15)

    def test_elastic_net_l1_case(self):
        reg = Regularizer("elastic-net", alpha=0.0, rho=1.0)
        assert reg_value(reg, np.array([-3.0])) == pytest.approx(3.0, abs=1e-15)

    def test_none_kind(self):
        assert reg_value(Regularizer("none"), np.ones(10)) == 0.0

    def test_validation(self):
        with pytest.raises(InputError):
            Regularizer("l2l0", alpha=1.0)
        with pytest.raises(InputError):
            Regularizer("l2l0", alpha=-0.1)
        with pytest.raises(InputError):
            Regularizer("l2l0", rho=-1.0)
        with pytest.raises(InputError):
            Regularizer("lasso")


@pytest.mark.parametrize("rho", [np.nan, np.inf, -np.inf, -1.0])
def test_rejects_rho_that_is_negative_or_not_finite(rho):
    with pytest.raises(InputError, match="rho"):
        Regularizer("l2l0", alpha=0.5, rho=rho)


class TestHardThreshold:
    def test_boundary_zeroed(self):
        out = hard_threshold(np.array([0.5, -2.0, 1.0]), 0.5)
        np.testing.assert_array_equal(out, [0.0, -2.0, 0.0])

    def test_gamma_zero_keeps_nonzeros(self):
        v = np.array([0.3, -0.7, 0.0, 5.0])
        np.testing.assert_array_equal(hard_threshold(v, 0.0), v)

    def test_survivors_unchanged_bitwise(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=1000)
        out = hard_threshold(v, 0.1)
        kept = out != 0.0
        np.testing.assert_array_equal(out[kept], v[kept])

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=500)
        once = hard_threshold(v, 0.3)
        np.testing.assert_array_equal(hard_threshold(once, 0.3), once)

    def test_solves_prox_problem(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            v = rng.normal(scale=2.0)
            gamma = rng.uniform(0.0, 2.0)
            x = float(hard_threshold(np.array([v]), gamma)[0])
            obj = 0.5 * (x - v) ** 2 + gamma * (x != 0.0)
            _, best = prox_oracle_1d(v, gamma, l0_penalty(gamma))
            assert obj <= best + 1e-10

    def test_negative_gamma_rejected(self):
        with pytest.raises(InputError):
            hard_threshold(np.zeros(2), -0.1)


class TestSoftThreshold:
    def test_boundary_and_shrinkage(self):
        out = soft_threshold(np.array([0.5, -2.0, 1.0]), 1.0)
        np.testing.assert_array_equal(out, [0.0, -1.0, 0.0])

    def test_gamma_zero_identity(self):
        v = np.array([0.3, -0.7, 0.0])
        np.testing.assert_array_equal(soft_threshold(v, 0.0), v)

    def test_shrinks_by_exactly_gamma(self):
        rng = np.random.default_rng(4)
        v = rng.normal(scale=3.0, size=1000)
        gamma = 0.25
        out = soft_threshold(v, gamma)
        kept = out != 0.0
        np.testing.assert_allclose(np.abs(v[kept]) - np.abs(out[kept]),
                                   gamma, rtol=0, atol=1e-15)
        assert np.all(np.sign(out[kept]) == np.sign(v[kept]))

    def test_idempotent_zeros(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=500)
        once = soft_threshold(v, 0.4)
        twice = soft_threshold(once, 0.4)
        assert np.all(twice[once == 0.0] == 0.0)

    def test_solves_prox_problem(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            v = rng.normal(scale=2.0)
            gamma = rng.uniform(0.0, 2.0)
            x = float(soft_threshold(np.array([v]), gamma)[0])
            obj = 0.5 * (x - v) ** 2 + gamma * abs(x)
            _, best = prox_oracle_1d(v, gamma, l1_penalty(gamma))
            assert obj <= best + 1e-10

    def test_negative_gamma_rejected(self):
        with pytest.raises(InputError):
            soft_threshold(np.zeros(2), -0.1)


class TestL0Count:
    def test_all_zero(self):
        assert l0_count(np.zeros(3)) == 0

    def test_tiny_value_counts(self):
        assert l0_count(np.array([1e-300, 0.0])) == 1

    def test_matches_hard_threshold_cutoff(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=2000)
        gamma = 0.3
        out = hard_threshold(v, gamma)
        assert l0_count(out) == int(np.sum(np.abs(v) > np.sqrt(2 * gamma)))
