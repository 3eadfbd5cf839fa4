"""Training loop tests: sampling, proposals, line search, full runs."""

import collections

import numpy as np
import pytest

from pmptrain.data import synthetic_blobs
from pmptrain.errors import InputError, LineSearchError, NumericOverflowError
from pmptrain.metrics import accuracy
from pmptrain.network import (ParamSet, build_model, init_params,
                              triple_norm_sq)
from pmptrain.regularization import Regularizer
from pmptrain.trainer import (EPS_MIN, EpsilonController, IterationRecord,
                              TrainConfig, diagnostics, propose_epsilon,
                              run_linesearch, sample_minibatch, sweeps,
                              train)

BLOB_ARCH = """
fc out=16 act=tanh
fc out=2 act=identity
"""


def small_blob_setup(seed=3, n_per_class=30, separation=4.0):
    data = synthetic_blobs(seed=seed, n_per_class=n_per_class, m=2, dim=2,
                           separation=separation)
    model = build_model(BLOB_ARCH, input_shape=(2,))
    return model, data


# ---------------------------------------------------------------- sampling

def test_sample_full_batch_returns_all_indices():
    rng = np.random.default_rng(0)
    base = np.arange(7)
    out = sample_minibatch(rng, base, 7)
    assert np.array_equal(out, base)
    out[0] = 99  # must be a copy, not a view of the caller's array
    assert base[0] == 0


def test_sample_minibatch_distinct_and_sorted():
    rng = np.random.default_rng(11)
    for _ in range(200):
        out = sample_minibatch(rng, np.arange(10), 4)
        assert out.shape == (4,)
        assert len(set(out.tolist())) == 4
        assert np.all(np.diff(out) > 0)
        assert out.min() >= 0 and out.max() < 10


def test_sample_minibatch_uniform_frequency():
    # each of 3 indices should appear in a size-2 draw with frequency 2/3;
    # 30000 draws, binomial sigma ~ 38.7, check a 3-sigma band
    rng = np.random.default_rng(2024)
    counts = collections.Counter()
    draws = 30000
    for _ in range(draws):
        for i in sample_minibatch(rng, np.arange(3), 2):
            counts[int(i)] += 1
    expect = draws * 2.0 / 3.0
    sigma = np.sqrt(draws * (2.0 / 3.0) * (1.0 / 3.0))
    for i in range(3):
        assert abs(counts[i] - expect) < 3.0 * sigma


def test_sample_minibatch_bad_sizes():
    rng = np.random.default_rng(0)
    with pytest.raises(InputError):
        sample_minibatch(rng, np.arange(5), 0)
    with pytest.raises(InputError):
        sample_minibatch(rng, np.arange(5), 6)


# ------------------------------------------------------- epsilon proposals

def make_controller(strategy, zeta, omega, proposal, history, last_j=0):
    acc = collections.deque(history, maxlen=omega + 1)
    return EpsilonController(strategy=strategy, zeta=zeta, omega=omega,
                             proposal=proposal, accepted=acc, last_j=last_j)


def test_sqh_proposal_scales_last_accepted():
    ctrl = make_controller("sqh", 0.01, 5, 1.0, [7.0, 49.0], last_j=2)
    assert propose_epsilon(ctrl, k=1) == 0.49


def test_ma_proposal_mean_of_window():
    ctrl = make_controller("ma", 1.0, 5, 4.0, [1.0, 2.0, 3.0, 4.0], last_j=1)
    # k = 3: window is the last min(3, 5) + 1 = 4 accepted values
    assert propose_epsilon(ctrl, k=3) == pytest.approx(2.5, abs=0.0)


def test_ma_proposal_unchanged_when_accepted_immediately():
    ctrl = make_controller("ma", 1.0, 5, 3.75, [9.0, 3.75])
    assert propose_epsilon(ctrl, k=1) == 3.75


def test_ma_proposal_shrinks_with_zeta_below_one():
    ctrl = make_controller("ma", 0.5, 5, 2.0, [2.0])
    assert propose_epsilon(ctrl, k=0) == 1.0


def test_ma_window_clipped_by_omega():
    ctrl = make_controller("ma", 1.0, 2, 8.0, [2.0, 4.0, 6.0], last_j=3)
    # omega = 2 keeps 3 values; at large k the window is all of them
    assert propose_epsilon(ctrl, k=50) == pytest.approx(4.0, abs=0.0)


def test_proposal_floor():
    ctrl = make_controller("sqh", 0.01, 5, 1.0, [1e-7], last_j=1)
    assert propose_epsilon(ctrl, k=0) == EPS_MIN


def test_proposal_requires_history():
    ctrl = make_controller("sqh", 0.01, 5, 1.0, [])
    with pytest.raises(InputError):
        propose_epsilon(ctrl, k=0)


def test_controller_advance_uses_pending_proposal():
    ctrl = EpsilonController.start(TrainConfig(strategy="ma", zeta=0.5,
                                               mu=1.1, eps0=2.0))
    ctrl.record(2.0, 0)
    ctrl.advance(0)
    assert ctrl.proposal == 1.0


# ------------------------------------------------------ config validation

def test_config_rejects_bad_values():
    for kwargs in ({"strategy": "adam"}, {"mu": 1.0}, {"mu": 0.5},
                   {"eta": 0.0}, {"eps0": 0.0}, {"zeta": 0.0},
                   {"zeta": 1.5}, {"omega": 0}, {"k_max": 0},
                   {"m_batch": 0}, {"eval_every": -1}):
        with pytest.raises(InputError):
            TrainConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"seed": -1}, {"eps0": np.inf}, {"eps0": np.nan}, {"mu": np.inf},
    {"mu": np.nan}, {"eta": np.inf}, {"eta": np.nan},
    {"mu": np.inf, "strategy": "ma"}], ids=str)
def test_config_rejects_negative_seed_and_non_finite_steps(kwargs):
    with pytest.raises(InputError, match=next(iter(kwargs))):
        TrainConfig(**kwargs)


def test_config_fills_strategy_profile():
    sqh, ma = TrainConfig(), TrainConfig(strategy="ma")
    assert (sqh.mu, sqh.zeta, sqh.omega) == (7.0, 0.01, 5)
    assert (ma.mu, ma.zeta, ma.omega) == (1.1, 1.0, 5)
    explicit = TrainConfig(strategy="ma", mu=1.5, zeta=0.5, omega=2)
    assert (explicit.mu, explicit.zeta, explicit.omega) == (1.5, 0.5, 2)


# ------------------------------------------------------------ line search

def quad_pieces(c, u_vals, target_vals):
    """Quadratic J(w) = (c/2) ||w - t||^2 over a two-block ParamSet."""
    u = ParamSet([(np.array([[u_vals[0]]]), np.array([u_vals[1]])),
                  (np.array([[u_vals[2]]]), np.array([u_vals[3]]))])
    t = ParamSet([(np.array([[target_vals[0]]]), np.array([target_vals[1]])),
                  (np.array([[target_vals[2]]]), np.array([target_vals[3]]))])

    def objective(p):
        total = 0.0
        for (w, b), (tw, tb) in zip(p.blocks, t.blocks):
            total += np.sum((w - tw) ** 2) + np.sum((b - tb) ** 2)
        return 0.5 * c * float(total)

    grad_blocks = [(-c * (w - tw), -c * (b - tb))
                   for (w, b), (tw, tb) in zip(u.blocks, t.blocks)]
    f = ParamSet(grad_blocks)
    return objective, u, f


def test_linesearch_quadratic_acceptance_threshold():
    # For J(w) = (c/2)||w - t||^2 and the rho = 0 update w = u + F/eps,
    # sufficient decrease with weight eta holds exactly when
    # eps >= c/2 + eta. Derivation: w - u = -(c/eps)(u - t), so
    # J(w) - J(u) = (c^2/eps)(c/(2 eps) - 1)||u - t||^2 and the right side
    # is -eta (c/eps)^2 ||u - t||^2; divide by (c/eps)^2 ||u - t||^2.
    c = 2.0
    eta = 1e-9
    reg = Regularizer("none")
    objective, u, f = quad_pieces(c, [3.0, -1.0, 0.5, 2.0],
                                  [0.0, 0.0, 0.0, 0.0])
    j_u = objective(u)
    w, eps, j, j_w, step_sq = run_linesearch(
        objective, f, u, j_u, reg, 0.3, mu=2.0, eta=eta, j_max=20)
    assert j == 2 and eps == 0.3 * 2.0 ** 2
    assert eps >= c / 2.0 + eta
    assert 0.3 * 2.0 < c / 2.0 + eta  # the previous trial really fails
    assert j_w == objective(w) and j_w < j_u
    assert step_sq == triple_norm_sq(w, u)


def test_linesearch_rejects_epsilon_exactly_at_half_curvature():
    # at eps = c/2 the objective change is exactly zero, which fails the
    # strict decrease requirement, so one escalation is needed
    c = 2.0
    objective, u, f = quad_pieces(c, [1.0, 2.0, -3.0, 0.25], [0.0] * 4)
    w, eps, j, _, _ = run_linesearch(
        objective, f, u, objective(u), Regularizer("none"), c / 2.0, mu=7.0,
        eta=1e-9, j_max=10)
    assert j == 1
    assert eps == 7.0 * c / 2.0


def test_linesearch_counts_objective_calls():
    calls = [0]
    c = 2.0
    objective, u, f = quad_pieces(c, [3.0, -1.0, 0.5, 2.0], [0.0] * 4)

    def counting(p):
        calls[0] += 1
        return objective(p)

    _, _, j, _, _ = run_linesearch(counting, f, u, objective(u),
                                   Regularizer("none"), 0.3, mu=2.0,
                                   eta=1e-9, j_max=20)
    assert calls[0] == j + 1


def test_linesearch_zero_gradient_is_fixed_point():
    objective, u, _ = quad_pieces(1.0, [0.5, 0.5, 0.5, 0.5], [0.5] * 4)
    zero_f = ParamSet([(np.zeros((1, 1)), np.zeros(1)),
                       (np.zeros((1, 1)), np.zeros(1))])
    j_u = objective(u)
    w, eps, j, j_w, step_sq = run_linesearch(
        objective, zero_f, u, j_u, Regularizer("none"), 2.0, mu=7.0,
        eta=1e-9, j_max=5)
    assert j == 0 and step_sq == 0.0
    assert j_w == j_u
    for (ww, wb), (uw, ub) in zip(w.blocks, u.blocks):
        assert np.array_equal(ww, uw) and np.array_equal(wb, ub)


def test_linesearch_failure_carries_context():
    c = 2.0
    objective, u, f = quad_pieces(c, [3.0, -1.0, 0.5, 2.0], [0.0] * 4)
    with pytest.raises(LineSearchError) as info:
        run_linesearch(objective, f, u, objective(u), Regularizer("none"),
                       1e-6, mu=1.5, eta=1e12, j_max=4, iteration=17)
    assert info.value.iteration == 17
    assert info.value.j == 4


def overflowing(objective, trials):
    """objective that raises NumericOverflowError on the given call numbers."""
    calls = [0]

    def wrapped(p):
        calls[0] += 1
        if calls[0] - 1 in trials:
            raise NumericOverflowError(1)
        return objective(p)
    return wrapped, calls


def test_linesearch_overflowing_trial_is_rejected():
    # the quadratic would accept at j=0 (eps 4 >= c/2); the overflow at
    # j=0 counts as J = +inf, so the search escalates once
    c = 2.0
    objective, u, f = quad_pieces(c, [3.0, -1.0, 0.5, 2.0], [0.0] * 4)
    wrapped, calls = overflowing(objective, {0})
    w, eps, j, j_w, _ = run_linesearch(
        wrapped, f, u, objective(u), Regularizer("none"), 4.0, mu=1.5,
        eta=1e-9, j_max=5)
    assert j == 1 and eps == 1.5 * 4.0
    assert calls[0] == 2 and j_w == objective(w)


def test_linesearch_overflowing_every_trial_fails_with_context():
    objective, u, f = quad_pieces(2.0, [3.0, -1.0, 0.5, 2.0], [0.0] * 4)
    wrapped, calls = overflowing(objective, set(range(5)))
    with pytest.raises(LineSearchError) as info:
        run_linesearch(wrapped, f, u, objective(u), Regularizer("none"),
                       4.0, mu=1.5, eta=1e-9, j_max=4, iteration=3)
    assert calls[0] == 5
    assert info.value.j == 4 and info.value.iteration == 3
    assert info.value.j_trial == np.inf
    assert info.value.epsilon == 1.5 ** 4 * 4.0


# ------------------------------------------------------------- full runs

def test_train_full_batch_monotone_and_chained():
    model, data = small_blob_setup()
    reg = Regularizer("elastic-net", alpha=0.8, rho=1e-4)
    config = TrainConfig(seed=5, k_max=40, reg=reg)
    _, log = train(config, model, data)
    assert len(log.records) == 40
    for r in log.records:
        assert r.mb_loss_after <= r.mb_loss_before - config.eta * r.step_sq
    for prev, nxt in zip(log.records, log.records[1:]):
        # full-batch runs reuse J(u^{k+1}) so the chain is bitwise exact
        assert nxt.mb_loss_before == prev.mb_loss_after


def test_train_reaches_full_accuracy_on_separated_blobs():
    model, data = small_blob_setup(separation=4.0)
    params, _ = train(TrainConfig(seed=1, k_max=100), model, data)
    assert accuracy(model, params, data) == 100.0


def test_train_rho_zero_step_is_scaled_gradient():
    model, data = small_blob_setup()
    u0 = init_params(model, 9)
    u1, log = train(TrainConfig(seed=9, k_max=1), model, data, params=u0)
    eps = log.records[0].epsilon

    _, f = sweeps(model, u0, data.inputs, data.labels, Regularizer())
    for (w1, b1), (w0, b0), (fw, fb) in zip(u1.blocks, u0.blocks, f.blocks):
        assert np.array_equal(w1, w0 + fw / eps)
        assert np.array_equal(b1, b0 + fb / eps)


def test_train_accounting_totals():
    model, data = small_blob_setup()
    _, log = train(TrainConfig(seed=2, k_max=25), model, data)
    assert log.records[-1].ls_steps_cum == sum(r.j + 1 for r in log.records)
    cum = 0
    for r in log.records:
        cum += r.j + 1
        assert r.ls_steps_cum == cum


def test_train_bitwise_reproducible():
    model, data = small_blob_setup()
    config = TrainConfig(seed=77, m_batch=8, k_max=30, strategy="ma")
    p_a, log_a = train(config, model, data)
    p_b, log_b = train(config, model, data)
    for (wa, ba), (wb, bb) in zip(p_a.blocks, p_b.blocks):
        assert np.array_equal(wa, wb)
        assert np.array_equal(ba, bb)
    assert [r.epsilon for r in log_a.records] == [r.epsilon for r in log_b.records]
    assert [r.mb_loss_after for r in log_a.records] == \
        [r.mb_loss_after for r in log_b.records]


def test_train_minibatch_runs_and_history_smooths():
    model, data = small_blob_setup(n_per_class=40)
    config = TrainConfig(seed=4, m_batch=16, k_max=30, strategy="ma")
    params, log = train(config, model, data)
    assert all(np.isfinite(r.mb_loss_after) for r in log.records)
    assert log.records[-1].epsilon > 0.0


def test_train_eval_cadence():
    model, data = small_blob_setup()
    test_data = synthetic_blobs(seed=8, n_per_class=10, m=2, dim=2,
                                separation=4.0, split="test")
    config = TrainConfig(seed=3, k_max=6, eval_every=3)
    _, log = train(config, model, data, test_set=test_data)
    for r in log.records:
        if (r.k + 1) % 3 == 0:
            assert r.full_loss is not None
            assert r.train_acc is not None
            assert r.test_acc is not None
            assert r.sparsity is not None
        else:
            assert r.full_loss is None and r.test_acc is None


def test_train_eval_without_test_set_leaves_test_acc_blank():
    model, data = small_blob_setup()
    _, log = train(TrainConfig(seed=3, k_max=2, eval_every=1), model, data)
    assert all(r.test_acc is None for r in log.records)
    assert all(r.full_loss is not None for r in log.records)


def test_train_full_batch_eval_loss_is_accepted_trial():
    model, data = small_blob_setup()
    reg = Regularizer("l2l0", alpha=0.8, rho=1e-3)
    _, log = train(TrainConfig(seed=3, k_max=8, eval_every=1, reg=reg),
                   model, data)
    assert all(r.full_loss == r.mb_loss_after for r in log.records)


def test_train_callback_sees_each_iterate():
    model, data = small_blob_setup()
    seen = []
    u0 = init_params(model, 8)
    params, log = train(TrainConfig(seed=8, m_batch=16, k_max=6,
                                    strategy="ma"),
                        model, data, params=u0,
                        on_iteration=lambda r, u: seen.append((r, u)))
    assert [r for r, _ in seen] == log.records
    assert seen[-1][1] is params
    prev = u0
    for record, u in seen:
        assert record.step_sq == triple_norm_sq(u, prev)
        prev = u


def test_train_with_class_weights_runs():
    model, data = small_blob_setup()
    params, log = train(TrainConfig(seed=6, k_max=5, use_class_weights=True),
                        model, data)
    assert np.isfinite(log.records[-1].mb_loss_after)


def test_ma_uses_no_more_steps_than_sqh_on_full_batch():
    model, data = small_blob_setup()
    _, log_sqh = train(TrainConfig(seed=12, k_max=40, strategy="sqh"),
                       model, data)
    _, log_ma = train(TrainConfig(seed=12, k_max=40, strategy="ma"),
                      model, data)
    assert log_ma.records[-1].ls_steps_cum <= log_sqh.records[-1].ls_steps_cum


# ------------------------------------------------------------ diagnostics

def diag_records(n, step_sq=0.0, epsilon=1e6):
    return [IterationRecord(k=k, epsilon=epsilon, j=0, mb_loss_before=1.0,
                            mb_loss_after=1.0, step_sq=step_sq,
                            ls_steps_cum=k + 1, wall_s=0.0)
            for k in range(n)]


def test_diagnostics_gap_zero_for_full_batch_steps():
    model, data = small_blob_setup()
    reg = Regularizer("elastic-net", alpha=0.8, rho=1e-4)
    config = TrainConfig(seed=5, k_max=10, reg=reg)
    iterates = [init_params(model, 5)]
    _, log = train(config, model, data, params=iterates[0],
                   on_iteration=lambda r, u: iterates.append(u))
    delta_h, delta_u = diagnostics(model, iterates[-2], iterates[-1],
                                   log.records, data, reg)
    assert abs(delta_h) <= 1e-10
    assert delta_u == sum(triple_norm_sq(b, a) for a, b in
                          zip(iterates[-7:], iterates[-6:]))
    assert delta_u > 0.0


def test_diagnostics_zero_for_stationary_sequence():
    model, data = small_blob_setup()
    params = init_params(model, 0)
    # large eps means a small exact step, so the gap is small but
    # positive, while the parameter-change sum is exactly zero
    _, delta_u = diagnostics(model, params, params.copy(), diag_records(7),
                             data, Regularizer("none"))
    assert delta_u == 0.0


def test_diagnostics_requires_six_records():
    model, data = small_blob_setup()
    params = init_params(model, 0)
    with pytest.raises(InputError):
        diagnostics(model, params, params.copy(), diag_records(5), data,
                    Regularizer("none"))


def test_diagnostics_rejects_pair_that_is_not_the_logged_step():
    model, data = small_blob_setup()
    u_prev, u_next = init_params(model, 0), init_params(model, 1)
    records = diag_records(6, step_sq=triple_norm_sq(u_next, u_prev))
    diagnostics(model, u_prev, u_next, records, data, Regularizer("none"))
    with pytest.raises(InputError):
        diagnostics(model, u_prev, u_prev.copy(), records, data,
                    Regularizer("none"))
