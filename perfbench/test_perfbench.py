"""Tests of the benchmark's own code: reference model, span statistics, checks.

    python3 -m pytest perfbench

The end-to-end tests drive `run.main` on shrunken copies of the workloads
(a few images, a few iterations) and write under perfbench/runs/.
"""

import dataclasses
import itertools
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import instrument  # noqa: E402
import refmodel  # noqa: E402
import bench  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import (Patcher, Recorder, TraceError, median, percentile,  # noqa: E402
                   self_times, tail_percentile, top_below)


# ------------------------------------------------------- reference model

def loop_conv(x, kernel, bias, stride, pad):
    n, c, h, w = x.shape
    co, _, k, _ = kernel.shape
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + w] = x
    oh, ow = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    out = np.zeros((n, co, oh, ow))
    for i, o, y, xx in itertools.product(range(n), range(co), range(oh), range(ow)):
        acc = bias[o]
        for ci, ky, kx in itertools.product(range(c), range(k), range(k)):
            acc += kernel[o, ci, ky, kx] * xp[i, ci, y * stride + ky, xx * stride + kx]
        out[i, o, y, xx] = acc
    return out


def loop_pool(x, mode):
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // 2, w // 2))
    for i, ch, y, xx in itertools.product(range(n), range(c), range(h // 2), range(w // 2)):
        tile = [x[i, ch, 2 * y + dy, 2 * xx + dx] for dy in (0, 1) for dx in (0, 1)]
        out[i, ch, y, xx] = sum(tile) / 4.0 if mode == "avg2" else max(tile)
    return out


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 2), (2, 1)])
def test_conv_matches_direct_loops(stride, pad):
    rng = np.random.default_rng(stride * 10 + pad)
    x = rng.normal(size=(2, 3, 7, 6))
    kernel = rng.normal(size=(4, 3, 3, 3))
    bias = rng.normal(size=4)
    got = refmodel.conv2d(x, kernel, bias, stride, pad)
    np.testing.assert_allclose(got, loop_conv(x, kernel, bias, stride, pad),
                               rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("mode", ["avg2", "max2"])
def test_pool_matches_direct_loops(mode):
    x = np.random.default_rng(3).normal(size=(2, 3, 6, 4))
    np.testing.assert_allclose(refmodel.pool2(x, mode), loop_pool(x, mode),
                               rtol=1e-15, atol=1e-15)


def test_layer_shapes_of_lenet():
    shapes = refmodel.layer_shapes(workloads.LENET_TANH_AVG)
    assert [s[0] for s in shapes] == [(6, 1, 5, 5), (16, 6, 5, 5), (120, 400),
                                      (84, 120), (10, 84)]
    assert shapes[0][2:] == ((6, 28, 28), (6, 14, 14))
    assert shapes[1][2:] == ((16, 10, 10), (16, 5, 5))


def tiny_layers(act, pool):
    return ({"kind": "conv", "out": 3, "k": 3, "stride": 1, "pad": 1,
             "act": act, "pool": pool},
            {"kind": "fc", "out": 5, "act": act},
            {"kind": "fc", "out": 4, "act": "identity"})


@pytest.mark.parametrize("act,pool", [("tanh", "avg2"), ("relu", "max2")])
def test_reference_logits_match_loops_and_program(act, pool):
    from pmptrain.network import build_model, forward_logits, init_params
    layers = tiny_layers(act, pool)
    model = build_model(refmodel.arch_text(layers), (1, 6, 6))
    params = init_params(model, 5)
    blocks = params.blocks
    x = np.random.default_rng(1).normal(size=(7, 1, 6, 6))

    h = loop_pool(np.tanh(loop_conv(x, *blocks[0], 1, 1)) if act == "tanh"
                  else np.maximum(loop_conv(x, *blocks[0], 1, 1), 0.0), pool)
    h = h.reshape(7, -1) @ blocks[1][0].T + blocks[1][1]
    h = np.tanh(h) if act == "tanh" else np.maximum(h, 0.0)
    want = h @ blocks[2][0].T + blocks[2][1]

    got = refmodel.logits(layers, blocks, x, chunk=3)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(got, forward_logits(model, params, x),
                               rtol=1e-12, atol=1e-13)


def test_regularizer_and_cross_entropy_by_hand():
    blocks = [(np.array([[0.0, 2.0], [-1.0, 0.0]]), np.array([0.0, 3.0]))]
    l0 = {"kind": "l2l0", "alpha": 0.5, "rho": 0.1}
    en = {"kind": "elastic-net", "alpha": 0.5, "rho": 0.1}
    # ||u||^2 = 14, nnz = 3, ||u||_1 = 6
    assert refmodel.regularizer(l0, blocks) == pytest.approx(0.1 * (3.5 + 1.5))
    assert refmodel.regularizer(en, blocks) == pytest.approx(0.1 * (3.5 + 3.0))
    z = np.array([[0.0, np.log(3.0)], [0.0, 0.0]])
    assert refmodel.cross_entropy(z, np.array([1, 0])) == \
        pytest.approx((np.log(4 / 3) + np.log(2)) / 2)


# ------------------------------------------------------------ span maths

def built_spans():
    # train [0, 10] > linesearch [1, 6] > objective [2, 5]; sample [7, 8];
    # a top-level scoring pass [11, 12]
    return [["trainer.train", 0.0, 10.0, -1, None],
            ["trainer.linesearch", 1.0, 6.0, 0, None],
            ["network.objective", 2.0, 5.0, 1, None],
            ["trainer.sample", 7.0, 8.0, 0, None],
            ["metrics.accuracy", 11.0, 12.0, -1, None]]


def test_self_times_subtract_direct_children_only():
    assert self_times(built_spans()) == [4.0, 2.0, 3.0, 1.0, 1.0]


def test_top_below_finds_the_child_of_the_root():
    assert top_below(built_spans(), "trainer.train") == [-1, 1, 1, 3, -1]


def test_analysis_phases_and_line_search_calls():
    a = instrument.Analysis(built_spans())
    assert [a.phase(i) for i in range(5)] == \
        ["outside", "iteration", "iteration", "iteration", "outside"]
    assert instrument.ls_objective_calls(a) == [2]


def test_percentiles():
    assert percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90) == pytest.approx(4.6)
    assert median([5.0]) == 5.0
    assert tail_percentile(list(range(39))) is None
    assert tail_percentile(list(range(40)))[0] == 75.0
    assert tail_percentile(list(range(1000)))[0] == 99.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_recorder_nests_spans_and_records_work():
    rec = Recorder()
    inner = rec.wrap("inner", lambda v: v * 2, label=lambda a: f".l{a[0]}",
                     work=lambda a: 7)
    outer = rec.wrap("outer", lambda: inner(1) + inner(2))
    assert outer() == 6
    assert [s[0] for s in rec.spans] == ["outer", "inner.l1", "inner.l2"]
    assert [s[3] for s in rec.spans] == [-1, 0, 0]
    assert rec.spans[1][4] == 7 and rec.spans[0][4] is None
    assert all(s[1] <= s[2] for s in rec.spans)


def test_patcher_restores_and_refuses_missing_entry_points():
    class Owner:
        value = staticmethod(lambda: 1)
    p = Patcher()
    p.replace(Owner, "value", lambda fn: staticmethod(lambda: fn() + 1))
    assert Owner.value() == 2
    p.restore()
    assert Owner.value() == 1
    with pytest.raises(TraceError, match="missing"):
        p.replace(Owner, "renamed", lambda fn: fn)


def test_every_entry_point_exists_in_the_program():
    from pmptrain import cli, digits, metrics, network, runlog, trainer
    mods = {"cli": cli, "digits": digits, "trainer": trainer,
            "network": network, "metrics": metrics, "runlog": runlog}
    before = {name: dict(vars(m)) for name, m in mods.items()}
    p = Patcher()
    instrument.install(p, Recorder(), mods, workloads.LENET_TANH_AVG)
    assert network.conv2d is not before["network"]["conv2d"]
    p.restore()
    for name, m in mods.items():
        for attr, value in before[name].items():
            assert vars(m)[attr] is value


def test_benchmark_json_names_what_the_code_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == instrument.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END


# ---------------------------------------------------------------- checks

class Rec:
    def __init__(self, k, before, after, step):
        self.k, self.mb_loss_before, self.mb_loss_after = k, before, after
        self.step_sq = step


def test_sufficient_decrease_and_chain():
    good = [Rec(0, 2.0, 1.5, 1.0), Rec(1, 1.5, 1.2, 1.0)]
    checks.sufficient_decrease(good, 1e-9, full_batch=True)
    with pytest.raises(checks.CheckFailed, match="sufficient decrease"):
        checks.sufficient_decrease([Rec(0, 1.0, 1.0, 1.0)], 1e-9, False)
    broken = [Rec(0, 2.0, 1.5, 1.0), Rec(1, 1.5000000000000002, 1.2, 1.0)]
    checks.sufficient_decrease(broken, 1e-9, full_batch=False)
    with pytest.raises(checks.CheckFailed, match="chain"):
        checks.sufficient_decrease(broken, 1e-9, full_batch=True)


def test_hard_threshold_property():
    reg = {"kind": "l2l0", "alpha": 0.8, "rho": 1e-4}
    eps = 0.5
    cutoff = np.sqrt(2 * 0.2e-4 / (eps + 0.8e-4))
    blocks = [(np.array([0.0, 2 * cutoff]), np.array([0.0]))]
    checks.hard_threshold(blocks, reg, eps)
    with pytest.raises(checks.CheckFailed, match="cutoff"):
        checks.hard_threshold([(np.array([0.0, 0.5 * cutoff]), np.zeros(1))],
                              reg, eps)
    with pytest.raises(checks.CheckFailed, match="no exact zeros"):
        checks.hard_threshold([(np.array([1.0]), np.array([1.0]))], reg, eps)


def test_accuracy_allows_only_ties():
    logits = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    classes = np.array([0, 0, 1])
    # reference argmax: 0, 1, 0 (tie) -> 1 of 3 right; the tie may go either way
    assert checks.accuracy_matches(100 / 3, logits, classes, "t") == pytest.approx(100 / 3)
    checks.accuracy_matches(200 / 3, logits, classes, "t")
    with pytest.raises(checks.CheckFailed):
        checks.accuracy_matches(100.0, logits, classes, "t")


def test_objective_tolerance():
    checks.objective_matches(1.0 + 1e-14, 1.0)
    with pytest.raises(checks.CheckFailed):
        checks.objective_matches(1.0 + 1e-8, 1.0)


# --------------------------------------------------- end-to-end on tiny runs

TINY = {"train_per_class": 3, "test_per_class": 2, "m_batch": 10, "k_max": 4,
        "accuracy_floor": -1.0, "score_per_class": 2, "score_passes": 2}


@pytest.fixture
def tiny(monkeypatch):
    def add(base, **extra):
        wl = dataclasses.replace(workloads.WORKLOADS[base], name="tiny-" + base,
                                 **dict(TINY, **extra))
        monkeypatch.setitem(workloads.WORKLOADS, wl.name, wl)
        return wl.name
    return add


def result_of(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("base,extra", [
    ("mini-relu-max", {"eval_every": 4}),
    ("mini-ma-cli", {"eval_every": 2}),
    ("full-sqh-l2l0", {"m_batch": None, "k_max": 2, "eval_every": 2}),
])
def test_tiny_runs_pass_their_checks(tiny, capsys, base, extra):
    name = tiny(base, **extra)
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", "0"]) == 0
    out = result_of(capsys)
    assert out["correct"] and out["failed"] == 0
    assert list(out["metrics"]) == list(bench.END_TO_END)
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", "1"]) == 0
    traced = result_of(capsys)
    assert traced["correct"]
    assert list(traced["metrics"]) == list(instrument.PER_LAYER)
    assert traced["metrics"]["trainer.trials_per_iter"]["value"] >= 1.0


def test_perturbed_snapshot_fails_the_run(tiny, capsys, monkeypatch):
    from pmptrain import runlog
    name = tiny("mini-relu-max", eval_every=4)
    original = runlog.save_params

    def perturbed(params, path):
        params = params.copy()
        params.blocks[2][0][0, 0] += 1e-6
        original(params, path)

    monkeypatch.setattr(runlog, "save_params", perturbed)
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", "0"]) == 1
    assert not result_of(capsys)["correct"]
