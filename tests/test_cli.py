"""Config parsing and subcommand behavior through the public entry point."""

import numpy as np
import pytest

from pmptrain import metrics
from pmptrain.cli import main, parse_config
from pmptrain.errors import ConfigError
from pmptrain.runlog import load_params, read_log

BLOB_CONFIG = """\
# two separated clusters, tiny net
seed = 3
arch = net.arch
data = blobs:seed=1,n_per_class=15,m=2,dim=2,separation=4.0,test_per_class=5
k_max = 12
eval_every = 6
"""

BLOB_ARCH = """\
fc out=8 act=tanh
fc out=2 act=identity
"""


def write_blob_config(tmp_path, config_text=BLOB_CONFIG):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text, encoding="utf-8")
    (tmp_path / "net.arch").write_text(BLOB_ARCH, encoding="utf-8")
    return cfg


# ---------------------------------------------------------- config parsing

def test_parse_config_minimal_defaults(tmp_path):
    cfg = write_blob_config(tmp_path)
    setup = parse_config(cfg)
    assert setup.config.eps0 == 1.0
    assert setup.config.mu == 7.0
    assert setup.config.zeta == 0.01
    assert setup.config.eta == 1e-9
    assert setup.config.strategy == "sqh"
    assert setup.config.m_batch is None
    assert setup.config.seed == 3
    assert len(setup.train_set) == 30
    assert len(setup.test_set) == 10
    assert setup.model.m == 2


def test_parse_config_ma_profile(tmp_path):
    cfg = write_blob_config(tmp_path, BLOB_CONFIG + "strategy = ma\n")
    setup = parse_config(cfg)
    assert setup.config.mu == 1.1
    assert setup.config.zeta == 1.0
    assert setup.config.omega == 5


def test_parse_config_explicit_values_beat_profile(tmp_path):
    cfg = write_blob_config(tmp_path,
                            BLOB_CONFIG + "strategy = ma\nmu = 1.5\n")
    assert parse_config(cfg).config.mu == 1.5


def test_parse_config_unknown_key(tmp_path):
    cfg = write_blob_config(tmp_path, BLOB_CONFIG + "learning_rate = 0.1\n")
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert "learning_rate" in str(info.value)


def test_parse_config_duplicate_key(tmp_path):
    cfg = write_blob_config(tmp_path, BLOB_CONFIG + "seed = 4\n")
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert "seed" in str(info.value)


def test_parse_config_bad_range(tmp_path):
    cfg = write_blob_config(tmp_path, BLOB_CONFIG + "mu = 0.5\n")
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert "mu" in str(info.value)


def test_parse_config_unknown_strategy(tmp_path):
    cfg = write_blob_config(tmp_path, BLOB_CONFIG + "strategy = adam\n")
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert "strategy" in str(info.value)


def test_parse_config_bad_number(tmp_path):
    cfg = write_blob_config(tmp_path, BLOB_CONFIG + "eps0 = fast\n")
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert "eps0" in str(info.value)


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "nope.cfg")


def test_parse_config_missing_arch(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("data = blobs:n_per_class=5\n", encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert "arch" in str(info.value)


def test_parse_config_inline_arch(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("arch = fc out=6 act=tanh; fc out=2 act=identity\n"
                   "data = blobs:n_per_class=5\n", encoding="utf-8")
    setup = parse_config(cfg)
    assert len(setup.model.layers) == 2


def test_parse_config_regularizer(tmp_path):
    cfg = write_blob_config(
        tmp_path,
        BLOB_CONFIG + "reg_kind = l2l0\nrho = 1e-4\nalpha = 0.8\n"
                      "include_bias = false\n")
    reg = parse_config(cfg).config.reg
    assert reg.kind == "l2l0" and reg.rho == 1e-4
    assert reg.alpha == 0.8 and reg.include_bias is False


def test_parse_config_minibatch_size(tmp_path):
    cfg = write_blob_config(tmp_path, BLOB_CONFIG + "M = 10\n")
    assert parse_config(cfg).config.m_batch == 10
    cfg2 = write_blob_config(tmp_path, BLOB_CONFIG.replace(
        "seed = 3", "seed = 3\nM = full"))
    assert parse_config(cfg2).config.m_batch is None


def test_parse_config_class_count_mismatch(tmp_path):
    bad = BLOB_CONFIG.replace("m=2", "m=3")
    cfg = write_blob_config(tmp_path, bad)
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert "classes" in str(info.value)


def test_parse_config_rejects_both_data_forms(tmp_path):
    cfg = write_blob_config(tmp_path,
                            BLOB_CONFIG + "train_images = x.idx\n"
                                          "train_labels = y.idx\n")
    with pytest.raises(ConfigError):
        parse_config(cfg)


# ------------------------------------------------------------ subcommands

def test_no_arguments_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["explode"])
    assert info.value.code == 2


def test_train_writes_log_and_snapshot(tmp_path, capsys):
    cfg = write_blob_config(tmp_path)
    assert main(["train", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "iterations: 12" in out
    assert "test accuracy:" in out
    rows = read_log(tmp_path / "run_out" / "log.csv")
    assert len(rows) == 12
    assert rows[5]["full_loss"] is not None
    assert rows[0]["full_loss"] is None
    assert (tmp_path / "run_out" / "params.bin").exists()
    assert (tmp_path / "run_out" / "params.bin.json").exists()


def test_train_then_eval_round_trip(tmp_path, capsys):
    cfg = write_blob_config(tmp_path)
    assert main(["train", str(cfg)]) == 0
    capsys.readouterr()
    snap = tmp_path / "run_out" / "params.bin"
    assert main(["eval", str(cfg), str(snap)]) == 0
    out = capsys.readouterr().out
    assert "train accuracy:" in out
    assert "test accuracy:" in out
    assert "confusion" in out


def test_eval_forwards_each_split_once(tmp_path, capsys, monkeypatch):
    cfg = write_blob_config(tmp_path)
    assert main(["train", str(cfg)]) == 0
    capsys.readouterr()
    snap = tmp_path / "run_out" / "params.bin"
    setup = parse_config(cfg)
    want = metrics.accuracy(setup.model, load_params(snap), setup.test_set)
    rows = []
    real = metrics.forward_logits

    def counting(model, params, inputs):
        rows.append(inputs.shape[0])
        return real(model, params, inputs)

    monkeypatch.setattr(metrics, "forward_logits", counting)
    assert main(["eval", str(cfg), str(snap)]) == 0
    # 30 training and 10 test images: one forward each, the test split
    # giving both its accuracy and the confusion matrix
    assert sorted(rows) == [10, 30]
    assert f"test accuracy: {want:.2f}%" in capsys.readouterr().out


def test_eval_rejects_mismatched_snapshot(tmp_path, capsys):
    cfg = write_blob_config(tmp_path)
    assert main(["train", str(cfg)]) == 0
    other = tmp_path / "other.cfg"
    other.write_text(
        "arch = fc out=3 act=tanh; fc out=2 act=identity\n"
        "data = blobs:n_per_class=5\n", encoding="utf-8")
    snap = tmp_path / "run_out" / "params.bin"
    assert main(["eval", str(other), str(snap)]) == 1
    assert "error:" in capsys.readouterr().err
    (tmp_path / "run_out" / "params.bin.json").write_text("{}", encoding="utf-8")
    assert main(["eval", str(cfg), str(snap)]) == 1
    assert "error:" in capsys.readouterr().err


def test_train_is_deterministic_across_runs(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    cfg_a = write_blob_config(tmp_path / "a")
    cfg_b = write_blob_config(tmp_path / "b")
    assert main(["train", str(cfg_a)]) == 0
    assert main(["train", str(cfg_b)]) == 0
    bin_a = (tmp_path / "a" / "run_out" / "params.bin").read_bytes()
    bin_b = (tmp_path / "b" / "run_out" / "params.bin").read_bytes()
    assert bin_a == bin_b


def test_proxcheck_passes(capsys):
    assert main(["proxcheck", "200"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "max objective gap" in out


def test_gradcheck_passes(tmp_path, capsys):
    cfg = write_blob_config(tmp_path)
    assert main(["gradcheck", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out and "PASS" in out


@pytest.mark.parametrize("conv,data_seed,seed", [
    ("act=tanh pool=avg2", 0, 1),
    # zero biases would put blank regions on the relu kink, where F and
    # the central difference disagree
    ("act=relu pool=max2", 3, 4),
], ids=["tanh-avg2", "relu-max2"])
def test_gradcheck_small_cnn(tmp_path, capsys, conv, data_seed, seed):
    cfg = tmp_path / "cnn.cfg"
    cfg.write_text(
        f"arch = conv out=2 k=3 stride=1 pad=1 {conv}; "
        "fc out=10 act=identity\n"
        f"data = digits:seed={data_seed},train_per_class=2\n"
        f"seed = {seed}\n", encoding="utf-8")
    assert main(["gradcheck", str(cfg), "--coords", "20"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_missing_config_is_reported(tmp_path, capsys):
    assert main(["train", str(tmp_path / "absent.cfg")]) == 1
    assert "error:" in capsys.readouterr().err
