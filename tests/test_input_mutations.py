"""Seeded mutations of a valid config and of LeNet architecture text.

Each mutation drops, duplicates or adds a key (a data option or a layer
field, for the nested inputs) or replaces a value with one drawn from
VALUES. Whatever parse_config or build_model raise on the result must be
a typed PmpTrainError, never a raw ValueError or TypeError from a cast
or from numpy; a config that parses must carry a non-negative seed,
finite hyperparameters and finite data. Every count in the base config
is at most 50, so no mutation renders a large corpus.
"""

import math
import random

import numpy as np
import pytest

from pmptrain.cli import main, parse_config
from pmptrain.errors import PmpTrainError
from pmptrain.network import build_model

SEEDS = (0, 1, 2, 3)
CONFIGS_PER_SEED = 80
ARCHS_PER_SEED = 80
VALUES = ("", "x", "-1", "0", "1.5", "nan", "inf", "1e400", "+", ";", "é")

BASE_PAIRS = (
    ("seed", "3"), ("arch", "net.arch"), ("data", None), ("M", "4"),
    ("k_max", "5"), ("eps0", "1.0"), ("eta", "1e-9"), ("strategy", "ma"),
    ("mu", "1.5"), ("zeta", "1.0"), ("omega", "3"), ("reg_kind", "l2l0"),
    ("rho", "1e-4"), ("alpha", "0.5"), ("include_bias", "false"),
    ("eval_every", "2"), ("use_class_weights", "true"), ("out_dir", "run_out"),
)
BASE_OPTIONS = (("seed", "1"), ("n_per_class", "6"), ("m", "2"), ("dim", "2"),
                ("separation", "4.0"), ("test_per_class", "3"))
BLOB_ARCH = "fc out=8 act=tanh\nfc out=2 act=identity\n"
LENET = (
    "conv out=6 k=5 pad=2 act=tanh pool=avg2",
    "conv out=16 k=5 act=tanh pool=avg2",
    "fc out=120 act=tanh",
    "fc out=84 act=tanh",
    "fc out=10 act=identity",
)


def mutate(rng: random.Random, items: list[list[str]]):
    """Drop, duplicate or add a key, or redraw a value, in place."""
    i = rng.randrange(len(items))
    op = rng.choice(("drop", "duplicate", "unknown", "value"))
    if op == "drop":
        del items[i]
    elif op == "duplicate":
        items.insert(i, list(items[i]))
    elif op == "unknown":
        items.insert(i, ["bogus", rng.choice(VALUES)])
    else:
        items[i][1] = rng.choice(VALUES)


def mutated_config(rng: random.Random) -> str:
    pairs = [list(p) for p in BASE_PAIRS]
    options = [list(o) for o in BASE_OPTIONS]
    for _ in range(rng.randint(1, 2)):
        mutate(rng, options if rng.random() < 0.4 else pairs)
    data = "blobs:" + ",".join(f"{k}={v}" for k, v in options)
    return "".join(f"{k} = {data if v is None else v}\n" for k, v in pairs)


def mutated_arch(rng: random.Random) -> str:
    lines = [line.split() for line in LENET]
    for _ in range(rng.randint(1, 2)):
        op = rng.choice(("line", "kind", "field"))
        i = rng.randrange(len(lines))
        if op == "line" and rng.random() < 0.5:
            del lines[i]
        elif op == "line":
            lines.insert(i, list(lines[i]))
        elif op == "kind":
            lines[i][0] = rng.choice(VALUES + ("conv", "fc"))
        else:
            fields = [tok.split("=", 1) for tok in lines[i][1:]]
            mutate(rng, fields)
            lines[i][1:] = [f"{k}={v}" for k, v in fields]
    return "\n".join(" ".join(tokens) for tokens in lines)


def check_accepted(setup):
    config = setup.config
    assert config.seed >= 0
    for value in (config.eps0, config.mu, config.eta, config.zeta,
                  config.reg.alpha, config.reg.rho):
        assert math.isfinite(value)
    for split in (setup.train_set, setup.test_set):
        if split is not None:
            assert np.all(np.isfinite(split.inputs))


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_configs_fail_typed(tmp_path, seed):
    rng = random.Random(seed)
    (tmp_path / "net.arch").write_text(BLOB_ARCH, encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    outcomes = {"accepted": 0, "rejected": 0}
    for _ in range(CONFIGS_PER_SEED):
        text = mutated_config(rng)
        cfg.write_text(text, encoding="utf-8")
        try:
            setup = parse_config(cfg)
        except PmpTrainError:
            outcomes["rejected"] += 1
        except Exception as exc:  # any other type is the defect under test
            pytest.fail(f"{type(exc).__name__}: {exc}\nconfig:\n{text}")
        else:
            check_accepted(setup)
            outcomes["accepted"] += 1
    assert min(outcomes.values()) > 0, outcomes


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_arch_text_fails_typed(seed):
    rng = random.Random(1000 + seed)
    outcomes = {"accepted": 0, "rejected": 0}
    for _ in range(ARCHS_PER_SEED):
        text = mutated_arch(rng)
        try:
            build_model(text, (1, 28, 28))
        except PmpTrainError:
            outcomes["rejected"] += 1
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__}: {exc}\narch:\n{text}")
        else:
            outcomes["accepted"] += 1
    assert min(outcomes.values()) > 0, outcomes


@pytest.mark.parametrize("data,arch,option", [
    ("digits:seed=x,train_per_class=1", "; ".join(LENET), "seed"),
    ("blobs:n_per_class=3,separation=abc", BLOB_ARCH.replace("\n", "; "),
     "separation"),
    ("digits:train_per_class=1.5", "; ".join(LENET), "train_per_class"),
], ids=["digits-seed", "blobs-separation", "digits-count"])
def test_train_reports_a_malformed_data_option(tmp_path, capsys, data, arch,
                                               option):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"arch = {arch}\ndata = {data}\nk_max = 1\n",
                   encoding="utf-8")
    assert main(["train", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and f"data option {option!r}" in err
