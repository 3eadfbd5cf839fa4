"""The three bSQH training workloads and the inputs each one is given.

Every workload is a closed loop of one process training one LeNet for a
fixed number of iterations, one iteration after another. The training
problem of a workload is fixed (corpus seeds, init/sampling seed,
hyperparameters), so every run of it reproduces the same parameters and
the same final objective bit for bit, and run-to-run spread is the
machine's alone. `--seed` draws the held-out scoring split, the images
the trained network classifies for `eval_images_per_s` and the
held-out accuracy check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import refmodel


def _conv(out, k, pad, act, pool):
    return {"kind": "conv", "out": out, "k": k, "stride": 1, "pad": pad,
            "act": act, "pool": pool}


def _fc(out, act):
    return {"kind": "fc", "out": out, "act": act}


LENET_TANH_AVG = (
    _conv(6, 5, 2, "tanh", "avg2"), _conv(16, 5, 0, "tanh", "avg2"),
    _fc(120, "tanh"), _fc(84, "tanh"), _fc(10, "identity"),
)
LENET_RELU_MAX = (
    _conv(6, 5, 2, "relu", "max2"), _conv(16, 5, 0, "relu", "max2"),
    _fc(120, "relu"), _fc(84, "relu"), _fc(10, "identity"),
)

# strategy profiles of the paper, as the CLI also fills them in
SQH = {"strategy": "sqh", "mu": 7.0, "zeta": 0.01, "omega": 5}
MA = {"strategy": "ma", "mu": 1.1, "zeta": 1.0, "omega": 5}
ETA = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "library": trainer.train; "cli": `pmptrain train <config>`
    layers: tuple
    corpus_seed: int  # training corpus; its test split uses corpus_seed + 1
    train_seed: int  # TrainConfig.seed: parameter init and batch sampling
    train_per_class: int
    test_per_class: int
    m_batch: int | None  # None = full batch
    k_max: int
    eps0: float  # first proposal of the augmentation weight
    eval_every: int  # k_max divides by it, so the last iteration is evaluated
    profile: dict
    reg: dict
    accuracy_floor: float  # held-out accuracy (%) every split must exceed
    score_per_class: int  # size of the seeded held-out scoring split
    score_passes: int  # timed metrics.accuracy passes per round over that split

    @staticmethod
    def score_seed(seed: int) -> int:
        """Corpus seed of the held-out scoring split drawn for `seed`."""
        return int(np.random.SeedSequence(seed).generate_state(1)[0])

    def config_text(self, out_dir: str) -> str:
        """The pmptrain config file of this workload."""
        arch = "; ".join(refmodel.arch_text(self.layers).splitlines())
        lines = [
            f"seed = {self.train_seed}",
            f"arch = {arch}",
            f"data = digits:seed={self.corpus_seed},"
            f"train_per_class={self.train_per_class},"
            f"test_per_class={self.test_per_class}",
            f"M = {'full' if self.m_batch is None else self.m_batch}",
            f"k_max = {self.k_max}",
            f"eps0 = {self.eps0!r}",
            f"eta = {ETA!r}",
            f"strategy = {self.profile['strategy']}",
            f"mu = {self.profile['mu']!r}",
            f"zeta = {self.profile['zeta']!r}",
            f"omega = {self.profile['omega']}",
            f"reg_kind = {self.reg['kind']}",
            f"rho = {self.reg['rho']!r}",
            f"alpha = {self.reg['alpha']!r}",
            f"eval_every = {self.eval_every}",
            f"out_dir = {out_dir}",
        ]
        return "\n".join(lines) + "\n"


# Why each workload is in the benchmark is recorded in BENCHMARK.json and
# README.md. Accuracy floors sit about ten points under what ten scoring
# seeds reached.
WORKLOADS = {w.name: w for w in (
    # the first 10 iterations of the Tier-1 l2l0/sqh protocol run
    Workload(
        name="full-sqh-l2l0", entry="library", layers=LENET_TANH_AVG,
        corpus_seed=101, train_seed=11, train_per_class=60,
        test_per_class=100, m_batch=None, k_max=10, eps0=1.0, eval_every=10,
        profile=SQH, reg={"kind": "l2l0", "alpha": 0.8, "rho": 1e-4},
        accuracy_floor=80.0, score_per_class=100, score_passes=8),
    Workload(
        name="mini-ma-cli", entry="cli", layers=LENET_TANH_AVG,
        corpus_seed=303, train_seed=7, train_per_class=200,
        test_per_class=50, m_batch=100, k_max=80, eps0=1.0, eval_every=40,
        profile=MA, reg={"kind": "elastic-net", "alpha": 0.8, "rho": 1e-4},
        accuracy_floor=90.0, score_per_class=100, score_passes=8),
    # eps0 = 2: from eps0 = 1 the first step leaves this relu net stalled
    # at chance accuracy for 2 of 8 training seeds (see CHANGES.md)
    Workload(
        name="mini-relu-max", entry="library", layers=LENET_RELU_MAX,
        corpus_seed=404, train_seed=7, train_per_class=200,
        test_per_class=50, m_batch=100, k_max=80, eps0=2.0, eval_every=80,
        profile=MA, reg={"kind": "l2l0", "alpha": 0.8, "rho": 1e-4},
        accuracy_floor=90.0, score_per_class=100, score_passes=8),
)}
