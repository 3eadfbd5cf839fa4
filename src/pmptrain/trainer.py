"""The training loop: successive augmented-Hamiltonian maximization.

Each iteration: draw a mini-batch, run the forward and backward sweeps,
assemble the Hamiltonian gradient F (all three in `sweeps`), then maximize the augmented HP layer
by layer in closed form. The augmentation weight eps acts as an inverse
step size: starting from the strategy's proposal eps_hat_k, eps is
escalated by factors of mu (eps_k = mu^j * eps_hat_k) until the sufficient
decrease condition

    J_Bk(w) - J_Bk(u) <= -eta * |||w - u|||

holds, where |||.||| is the summed squared layer norm. Accepted eps values
feed one of two proposal strategies:

    sqh: eps_hat_{k+1} = zeta * eps_k            (aggressive backtracking)
    ma:  eps_hat_{k+1} = zeta * eps_hat_k        if accepted at j = 0
         mean of the last min(k, omega)+1        otherwise
         accepted eps values

The ma strategy smooths eps under mini-batch noise and cuts line-search
cost; sqh probes for the smallest workable eps every iteration.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, class_weights
from .errors import InputError, LineSearchError, NumericOverflowError
from .hamiltonian import hamiltonian_gap, update_params
from .metrics import accuracy, sparsity_pct
from .network import (Model, ParamSet, backward_sweep, batch_objective,
                      forward_sweep, hamiltonian_gradient, init_params,
                      regularization_total, terminal_loss, triple_norm_sq)
from .regularization import Regularizer

# strategy profiles: TrainConfig takes mu, zeta and omega from here when None
PROFILES = {
    "sqh": {"mu": 7.0, "zeta": 0.01, "omega": 5},
    "ma": {"mu": 1.1, "zeta": 1.0, "omega": 5},
}
EPS_MIN = 1e-8
J_MAX = 60  # escalations of one line search before LineSearchError
DIAG_STEPS = 6  # trailing squared step norms in the Delta-u sum


@dataclass
class TrainConfig:
    """Hyperparameters of one run. M = None means full batch."""

    seed: int = 0
    m_batch: int | None = None
    k_max: int = 100
    eps0: float = 1.0
    mu: float | None = None
    eta: float = 1e-9
    strategy: str = "sqh"
    zeta: float | None = None
    omega: int | None = None
    reg: Regularizer = field(default_factory=Regularizer)
    eval_every: int = 0
    use_class_weights: bool = False

    def __post_init__(self):
        if self.strategy not in PROFILES:
            raise InputError(f"strategy must be one of {tuple(PROFILES)}, got {self.strategy!r}")
        for key, value in PROFILES[self.strategy].items():
            if getattr(self, key) is None:
                setattr(self, key, value)
        if not self.seed >= 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if not 1.0 < self.mu < math.inf:
            raise InputError(f"mu must be finite and > 1, got {self.mu}")
        if not 0.0 < self.eta < math.inf:
            raise InputError(f"eta must be finite and > 0, got {self.eta}")
        if not 0.0 < self.eps0 < math.inf:
            raise InputError(f"eps0 must be finite and > 0, got {self.eps0}")
        if not 0.0 < self.zeta <= 1.0:
            raise InputError(f"zeta must be in (0, 1], got {self.zeta}")
        if self.omega < 1:
            raise InputError(f"omega must be >= 1, got {self.omega}")
        if self.k_max < 1:
            raise InputError(f"k_max must be >= 1, got {self.k_max}")
        if self.m_batch is not None and self.m_batch < 1:
            raise InputError(f"mini-batch size must be >= 1, got {self.m_batch}")
        if self.eval_every < 0:
            raise InputError(f"eval_every must be >= 0, got {self.eval_every}")


@dataclass
class EpsilonController:
    """Proposal state of the augmentation-weight strategy."""

    strategy: str
    zeta: float
    omega: int
    proposal: float  # eps_hat_k, the pending proposal
    accepted: deque = field(default_factory=deque)  # trailing accepted eps_i
    last_j: int = 0

    @classmethod
    def start(cls, config: TrainConfig) -> "EpsilonController":
        return cls(strategy=config.strategy, zeta=config.zeta,
                   omega=config.omega, proposal=config.eps0,
                   accepted=deque(maxlen=config.omega + 1))

    def record(self, eps_accepted: float, j: int):
        self.accepted.append(eps_accepted)
        self.last_j = j

    def advance(self, k: int):
        self.proposal = propose_epsilon(self, k)


def propose_epsilon(controller: EpsilonController, k: int) -> float:
    """eps_hat_{k+1} from the accepted history and last_j, floored at EPS_MIN."""
    if not controller.accepted:
        raise InputError("no accepted epsilon yet; history is empty")
    if controller.strategy == "sqh":
        proposal = controller.zeta * controller.accepted[-1]
    elif controller.last_j == 0:
        proposal = controller.zeta * controller.proposal
    else:
        width = min(k, controller.omega) + 1
        window = list(controller.accepted)[-width:]
        proposal = float(np.mean(window))
    return max(proposal, EPS_MIN)


@dataclass
class IterationRecord:
    k: int
    epsilon: float
    j: int
    mb_loss_before: float
    mb_loss_after: float
    step_sq: float  # |||u^(k+1) - u^(k)|||
    ls_steps_cum: int
    wall_s: float
    full_loss: float | None = None
    train_acc: float | None = None
    test_acc: float | None = None
    sparsity: float | None = None


@dataclass
class RunLog:
    records: list[IterationRecord] = field(default_factory=list)


def sample_minibatch(rng: np.random.Generator, batch_indices: np.ndarray,
                     m_batch: int) -> np.ndarray:
    """M distinct indices, uniform over all size-M subsets, sorted."""
    batch_indices = np.asarray(batch_indices)
    n = batch_indices.shape[0]
    if not 1 <= m_batch <= n:
        raise InputError(f"mini-batch size {m_batch} out of range 1..{n}")
    if m_batch == n:
        return batch_indices.copy()
    pick = rng.choice(n, size=m_batch, replace=False)
    return batch_indices[np.sort(pick)]


def run_linesearch(objective, f, u: ParamSet, j_u: float, reg: Regularizer,
                   eps_hat: float, *, mu: float, eta: float,
                   j_max: int = J_MAX, iteration: int = 0):
    """Escalate eps until sufficient decrease holds.

    objective maps a ParamSet to the scalar J it is searched on, and j_u
    is its value at u; trial j costs exactly one call, so an accepted
    search made j + 1. A trial whose forward pass overflows counts as
    J(w) = +inf: it is rejected and eps escalates like any other.
    Returns (w, eps, j, J(w), |||w - u|||).
    """
    for j in range(j_max + 1):
        eps = (mu ** j) * eps_hat
        w = update_params(f, u, reg, eps)
        try:
            j_w = objective(w)
        except NumericOverflowError:
            j_w = math.inf
        step_sq = triple_norm_sq(w, u)
        if j_w - j_u <= -eta * step_sq:
            return w, eps, j, j_w, step_sq
    raise LineSearchError(iteration, eps, j_max, j_u, j_w)


def sweeps(model: Model, params: ParamSet, inputs: np.ndarray,
           labels: np.ndarray, reg: Regularizer,
           weights: np.ndarray | None = None) -> tuple[float, ParamSet]:
    """(J_B(u), F) at u = params: forward sweep, adjoint sweep, F_l.

    The adjoints are seeded with -(1/M) over the M rows of the batch.
    Training, diagnostics and the CLI gradient check all get F here. The
    three sweeps are looked up in this module's globals at call time, so a
    wrapper installed on trainer.forward_sweep (and the others) sees every
    call.
    """
    traj = forward_sweep(model, params, inputs)
    loss, tg = terminal_loss(traj.outputs, labels, weights)
    padj = backward_sweep(model, params, traj, tg)
    f = hamiltonian_gradient(model, params, traj, padj)
    return loss + regularization_total(params, reg), f


def linesearch_step(model: Model, f, u: ParamSet, j_u: float,
                    inputs: np.ndarray, labels: np.ndarray,
                    config: TrainConfig, controller: EpsilonController,
                    weights: np.ndarray | None = None, iteration: int = 0):
    """Line search on the mini-batch objective; sweeps for u already done."""
    def objective(candidate: ParamSet) -> float:
        return batch_objective(model, candidate, inputs, labels, config.reg,
                               weights)
    return run_linesearch(objective, f, u, j_u, config.reg,
                          controller.proposal, mu=config.mu, eta=config.eta,
                          iteration=iteration)


def train(config: TrainConfig, model: Model, dataset: Dataset,
          test_set: Dataset | None = None, params: ParamSet | None = None,
          on_iteration=None) -> tuple[ParamSet, RunLog]:
    """Run k_max training iterations; deterministic given (config, dataset).

    on_iteration, when given, is called as on_iteration(record, u) after
    each iteration with u = u^(k+1). train keeps no iterate history and
    never mutates a ParamSet it has handed out (every update builds new
    arrays), so a callback may keep u without copying it.
    """
    n = len(dataset)
    if n == 0:
        raise InputError("dataset is empty")
    m_batch = config.m_batch if config.m_batch is not None else n
    if not 1 <= m_batch <= n:
        raise InputError(f"mini-batch size {m_batch} out of range 1..{n}")

    init_ss, sample_ss = np.random.SeedSequence(config.seed).spawn(2)
    if params is None:
        params = init_params(model, init_ss)
    sampler = np.random.default_rng(sample_ss)
    controller = EpsilonController.start(config)
    weights = class_weights(dataset) if config.use_class_weights else None

    log = RunLog()
    all_indices = np.arange(n)
    full_batch = m_batch == n
    ls_steps = 0
    t0 = time.perf_counter()
    u = params

    for k in range(config.k_max):
        idx = sample_minibatch(sampler, all_indices, m_batch)
        xs, ys = dataset.inputs[idx], dataset.labels[idx]

        j_u, f = sweeps(model, u, xs, ys, config.reg, weights)
        # In full-batch mode J_Bk(u^k) was already evaluated as last
        # iteration's J_Bk(u^{k+1}); reuse it so the monotonicity chain
        # compares bitwise-identical values.
        if full_batch and k > 0:
            j_u = j_w
        u, eps_k, j, j_w, step_sq = linesearch_step(
            model, f, u, j_u, xs, ys, config, controller, weights,
            iteration=k)
        ls_steps += j + 1
        controller.record(eps_k, j)
        controller.advance(k)

        record = IterationRecord(
            k=k, epsilon=eps_k, j=j, mb_loss_before=j_u, mb_loss_after=j_w,
            step_sq=step_sq, ls_steps_cum=ls_steps,
            wall_s=time.perf_counter() - t0)
        if config.eval_every and (k + 1) % config.eval_every == 0:
            # in full batch the accepted trial's J(w) is the full objective
            record.full_loss = j_w if full_batch else batch_objective(
                model, u, dataset.inputs, dataset.labels, config.reg, weights)
            record.train_acc = accuracy(model, u, dataset)
            if test_set is not None:
                record.test_acc = accuracy(model, u, test_set)
            record.sparsity = sparsity_pct(u, config.reg.include_bias)
        log.records.append(record)
        if on_iteration is not None:
            on_iteration(record, u)

    return u, log


def diagnostics(model: Model, u_prev: ParamSet, u_next: ParamSet,
                records: list[IterationRecord], dataset: Dataset,
                reg: Regularizer,
                weights: np.ndarray | None = None) -> tuple[float, float]:
    """(Delta_h, Delta_u) of the step u_prev -> u_next logged as records[-1].

    Delta_h recomputes the FULL-batch Hamiltonian gradient at u_prev and
    measures how far the accepted step (at records[-1].epsilon) is from
    the exact closed-form maximizer; it is zero (to rounding) in
    full-batch mode. Delta_u sums the last six records' squared step norms.
    """
    if len(records) < DIAG_STEPS:
        raise InputError(f"diagnostics needs at least {DIAG_STEPS} "
                         f"iteration records, got {len(records)}")
    if triple_norm_sq(u_next, u_prev) != records[-1].step_sq:
        raise InputError(f"u_prev -> u_next is not the step logged for "
                         f"iteration {records[-1].k}")
    _, f = sweeps(model, u_prev, dataset.inputs, dataset.labels, reg, weights)
    delta_h = hamiltonian_gap(f, u_next, u_prev, reg, records[-1].epsilon)
    delta_u = sum(r.step_sq for r in records[-DIAG_STEPS:])
    return delta_h, delta_u
