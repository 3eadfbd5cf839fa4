"""Hamilton-Pontryagin values, the closed-form layer update, and its gap.

In the control-affine order every layer map is linear in its parameters, so
the layer HP function is exactly

    H_l(u) = <F_l, u> - rho * R_l(u),

and the augmented HP subtracts (eps/2)||w - u||^2. Its global maximizer
over the unconstrained parameter space separates per coordinate:

    w = T_gamma( (eps / (eps + alpha*rho)) * (u + F/eps) ),
    gamma = (1 - alpha) * rho / (eps + alpha*rho),

with T the hard threshold for the l2l0 regularizer and the soft threshold
on the elastic-net path. For rho = 0 (or no regularizer) this degenerates
to the explicit step w = u + F/eps.

Array-level functions operate on one parameter block; *_pair and *_params
variants apply them over (weight, bias) pairs and whole parameter sets,
honoring include_bias (an excluded bias is updated along the rho = 0 path).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .network import HamiltonianGradient, ParamSet
from .regularization import (Regularizer, hard_threshold, reg_value,
                             soft_threshold)


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not (eps > 0.0 and math.isfinite(eps)):
        raise InputError(f"augmentation weight must be positive and finite, got {eps}")
    return eps


def hp_value(f: np.ndarray, u: np.ndarray, reg: Regularizer) -> float:
    """<F, u> - rho * R(u) for one parameter block."""
    f = np.asarray(f, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if f.shape != u.shape:
        raise InputError(f"F {f.shape} and u {u.shape} must have equal shapes")
    return float(np.vdot(f, u)) - reg.rho * reg_value(reg, u)


def aug_hp_value(f: np.ndarray, w: np.ndarray, u: np.ndarray,
                 reg: Regularizer, eps: float) -> float:
    """hp_value at w minus the (eps/2)||w - u||^2 augmentation penalty."""
    eps = _check_eps(eps)
    w = np.asarray(w, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    d = (w - u).ravel()
    return hp_value(f, w, reg) - 0.5 * eps * float(np.dot(d, d))


def layer_update(f: np.ndarray, u: np.ndarray, reg: Regularizer,
                 eps: float) -> np.ndarray:
    """Exact global maximizer of the augmented HP for one block."""
    eps = _check_eps(eps)
    f = np.asarray(f, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if f.shape != u.shape:
        raise InputError(f"F {f.shape} and u {u.shape} must have equal shapes")
    if reg.kind == "none" or reg.rho == 0.0:
        return u + f / eps
    denom = eps + reg.alpha * reg.rho
    inner = (eps / denom) * (u + f / eps)
    gamma = (1.0 - reg.alpha) * reg.rho / denom
    if reg.kind == "l2l0":
        return hard_threshold(inner, gamma)
    return soft_threshold(inner, gamma)


def _bias_reg(reg: Regularizer) -> Regularizer:
    return reg if reg.include_bias else Regularizer("none")


def aug_hp_value_pair(f_pair, w_pair, u_pair, reg: Regularizer, eps: float) -> float:
    fw, fb = f_pair
    ww, wb = w_pair
    uw, ub = u_pair
    return aug_hp_value(fw, ww, uw, reg, eps) \
        + aug_hp_value(fb, wb, ub, _bias_reg(reg), eps)


def layer_update_pair(f_pair, u_pair, reg: Regularizer, eps: float):
    fw, fb = f_pair
    uw, ub = u_pair
    return (layer_update(fw, uw, reg, eps),
            layer_update(fb, ub, _bias_reg(reg), eps))


def update_params(f: HamiltonianGradient, u: ParamSet, reg: Regularizer,
                  eps: float) -> ParamSet:
    """Closed-form update of every layer; one inner step of training."""
    if len(f) != len(u):
        raise InputError("F and u have different layer counts")
    return ParamSet([layer_update_pair(fp, up, reg, eps)
                     for fp, up in zip(f.blocks, u.blocks)])


def hamiltonian_gap(f: HamiltonianGradient, u_next: ParamSet, u: ParamSet,
                    reg: Regularizer, eps: float) -> float:
    """Sum_l [ max_w augHP_l(w) - augHP_l(u_next) ] at the given F.

    The max is the exact closed-form maximizer, so the gap is zero (to
    rounding) whenever u_next came from update_params with the same F,
    u, and eps; under mini-batch sampling the F here is the full-batch
    one and the gap measures the maximization error of the sampled step.
    """
    total = 0.0
    for fp, wp, up in zip(f.blocks, u_next.blocks, u.blocks):
        best = layer_update_pair(fp, up, reg, eps)
        total += aug_hp_value_pair(fp, best, up, reg, eps) \
            - aug_hp_value_pair(fp, wp, up, reg, eps)
    return total
