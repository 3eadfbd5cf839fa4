"""Regularizer values and the exact threshold operators of their prox maps.

Two sparsity-inducing regularizers act layerwise on the parameter vector:

    l2l0:        R(u) = (alpha/2) ||u||^2 + (1 - alpha) ||u||_0
    elastic-net: R(u) = (alpha/2) ||u||^2 + (1 - alpha) ||u||_1

The nonsmooth parts have separable proximal maps solved componentwise by
hard and soft thresholding. Zeros are produced exactly, never by rounding,
so the L0 count is an exact-zero test with no tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

REG_KINDS = ("l2l0", "elastic-net", "none")


@dataclass(frozen=True)
class Regularizer:
    """Layerwise regularizer rho * R_l(u).

    include_bias decides whether the bias part of a layer's parameter block
    is regularized along with the weights.
    """

    kind: str = "none"
    alpha: float = 0.0
    rho: float = 0.0
    include_bias: bool = True

    def __post_init__(self):
        if self.kind not in REG_KINDS:
            raise InputError(f"unknown regularizer kind {self.kind!r}")
        if not 0.0 <= self.alpha < 1.0:
            raise InputError(f"alpha must be in [0, 1), got {self.alpha}")
        if not 0.0 <= self.rho < np.inf:
            raise InputError(f"rho must be finite and >= 0, got {self.rho}")


def reg_value(reg: Regularizer, u: np.ndarray) -> float:
    """R(u) for one parameter block (without the rho factor)."""
    if reg.kind == "none":
        return 0.0
    u = np.asarray(u, dtype=np.float64)
    smooth = 0.5 * reg.alpha * float(np.dot(u.ravel(), u.ravel()))
    if reg.kind == "l2l0":
        return smooth + (1.0 - reg.alpha) * float(l0_count(u))
    return smooth + (1.0 - reg.alpha) * float(np.abs(u).sum())


def hard_threshold(v: np.ndarray, gamma: float) -> np.ndarray:
    """Zero entries with |v_i| <= sqrt(2*gamma); keep the rest unchanged.

    Exact proximal map of gamma * ||.||_0: survivors pay gamma but keep the
    quadratic at 0, zeros pay v_i^2 / 2, and the boundary ties to 0.
    """
    if gamma < 0.0:
        raise InputError(f"gamma must be >= 0, got {gamma}")
    v = np.asarray(v, dtype=np.float64)
    cutoff = np.sqrt(2.0 * gamma)
    return np.where(np.abs(v) <= cutoff, 0.0, v)


def soft_threshold(v: np.ndarray, gamma: float) -> np.ndarray:
    """Shrink magnitudes by gamma; exact proximal map of gamma * ||.||_1."""
    if gamma < 0.0:
        raise InputError(f"gamma must be >= 0, got {gamma}")
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - gamma, 0.0)


def l0_count(v: np.ndarray) -> int:
    """Number of entries not exactly equal to 0."""
    return int(np.count_nonzero(np.asarray(v)))
