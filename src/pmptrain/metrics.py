"""Evaluation metrics: accuracy, exact-zero sparsity, confusion matrix."""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .network import Model, ParamSet, forward_logits
from .regularization import l0_count


def predictions(model: Model, params: ParamSet, dataset: Dataset) -> np.ndarray:
    """Predicted class indices; argmax ties break to the lowest index."""
    logits = forward_logits(model, params, dataset.inputs)
    return np.argmax(logits, axis=1)


def accuracy(model: Model, params: ParamSet, dataset: Dataset) -> float:
    """Percentage of samples whose argmax prediction matches the label."""
    pred = predictions(model, params, dataset)
    return 100.0 * float(np.mean(pred == dataset.class_indices))


def sparsity_pct(params: ParamSet, include_bias: bool = True) -> float:
    """Sp(%) = 100 * (1 - sum_l ||u_l||_0 / sum_l m_l), exact zeros only.

    Counts the blocks the regularizer acts on: biases are included exactly
    when they were penalized.
    """
    nonzero = 0
    total = 0
    for w, b in params.blocks:
        nonzero += l0_count(w)
        total += w.size
        if include_bias:
            nonzero += l0_count(b)
            total += b.size
    return 100.0 * (1.0 - nonzero / total)


def confusion(model: Model, params: ParamSet, dataset: Dataset) -> np.ndarray:
    """m x m counts; rows are true classes, columns predicted classes."""
    pred = predictions(model, params, dataset)
    m = dataset.m
    return np.bincount(dataset.class_indices * m + pred, minlength=m * m).reshape(m, m)
