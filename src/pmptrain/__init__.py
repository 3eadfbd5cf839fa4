"""Pontryagin-principle training for small CNNs in plain numpy.

The package trains networks by iterating forward state sweeps, backward
adjoint sweeps, and exact layerwise maximization of an augmented
Hamilton-Pontryagin function, with an adaptive augmentation-weight line
search. Hard-threshold updates give genuinely sparse (exactly zero)
parameters under L0 regularization.

Typical use:

    from pmptrain import TrainConfig, build_model, train
    from pmptrain.data import load_idx

    model = build_model(arch_text, (1, 28, 28))
    params, log = train(TrainConfig(seed=0, k_max=300), model, dataset)
"""

__version__ = "0.1.0"

from .data import Dataset, load_idx, save_idx, synthetic_blobs
from .digits import synthetic_digits
from .errors import (ConfigError, IdxCountMismatchError, IdxFormatError,
                     IdxTruncationError, InputError, LineSearchError,
                     NumericOverflowError, ParseError, PmpTrainError,
                     ShapeError)
from .kernels import ConvGeometry, as_tensor
from .metrics import accuracy, confusion, sparsity_pct
from .network import (HamiltonianGradient, Model, ParamSet, backward_sweep,
                      batch_objective, build_model, forward_logits,
                      forward_sweep, hamiltonian_gradient, init_params,
                      terminal_loss)
from .regularization import Regularizer
from .runlog import load_params, read_log, save_params, summarize, write_log
from .trainer import RunLog, TrainConfig, diagnostics, sweeps, train

__all__ = [
    "ConfigError", "ConvGeometry", "Dataset", "HamiltonianGradient",
    "IdxCountMismatchError", "IdxFormatError", "IdxTruncationError",
    "InputError", "LineSearchError",
    "Model", "NumericOverflowError", "ParamSet", "ParseError",
    "PmpTrainError", "Regularizer", "RunLog", "ShapeError", "TrainConfig",
    "__version__", "accuracy", "as_tensor", "backward_sweep",
    "batch_objective", "build_model", "confusion", "diagnostics",
    "forward_logits", "forward_sweep", "hamiltonian_gradient", "init_params",
    "load_idx", "load_params", "read_log", "save_idx", "save_params",
    "sparsity_pct", "summarize", "sweeps", "synthetic_blobs",
    "synthetic_digits", "terminal_loss", "train", "write_log",
]
