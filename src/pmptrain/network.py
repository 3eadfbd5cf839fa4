"""Model description, parameter init, forward/backward sweeps, and F_l.

The network is evaluated in the control-affine order: each state xt_l is a
pre-activation, and the activation-plus-pooling map f of a layer is applied
at the START of the next layer,

    xt_0   = input
    xt_{l+1} = affine_l( f_{l-1}(xt_l) ),      f_{-1} = identity,

which makes every layer map linear in its own parameters u_l = (W_l, b_l).
With a linear output layer (identity activation, no pooling; softmax lives
inside the terminal loss) the final state xt_L equals the output of the
usual activation-after-affine composition.

One forward loop serves both the forward sweep and the output-only
evaluation, which runs in chunks of FORWARD_CHUNK samples. The sweep
caches what the backward sweep reads: each layer's affine input
f_{l-1}(xt_l), the pre-pooling activation where a layer pools, and the
output xt_L. The inner states themselves are not kept,
because every activation derivative is read from the activation value.

The backward sweep propagates adjoints p_l by the transposed Jacobians of
the same maps, seeded with p_L = -(1/M) * per-sample terminal-loss gradient.
The Hamiltonian gradient F_l collects, per layer, the parameter-space dual
of the adjoints: H_l(u) = <F_l, u_l> - rho*R_l(u_l) is then exactly linear
in u_l, which is what gives the closed-form layer update downstream.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (InputError, NumericOverflowError, ParseError,
                     ShapeError)
from .kernels import (ConvGeometry, _activate_vjp_from_value, _conv_input_vjp,
                      _conv_param_grads, activate, affine, as_tensor, conv2d,
                      pool, pool_vjp)
from .regularization import Regularizer, reg_value

FC_ACTS = ("tanh", "relu", "identity")
CONV_ACTS = ("tanh", "relu")
# samples per output-only forward: bounds the layer activations of a big
# evaluation set, while a 600-image batch or a 1,000-image split stays whole
# (the conv kernels' column blocks are bounded on their own, in kernels.py)
FORWARD_CHUNK = 1024


@dataclass(frozen=True)
class LayerSpec:
    """One layer: an affine/conv map, its activation, and optional pooling.

    Activation and pooling are applied after the affine map in standard
    order; the sweeps regroup them without changing the network output.
    """

    kind: str  # "conv" | "fc"
    act: str
    geom: ConvGeometry | None = None  # conv only
    out_width: int | None = None  # fc only
    pool: str | None = None  # "avg" | "max": 2x2 tiles, conv only


@dataclass(frozen=True)
class Model:
    """Validated architecture: layers, class count, and per-layer shapes.

    fin_shapes[l] is the per-sample shape of f_{l-1}(xt_l), the input of
    affine map l, before any flattening for fully-connected layers.
    """

    layers: tuple[LayerSpec, ...]
    m: int
    input_shape: tuple[int, ...]
    fin_shapes: tuple[tuple[int, ...], ...] = field(repr=False)

    @property
    def depth(self) -> int:
        return len(self.layers)


@dataclass
class ParamSet:
    """Per-layer (weight, bias) float64 blocks; one concatenated control u_l.

    The weight block is the fc matrix or conv kernel; bias is a vector.
    """

    blocks: list[tuple[np.ndarray, np.ndarray]]

    def copy(self) -> "ParamSet":
        return ParamSet([(w.copy(), b.copy()) for w, b in self.blocks])

    def __len__(self) -> int:
        return len(self.blocks)


# F_l has exactly the block structure of the parameters it pairs with.
HamiltonianGradient = ParamSet


def triple_norm_sq(a: ParamSet, b: ParamSet) -> float:
    """|||a - b||| = sum_l ||a_l - b_l||^2 over all layers (squared)."""
    if len(a) != len(b):
        raise ShapeError("parameter sets have different layer counts")
    total = 0.0
    for (wa, ba), (wb, bb) in zip(a.blocks, b.blocks):
        dw = (wa - wb).ravel()
        db = (ba - bb).ravel()
        total += float(np.dot(dw, dw)) + float(np.dot(db, db))
    return total


@dataclass
class Trajectory:
    """What one forward sweep over a batch leaves for the backward sweep.

    fin[l] caches the affine input f_{l-1}(xt_l) of layer l for the whole
    batch (flattened when layer l is fully connected); act_full[l] holds
    the pre-pooling activation values where layer l-1 pools (None
    otherwise); outputs is the final state xt_L, (N, m).
    """

    fin: list[np.ndarray]
    act_full: list[np.ndarray | None]
    outputs: np.ndarray


# ---------------------------------------------------------------------------
# architecture mini-language


_POOLS = {"avg2": "avg", "max2": "max", "none": None}
# layer kind -> (its activations, the fields its line may carry)
_KINDS = {"conv": (CONV_ACTS, ("out", "k", "stride", "pad", "act", "pool")),
          "fc": (FC_ACTS, ("out", "act"))}


def _parse_fields(tokens: list[str], known, line_no: int) -> dict[str, str]:
    fields = {}
    for tok in tokens:
        m = re.fullmatch(r"([a-z]+)=([A-Za-z0-9]+)", tok)
        if not m:
            raise ParseError(line_no, f"malformed field {tok!r} (expected key=value)")
        key, value = m.group(1), m.group(2)
        if key not in known:
            raise ParseError(line_no, f"unknown field {key!r}")
        if key in fields:
            raise ParseError(line_no, f"duplicate field {key!r}")
        fields[key] = value
    return fields


def _take_int(fields: dict, key: str, line_no: int, default=None, minimum=1):
    if key not in fields:
        if default is not None:
            return default
        raise ParseError(line_no, f"missing required field {key!r}")
    raw = fields[key]
    if not re.fullmatch(r"\d+", raw):
        raise ParseError(line_no, f"field {key!r} must be a non-negative integer, got {raw!r}")
    value = int(raw)
    if value < minimum:
        raise ParseError(line_no, f"field {key!r} must be >= {minimum}, got {value}")
    return value


def _conv_layer(fields: dict, line_no: int, act: str, out: int, where: str,
                shape: tuple[int, ...]) -> tuple[LayerSpec, tuple[int, ...]]:
    """The conv layer of one line and the per-sample shape it hands on."""
    k = _take_int(fields, "k", line_no)
    stride = _take_int(fields, "stride", line_no, default=1)
    pad = _take_int(fields, "pad", line_no, default=0, minimum=0)
    pool_name = fields.get("pool", "none")
    if pool_name not in _POOLS:
        raise ParseError(line_no, f"pool must be one of {tuple(_POOLS)}, got {pool_name!r}")
    if len(shape) != 3:
        raise ShapeError(f"{where}: conv needs (C, H, W) input, got flat width {shape[0]}")
    geom = ConvGeometry(k, k, stride, pad, in_channels=shape[0], out_channels=out)
    try:
        oh, ow = geom.out_hw(shape[1], shape[2])
    except ShapeError as exc:
        raise ShapeError(f"{where}: {exc}") from None
    spec = LayerSpec(kind="conv", act=act, geom=geom, pool=_POOLS[pool_name])
    if spec.pool is None:
        return spec, (out, oh, ow)
    if oh % 2 or ow % 2:
        raise ShapeError(f"{where}: 2x2 pooling needs an even conv output, got {oh}x{ow}")
    return spec, (out, oh // 2, ow // 2)


def build_model(arch_text: str, input_shape) -> Model:
    """Parse and shape-check an architecture against an input shape.

    input_shape is (channels, height, width) for image input or a flat
    length for vector input. Each line is parsed and shape-checked before
    the next is read, so of several errors the first in line order is
    the one raised.
    """
    if isinstance(input_shape, int):
        input_shape = (input_shape,)
    input_shape = tuple(int(d) for d in input_shape)
    if len(input_shape) not in (1, 3) or any(d < 1 for d in input_shape):
        raise InputError(f"input shape must be (d,) or (C, H, W), got {input_shape}")

    layers: list[LayerSpec] = []
    fin_shapes: list[tuple[int, ...]] = []
    shape = input_shape  # per-sample shape of f_{l-1}(xt_l)
    for line_no, raw in enumerate(arch_text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *tokens = line.split()
        if kind not in _KINDS:
            raise ParseError(line_no, f"unknown layer kind {kind!r}")
        acts, known = _KINDS[kind]
        fields = _parse_fields(tokens, known, line_no)
        out = _take_int(fields, "out", line_no)
        act = fields.get("act")
        if act not in acts:
            raise ParseError(line_no, f"{kind} act must be one of {acts}, got {act!r}")
        fin_shapes.append(shape)
        if kind == "conv":
            where = f"layer {len(layers)} (line {line_no})"
            spec, shape = _conv_layer(fields, line_no, act, out, where, shape)
        else:
            spec, shape = LayerSpec(kind="fc", act=act, out_width=out), (out,)
        layers.append(spec)
        last_line = line_no
    if not layers:
        raise ParseError(1, "architecture text contains no layers")
    if layers[-1].kind != "fc" or layers[-1].act != "identity":
        raise ParseError(last_line, "final layer must be `fc ... act=identity` "
                                    "(linear output layer)")
    if layers[-1].out_width < 2:
        raise ParseError(last_line, "output width (class count) must be >= 2")
    return Model(layers=tuple(layers), m=layers[-1].out_width,
                 input_shape=input_shape, fin_shapes=tuple(fin_shapes))


# ---------------------------------------------------------------------------
# parameters


def param_shapes(model: Model) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Per-layer (weight shape, bias shape)."""
    shapes = []
    for l, spec in enumerate(model.layers):
        if spec.kind == "conv":
            g = spec.geom
            shapes.append(((g.out_channels, g.in_channels, g.kernel_h, g.kernel_w),
                           (g.out_channels,)))
        else:
            n_in = int(np.prod(model.fin_shapes[l]))
            shapes.append(((spec.out_width, n_in), (spec.out_width,)))
    return shapes


def init_params(model: Model, seed: int) -> ParamSet:
    """Xavier-normal weights, Normal(0, 2/(fan_in+fan_out)); biases exactly 0."""
    rng = np.random.default_rng(seed)
    blocks = []
    for w_shape, b_shape in param_shapes(model):
        # (out, in) or (out, in, kh, kw): a kernel tap counts toward both fans
        fan_in = math.prod(w_shape[1:])
        fan_out = w_shape[0] * math.prod(w_shape[2:])
        std = math.sqrt(2.0 / (fan_in + fan_out))
        blocks.append((rng.normal(0.0, std, size=w_shape),
                       np.zeros(b_shape)))
    return ParamSet(blocks)


def _check_params(model: Model, params: ParamSet):
    want = param_shapes(model)
    if len(params) != len(want):
        raise ShapeError(
            f"parameter set has {len(params)} layers, model has {len(want)}")
    for l, ((w, b), (ws, bs)) in enumerate(zip(params.blocks, want)):
        if w.shape != ws or b.shape != bs:
            raise ShapeError(
                f"layer {l}: parameter shapes {w.shape}/{b.shape} do not "
                f"match model {ws}/{bs}")


# ---------------------------------------------------------------------------
# sweeps


def _apply_f(spec: LayerSpec, state: np.ndarray):
    """Activation then pooling of `spec` on a batched state.

    Returns (full activation or None if no pooling, result after pooling).
    """
    a = activate(state, spec.act)
    if spec.pool is None:
        return None, a
    return a, pool(a, spec.pool)


def _affine_layer(spec: LayerSpec, w: np.ndarray, b: np.ndarray,
                  fin: np.ndarray) -> np.ndarray:
    if spec.kind == "conv":
        return conv2d(w, b, fin, spec.geom)
    return affine(w, b, fin)


def _forward(model: Model, params: ParamSet, inputs: np.ndarray,
             keep: bool) -> Trajectory:
    """The one forward loop; the backward sweep's caches are filled iff keep."""
    _check_params(model, params)
    inputs = as_tensor(inputs, "inputs")
    if inputs.ndim != len(model.input_shape) + 1 \
            or inputs.shape[1:] != model.input_shape:
        raise ShapeError(
            f"inputs shape {inputs.shape} does not match batched model input "
            f"(N, {', '.join(map(str, model.input_shape))})")
    fin_cache: list[np.ndarray] = []
    act_cache: list[np.ndarray | None] = []
    current = inputs
    for l, spec in enumerate(model.layers):
        if l == 0:
            a_full, fin = None, current
        else:
            a_full, fin = _apply_f(model.layers[l - 1], current)
        if spec.kind == "fc" and fin.ndim > 2:
            fin = fin.reshape(fin.shape[0], -1)
        if keep:
            fin_cache.append(fin)
            act_cache.append(a_full)
        del a_full  # unless cached, free it before the affine map's output
        w, b = params.blocks[l]
        current = _affine_layer(spec, w, b, fin)
        if not np.all(np.isfinite(current)):
            raise NumericOverflowError(l)
    return Trajectory(fin=fin_cache, act_full=act_cache, outputs=current)


def forward_sweep(model: Model, params: ParamSet, inputs: np.ndarray) -> Trajectory:
    """Run the reformulated forward pass, caching what the backward sweep reads."""
    return _forward(model, params, inputs, keep=True)


def forward_logits(model: Model, params: ParamSet,
                   inputs: np.ndarray) -> np.ndarray:
    """Network output only, evaluated FORWARD_CHUNK samples at a time.

    Chunking caps the transient memory of the layer activations. Every
    output-only evaluation takes this one path, so objective values that
    are compared bit for bit are summed in the same order.
    """
    n = inputs.shape[0]
    if n <= FORWARD_CHUNK:
        return _forward(model, params, inputs, keep=False).outputs
    return np.concatenate(
        [_forward(model, params, inputs[i:i + FORWARD_CHUNK], keep=False).outputs
         for i in range(0, n, FORWARD_CHUNK)], axis=0)


def terminal_loss(logits: np.ndarray, labels: np.ndarray,
                  class_weights: np.ndarray | None = None):
    """Weighted softmax cross-entropy.

    Returns (mean loss over the batch, per-sample gradient w.r.t. logits).
    The per-sample gradient carries the class weight but not the 1/M mean
    factor; that factor enters through the adjoint seed.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if logits.ndim != 2 or labels.shape != logits.shape:
        raise ShapeError(
            f"logits {logits.shape} and one-hot labels {labels.shape} must "
            f"both be (N, m)")
    is01 = (labels == 0.0) | (labels == 1.0)
    if not (np.all(is01) and np.all(labels.sum(axis=1) == 1.0)):
        raise InputError("labels must be exact one-hot rows")
    m = logits.shape[1]
    if class_weights is None:
        class_weights = np.ones(m)
    class_weights = np.asarray(class_weights, dtype=np.float64)
    if class_weights.shape != (m,):
        raise ShapeError(f"class_weights must have shape ({m},)")
    if not np.all(class_weights > 0.0):
        raise InputError("class weights must be strictly positive")

    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=1, keepdims=True)
    log_softmax = shifted - np.log(denom)
    w_sample = class_weights[np.argmax(labels, axis=1)]
    per_sample = -w_sample * np.sum(labels * log_softmax, axis=1)
    grads = w_sample[:, None] * (exp / denom - labels)
    return float(per_sample.mean()), grads


def backward_sweep(model: Model, params: ParamSet, traj: Trajectory,
                   terminal_grads: np.ndarray) -> list[np.ndarray | None]:
    """Propagate adjoints down to p_1, seeded with -(1/M) terminal gradients.

    M is the batch's row count. padj[l] pairs state xt_l; padj[0] is None,
    because the input is data, not a state the principle varies.
    """
    _check_params(model, params)
    terminal_grads = np.asarray(terminal_grads, dtype=np.float64)
    if len(traj.fin) != model.depth:
        raise InputError("trajectory depth does not match the model")
    if terminal_grads.shape != traj.outputs.shape:
        raise InputError(
            f"terminal gradients {terminal_grads.shape} do not match the "
            f"final state {traj.outputs.shape}")
    if terminal_grads.shape[0] == 0:
        raise InputError("cannot sweep an empty batch")

    depth = model.depth
    padj: list[np.ndarray | None] = [None] * (depth + 1)
    padj[depth] = -(1.0 / terminal_grads.shape[0]) * terminal_grads
    for l in range(depth - 1, 0, -1):
        spec = model.layers[l]
        w, _ = params.blocks[l]
        p_next = padj[l + 1]
        if spec.kind == "conv":
            q = _conv_input_vjp(w, p_next, traj.fin[l].shape[2:], spec.geom)
        else:
            q = p_next @ w
        prev = model.layers[l - 1]
        q = q.reshape((q.shape[0],) + model.fin_shapes[l])
        fin = traj.fin[l].reshape(q.shape)
        if prev.pool is not None:
            value = traj.act_full[l]
            q = pool_vjp(value, q, prev.pool, fin)
        else:
            value = fin
        padj[l] = _activate_vjp_from_value(value, q, prev.act)
    return padj


def hamiltonian_gradient(model: Model, params: ParamSet, traj: Trajectory,
                         padj: list[np.ndarray | None]) -> HamiltonianGradient:
    """Per-layer F_l: batch-summed parameter gradients of <p_{l+1}, affine_l>.

    With the -(1/M) adjoint seeding, F_l equals the negative gradient of
    the mean unregularized loss with respect to u_l.
    """
    _check_params(model, params)
    if len(padj) != model.depth + 1:
        raise InputError("adjoint set depth does not match the model")
    blocks = []
    for l, spec in enumerate(model.layers):
        p = padj[l + 1]
        fin = traj.fin[l]
        if p is None or p.shape[0] != fin.shape[0]:
            raise InputError(f"layer {l}: adjoints do not match the trajectory")
        if spec.kind == "conv":
            wg, bg = _conv_param_grads(fin, p, spec.geom)
        else:
            wg = p.T @ fin
            bg = p.sum(axis=0)
        blocks.append((wg, bg))
    return ParamSet(blocks)


def batch_objective(model: Model, params: ParamSet, inputs: np.ndarray,
                    labels: np.ndarray, reg: Regularizer,
                    class_weights: np.ndarray | None = None) -> float:
    """J_B(u): mean weighted cross-entropy plus rho * sum_l R_l(u_l)."""
    logits = forward_logits(model, params, inputs)
    loss, _ = terminal_loss(logits, labels, class_weights)
    return loss + regularization_total(params, reg)


def regularization_total(params: ParamSet, reg: Regularizer) -> float:
    """rho * sum_l R_l(u_l), honoring include_bias."""
    if reg.kind == "none" or reg.rho == 0.0:
        return 0.0
    total = 0.0
    for w, b in params.blocks:
        total += reg_value(reg, w)
        if reg.include_bias:
            total += reg_value(reg, b)
    return reg.rho * total

