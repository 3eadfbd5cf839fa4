"""Command-line front end: config parsing and subcommand dispatch.

Subcommands:

    pmptrain train <config>              run a training job
    pmptrain gradcheck <config>          check F against finite differences
    pmptrain proxcheck [n]               check the closed-form layer update
    pmptrain eval <config> <params>      score a saved parameter snapshot

The config is flat `key = value` UTF-8 text, one pair per line, `#`
comments. TRAIN_KEYS and REG_KEYS map keys to `TrainConfig` and
`Regularizer` fields; a key left out keeps the field's default. Every
value goes through one typed reader, so a malformed, out-of-range or
undecodable input ends in a ConfigError naming its key or data option
(architecture text in a ParseError or ShapeError naming its line).
Relative paths resolve against the config file's directory. Verbosity is
set with PMPTRAIN_LOG=quiet|info|debug (default info).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import dataclass

import numpy as np

from .data import Dataset, load_idx, synthetic_blobs
from .digits import synthetic_digits
from .errors import ConfigError, InputError, PmpTrainError
from .hamiltonian import layer_update
from .metrics import accuracy, confusion, sparsity_pct
from .network import (Model, batch_objective, build_model, init_params,
                      param_shapes)
from .regularization import Regularizer
from .runlog import CsvLogger, load_params, save_params, summarize
from .trainer import TrainConfig, sweeps, train

LOG = logging.getLogger("pmptrain")

# config key -> (field, type); omitted keys keep the dataclass defaults
TRAIN_KEYS = {
    "seed": ("seed", int), "M": ("m_batch", int), "k_max": ("k_max", int),
    "eps0": ("eps0", float), "mu": ("mu", float), "eta": ("eta", float),
    "strategy": ("strategy", str), "zeta": ("zeta", float),
    "omega": ("omega", int), "eval_every": ("eval_every", int),
    "use_class_weights": ("use_class_weights", bool),
}
REG_KEYS = {
    "reg_kind": ("kind", str), "alpha": ("alpha", float),
    "rho": ("rho", float), "include_bias": ("include_bias", bool),
}
IDX_KEYS = frozenset(("train_images", "train_labels", "test_images",
                      "test_labels", "m"))
CONFIG_KEYS = (frozenset(TRAIN_KEYS) | frozenset(REG_KEYS) | IDX_KEYS
               | {"arch", "data", "out_dir"})
# data source -> option -> (type, default); a None default is required
SOURCES = {
    "blobs": {"seed": (int, 0), "n_per_class": (int, None), "m": (int, 2),
              "dim": (int, 2), "separation": (float, 3.0),
              "test_per_class": (int, 0)},
    "digits": {"seed": (int, 0), "train_per_class": (int, None),
               "test_per_class": (int, 0)},
}
_BOOLS = {"true": True, "1": True, "yes": True,
          "false": False, "0": False, "no": False}


@dataclass
class RunSetup:
    """Everything a subcommand needs, parsed and validated."""

    config: TrainConfig
    model: Model
    train_set: Dataset
    test_set: Dataset | None
    out_dir: str


def _read_text(path, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _parse_pairs(path) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for no, line in enumerate(_read_text(path, "config").splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{no}: expected `key = value`, got {line!r}")
        key, value = text.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{no}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"{path}:{no}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{no}: empty value for {key!r}")
        pairs[key] = value
    return pairs


def _typed(what: str, raw: str, type_):
    """raw read as type_ (int, float, str or bool), or a ConfigError naming what."""
    try:
        if type_ is bool:
            return _BOOLS[raw.lower()]
        return type_(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{what}: cannot read {raw!r} as {type_.__name__}") from None


def _fields(pairs, table) -> dict:
    """Keyword arguments for the keys of `table` present in `pairs`."""
    return {field: _typed(f"key {key!r}", pairs[key], type_)
            for key, (field, type_) in table.items() if key in pairs}


def _synthetic_options(kind, text) -> dict[str, str]:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"key 'data': bad option {part!r} in {kind} source")
        k, v = part.split("=", 1)
        k = k.strip()
        if k in out:
            raise ConfigError(f"key 'data': duplicate option {k!r}")
        out[k] = v.strip()
    return out


def _build_synthetic(value: str) -> tuple[Dataset, Dataset | None]:
    kind, _, rest = value.partition(":")
    if kind not in SOURCES:
        raise ConfigError(f"unknown data source {kind!r} (use blobs: or digits:)")
    opts = _synthetic_options(kind, rest)
    spec = SOURCES[kind]
    unknown = sorted(set(opts) - set(spec))
    if unknown:
        raise ConfigError(f"data source {kind}: unknown options {unknown}")
    args = {}
    for name, (type_, default) in spec.items():
        if name in opts:
            args[name] = _typed(f"data option {name!r}", opts[name], type_)
        elif default is None:
            raise ConfigError(f"data source {kind!r} needs {name}=")
        else:
            args[name] = default
    seed, n_test = args.pop("seed"), args.pop("test_per_class")
    if kind == "blobs":
        make, n_train = synthetic_blobs, args.pop("n_per_class")
    else:
        make, n_train = synthetic_digits, args.pop("train_per_class")
    try:
        train = make(seed, n_train, split="train", **args)
        test = make(seed + 1, n_test, split="test", **args) if n_test else None
    except InputError as exc:
        raise ConfigError(f"key 'data': {exc}") from exc
    return train, test


def _load_data(pairs, base_dir) -> tuple[Dataset, Dataset | None]:
    idx_keys = sorted(IDX_KEYS & set(pairs))
    if "data" in pairs and idx_keys:
        raise ConfigError(f"give either data= or IDX files, not both "
                          f"(got data= and {', '.join(idx_keys)})")
    if "data" in pairs:
        return _build_synthetic(pairs["data"])
    if not ("train_images" in pairs and "train_labels" in pairs):
        raise ConfigError("config needs data= or train_images= and train_labels=")

    def resolve(key):
        return os.path.join(base_dir, pairs[key])

    m = _typed("key 'm'", pairs["m"], int) if "m" in pairs else None
    try:
        train = load_idx(resolve("train_images"), resolve("train_labels"),
                         m=m, split="train")
    except OSError as exc:
        raise ConfigError(f"cannot read training data: {exc}") from exc
    test = None
    if "test_images" in pairs or "test_labels" in pairs:
        if not ("test_images" in pairs and "test_labels" in pairs):
            raise ConfigError("test_images and test_labels must come together")
        try:
            test = load_idx(resolve("test_images"), resolve("test_labels"),
                            m=train.m, split="test")
        except OSError as exc:
            raise ConfigError(f"cannot read test data: {exc}") from exc
    return train, test


def _arch_text(pairs, base_dir) -> str:
    if "arch" not in pairs:
        raise ConfigError("config needs arch= (file path or inline layers)")
    value = pairs["arch"]
    candidate = os.path.join(base_dir, value)
    if os.path.isfile(candidate):
        return _read_text(candidate, "arch file")
    if ";" in value or value.startswith(("conv", "fc")):
        # inline form: layer lines separated by semicolons
        return "\n".join(part.strip() for part in value.split(";"))
    raise ConfigError(f"arch file not found: {candidate}")


def parse_config(path) -> RunSetup:
    """Read, validate, and assemble a full run description."""
    pairs = _parse_pairs(path)
    base_dir = os.path.dirname(os.path.abspath(path))

    if pairs.get("M") == "full":  # every sample in each batch: the default
        del pairs["M"]
    try:
        reg = Regularizer(**_fields(pairs, REG_KEYS))
        config = TrainConfig(reg=reg, **_fields(pairs, TRAIN_KEYS))
    except InputError as exc:
        raise ConfigError(str(exc)) from exc

    train_set, test_set = _load_data(pairs, base_dir)
    arch = _arch_text(pairs, base_dir)
    sample_shape = train_set.inputs.shape[1:]
    input_shape = sample_shape if len(sample_shape) == 3 else (
        int(np.prod(sample_shape)),)
    model = build_model(arch, input_shape)
    if model.m != train_set.m:
        raise ConfigError(f"model has {model.m} outputs but data has "
                          f"{train_set.m} classes")

    stem = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    out_dir = os.path.join(base_dir, pairs.get("out_dir", f"{stem}_out"))
    return RunSetup(config=config, model=model, train_set=train_set,
                    test_set=test_set, out_dir=out_dir)


# ------------------------------------------------------------- subcommands

def cmd_train(args) -> int:
    setup = parse_config(args.config)
    os.makedirs(setup.out_dir, exist_ok=True)
    csv_path = os.path.join(setup.out_dir, "log.csv")
    LOG.info("training %d samples, %d iterations, strategy %s",
             len(setup.train_set), setup.config.k_max, setup.config.strategy)

    with CsvLogger(csv_path) as sink:
        def tick(record, _u):
            sink.append_row(record)
            if record.full_loss is not None:
                LOG.info("iter %d: J=%.6f train=%.2f%% test=%s sp=%.1f%%",
                         record.k, record.full_loss, record.train_acc,
                         "-" if record.test_acc is None
                         else f"{record.test_acc:.2f}%", record.sparsity)
            else:
                LOG.debug("iter %d: eps=%.3g j=%d J=%.6f", record.k,
                          record.epsilon, record.j, record.mb_loss_after)

        params, log = train(setup.config, setup.model, setup.train_set,
                            test_set=setup.test_set, on_iteration=tick)

    snap_path = os.path.join(setup.out_dir, "params.bin")
    save_params(params, snap_path)
    s = summarize(log)
    print(f"iterations: {s.iterations}")
    print(f"final objective: {s.final_loss!r}")
    print(f"line-search steps: {s.total_ls_steps}")
    if s.final_train_acc is not None:
        print(f"train accuracy: {s.final_train_acc:.2f}%")
    if s.final_test_acc is not None:
        print(f"test accuracy: {s.final_test_acc:.2f}% "
              f"(best {s.best_test_acc:.2f}%)")
    if s.final_sparsity is not None:
        print(f"sparsity: {s.final_sparsity:.2f}%")
    print(f"wrote {csv_path} and {snap_path}")
    return 0


def cmd_gradcheck(args) -> int:
    setup = parse_config(args.config)
    n = min(args.samples, len(setup.train_set))
    xs = setup.train_set.inputs[:n]
    ys = setup.train_set.labels[:n]
    params = init_params(setup.model, setup.config.seed)
    rng = np.random.default_rng(setup.config.seed + 1)
    # zero biases put blank image regions exactly on the relu kink, where
    # F and the central difference disagree; drawn biases avoid it
    for _, b in params.blocks:
        b[...] = rng.normal(0.0, 0.1, b.shape)
    _, f = sweeps(setup.model, params, xs, ys, Regularizer())

    def mean_loss() -> float:
        return batch_objective(setup.model, params, xs, ys, Regularizer())

    h = args.h
    worst = 0.0
    for l, (fw, fb) in enumerate(f.blocks):
        w, b = params.blocks[l]
        flat_f = np.concatenate([fw.ravel(), fb.ravel()])
        total = w.size + b.size
        take = min(args.coords, total)
        coords = np.sort(rng.choice(total, size=take, replace=False))
        fd = np.zeros(take)
        for i, c in enumerate(coords):
            target = w.reshape(-1) if c < w.size else b.reshape(-1)
            off = c if c < w.size else c - w.size
            keep = target[off]
            target[off] = keep + h
            up = mean_loss()
            target[off] = keep - h
            down = mean_loss()
            target[off] = keep
            fd[i] = (up - down) / (2.0 * h)
        picked = flat_f[coords]
        denom = max(float(np.linalg.norm(fd)), 1e-30)
        err = float(np.linalg.norm(picked + fd)) / denom
        worst = max(worst, err)
        LOG.info("layer %d: %d/%d coordinates, relative error %.3e",
                 l, take, total, err)
    print(f"max relative error: {worst:.3e}")
    ok = worst <= args.tol
    print("PASS" if ok else "FAIL", f"(tolerance {args.tol:g})")
    return 0 if ok else 1


def _prox_gap(rng: np.random.Generator) -> float:
    """Worst candidate-vs-closed-form gap on one random scalar instance."""
    kind = ("l2l0", "elastic-net")[int(rng.integers(2))]
    alpha = float(rng.uniform(0.0, 0.999))
    rho = float(10.0 ** rng.uniform(-6, 1))
    eps = float(10.0 ** rng.uniform(-3, 3))
    u = float(rng.normal(0.0, 2.0))
    fval = float(rng.normal(0.0, 2.0))
    reg = Regularizer(kind, alpha=alpha, rho=rho)
    w = float(layer_update(np.array([fval]), np.array([u]), reg, eps)[0])

    def aug_hp(c: np.ndarray) -> np.ndarray:
        smooth = 0.5 * alpha * c ** 2
        if kind == "l2l0":
            nonsmooth = (1.0 - alpha) * (c != 0.0)
        else:
            nonsmooth = (1.0 - alpha) * np.abs(c)
        return fval * c - rho * (smooth + nonsmooth) - 0.5 * eps * (c - u) ** 2

    reach = abs(u) + abs(fval) / eps + 1.0
    grid = np.linspace(-reach, reach, 4001)
    best = max(float(aug_hp(grid).max()), float(aug_hp(np.zeros(1))[0]))
    return best - float(aug_hp(np.array([w]))[0])


def cmd_proxcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.n):
        worst = max(worst, _prox_gap(rng))
    print(f"max objective gap over {args.n} instances: {worst:.3e}")
    ok = worst <= 1e-10
    print("PASS" if ok else "FAIL", "(tolerance 1e-10)")
    return 0 if ok else 1


def cmd_eval(args) -> int:
    setup = parse_config(args.config)
    params = load_params(args.params)
    want = param_shapes(setup.model)
    got = [(w.shape, b.shape) for w, b in params.blocks]
    if got != want:
        raise ConfigError(f"snapshot shapes {got} do not match model {want}")
    scored = setup.test_set if setup.test_set is not None else setup.train_set
    table = confusion(setup.model, params, scored)
    # the diagonal count over N is the same division accuracy() makes
    scored_acc = 100.0 * float(np.trace(table) / table.sum())
    if setup.test_set is not None:
        print(f"train accuracy: "
              f"{accuracy(setup.model, params, setup.train_set):.2f}%")
        print(f"test accuracy: {scored_acc:.2f}%")
    else:
        print(f"train accuracy: {scored_acc:.2f}%")
    print(f"sparsity: {sparsity_pct(params, setup.config.reg.include_bias):.2f}%")
    print("confusion (rows true, cols predicted):")
    print(table)
    return 0


def _setup_logging():
    level_name = os.environ.get("PMPTRAIN_LOG", "info").lower()
    levels = {"quiet": logging.WARNING, "info": logging.INFO,
              "debug": logging.DEBUG}
    if level_name not in levels:
        print(f"PMPTRAIN_LOG must be quiet, info, or debug; "
              f"got {level_name!r}", file=sys.stderr)
        level_name = "info"
    logging.basicConfig(level=levels[level_name],
                        format="%(levelname)s %(message)s", stream=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmptrain",
        description="Train small image classifiers by successive "
                    "Hamiltonian maximization.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training job")
    p_train.add_argument("config", help="key = value config file")
    p_train.set_defaults(fn=cmd_train)

    p_grad = sub.add_parser("gradcheck",
                            help="compare F against finite differences")
    p_grad.add_argument("config")
    p_grad.add_argument("--samples", type=int, default=8)
    p_grad.add_argument("--coords", type=int, default=40,
                        help="coordinates checked per layer")
    p_grad.add_argument("--h", type=float, default=1e-6)
    p_grad.add_argument("--tol", type=float, default=1e-6)
    p_grad.set_defaults(fn=cmd_gradcheck)

    p_prox = sub.add_parser("proxcheck",
                            help="randomized exactness check of the "
                                 "closed-form layer update")
    p_prox.add_argument("n", type=int, nargs="?", default=1000)
    p_prox.add_argument("--seed", type=int, default=0)
    p_prox.set_defaults(fn=cmd_proxcheck)

    p_eval = sub.add_parser("eval", help="score a saved snapshot")
    p_eval.add_argument("config")
    p_eval.add_argument("params", help="path to a params.bin snapshot")
    p_eval.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PmpTrainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
