"""Which pmptrain entry points the traced run wraps, and the per-layer metrics.

Each wrapper is installed on the name the caller resolves: `trainer`
imports its sweeps, `batch_objective`, `update_params`, `accuracy` and
`sparsity_pct` by name, `network` imports its kernels by name, and `cli`
imports `synthetic_digits`, `train` and `save_params` by name. The
benchmark itself calls `digits.synthetic_digits`, `trainer.train`,
`metrics.accuracy` and `runlog.save_params` through their modules.
Convolution and pooling calls are labelled with the conv layer they belong
to (l0, l1) from their geometry or input shape.
"""

from __future__ import annotations

import refmodel
from spans import TraceError, median, self_times, top_below

# spans directly under trainer.train that make up training iterations
ITERATION_PHASES = frozenset((
    "trainer.sample", "network.forward_sweep", "network.backward_sweep",
    "network.hamiltonian_gradient", "trainer.linesearch"))
# spans directly under trainer.train that make up an evaluation pass
EVAL_PHASES = frozenset(("network.objective", "metrics.accuracy",
                         "metrics.sparsity"))


def _layer_keys(layers):
    """Conv layer index by (in, out, k) geometry and by pooled-input shape."""
    by_geom, by_shape = {}, {}
    in_ch = 1
    for i, (spec, (_, _, out, _)) in enumerate(
            zip(layers, refmodel.layer_shapes(layers))):
        if spec["kind"] != "conv":
            continue
        by_geom[(in_ch, spec["out"], spec["k"])] = i
        if spec["pool"] != "none":
            by_shape[out] = i
        in_ch = spec["out"]
    return by_geom, by_shape


def install(patcher, rec, mods, layers):
    """Wrap every entry point the per-layer metrics read."""
    cli, digits, trainer, network, metrics, runlog = (
        mods["cli"], mods["digits"], mods["trainer"], mods["network"],
        mods["metrics"], mods["runlog"])
    by_geom, by_shape = _layer_keys(layers)

    def geom_layer(geom):
        key = (geom.in_channels, geom.out_channels, geom.kernel_h)
        if key not in by_geom:
            raise TraceError(f"conv call with unknown geometry {key}")
        return by_geom[key]

    def shape_layer(x):
        key = tuple(x.shape[1:])
        if key not in by_shape:
            raise TraceError(f"pool call with unknown input shape {key}")
        return by_shape[key]

    def conv_label(pos):
        return lambda args: f".l{geom_layer(args[pos])}"

    def pool_label(args):
        return f".l{shape_layer(args[0])}"

    def conv_flops(args):
        # conv2d(kernel, bias, x, geom): 2 * N * Co * OH * OW * Ci * k * k
        kernel, x, geom = args[0], args[2], args[3]
        oh = (x.shape[2] + 2 * geom.pad - geom.kernel_h) // geom.stride + 1
        ow = (x.shape[3] + 2 * geom.pad - geom.kernel_w) // geom.stride + 1
        return 2 * x.shape[0] * oh * ow * kernel.size

    entries = [
        ([(cli, "parse_config")], "cli.parse_config", None, None),
        ([(cli, "synthetic_digits"), (digits, "synthetic_digits")],
         "digits.render", None, None),
        ([(trainer, "train"), (cli, "train")], "trainer.train", None, None),
        ([(trainer, "sample_minibatch")], "trainer.sample", None, None),
        ([(trainer, "forward_sweep")], "network.forward_sweep", None, None),
        ([(trainer, "backward_sweep")], "network.backward_sweep", None, None),
        ([(trainer, "hamiltonian_gradient")], "network.hamiltonian_gradient",
         None, None),
        ([(trainer, "linesearch_step")], "trainer.linesearch", None, None),
        ([(trainer, "batch_objective")], "network.objective", None, None),
        ([(trainer, "update_params")], "hamiltonian.update", None, None),
        ([(trainer, "accuracy"), (metrics, "accuracy")], "metrics.accuracy",
         None, None),
        ([(trainer, "sparsity_pct")], "metrics.sparsity", None, None),
        ([(network, "forward_logits")], "network.forward_logits", None, None),
        ([(network, "conv2d")], "kernels.conv_fwd", conv_label(3), conv_flops),
        ([(network, "_conv_param_grads")], "kernels.conv_param_grads",
         conv_label(2), None),
        ([(network, "_conv_input_vjp")], "kernels.conv_input_vjp",
         conv_label(3), None),
        ([(network, "pool")], "kernels.pool_fwd", pool_label, None),
        ([(network, "pool_vjp")], "kernels.pool_vjp", pool_label, None),
        ([(network, "activate")], "kernels.activate", None, None),
        ([(network, "_activate_vjp_from_value")], "kernels.activate_vjp",
         None, None),
        ([(network, "affine")], "kernels.affine", None, None),
        ([(runlog.CsvLogger, "append_row")], "runlog.csv_row", None, None),
        ([(runlog, "save_params"), (cli, "save_params")], "runlog.save_params",
         None, None),
    ]
    for owners, name, label, work in entries:
        for owner, attr in owners:
            patcher.replace(owner, attr,
                            lambda fn: rec.wrap(name, fn, label, work))


# per-layer metric name -> unit, in report order
PER_LAYER = {
    "digits.render_s": "s",
    "cli.parse_config_s": "s",
    "runlog.csv_row_us": "us",
    "runlog.save_params_ms": "ms",
    "trainer.trials_per_iter": "count",
    "trainer.sample_ms": "ms",
    "trainer.eval_pass_s": "s",
    "network.forward_sweep_ms": "ms",
    "network.backward_sweep_ms": "ms",
    "network.hamiltonian_gradient_ms": "ms",
    "network.objective_ms": "ms",
    "network.forward_passes_per_iter": "count",
    "kernels.conv_fwd.l0_ms": "ms",
    "kernels.conv_fwd.l1_ms": "ms",
    "kernels.conv_fwd.l0_gflops": "GFLOP/s",
    "kernels.conv_fwd.l1_gflops": "GFLOP/s",
    "kernels.conv_param_grads.l0_ms": "ms",
    "kernels.conv_param_grads.l1_ms": "ms",
    "kernels.conv_input_vjp.l1_ms": "ms",
    "kernels.pool_fwd.l0_ms": "ms",
    "kernels.pool_fwd.l1_ms": "ms",
    "kernels.pool_vjp.l0_ms": "ms",
    "kernels.pool_vjp.l1_ms": "ms",
    "kernels.activate_ms": "ms",
    "kernels.activate_vjp_ms": "ms",
    "kernels.affine_ms": "ms",
    "hamiltonian.update_ms": "ms",
    "metrics.accuracy_ms": "ms",
    "trace.overhead_s": "s",
}

# kernel metric -> span name; medians of self time over iteration calls
_KERNELS = {
    "kernels.conv_fwd.l0_ms": "kernels.conv_fwd.l0",
    "kernels.conv_fwd.l1_ms": "kernels.conv_fwd.l1",
    "kernels.conv_param_grads.l0_ms": "kernels.conv_param_grads.l0",
    "kernels.conv_param_grads.l1_ms": "kernels.conv_param_grads.l1",
    "kernels.conv_input_vjp.l1_ms": "kernels.conv_input_vjp.l1",
    "kernels.pool_fwd.l0_ms": "kernels.pool_fwd.l0",
    "kernels.pool_fwd.l1_ms": "kernels.pool_fwd.l1",
    "kernels.pool_vjp.l0_ms": "kernels.pool_vjp.l0",
    "kernels.pool_vjp.l1_ms": "kernels.pool_vjp.l1",
    "kernels.activate_ms": "kernels.activate",
    "kernels.activate_vjp_ms": "kernels.activate_vjp",
    "kernels.affine_ms": "kernels.affine",
    "hamiltonian.update_ms": "hamiltonian.update",
}


class Analysis:
    """Spans grouped by phase: setup, training iterations, eval passes, scoring."""

    def __init__(self, spans):
        self.spans = spans
        self.selfs = self_times(spans)
        self.top = top_below(spans, "trainer.train")
        self.durs = [end - start for _, start, end, _, _ in spans]

    def phase(self, i) -> str:
        t = self.top[i]
        if t < 0:
            return "outside"
        if self.spans[t][0] in ITERATION_PHASES:
            return "iteration"
        if self.spans[t][0] in EVAL_PHASES:
            return "eval"
        return "train-other"

    def select(self, name, phase=None):
        return [i for i, s in enumerate(self.spans)
                if s[0] == name and (phase is None or self.phase(i) == phase)]

    def has_ancestor(self, i, name) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def _require(idx, what):
    if not idx:
        raise TraceError(f"no calls recorded for {what}")
    return idx


def layer_metrics(spans, train_s_traced, train_s_untraced) -> dict:
    """Every PER_LAYER metric from the spans of traced rounds and set-ups."""
    a = Analysis(spans)
    out = {}

    def med_ms(idx, scale=1e3, use_self=False):
        vals = a.selfs if use_self else a.durs
        return median([vals[i] for i in idx]) * scale

    iterations = len(_require(a.select("trainer.sample", "iteration"),
                              "trainer.sample"))
    # rendering inside the cold set-up: everything before the first training call
    first_train = min(s[1] for s in spans if s[0] == "trainer.train")
    render = _require([i for i in a.select("digits.render")
                       if spans[i][1] < first_train], "digits.render")
    out["digits.render_s"] = sum(a.durs[i] for i in render)
    out["cli.parse_config_s"] = med_ms(
        _require(a.select("cli.parse_config"), "cli.parse_config"), 1.0)
    out["runlog.csv_row_us"] = med_ms(
        _require(a.select("runlog.csv_row"), "runlog.csv_row"), 1e6)
    out["runlog.save_params_ms"] = med_ms(
        _require(a.select("runlog.save_params"), "runlog.save_params"))

    trials = _require(ls_objective_calls(a), "line-search objective")
    out["trainer.trials_per_iter"] = len(trials) / iterations
    out["trainer.sample_ms"] = med_ms(a.select("trainer.sample", "iteration"))
    eval_spans = [i for i in range(len(spans))
                  if a.top[i] == i and a.phase(i) == "eval"]
    passes = _require(a.select("metrics.sparsity", "eval"), "eval pass")
    out["trainer.eval_pass_s"] = sum(a.durs[i] for i in eval_spans) / len(passes)

    for key, name in (("network.forward_sweep_ms", "network.forward_sweep"),
                      ("network.backward_sweep_ms", "network.backward_sweep"),
                      ("network.hamiltonian_gradient_ms",
                       "network.hamiltonian_gradient")):
        out[key] = med_ms(_require(a.select(name, "iteration"), name))
    out["network.objective_ms"] = med_ms(trials)
    sweeps = a.select("network.forward_sweep", "iteration")
    logits = [i for i in a.select("network.forward_logits", "iteration")
              if a.has_ancestor(i, "trainer.linesearch")]
    out["network.forward_passes_per_iter"] = (len(sweeps) + len(logits)) \
        / iterations

    for key, name in _KERNELS.items():
        out[key] = med_ms(_require(a.select(name, "iteration"), name),
                          use_self=True)
    for l in (0, 1):
        idx = a.select(f"kernels.conv_fwd.l{l}", "iteration")
        flops = sum(spans[i][4] for i in idx)
        out[f"kernels.conv_fwd.l{l}_gflops"] = \
            flops / sum(a.selfs[i] for i in idx) / 1e9
    scoring = [i for i in a.select("metrics.accuracy", "outside")
               if spans[i][3] < 0]
    out["metrics.accuracy_ms"] = med_ms(_require(scoring, "scoring pass"))
    out["trace.overhead_s"] = train_s_traced - train_s_untraced
    return {k: out[k] for k in PER_LAYER}


def ls_objective_calls(a: Analysis) -> list[int]:
    """Objective evaluations made by the line search."""
    return [i for i in a.select("network.objective", "iteration")
            if a.has_ancestor(i, "trainer.linesearch")]


def share_table(spans, wall_s: float) -> dict:
    """Per span name inside traced training calls: calls, inclusive and self
    seconds, and both as shares of `wall_s`, the traced training time."""
    a = Analysis(spans)
    table: dict[str, dict] = {}
    for i, s in enumerate(spans):
        if a.top[i] < 0 and s[0] != "trainer.train":
            continue  # set-up and scoring passes lie outside training
        row = table.setdefault(s[0], {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += a.durs[i]
        row["self_s"] += a.selfs[i]
    for row in table.values():
        row["total_share"] = row["total_s"] / wall_s
        row["self_share"] = row["self_s"] / wall_s
    return table
