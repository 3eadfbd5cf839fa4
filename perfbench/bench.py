"""Set up, measure, check and report one benchmark run.

`run.py` fixes the BLAS thread count and the import path before this
module loads numpy and pmptrain.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout

import numpy as np

from pmptrain import cli, digits, metrics, network, runlog, trainer
from pmptrain.errors import PmpTrainError

import checks
import instrument
import refmodel
from spans import Patcher, Recorder, median, tail_percentile
from workloads import ETA

MODULES = {"cli": cli, "digits": digits, "trainer": trainer,
           "network": network, "metrics": metrics, "runlog": runlog}

# end-to-end metric -> unit, in report order
END_TO_END = {"setup_s": "s", "iter_s": "s", "train_s": "s",
              "eval_images_per_s": "images/s", "peak_rss_mb": "MB",
              "final_objective": "1"}


class Run:
    """One workload at one seed: its files, set-up, training rounds and scoring."""

    def __init__(self, wl, seed: int, traced: bool, run_dir: str):
        self.wl, self.seed, self.traced = wl, seed, traced
        self.cfg_path = os.path.join(run_dir, "run.cfg")
        self.params_path = os.path.join(run_dir, "params.bin")
        self.log_path = os.path.join(run_dir, "log.csv")
        self.run_dir = run_dir
        self.rec, self.tracer, self.probe = Recorder(), Patcher(), Patcher()
        self.seen = {}
        self.rounds: list[dict] = []
        self.span_marks: list[tuple[int, int]] = []  # spans of traced rounds
        self.score_s: list[float] = []
        self.score_acc: list[float] = []
        self.accuracy = None  # reference accuracy on the scoring split
        self.attempted = 0
        self.in_flight = 0  # operations of the round under way

    def set_tracing(self, on: bool):
        self.tracer.restore()
        if on:
            instrument.install(self.tracer, self.rec, MODULES, self.wl.layers)

    def set_up(self):
        """Config file, seeded scoring split and (library entry) the parsed run."""
        with open(self.cfg_path, "w", encoding="utf-8") as fh:
            fh.write(self.wl.config_text(out_dir="."))
        if self.wl.entry == "cli":
            # The CLI builds data and model inside `pmptrain train`; a probe
            # on the name it calls records when training starts and what
            # it was given and returned.
            def make_probe(train_fn):
                def train_probe(*a, **kw):
                    self.seen["entry"] = time.perf_counter()
                    self.seen["result"] = train_fn(*a, **kw)
                    self.seen["inputs"] = (a[1], a[2], kw["test_set"])
                    return self.seen["result"]
                return train_probe
            self.probe.replace(cli, "train", make_probe)
        self.set_tracing(self.traced)  # a traced run traces its set-up too
        self.score_set = digits.synthetic_digits(
            self.wl.score_seed(self.seed), self.wl.score_per_class,
            split="score")
        self.setup = cli.parse_config(self.cfg_path) \
            if self.wl.entry == "library" else None

    def train_once(self) -> dict:
        """One fixed-length training call and the files it leaves."""
        if self.wl.entry == "library":
            s = self.setup
            t0 = time.perf_counter()
            params, log = trainer.train(s.config, s.model, s.train_set,
                                        test_set=s.test_set)
            t1 = time.perf_counter()
            runlog.save_params(params, self.params_path)
            runlog.write_log(log, self.log_path)
            inputs = (s.model, s.train_set, s.test_set)
        else:
            with open(os.path.join(self.run_dir, "cli_stdout.txt"), "w",
                      encoding="utf-8") as fh, redirect_stdout(fh):
                t_call = time.perf_counter()
                status = cli.main(["train", self.cfg_path])
                t1 = time.perf_counter()
            if status != 0 or self.seen.get("entry", 0.0) < t_call:
                raise RuntimeError(f"pmptrain train exited with {status} "
                                   f"without a training call")
            t0 = self.seen["entry"]
            params, log = self.seen["result"]
            inputs = self.seen["inputs"]
        with open(self.params_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        walls = [r.wall_s for r in log.records]
        return {"t0": t0, "train_s": t1 - t0, "params": params,
                "records": log.records, "digest": digest, "inputs": inputs,
                "iter_s": [b - a for a, b in zip([0.0] + walls, walls)]}

    def measure(self, seconds: float):
        """Whole rounds for about `seconds`: another round starts while at
        least half of one still fits.

        A round is one training call, then `score_passes` timed scoring
        passes with the parameters it returned; spreading the scoring over
        the run keeps a slow moment of the machine from setting
        `eval_images_per_s` alone. A traced run alternates traced and
        untraced rounds, two at least.
        """
        need = 2 if self.traced else 1
        t_start = time.perf_counter()
        try:
            while True:
                traced = self.traced and len(self.rounds) % 2 == 0
                self.set_tracing(traced)
                t_round, first = time.perf_counter(), len(self.rec.spans)
                self.in_flight = self.wl.k_max + self.wl.score_passes
                self.attempted += self.in_flight
                r = self.train_once()
                for _ in range(self.wl.score_passes):
                    t0 = time.perf_counter()
                    self.score_acc.append(metrics.accuracy(
                        r["inputs"][0], r["params"], self.score_set))
                    self.score_s.append(time.perf_counter() - t0)
                r["traced"] = traced
                r["wall"] = time.perf_counter() - t_round
                self.rounds.append(r)
                if traced:
                    self.span_marks.append((first, len(self.rec.spans)))
                elapsed = time.perf_counter() - t_start
                if len(self.rounds) >= need and elapsed + median(
                        [r["wall"] for r in self.rounds]) / 2 > seconds:
                    break
        finally:
            self.tracer.restore()
            self.probe.restore()

    def verify(self) -> list[str]:
        """Every output check; returns what failed."""
        wl, last = self.wl, self.rounds[-1]
        _, train_set, test_set = last["inputs"]
        final = last["records"][-1]
        problems = []

        def check(fn, *a):
            try:
                return fn(*a)
            except checks.CheckFailed as exc:
                problems.append(str(exc))
                return None

        blocks = check(checks.read_params, self.params_path, wl.layers)
        if blocks is None:
            return problems
        for (w, b), (pw, pb) in zip(blocks, last["params"].blocks):
            if not (np.array_equal(w, pw) and np.array_equal(b, pb)):
                check(checks.fail, "params.bin differs from the parameters "
                                   "train returned")
        train_logits = refmodel.logits(wl.layers, blocks, train_set.inputs)
        if final.full_loss is None:
            check(checks.fail, "the last iteration carries no evaluation")
        else:
            j_ref = refmodel.cross_entropy(train_logits,
                                           train_set.class_indices) \
                + refmodel.regularizer(wl.reg, blocks)
            check(checks.objective_matches, final.full_loss, j_ref)
            check(checks.accuracy_matches, final.train_acc, train_logits,
                  train_set.class_indices, "training-set")
            check(checks.accuracy_matches, final.test_acc,
                  refmodel.logits(wl.layers, blocks, test_set.inputs),
                  test_set.class_indices, "held-out (final evaluation)")
            zeros = checks.sparsity_pct(blocks)
            if abs(final.sparsity - zeros) > 1e-9:
                check(checks.fail, f"logged sparsity {final.sparsity!r}% vs "
                                   f"{zeros!r}% in params.bin")
        score_logits = refmodel.logits(wl.layers, blocks, self.score_set.inputs)
        for acc in self.score_acc:
            self.accuracy = check(checks.accuracy_matches, acc, score_logits,
                                  self.score_set.class_indices,
                                  "held-out (scoring pass)")
        if self.accuracy is not None and not self.accuracy > wl.accuracy_floor:
            check(checks.fail, f"held-out accuracy {self.accuracy:.2f}% is "
                               f"not above the floor {wl.accuracy_floor}%")
        for r in self.rounds:
            check(checks.sufficient_decrease, r["records"], ETA,
                  wl.m_batch is None)
        if wl.reg["kind"] == "l2l0":
            check(checks.hard_threshold, blocks, wl.reg, final.epsilon)
        check(checks.csv_matches_records, checks.read_csv_log(self.log_path),
              last["records"])
        digests = sorted({r["digest"] for r in self.rounds})
        if len(digests) != 1:
            check(checks.fail, f"rounds disagree on the final parameters: "
                               f"{digests}")
        if self.traced:
            calls = len(instrument.ls_objective_calls(
                instrument.Analysis(self.rec.spans)))
            steps = sum(r["records"][-1].ls_steps_cum for r in self.rounds
                        if r["traced"])
            if calls != steps:
                check(checks.fail, f"{calls} traced line-search objective "
                                   f"calls, program's ls_steps_cum {steps}")
        return problems

    def end_to_end(self, t_process: float, peak_rss_mb: float) -> dict:
        iters = [t for r in self.rounds for t in r["iter_s"]]
        return {
            "setup_s": self.rounds[0]["t0"] - t_process,
            "iter_s": median(iters),
            "train_s": median([r["train_s"] for r in self.rounds]),
            "eval_images_per_s": len(self.score_set) / median(self.score_s),
            "peak_rss_mb": peak_rss_mb,
            "final_objective": self.rounds[-1]["records"][-1].full_loss,
        }

    def per_layer(self) -> tuple[dict, dict]:
        """Per-layer metrics and the share table of traced training time."""
        traced_s = [r["train_s"] for r in self.rounds if r["traced"]]
        plain_s = [r["train_s"] for r in self.rounds if not r["traced"]]
        values = instrument.layer_metrics(self.rec.spans, median(traced_s),
                                          median(plain_s))
        return values, instrument.share_table(self.rec.spans, sum(traced_s))


def run(wl, seed: int, traced: bool, seconds: float, t_process: float,
        threads: int, run_dir: str) -> int:
    r = Run(wl, seed, traced, run_dir)
    r.set_up()
    try:
        r.measure(seconds)
    except PmpTrainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": r.attempted,
                          "failed": r.in_flight, "metrics": {}}))
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    problems = r.verify()
    last = r.rounds[-1]
    summary = {
        "workload": wl.name, "seed": seed, "blas_threads": threads,
        "rounds": len(r.rounds), "digest": last["digest"],
        "final_objective": last["records"][-1].full_loss,
        "held_out_accuracy": r.accuracy,
        "ls_steps_cum": last["records"][-1].ls_steps_cum,
        "train_s": [x["train_s"] for x in r.rounds if not x["traced"]],
        "train_s_traced": [x["train_s"] for x in r.rounds if x["traced"]],
        "problems": problems,
    }
    if traced:
        values, table = r.per_layer()
        units = instrument.PER_LAYER
        with open(os.path.join(run_dir, "trace.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"summary": summary, "per_layer": values,
                       "share_of_traced_train_s": table,
                       "span_fields": ["name", "start", "end", "parent", "work"],
                       "spans": r.rec.spans, "traced_rounds": r.span_marks}, fh)
        print("share of traced training time (inclusive, self):",
              file=sys.stderr)
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:34s} calls {row['calls']:6d}  "
                  f"{100 * row['total_share']:6.2f}%  "
                  f"{100 * row['self_share']:6.2f}%", file=sys.stderr)
    else:
        values, units = r.end_to_end(t_process, peak_rss_mb), END_TO_END
        iters = [t for x in r.rounds for t in x["iter_s"]]
        summary["iterations_timed"] = len(iters)
        tail = tail_percentile(iters)
        if tail:
            summary[f"iter_s_p{tail[0]:g}"] = tail[1]
        with open(os.path.join(run_dir, "summary.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(dict(summary, metrics=values), fh, indent=1)

    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"workload {wl.name} seed {seed}: {len(r.rounds)} round(s) of "
          f"{wl.k_max} iterations, BLAS threads {threads}, params sha256 "
          f"{last['digest']}")
    for name, value in values.items():
        print(f"{name}: {value!r} {units[name]}")
    print(json.dumps({
        "correct": not problems, "attempted": r.attempted, "failed": 0,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()}}))
    return 0 if not problems else 1
