"""Structured run output: CSV iteration logs, summaries, and snapshots.

CSV columns, in order: iter, epsilon, j_trials, ls_steps_cum, mb_loss,
full_loss, train_acc, test_acc, sparsity_pct, wall_s. One row per
iteration after the header. full_loss/train_acc/test_acc/sparsity_pct are
blank on iterations without an evaluation pass. Floats are written with
repr (shortest round-trip form), decimal point, no thousands separators;
the file is UTF-8 with LF line endings.

Parameter snapshots are a flat little-endian float64 stream (layer 0
weight, layer 0 bias, layer 1 weight, ...) plus a JSON sidecar of shapes,
so two snapshots are comparable byte for byte.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .network import ParamSet
from .trainer import IterationRecord, RunLog

CSV_COLUMNS = ("iter", "epsilon", "j_trials", "ls_steps_cum", "mb_loss",
               "full_loss", "train_acc", "test_acc", "sparsity_pct", "wall_s")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def record_to_row(record: IterationRecord) -> str:
    fields = (record.k, record.epsilon, record.j, record.ls_steps_cum,
              record.mb_loss_after, record.full_loss, record.train_acc,
              record.test_acc, record.sparsity, record.wall_s)
    return ",".join(_fmt(v) for v in fields)


class CsvLogger:
    """Single-writer CSV sink; the header goes out with the first row."""

    def __init__(self, path):
        self.path = os.fspath(path)
        self._fh = None

    def append_row(self, record: IterationRecord):
        try:
            if self._fh is None:
                self._fh = open(self.path, "w", encoding="utf-8", newline="\n")
                self._fh.write(",".join(CSV_COLUMNS) + "\n")
            self._fh.write(record_to_row(record) + "\n")
            if record.full_loss is not None:
                self._fh.flush()
        except OSError as exc:
            raise InputError(f"cannot write log {self.path}: {exc}") from exc

    def close(self):
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def write_log(log: RunLog, path):
    with CsvLogger(path) as sink:
        for record in log.records:
            sink.append_row(record)


def read_log(path) -> list[dict]:
    """Parse an emitted CSV back into dicts; blanks become None."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise InputError(f"{path}: missing or wrong CSV header")
    out = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise InputError(f"{path}: row has {len(parts)} fields")
        row = {}
        for key, raw in zip(CSV_COLUMNS, parts):
            if raw == "":
                row[key] = None
            elif key in ("iter", "j_trials", "ls_steps_cum"):
                row[key] = int(raw)
            else:
                row[key] = float(raw)
        out.append(row)
    return out


@dataclass(frozen=True)
class RunSummary:
    iterations: int
    final_loss: float
    final_epsilon: float
    total_ls_steps: int
    final_sparsity: float | None
    final_train_acc: float | None
    final_test_acc: float | None
    best_test_acc: float | None


def summarize(log: RunLog) -> RunSummary:
    """Totals and best-over-run values of a finished run."""
    if not log.records:
        raise InputError("cannot summarize an empty run log")
    last = log.records[-1]
    test_accs = [r.test_acc for r in log.records if r.test_acc is not None]
    train_accs = [r.train_acc for r in log.records if r.train_acc is not None]
    sparsities = [r.sparsity for r in log.records if r.sparsity is not None]
    return RunSummary(
        iterations=len(log.records),
        final_loss=last.mb_loss_after,
        final_epsilon=last.epsilon,
        total_ls_steps=last.ls_steps_cum,
        final_sparsity=sparsities[-1] if sparsities else None,
        final_train_acc=train_accs[-1] if train_accs else None,
        final_test_acc=test_accs[-1] if test_accs else None,
        best_test_acc=max(test_accs) if test_accs else None,
    )


def save_params(params: ParamSet, path):
    """Flat little-endian float64 dump plus a JSON sidecar of shapes.

    Both files are written to temporaries first and then moved into place
    with os.replace, so a failed write leaves the previous snapshot as it was.
    """
    path = os.fspath(path)
    flat = np.concatenate([np.concatenate([w.ravel(), b.ravel()])
                           for w, b in params.blocks])
    sidecar = {"layers": [{"weight": list(w.shape), "bias": list(b.shape)}
                          for w, b in params.blocks]}
    try:
        with open(path + ".tmp", "wb") as fh:
            fh.write(flat.astype("<f8").tobytes())
        with open(path + ".json.tmp", "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=1)
            fh.write("\n")
        os.replace(path + ".tmp", path)
        os.replace(path + ".json.tmp", path + ".json")
    finally:
        for tmp in (path + ".tmp", path + ".json.tmp"):
            if os.path.exists(tmp):
                os.remove(tmp)


def _shape(dims) -> tuple[int, ...]:
    if not isinstance(dims, list) \
            or not all(isinstance(d, int) and d >= 0 for d in dims):
        raise TypeError(f"shape {dims!r} is not a list of non-negative integers")
    return tuple(dims)


def load_params(path) -> ParamSet:
    path = os.fspath(path)
    try:
        with open(path + ".json", "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        shapes = [(_shape(layer["weight"]), _shape(layer["bias"]))
                  for layer in sidecar["layers"]]
        flat = np.fromfile(path, dtype="<f8").astype(np.float64)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: unreadable snapshot ({exc!r})") from None
    blocks = []
    offset = 0
    for w_shape, b_shape in shapes:
        w_size = int(np.prod(w_shape))
        b_size = int(np.prod(b_shape))
        if offset + w_size + b_size > flat.size:
            raise InputError(f"{path}: snapshot shorter than its sidecar shapes")
        blocks.append((flat[offset:offset + w_size].reshape(w_shape).copy(),
                       flat[offset + w_size:offset + w_size + b_size]
                       .reshape(b_shape).copy()))
        offset += w_size + b_size
    if offset != flat.size:
        raise InputError(f"{path}: {flat.size - offset} trailing values in snapshot")
    return ParamSet(blocks)
