"""Output checks against computations made apart from the program.

Every check raises CheckFailed with a message naming what disagreed.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

import refmodel

OBJECTIVE_RTOL = 1e-10  # reference J vs program J; observed gaps are ~1e-15
TIE_GAP = 1e-9  # logit gap below which a differing argmax counts as a tie


class CheckFailed(AssertionError):
    pass


def fail(message: str):
    raise CheckFailed(message)


def read_params(path, layers):
    """Blocks from a params.bin snapshot and its JSON sidecar, shape-checked."""
    with open(str(path) + ".json", "r", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    flat = np.fromfile(path, dtype="<f8")
    want = refmodel.layer_shapes(layers)
    got = [(tuple(l["weight"]), tuple(l["bias"])) for l in sidecar["layers"]]
    if got != [(w, b) for w, b, _, _ in want]:
        raise CheckFailed(f"snapshot shapes {got} differ from the architecture")
    blocks, off = [], 0
    for wshape, bshape in got:
        wn, bn = int(np.prod(wshape)), int(np.prod(bshape))
        blocks.append((flat[off:off + wn].reshape(wshape),
                       flat[off + wn:off + wn + bn].reshape(bshape)))
        off += wn + bn
    if off != flat.size:
        raise CheckFailed(f"snapshot holds {flat.size} values, shapes need {off}")
    return blocks


def read_csv_log(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def csv_matches_records(rows, records):
    """Each CSV row repeats its IterationRecord, floats round-tripping exactly."""
    if len(rows) != len(records):
        raise CheckFailed(f"log.csv has {len(rows)} rows for {len(records)} iterations")
    fields = (("iter", "k"), ("epsilon", "epsilon"), ("j_trials", "j"),
              ("ls_steps_cum", "ls_steps_cum"), ("mb_loss", "mb_loss_after"),
              ("full_loss", "full_loss"), ("train_acc", "train_acc"),
              ("test_acc", "test_acc"), ("sparsity_pct", "sparsity"))
    for row, rec in zip(rows, records):
        for col, attr in fields:
            want = getattr(rec, attr)
            raw = row[col]
            got = None if raw == "" else float(raw)
            if got != (None if want is None else float(want)):
                raise CheckFailed(f"log.csv iter {rec.k} {col}: {raw!r} != {want!r}")


def sufficient_decrease(records, eta: float, full_batch: bool):
    """J_after <= J_before - eta * |||du||| every iteration; in full batch the
    chain J_before(k+1) == J_after(k) holds bitwise."""
    for r in records:
        if not r.mb_loss_after <= r.mb_loss_before - eta * r.step_sq:
            raise CheckFailed(
                f"iteration {r.k}: J {r.mb_loss_before!r} -> {r.mb_loss_after!r} "
                f"misses sufficient decrease (step {r.step_sq!r})")
    if full_batch:
        for prev, nxt in zip(records, records[1:]):
            if nxt.mb_loss_before != prev.mb_loss_after:
                raise CheckFailed(
                    f"iteration {nxt.k}: chain broken, J_before "
                    f"{nxt.mb_loss_before!r} != previous J_after {prev.mb_loss_after!r}")


def hard_threshold(blocks, reg, eps_last: float):
    """Every nonzero parameter exceeds sqrt(2*gamma) at the last accepted
    eps, and some parameters are exactly zero."""
    gamma = (1.0 - reg["alpha"]) * reg["rho"] / (eps_last + reg["alpha"] * reg["rho"])
    cutoff = math.sqrt(2.0 * gamma)
    zeros = 0
    for block in (a for pair in blocks for a in pair):
        nz = block[block != 0.0]
        if nz.size and not np.all(np.abs(nz) > cutoff):
            raise CheckFailed(
                f"nonzero parameter {float(np.min(np.abs(nz)))!r} at or below "
                f"the hard-threshold cutoff {cutoff!r}")
        zeros += block.size - nz.size
    if zeros == 0:
        raise CheckFailed("l2l0 run left no exact zeros")


def sparsity_pct(blocks) -> float:
    nonzero = sum(int(np.count_nonzero(a)) for pair in blocks for a in pair)
    total = sum(a.size for pair in blocks for a in pair)
    return 100.0 * (1.0 - nonzero / total)


def objective_matches(j_prog: float, j_ref: float):
    if not abs(j_prog - j_ref) <= OBJECTIVE_RTOL * abs(j_ref):
        raise CheckFailed(f"program J {j_prog!r} vs reference J {j_ref!r}")


def accuracy_matches(acc_prog: float, logits, classes, what: str) -> float:
    """The program's accuracy (%) equals the reference predictions' accuracy,
    up to images whose two largest reference logits tie within TIE_GAP."""
    pred, gap = refmodel.predictions(logits)
    right = pred == classes
    ties = int(np.count_nonzero(gap < TIE_GAP))
    acc_ref = 100.0 * float(np.mean(right))
    if abs(acc_prog - acc_ref) > 100.0 * ties / len(classes) + 1e-9:
        raise CheckFailed(f"{what} accuracy {acc_prog!r}% vs reference {acc_ref!r}%")
    return acc_ref
