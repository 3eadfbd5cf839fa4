"""In-memory spans around pmptrain entry points, and the statistics over them.

A span is `[name, start, end, parent, work]`: perf_counter seconds, the
index of the enclosing span (-1 at top level) and an optional operation
count. The program is single threaded, so spans nest strictly and a
span's children never overlap; self time is the duration minus the
children's durations.

Wrappers replace module attributes, because `network` imports its kernels
by name and `trainer` imports its sweeps by name: patching
`pmptrain.kernels.conv2d` would not reach the calls the sweeps make. An
entry point that is missing raises `TraceError`; a layer is never
reported as 0 because its name moved.
"""

from __future__ import annotations

import functools
import math
import time


class TraceError(RuntimeError):
    """An entry point to wrap is missing or a call cannot be labelled."""


class Recorder:
    """Collects spans in memory; nothing is written until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, label=None, work=None):
        """`fn` recording one span per call.

        label(args) -> suffix appended to `name`; work(args) -> an
        operation count stored with the span.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            full = name + label(args) if label else name
            idx = len(spans)
            spans.append([full, time.perf_counter(), None,
                          stack[-1] if stack else -1,
                          work(args) if work else None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()

        return traced


class Patcher:
    """Replaces attributes and puts the originals back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr, make):
        """Set owner.attr = make(original); raise TraceError if it is missing."""
        if attr not in vars(owner):
            raise TraceError(
                f"entry point {getattr(owner, '__name__', owner)}.{attr} "
                f"is missing")
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def top_below(spans, root: str) -> list[int]:
    """For each span, its ancestor-or-self whose parent is named `root`; -1 if none.

    Parents precede children in recording order, so one pass suffices.
    """
    out = []
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent < 0:
            out.append(-1)
        elif spans[parent][0] == root:
            out.append(i)
        else:
            out.append(out[parent])
    return out


def percentile(values, q: float) -> float:
    """q-th percentile (0..100), linear between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(values):
    """(q, value) for the highest of p99/p95/p90/p75 with at least ten
    samples beyond it, or None when there are fewer than forty samples."""
    n = len(values)
    if n < 40:
        return None
    for q in (99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - q) / 100.0 >= 10.0:
            return q, percentile(values, q)
    return None
