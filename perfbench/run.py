#!/usr/bin/env python3
"""Training benchmark for pmptrain: one workload per process, checked outputs.

    python3 perfbench/run.py --workload full-sqh-l2l0 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; pmptrain is imported from its
`src/` directory and nowhere else. One run sets the workload up, then
runs whole rounds for about `--seconds` (another round starts while at
least half of one still fits). A round is one fixed-length training call
on identical inputs, so every round must produce the same parameters bit
for bit, followed by timed scoring passes over the held-out split drawn
from `--seed`. Then every output is checked against `refmodel`.
Outputs go to `perfbench/runs/<workload>-s<seed>[-trace]/`.

With `--trace 0` the last stdout line reports the end-to-end metrics;
with `--trace 1` rounds alternate traced and untraced (at least one of
each), it reports the per-layer metrics and writes the spans to
`trace.json`. The exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat", "r", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22 of stat
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads() -> int:
    """Pin BLAS/OpenMP pools to the CPUs this process may use, before numpy loads."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def main(argv=None) -> int:
    try:
        t_process = time.perf_counter() - process_age()
    except (OSError, IndexError, ValueError):
        t_process = time.perf_counter()  # no /proc: count from here
    args = parse_args(argv)
    threads = blas_threads()
    if not os.path.isfile(os.path.join(SRC, "pmptrain", "__init__.py")):
        print(f"error: no pmptrain sources under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)

    import pmptrain
    if os.path.dirname(os.path.abspath(pmptrain.__file__)) != \
            os.path.join(SRC, "pmptrain"):
        print(f"error: pmptrain loaded from {pmptrain.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    run_dir = os.path.join(HERE, "runs", f"{args.workload}-s{args.seed}"
                           + ("-trace" if args.trace else ""))
    os.makedirs(run_dir, exist_ok=True)
    return bench.run(WORKLOADS[args.workload], args.seed, bool(args.trace),
                     args.seconds, t_process, threads, run_dir)


if __name__ == "__main__":
    sys.exit(main())
