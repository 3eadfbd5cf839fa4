"""Smoke tests: the fast demos run as scripts and print what they promise."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)


def test_batch_size_gap_demo():
    done = run_demo("batch_size_gap.py")
    assert done.returncode == 0, done.stderr
    # the full-batch step is the exact maximizer: its gap row is zero
    assert "      full   0.000e+00   0.000e+00\n" in done.stdout


def test_train_blobs_demo():
    done = run_demo("train_blobs.py")
    assert done.returncode == 0, done.stderr
    assert "objective decreased on 59/59 steps" in done.stdout
