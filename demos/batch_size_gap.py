"""How far mini-batch steps sit from the full-batch maximizer.

A full-batch iteration lands exactly on the maximizer of the augmented HP
built from the whole dataset; its gap is zero to rounding. A mini-batch
iteration maximizes a noisy HP instead, and the gap against the
full-batch maximizer grows as the batch shrinks. With no regularizer the
gap has a closed form, ||F_full - F_batch||^2 / (2 eps), i.e. it is the
gradient-noise energy at the accepted step size.
"""

import numpy as np

from pmptrain.data import synthetic_blobs
from pmptrain.network import build_model
from pmptrain.regularization import Regularizer
from pmptrain.trainer import TrainConfig, diagnostics, train

ARCH = "fc out=16 act=tanh\nfc out=4 act=identity"
data = synthetic_blobs(seed=7, n_per_class=32, m=4, dim=8, separation=2.0)
model = build_model(ARCH, (8,))
reg = Regularizer("none")
K, TAIL = 60, 50


def tail_gaps(m_batch, seed):
    config = TrainConfig(seed=seed, m_batch=m_batch, k_max=K, strategy="ma",
                         reg=reg)
    records, gaps = [], []
    prev = None

    def on_step(record, u):
        nonlocal prev
        # Delta_h of step k: the full-batch gap of u^(k+1), the newest iterate
        records.append(record)
        if record.k >= K - TAIL:
            gaps.append(diagnostics(model, prev, u, records, data, reg)[0])
        prev = u

    train(config, model, data, on_iteration=on_step)
    return gaps


print(f"dataset: {len(data)} samples; gap averaged over last {TAIL} of "
      f"{K} iterations, 3 seeds\n")
print("batch size   mean gap     max gap")
for m_batch in (8, 16, 32, 64, None):
    pooled = []
    for seed in range(3):
        pooled.extend(tail_gaps(m_batch, seed))
    label = "full" if m_batch is None else str(m_batch)
    print(f"{label:>10}   {np.mean(pooled):.3e}   {np.max(pooled):.3e}")
