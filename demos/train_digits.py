"""LeNet-style network on synthetic glyph digits, with a CSV run log.

Uses the mini-batch mode: each iteration draws M = 100 of the 1,000
training images, so acceptance decisions are made on noisy objectives.
The moving-average proposal strategy (strategy = "ma") smooths the
augmentation weight across iterations instead of re-probing from scratch,
which keeps the line search near one trial per iteration.

Writes digits_run.csv next to this script. The same run is available
through the command line:

    pmptrain train <config>   with  data = digits:...  in the config
"""

import os

from pmptrain.digits import synthetic_digits
from pmptrain.metrics import accuracy, confusion
from pmptrain.network import build_model
from pmptrain.runlog import summarize, write_log
from pmptrain.trainer import TrainConfig, train

LENET = """
conv out=6 k=5 stride=1 pad=2 act=tanh pool=avg2
conv out=16 k=5 stride=1 pad=0 act=tanh pool=avg2
fc out=120 act=tanh
fc out=84 act=tanh
fc out=10 act=identity
"""

train_set = synthetic_digits(seed=3, n_per_class=100, split="train")
test_set = synthetic_digits(seed=4, n_per_class=40, split="test")
model = build_model(LENET, (1, 28, 28))
print(f"{len(train_set)} train / {len(test_set)} test images, "
      f"{len(model.layers)} layers")

config = TrainConfig(seed=7, m_batch=100, k_max=120, strategy="ma",
                     eval_every=20)
params, log = train(config, model, train_set, test_set=test_set)

for r in log.records:
    if r.full_loss is not None:
        print(f"iter {r.k:3d}: J={r.full_loss:.4f} "
              f"train={r.train_acc:.1f}% test={r.test_acc:.1f}%")

s = summarize(log)
print(f"\nline-search steps total: {s.total_ls_steps} "
      f"({s.total_ls_steps / s.iterations:.2f} per iteration)")
print(f"best test accuracy: {s.best_test_acc:.1f}%")

csv_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "digits_run.csv")
write_log(log, csv_path)
print(f"wrote {csv_path}")

print("\nconfusion on the test split (rows true, cols predicted):")
print(confusion(model, params, test_set))
print(f"final test accuracy: {accuracy(model, params, test_set):.2f}%")
