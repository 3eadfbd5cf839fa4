"""Line-search cost of the two augmentation-weight proposal strategies.

sqh restarts low every iteration (eps_hat = zeta * eps_accepted with
zeta = 0.01) and pays a few escalation trials to climb back; ma keeps a
moving average of recently accepted values, so most iterations accept the
first trial. Both satisfy the same sufficient-decrease condition, so the
objective is monotone either way; only the number of extra objective
evaluations differs.
"""

from pmptrain.digits import synthetic_digits
from pmptrain.metrics import accuracy
from pmptrain.network import build_model
from pmptrain.trainer import TrainConfig, train

ARCH = """
conv out=4 k=3 stride=1 pad=1 act=tanh pool=avg2
fc out=32 act=tanh
fc out=10 act=identity
"""

train_set = synthetic_digits(seed=3, n_per_class=40, split="train")
test_set = synthetic_digits(seed=4, n_per_class=20, split="test")
model = build_model(ARCH, (1, 28, 28))
K = 120

results = {}
for strategy in ("sqh", "ma"):
    config = TrainConfig(seed=21, k_max=K, strategy=strategy)
    params, log = train(config, model, train_set)
    steps = log.records[-1].ls_steps_cum
    results[strategy] = steps
    print(f"{strategy}: {steps:4d} objective evaluations over {K} "
          f"iterations ({steps / K:.2f}/iter), "
          f"final J={log.records[-1].mb_loss_after:.5f}, "
          f"test={accuracy(model, params, test_set):.1f}%")

print(f"\nma / sqh evaluation ratio: {results['ma'] / results['sqh']:.2f}")
