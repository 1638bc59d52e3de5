"""Train the detector on clean data and score a labeled test series.

Walks the full batch pipeline: standardize with train statistics, run the
two-phase trainer (gradient descent, then coreset construction), score the
test series with the dual memory/quantization streams, and evaluate with
point-adjusted F1 and AUC metrics.
"""

import numpy as np

from comet.cli import default_synthetic_spec
from comet.config import RunConfig, TrainConfig
from comet.data import standardize, synthesize
from comet.evaluation import evaluate
from comet.scoring import score_series
from comet.train import train

spec = default_synthetic_spec()
spec.train_length = 2000
spec.test_length = 1000
spec.anomalies = [a for a in spec.anomalies if a.start + a.duration <= 1000]
dataset = standardize(synthesize(spec))

config = RunConfig(
    embed_dim=32,
    core_dim=16,
    codebook_size=64,
    train=TrainConfig(epochs=8, batch_size=8, learning_rate=1e-3, seed=42),
)
config.validate()

print("training on", dataset.train.values.shape[0], "clean steps ...")
checkpoint = train(dataset.train.values, config, log=print)

print("\ncoreset entries per scale:",
      [bs.vectors.shape[0] for bs in checkpoint.bank.scales],
      "of", config.codebook_size, "codebook entries")

scores = score_series(checkpoint.state, checkpoint.bank, dataset.test.values,
                      config, labels=dataset.test.labels)

report = evaluate(scores.score, dataset.test.labels)
print("\nf1(K=0)  =", round(report.f1_k0, 4))
print("f1(K=100)=", round(report.f1_k100, 4))
print("auc_roc  =", round(report.auc_roc, 4))
print("auc_pr   =", round(report.auc_pr, 4))

# the top-scoring timesteps should sit inside labeled anomalies
top = np.argsort(-scores.score)[:10]
print("\ntop-10 scored timesteps:", sorted(top.tolist()))
print("their labels:           ", dataset.test.labels[np.sort(top)].tolist())
