"""COMET: codebook-based online-adaptive multi-scale time-series anomaly detection.

Library entry points:

* data.synthesize / data.load_csv / data.standardize — corpora in and out
* train.train / train.save_checkpoint / train.load_checkpoint — fitting
* scoring.score_series — frozen-model batch scoring
* tta.stream_series — streaming inference with online codebook adaptation
* evaluation.evaluate — point-adjusted F1, AUC-ROC, AUC-PR
* cli.main — the `comet` command-line tool (import comet.cli; it is not
  imported eagerly, so `python -m comet.cli` runs it cleanly)
"""

from . import (config, data, errors, evaluation, model, ndmath, patching,
               scoring, train, tta, vq)

__all__ = [
    "config", "data", "errors", "evaluation", "model", "ndmath",
    "patching", "scoring", "train", "tta", "vq",
]

__version__ = "0.1.0"
