"""The benchmark's three workloads: inputs, set-up, timed calls and checks.

Every workload calls the library (or the CLI entry point) in-process, one
call after the other, from a single thread. The workload seed fixes the
synthetic corpus; the model seed stays at the configuration default, so the
program only ever sees the generated inputs.

A workload exposes:

* ``setup()`` — builds the inputs (and, where the workload's paths need one,
  a trained model) and returns the seconds spent training and a digest of
  what it built, so repeated set-ups can be checked for determinism;
* ``iterate(it)`` — makes the timed calls through ``it.call`` and hands the
  outputs to ``it.check_scores`` / ``it.check_quality``;
* ``frozen_inputs()`` / ``alt_vars_model()`` — the frozen model and inputs
  the traced run uses for its threads and growth measurements.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from comet import cli, data, evaluation, scoring, train, tta
from comet.config import RunConfig, TrainConfig

# acceptance criterion 7's detection floors
AUC_FLOOR = 0.90
F1_K0_FLOOR = 0.80


class CheckFailed(Exception):
    """An output of a timed call failed its check."""


def digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def checkpoint_digest(ckpt) -> str:
    arrays = ckpt.state.named_arrays()
    bank = [a for bs in ckpt.bank.scales for a in (bs.vectors, bs.local_scales)]
    return digest_arrays(*(arrays[k] for k in sorted(arrays)), *bank)


def check_scores(mem, quant, score, length: int) -> str:
    """Scores are finite with one value per timestep; returns their digest."""
    for name, arr in (("mem", mem), ("quant", quant), ("score", score)):
        arr = np.asarray(arr)
        if arr.shape != (length,):
            raise CheckFailed(f"{name} scores shaped {arr.shape}, expected ({length},)")
        if not np.all(np.isfinite(arr)):
            raise CheckFailed(f"{name} scores contain {int(np.sum(~np.isfinite(arr)))} "
                              f"non-finite values")
    return digest_arrays(mem, quant, score)


class Iteration:
    """The timed calls of one pass over a workload and their checked outputs."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times: dict[str, float] = {}  # seconds of each timed call
        self.digests: dict[str, str] = {}
        self.report = None
        self.extra: dict[str, float] = {}
        self.attempted = 0

    def call(self, op: str, fn, *args, **kwargs):
        """Time one call ``fn(*args, **kwargs)`` as the timed call ``op``."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin(op)
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.times[op] = time.perf_counter() - start
        return result

    def check_scores(self, op, mem, quant, score, length):
        self.digests[op] = check_scores(mem, quant, score, length)

    def check_quality(self, report, floors: bool):
        values = (report.auc_roc, report.auc_pr, report.f1_k0, report.f1_k100)
        if not all(math.isfinite(v) and v > 0 for v in values):
            raise CheckFailed(f"quality metrics not finite and positive: {values}")
        if floors and (report.auc_roc < AUC_FLOOR or report.f1_k0 < F1_K0_FLOOR):
            raise CheckFailed(f"below the detection floors: auc_roc={report.auc_roc} "
                              f"f1_k0={report.f1_k0}")
        self.report = report

    @property
    def wall(self) -> float:
        return sum(self.times.values())


@dataclass
class Setup:
    train_s: float | None  # seconds spent in training, when set-up trains
    digest: str


class Workload:
    name: str
    why: str
    main_score_op: str   # the timed call that makes the main scores
    floors: bool         # whether the detection floors apply
    config: RunConfig

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    def base_spec(self) -> data.SyntheticSpec:
        raise NotImplementedError

    def spec(self, n_vars: int | None = None) -> data.SyntheticSpec:
        """The workload's corpus; a small copy of it for the self-test."""
        spec = self.base_spec()
        spec.seed = self.seed
        if n_vars is not None:
            spec.n_vars = n_vars
        if self.tiny:
            spec.train_length = min(spec.train_length, 800)
            spec.test_length = min(spec.test_length, 1000)
            spec.anomalies = [a for a in spec.anomalies
                              if a.span()[1] <= spec.test_length]
        return spec

    @property
    def train_work(self) -> int:
        """Training timesteps × epochs of one training call."""
        return self.spec().train_length * self.config.train.epochs

    @property
    def score_steps(self) -> int:
        return self.spec().test_length

    def alt_vars_model(self, n_vars: int):
        """A model of the same config for ``n_vars`` variables, trained 1 epoch."""
        ds = data.standardize(data.synthesize(self.spec(n_vars)))
        cfg = RunConfig.from_dict(self.config.to_dict())
        cfg.train.epochs = 1
        ckpt = train.train(ds.train.values, cfg)
        return ckpt.state, ckpt.bank, ds.test.values, cfg


class TrainDefault(Workload):
    """Training throughput on the demo corpus, then frozen scoring and eval."""

    name = "train-default"
    why = ("training throughput: nearest-entry search and backward over "
           "whole-epoch batches; no adaptation, little eval work")
    main_score_op = "score"
    floors = True

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        super().__init__(seed, workdir, tiny)
        self.config = RunConfig(train=TrainConfig(epochs=1 if tiny else 2,
                                                  batch_size=128))
        self.config.validate()

    def base_spec(self):
        return cli.default_synthetic_spec()

    def setup(self) -> Setup:
        self.dataset = data.standardize(data.synthesize(self.spec()))
        return Setup(None, digest_arrays(self.dataset.train.values,
                                         self.dataset.test.values))

    def iterate(self, it):
        test = self.dataset.test
        ckpt = it.call("train", train.train, self.dataset.train.values, self.config)
        it.digests["train"] = checkpoint_digest(ckpt)
        scores = it.call("score", scoring.score_series, ckpt.state, ckpt.bank,
                         test.values, self.config, labels=test.labels)
        it.check_scores("score", scores.mem, scores.quant, scores.score, test.length)
        report = it.call("eval", evaluation.evaluate, scores.score, test.labels)
        it.check_quality(report, self.floors)
        self.ckpt = ckpt

    def frozen_inputs(self):
        test = self.dataset.test
        return self.ckpt.state, self.ckpt.bank, test.values, test.labels, self.config


class ScoreLong(Workload):
    """The frozen batch job through the user's CLI on a long test split."""

    name = "score-long"
    why = ("frozen CLI score and eval on a long split: O(T*U) eval sweep, "
           "per-window overhead and file I/O; no backward or adaptation")
    main_score_op = "score"
    floors = True

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        super().__init__(seed, workdir, tiny)
        self.config = RunConfig(train=TrainConfig(epochs=1 if tiny else 2))
        self.config.validate()
        self.train_csv = workdir / "train.csv"
        self.test_csv = workdir / "test.csv"
        self.config_json = workdir / "config.json"
        self.ckpt_path = workdir / "model.ckpt"
        self.scores_csv = workdir / "scores.csv"

    def base_spec(self):
        """2 vars, 4000 train / 8000 test steps, two anomalies per 1000 steps."""
        anomalies = []
        for block in range(8):
            anomalies.append(data.AnomalySpec("collective", block * 1000 + 100, 200, 6.0))
            anomalies.append(data.AnomalySpec("point", block * 1000 + 650, 1, 7.0))
        return data.SyntheticSpec(n_vars=2, train_length=4000, test_length=8000,
                                  noise_level=0.1, anomalies=anomalies)

    def setup(self) -> Setup:
        dataset = data.synthesize(self.spec())
        data.write_csv(self.train_csv, dataset.train)
        data.write_csv(self.test_csv, dataset.test, label_column="label")
        self.config_json.write_text(json.dumps(self.config.to_dict()))
        start = time.perf_counter()
        code, _ = _cli(["train", "--data", str(self.train_csv), "--out",
                        str(self.ckpt_path), "--config", str(self.config_json)])
        train_s = time.perf_counter() - start
        if code != 0:
            raise CheckFailed(f"comet train exited {code}")
        return Setup(train_s, hashlib.sha256(self.ckpt_path.read_bytes()).hexdigest())

    def iterate(self, it):
        code, _ = it.call("score", _cli, [
            "score", "--checkpoint", str(self.ckpt_path), "--data",
            str(self.test_csv), "--out", str(self.scores_csv), "--tta", "off"])
        if code != 0:
            raise CheckFailed(f"comet score exited {code}")
        # columns index, mem, quant, score, label after two comments and a header
        table = np.loadtxt(self.scores_csv, delimiter=",", skiprows=3, ndmin=2)
        if table.shape[1] != 5:
            raise CheckFailed(f"score file has {table.shape[1]} columns, expected 5")
        it.check_scores("score", table[:, 1], table[:, 2], table[:, 3],
                        self.score_steps)
        code, out = it.call("eval", _cli, ["eval", "--data", str(self.scores_csv)])
        if code != 0:
            raise CheckFailed(f"comet eval exited {code}")
        it.check_quality(_parse_report(out), self.floors)

    def frozen_inputs(self):
        ckpt = train.load_checkpoint(self.ckpt_path)
        series = data.load_csv(self.test_csv, label_column="label")
        values = data.apply_standardization(series.values, ckpt.norm_mean,
                                            ckpt.norm_std, ckpt.config.eps)
        return ckpt.state, ckpt.bank, values, series.labels, ckpt.config


class StreamDrift(Workload):
    """Frozen scoring and the adaptive stream on a drifting 4-variable split."""

    name = "stream-drift"
    why = ("adaptive stream under drift with a small codebook: contrastive "
           "loss, backward and per-batch coreset refresh; one window per search")
    main_score_op = "stream"
    floors = False  # adaptation under this drift lowers AUC: a recorded finding

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        super().__init__(seed, workdir, tiny)
        self.config = RunConfig(
            embed_dim=32, core_dim=16, codebook_size=64,
            train=TrainConfig(epochs=2 if tiny else 10, batch_size=8,
                              learning_rate=1e-3, seed=42),
        )
        self.config.validate()
        self.tta_config = RunConfig.from_dict(self.config.to_dict())
        self.tta_config.tta.enabled = True

    def base_spec(self):
        """4 vars, 4000 train / 6000 test steps, +2 sigma drift, anomalies every 2000."""
        anomalies = [data.AnomalySpec(a.kind, a.start + shift, a.duration, a.magnitude)
                     for shift in (0, 2000, 4000)
                     for a in cli.default_synthetic_spec().anomalies]
        return data.SyntheticSpec(n_vars=4, train_length=4000, test_length=6000,
                                  noise_level=0.1, drift_sigma=2.0,
                                  anomalies=anomalies)

    def setup(self) -> Setup:
        self.dataset = data.standardize(data.synthesize(self.spec()))
        return Setup(None, digest_arrays(self.dataset.train.values,
                                         self.dataset.test.values))

    def iterate(self, it):
        test = self.dataset.test
        ckpt = it.call("train", train.train, self.dataset.train.values, self.config)
        it.digests["train"] = checkpoint_digest(ckpt)
        frozen = it.call("score", scoring.score_series, ckpt.state, ckpt.bank,
                         test.values, self.config, labels=test.labels)
        it.check_scores("score", frozen.mem, frozen.quant, frozen.score, test.length)
        # the stream adapts the state it is given, so it gets a copy
        adapted = it.call("stream", tta.stream_series, test.values, ckpt.state.copy(),
                          ckpt.bank, ckpt.activations, self.tta_config,
                          labels=test.labels)
        it.check_scores("stream", adapted.mem, adapted.quant, adapted.score,
                        test.length)
        frozen_report = it.call("eval_frozen", evaluation.evaluate, frozen.score,
                                test.labels)
        report = it.call("eval", evaluation.evaluate, adapted.score, test.labels)
        it.check_quality(report, self.floors)
        it.extra["tta_gain_auc"] = report.auc_roc - frozen_report.auc_roc
        it.extra["frozen_score_tps"] = test.length / it.times["score"]
        self.ckpt = ckpt

    def frozen_inputs(self):
        test = self.dataset.test
        return self.ckpt.state, self.ckpt.bank, test.values, test.labels, self.config


WORKLOADS = {w.name: w for w in (TrainDefault, ScoreLong, StreamDrift)}


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run the comet CLI in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _parse_report(text: str) -> evaluation.MetricReport:
    values = {}
    for line in text.splitlines():
        key, sep, val = line.partition("=")
        if sep:
            values[key.strip()] = float(val)
    try:
        return evaluation.MetricReport(**values)
    except TypeError as exc:
        raise CheckFailed(f"unexpected eval output: {exc}") from None
