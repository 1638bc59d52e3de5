"""Two-phase training and checkpoint persistence.

Phase 1 minimizes the mean total loss — reconstruction plus weighted codebook
and commitment terms — with AdamW over shuffled window batches. Every window
goes through the shared model.forward pass and the model.vq_objective loss
body (a mask of ones; each patch weighted 1/(B*S*V*N)). Phase 2 re-passes
every training window through the same forward, records which codebook
entries each scale activates, and builds the coreset memory bank with
per-entry local scales.

Checkpoints are a single binary file: a magic string, an 8-byte header
length, a canonical JSON header (format version, config, activation sets,
array manifest), then the raw little-endian float64 payload of every array.
Round trips are bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from .config import RunConfig
from .errors import (CheckpointFormatError, CheckpointVersionError, ConfigError,
                     DataError, ShapeError)
from .model import ModelState, forward, init_model_state, vq_objective, vq_terms
from .ndmath import AdamW, Rng
from .vq import ActivationSet, MemoryBank, BankScale, build_memory_bank

CHECKPOINT_MAGIC = b"COMETCKPT\n"
CHECKPOINT_VERSION = 1
HEADER_KEYS = ("config", "n_vars", "n_density", "activations", "bank_ids", "arrays")


@dataclass
class LossReport:
    rec: float
    cb: float
    cm: float

    @property
    def total(self) -> float:
        return self.rec + self.cb + self.cm


def batch_loss_and_grads(state: ModelState, windows: list[np.ndarray],
                         config: RunConfig) -> tuple[LossReport, dict[str, np.ndarray]]:
    """Mean total loss over a window batch plus gradients for every array.

    Per window the loss averages per-patch terms within each scale and then
    averages across scales; the batch loss is the mean over windows.
    """
    n_windows = len(windows)
    if n_windows == 0:
        raise DataError("empty window batch")
    n_scales = len(config.scales)
    grads = {name: np.zeros_like(arr) for name, arr in state.named_arrays().items()}
    rec_sum = cb_sum = 0.0
    for window in windows:
        for k, fwd in enumerate(forward(state, window, config.scales)):
            weight = 1.0 / (n_windows * n_scales * fwd.indices.size)
            obj = vq_objective(fwd, state.params[k], weight, 1.0,
                               config.alpha, config.beta)
            obj.add_to(grads, k)
            rec_sum += weight * obj.rec_sq
            cb_sum += weight * obj.gap_sq
    report = LossReport(rec=rec_sum, cb=config.alpha * cb_sum, cm=config.beta * cb_sum)
    return report, grads


def batch_loss(state: ModelState, windows: list[np.ndarray],
               config: RunConfig) -> LossReport:
    """Forward-only loss of a window batch (validation reporting)."""
    n_windows = len(windows)
    n_scales = len(config.scales)
    rec_sum = cb_sum = 0.0
    for window in windows:
        for k, fwd in enumerate(forward(state, window, config.scales)):
            weight = 1.0 / (n_windows * n_scales * fwd.indices.size)
            rec_sq, gap_sq, _, _ = vq_terms(fwd, state.params[k])
            rec_sum += weight * rec_sq
            cb_sum += weight * gap_sq
    return LossReport(rec=rec_sum, cb=config.alpha * cb_sum, cm=config.beta * cb_sum)


def collect_activations(state: ModelState, windows: list[np.ndarray],
                        config: RunConfig) -> ActivationSet:
    """Record which codebook entries the windows quantize to, per scale."""
    activations = ActivationSet(len(config.scales))
    for window in windows:
        for k, fwd in enumerate(forward(state, window, config.scales)):
            activations.record_many(k, fwd.indices)
    return activations


@dataclass
class Checkpoint:
    config: RunConfig
    state: ModelState
    activations: ActivationSet
    bank: MemoryBank
    norm_mean: np.ndarray
    norm_std: np.ndarray
    version: int = CHECKPOINT_VERSION


def train(series: np.ndarray, config: RunConfig, log=None) -> Checkpoint:
    """Train on an assumed-normal (length, n_vars) series; returns a checkpoint.

    The series should already be standardized; the checkpoint's norm_mean and
    norm_std are filled in by the caller that owns raw data (see cli.cmd_train)
    and default to identity here.
    """
    config.validate()
    s = np.asarray(series, dtype=np.float64)
    if s.ndim != 2:
        raise ShapeError("training series must be 2-D (length, n_vars)")
    wins, _ = data_mod.windows(s, config.window_length, config.window_stride)
    n_val = int(len(wins) * config.train.validation_fraction)
    train_wins = wins[: len(wins) - n_val] if n_val else wins
    val_wins = wins[len(wins) - n_val :] if n_val else []
    if not train_wins:
        raise DataError("no training windows left after the validation split")

    rng = Rng(config.train.seed)
    state = init_model_state(config, s.shape[1], rng)
    opt = AdamW(lr=config.train.learning_rate, weight_decay=config.train.weight_decay)

    for epoch in range(1, config.train.epochs + 1):
        order = rng.permutation(len(train_wins))
        rec = cb = cm = 0.0
        n_batches = 0
        for start in range(0, len(order), config.train.batch_size):
            batch = [train_wins[i] for i in order[start : start + config.train.batch_size]]
            report, grads = batch_loss_and_grads(state, batch, config)
            state.load_named_arrays(opt.step(state.named_arrays(), grads))
            rec += report.rec
            cb += report.cb
            cm += report.cm
            n_batches += 1
        if log is not None:
            line = (f"epoch={epoch} rec={rec / n_batches:.9g} "
                    f"cb={cb / n_batches:.9g} cm={cm / n_batches:.9g}")
            if val_wins:
                val = batch_loss(state, val_wins, config)
                line += f" val_total={val.total:.9g}"
            log(line)

    activations = collect_activations(state, train_wins, config)
    bank = build_memory_bank(state.codebooks, activations, config.n_density)
    n_vars = s.shape[1]
    return Checkpoint(
        config=config,
        state=state,
        activations=activations,
        bank=bank,
        norm_mean=np.zeros(n_vars),
        norm_std=np.ones(n_vars),
    )


def save_checkpoint(ckpt: Checkpoint, path):
    """Write a checkpoint; save -> load -> save is byte-identical."""
    arrays = dict(ckpt.state.named_arrays())
    arrays["norm.mean"] = ckpt.norm_mean
    arrays["norm.std"] = ckpt.norm_std
    for k, bs in enumerate(ckpt.bank.scales):
        arrays[f"bank{k}.vectors"] = bs.vectors
        arrays[f"bank{k}.local_scales"] = bs.local_scales
    names = sorted(arrays)
    header = {
        "version": ckpt.version,
        "config": ckpt.config.to_dict(),
        "n_vars": ckpt.state.n_vars,
        "n_density": ckpt.bank.n_density,
        "activations": [
            sorted(ckpt.activations.per_scale[k])
            for k in range(len(ckpt.activations.per_scale))
        ],
        "bank_ids": [bs.entry_ids.tolist() for bs in ckpt.bank.scales],
        "arrays": [{"name": n, "shape": list(arrays[n].shape)} for n in names],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for n in names:
            fh.write(np.ascontiguousarray(arrays[n], dtype="<f8").tobytes())


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint; validates format/version."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise CheckpointFormatError(f"{path}: not a checkpoint file")
    pos = len(CHECKPOINT_MAGIC)
    if len(raw) < pos + 8:
        raise CheckpointFormatError(f"{path}: truncated header length")
    hlen = int.from_bytes(raw[pos : pos + 8], "little")
    pos += 8
    if len(raw) < pos + hlen:
        raise CheckpointFormatError(f"{path}: truncated header")
    try:
        header = json.loads(raw[pos : pos + hlen].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointFormatError(f"{path}: corrupt header: {exc}") from None
    pos += hlen
    if not isinstance(header, dict):
        raise CheckpointFormatError(f"{path}: header is not a JSON object")
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version}, expected {CHECKPOINT_VERSION}"
        )
    missing = [k for k in HEADER_KEYS if k not in header]
    if missing:
        raise CheckpointFormatError(f"{path}: header lacks {', '.join(missing)}")
    try:
        config = RunConfig.from_dict(header["config"])
    except (ConfigError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: bad config: {exc}") from None

    arrays: dict[str, np.ndarray] = {}
    for meta in header["arrays"]:
        try:
            name, shape = meta["name"], tuple(int(n) for n in meta["shape"])
        except (KeyError, TypeError, ValueError):
            raise CheckpointFormatError(f"{path}: bad array entry {meta!r}") from None
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if len(raw) < pos + nbytes:
            raise CheckpointFormatError(f"{path}: truncated array payload")
        arrays[name] = np.frombuffer(
            raw[pos : pos + nbytes], dtype="<f8"
        ).reshape(shape).copy()
        if not np.isfinite(arrays[name]).all():
            raise CheckpointFormatError(f"{path}: array {name!r} has non-finite values")
        pos += nbytes
    if pos != len(raw):
        raise CheckpointFormatError(f"{path}: trailing bytes after payload")

    n_scales = len(config.scales)
    rng = Rng(config.train.seed)
    state = init_model_state(config, int(header["n_vars"]), rng)
    try:
        state.load_named_arrays(arrays)
        activations = ActivationSet(n_scales)
        for k, ids in enumerate(header["activations"]):
            for i in ids:
                activations.record(k, i)
        bank = MemoryBank(
            scales=[
                BankScale(
                    entry_ids=np.asarray(header["bank_ids"][k], dtype=np.int64),
                    vectors=arrays[f"bank{k}.vectors"],
                    local_scales=arrays[f"bank{k}.local_scales"],
                )
                for k in range(n_scales)
            ],
            n_density=int(header["n_density"]),
        )
        return Checkpoint(
            config=config,
            state=state,
            activations=activations,
            bank=bank,
            norm_mean=arrays["norm.mean"],
            norm_std=arrays["norm.std"],
            version=version,
        )
    except KeyError as exc:
        raise CheckpointFormatError(f"{path}: missing array {exc}") from None
