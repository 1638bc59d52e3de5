"""Two-phase training and checkpoint persistence.

Phase 1 minimizes the mean total loss — reconstruction plus weighted codebook
and commitment terms — with AdamW over shuffled window batches. A batch runs
in the forward groups of model.window_groups through the shared
model.forward pass: per group and scale, one encode, one nearest-entry search
and one model.vq_objective (no mask; each patch weighted 1/(B*S*V*N)) with
its backward. So trained bits depend on the group budget (ndmath.GROUP_BYTES,
in bytes of embeddings, so the windows per group depend on the model width
and the variable count) and the batch composition, to the last bits of a
sum. Validation loss runs the same way. Phase 2 re-passes every training
window through the same forward groups and records which codebook entries
each scale activates. The coreset memory bank is a function of the codebooks
and those activations, so it is derived (Checkpoint.bank), never stored.

Checkpoints hold learned state only, in a single binary file: a magic
string, an 8-byte header length, a canonical JSON header (format version,
config, n_vars, activated entry ids per scale, array manifest), then the raw
little-endian float64 payload of every array. Round trips are bit-exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from .config import RunConfig
from .errors import (CheckpointFormatError, CheckpointVersionError, ConfigError,
                     DataError, ShapeError)
from .model import (ModelState, forward, init_model_state, model_shapes, vq_objective,
                    vq_terms, window_groups)
from .ndmath import AdamW, Rng
from .vq import MemoryBank, build_memory_bank

CHECKPOINT_MAGIC = b"COMETCKPT\n"
CHECKPOINT_VERSION = 2
HEADER_KEYS = ("version", "config", "n_vars", "activations", "arrays")


@dataclass
class LossReport:
    rec: float
    cb: float
    cm: float

    @property
    def total(self) -> float:
        return self.rec + self.cb + self.cm


def _weighted_forwards(state: ModelState, windows: list[np.ndarray], config: RunConfig):
    """(scale index, record, per-patch weight) of each forward group and scale.

    Every patch weighs 1/(B*S*V*N): a group's record holds len(group)
    windows' patches.
    """
    n_terms = len(windows) * len(config.scales)
    for group in window_groups(windows, state.n_vars, config):
        for k, fwd in enumerate(forward(state, group, config.scales)):
            yield k, fwd, len(group) / (n_terms * fwd.indices.size)


def batch_loss_and_grads(state: ModelState, windows: list[np.ndarray],
                         config: RunConfig) -> tuple[LossReport, ModelState]:
    """Mean total loss over a window batch plus its gradient, a ModelState.

    Per window the loss averages per-patch terms within each scale and then
    averages across scales; the batch loss is the mean over windows.
    """
    if not windows:
        raise DataError("empty window batch")
    grads = state.zeros()
    rec_sum = cb_sum = 0.0
    for k, fwd, weight in _weighted_forwards(state, windows, config):
        rec_sq, gap_sq = vq_objective(fwd, state.params[k], weight, None,
                                      config.alpha, config.beta,
                                      grads.params[k], grads.codebooks[k])
        rec_sum += weight * rec_sq
        cb_sum += weight * gap_sq
    report = LossReport(rec=rec_sum, cb=config.alpha * cb_sum, cm=config.beta * cb_sum)
    return report, grads


def batch_loss(state: ModelState, windows: list[np.ndarray],
               config: RunConfig) -> LossReport:
    """Forward-only loss of a window batch (validation reporting)."""
    rec_sum = cb_sum = 0.0
    for k, fwd, weight in _weighted_forwards(state, windows, config):
        rec_sq, gap_sq, _, _ = vq_terms(fwd, state.params[k])
        rec_sum += weight * rec_sq
        cb_sum += weight * gap_sq
    return LossReport(rec=rec_sum, cb=config.alpha * cb_sum, cm=config.beta * cb_sum)


def collect_activations(state: ModelState, windows: list[np.ndarray],
                        config: RunConfig) -> list[np.ndarray]:
    """Per scale, a boolean mask of the codebook entries the windows quantize to.

    The windows run in the forward groups of model.window_groups.
    """
    masks = [np.zeros(config.codebook_size, dtype=bool) for _ in config.scales]
    for group in window_groups(windows, state.n_vars, config):
        for k, fwd in enumerate(forward(state, group, config.scales)):
            masks[k][fwd.indices] = True
    return masks


@dataclass
class Checkpoint:
    config: RunConfig
    state: ModelState
    activations: list[np.ndarray]  # (codebook_size,) bool per scale
    norm_mean: np.ndarray
    norm_std: np.ndarray

    @property
    def bank(self) -> MemoryBank:
        """The coreset memory bank, derived from the codebooks and activations."""
        return build_memory_bank(self.state.codebooks, self.activations,
                                 self.config.n_density)


def train(series: np.ndarray, config: RunConfig, log=None) -> Checkpoint:
    """Train on an assumed-normal (length, n_vars) series; returns a checkpoint.

    The series should already be standardized; the checkpoint's norm_mean and
    norm_std are filled in by the caller that owns raw data (see cli.cmd_train)
    and default to identity here.
    """
    config.validate()
    s = np.asarray(series, dtype=np.float64)
    if s.ndim != 2 or s.shape[1] < 1:
        raise ShapeError("training series must be 2-D (length, n_vars) with n_vars >= 1")
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
            opt.step(state.flat, grads.flat)
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

    n_vars = s.shape[1]
    return Checkpoint(
        config=config,
        state=state,
        activations=collect_activations(state, train_wins, config),
        norm_mean=np.zeros(n_vars),
        norm_std=np.ones(n_vars),
    )


def _header(ckpt: Checkpoint) -> tuple[bytes, list[np.ndarray]]:
    """The checkpoint file's bytes up to its payload, and the payload's arrays in order."""
    arrays = dict(ckpt.state.named_arrays())
    arrays["norm.mean"] = ckpt.norm_mean
    arrays["norm.std"] = ckpt.norm_std
    names = sorted(arrays)
    header = {
        "version": CHECKPOINT_VERSION,
        "config": ckpt.config.to_dict(),
        "n_vars": ckpt.state.n_vars,
        "activations": [np.flatnonzero(mask).tolist() for mask in ckpt.activations],
        "arrays": [{"name": n, "shape": list(arrays[n].shape)} for n in names],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return (CHECKPOINT_MAGIC + len(blob).to_bytes(8, "little") + blob,
            [arrays[n] for n in names])


def save_checkpoint(ckpt: Checkpoint, path):
    """Write a checkpoint; save -> load -> save is byte-identical."""
    head, arrays = _header(ckpt)
    with open(path, "wb") as fh:
        fh.write(b"".join([head] + [np.ascontiguousarray(a, dtype="<f8").tobytes()
                                    for a in arrays]))


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint, validating all of it.

    Another format version raises CheckpointVersionError (a version 1 file
    also stored the memory bank; retrain its model). Any file that saving the
    loaded checkpoint would not reproduce byte for byte raises
    CheckpointFormatError. The payload is read verbatim into the arrays, so
    that check compares the re-serialized header and the file length.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise CheckpointFormatError(f"{path}: not a checkpoint file")
    pos = len(CHECKPOINT_MAGIC)
    hlen = int.from_bytes(raw[pos : pos + 8], "little")
    pos += 8
    if len(raw) < pos + hlen:
        raise CheckpointFormatError(f"{path}: truncated header")
    try:
        header = json.loads(raw[pos : pos + hlen].decode("utf-8"))
    except ValueError as exc:  # invalid UTF-8 or JSON
        raise CheckpointFormatError(f"{path}: corrupt header: {exc}") from None
    pos += hlen
    if not isinstance(header, dict):
        raise CheckpointFormatError(f"{path}: header is not a JSON object")
    version = header.get("version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version!r}, expected {CHECKPOINT_VERSION}; "
            f"checkpoints of other versions cannot be loaded, retrain the model"
        )
    missing = [k for k in HEADER_KEYS if k not in header]
    if missing:
        raise CheckpointFormatError(f"{path}: header lacks {', '.join(missing)}")
    unknown = sorted(set(header) - set(HEADER_KEYS))
    if unknown:
        raise CheckpointFormatError(f"{path}: unknown header keys {', '.join(unknown)}")
    try:
        config = RunConfig.from_dict(header["config"])
    except ConfigError as exc:
        raise CheckpointFormatError(f"{path}: bad config: {exc}") from None
    n_vars = header["n_vars"]
    if type(n_vars) is not int or n_vars < 1:
        raise CheckpointFormatError(f"{path}: n_vars {n_vars!r} is not a positive integer")

    # every array has the shape a model of this config has; sizes are checked
    # against the file before anything is allocated
    shapes = model_shapes(config, n_vars)
    manifest = dict(shapes, **{"norm.mean": (n_vars,), "norm.std": (n_vars,)})
    expected = [{"name": n, "shape": list(manifest[n])} for n in sorted(manifest)]
    if header["arrays"] != expected:
        declared = header["arrays"] if isinstance(header["arrays"], list) else []
        absent = [f"{e['name']} {e['shape']}" for e in expected if e not in declared]
        raise CheckpointFormatError(
            f"{path}: array manifest differs from the model's: "
            + (f"expected {', '.join(absent)}" if absent else "unknown or repeated entries"))
    if len(raw) < pos + 8 * sum(math.prod(shape) for shape in manifest.values()):
        raise CheckpointFormatError(f"{path}: truncated array payload")
    # each array is read into its view of the model's flat vector
    state = ModelState(n_vars, shapes)
    arrays = dict(state.named_arrays(), **{"norm.mean": np.empty(n_vars),
                                           "norm.std": np.empty(n_vars)})
    for name in sorted(arrays):
        nbytes = 8 * arrays[name].size
        arrays[name][...] = np.frombuffer(raw[pos : pos + nbytes], dtype="<f8").reshape(
            arrays[name].shape)
        if not np.isfinite(arrays[name]).all():
            raise CheckpointFormatError(f"{path}: array {name!r} has non-finite values")
        pos += nbytes

    # per scale, a non-empty, strictly increasing list of JSON integer entry ids
    n_scales, size = len(config.scales), config.codebook_size
    activations = [np.zeros(size, dtype=bool) for _ in range(n_scales)]
    lists = header["activations"]
    for k in range(n_scales):
        ids = lists[k] if isinstance(lists, list) and len(lists) == n_scales else None
        if not (isinstance(ids, list) and ids
                and all(type(i) is int and 0 <= i < size for i in ids)
                and all(a < b for a, b in zip(ids, ids[1:]))):
            raise CheckpointFormatError(
                f"{path}: activations must hold, for each of {n_scales} scales, a "
                f"non-empty, strictly increasing list of entry ids in [0, {size})")
        activations[k][ids] = True

    ckpt = Checkpoint(config=config, state=state, activations=activations,
                      norm_mean=arrays["norm.mean"], norm_std=arrays["norm.std"])
    head = _header(ckpt)[0]
    if raw[: len(head)] != head:
        raise CheckpointFormatError(
            f"{path}: header differs from the one save_checkpoint writes for its contents")
    if len(raw) != pos:
        raise CheckpointFormatError(f"{path}: {len(raw) - pos} bytes after the array payload")
    return ckpt
