"""Online codebook adaptation on streaming test data.

The stream is scoring.score_windows with an adaptation step after each batch
(inference-then-train), so a batch's scores never depend on its own
adaptation. The first adaptation step reuses the scoring pass's model.forward
records, since the state has not changed since scoring; later steps re-run the
forward over the same window groups. Patch embeddings whose quantization
index was activated during training are pseudo-labeled normal; the training
objective (model.vq_objective) is applied to normal patches only, through a
0/1 mask and weight 1/n_normal, while a supervised contrastive loss over cosine
similarities separates normal from abnormal embeddings across the whole batch
and enters the same objective as an extra embedding gradient. After each
update the memory bank is rebuilt from the updated codebooks with the
training activation masks, which stay frozen: test data never extends them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from .config import RunConfig
from .errors import ShapeError
from .model import ModelState, ScaleForward, forward, vq_objective, window_groups
from .model import encode  # noqa: F401  bench/test_bench.py traces this second binding
from .ndmath import REDUCTION_CHUNK, AdamW, chunked_tdot, pad_rows, row_sums_by_key
from .scoring import ScoreSeries, Scorer, WindowScores, merge_window_scores, score_windows
from .vq import MemoryBank, build_memory_bank


def pseudo_label(scale_index: int, quant_indices: np.ndarray,
                 activations: list[np.ndarray]) -> np.ndarray:
    """0 where the quantization index was activated in training, else 1."""
    return (~activations[scale_index][quant_indices]).astype(np.int64)


def contrastive_loss(embeddings: np.ndarray, labels: np.ndarray,
                     temperature: float) -> tuple[float, np.ndarray]:
    """Supervised contrastive loss over cosine similarities, with gradients.

    Positives of an anchor are the other batch members sharing its label;
    anchors without positives contribute zero. A batch of fewer than two
    embeddings has loss 0 by convention. Returns (loss, dloss/dembeddings).

    Anchors run in blocks of ndmath.REDUCTION_CHUNK, so peak memory is
    O(block * N + N * d) for N embeddings of width d. With unit vectors u,
    an anchor i of class c with n_i = |c| - 1 > 0 positives has

        loss_i = logsumexp_{j != i}(u_i . u_j / t) - u_i . (S_c - u_i) / (t n_i)

    where S_c sums the unit vectors of class c, and with P the softmax of
    those logits (rows of anchors without positives zeroed),

        dloss/du = (P u + P^T u - 2 [n_i > 0] (S_c - u_i) / n_i) / t.

    The same-class terms thus need no N x N mask. 1/t scales the anchor
    block's GEMM operand, and no block of logits is ever normalized: each
    anchor's softmax denominator and its [n_i > 0] mask form one per-row
    coefficient, applied to the two (block, d) operands of P u and P^T u.
    """
    z = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels).reshape(-1)
    if z.ndim != 2:
        raise ShapeError("embeddings must be 2-D (batch, dim)")
    if z.shape[0] != y.size:
        raise ShapeError(f"{z.shape[0]} embeddings but {y.size} labels")
    n = z.shape[0]
    if n < 2:
        return 0.0, np.zeros_like(z)

    norms = np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-12)
    unit = z / norms

    _, inverse = np.unique(y, return_inverse=True)
    counts = np.bincount(inverse)
    n_pos = counts[inverse] - 1
    active = n_pos > 0
    inv_pos = np.where(active, 1.0 / np.maximum(n_pos, 1), 0.0)
    class_sums = row_sums_by_key(inverse, unit, counts.size)
    positives = class_sums[inverse] - unit  # each anchor's sum of positives

    # zero rows pad the batch (ndmath.pad_rows); their columns get logit -inf
    # and they anchor nothing, so they add nothing
    padded = pad_rows(unit)
    n_pad = padded.shape[0]
    anchors = np.zeros(n_pad, dtype=bool)
    anchors[:n] = active

    scaled = padded / temperature
    log_denom = np.empty(n_pad)  # logsumexp over j != i of each anchor's logits
    g_unit = np.zeros_like(padded)
    for s in range(0, n_pad, REDUCTION_CHUNK):
        e = min(s + REDUCTION_CHUNK, n_pad)
        logits = scaled[s:e] @ padded.T
        np.fill_diagonal(logits[:, s:e], -np.inf)
        logits[:, n:] = -np.inf
        row_max = logits.max(axis=1, keepdims=True)
        logits -= row_max
        np.exp(logits, out=logits)  # unnormalized softmax
        denom = logits.sum(axis=1, keepdims=True)
        log_denom[s:e] = (row_max + np.log(denom))[:, 0]
        coef = anchors[s:e, None] / denom  # anchors without positives drop out
        g_unit[s:e] += coef * chunked_tdot(logits.T, padded)
        g_unit += logits.T @ (coef * padded[s:e])
    g_unit = g_unit[:n]

    pos_logits = (unit * positives).sum(axis=1) / temperature
    loss = float((log_denom[:n] - inv_pos * pos_logits)[active].sum())

    g_unit -= (2.0 * inv_pos[:, None]) * positives
    g_unit /= temperature
    # through the normalization: project out the radial component
    radial = (g_unit * unit).sum(axis=1, keepdims=True)
    g_z = (g_unit - radial * unit) / norms
    return loss, g_z


@dataclass
class TtaReport:
    normal_loss: float
    contrastive: float
    n_normal: int
    n_patches: int
    stepped: bool


def adaptation_loss_and_grads(state: ModelState, records: list[list[ScaleForward]],
                              activations: list[np.ndarray], config: RunConfig
                              ) -> tuple[TtaReport, dict[str, np.ndarray] | None]:
    """Adaptation objective over one test batch, flat over patch embeddings.

    records holds the model.forward records of every window in the batch,
    made with the current state. Returns (report, grads); grads is None when
    the objective is vacuous — no pseudo-normal patches and no usable
    contrastive term — in which case no optimizer step should be taken.
    """
    cfg = config
    gamma = cfg.tta.contrastive_weight
    labels = [[pseudo_label(k, fwd.indices, activations) for k, fwd in enumerate(fwds)]
              for fwds in records]
    flat_emb = np.concatenate([fwd.embeddings.reshape(-1, fwd.embeddings.shape[-1])
                               for fwds in records for fwd in fwds], axis=0)
    flat_lab = np.concatenate([lab.reshape(-1) for labs in labels for lab in labs], axis=0)
    n_total = flat_emb.shape[0]
    n_normal = int((flat_lab == 0).sum())

    con_loss, con_grad = 0.0, None
    if gamma > 0.0:
        loss, grad = contrastive_loss(flat_emb, flat_lab, cfg.tta.temperature)
        if np.any(grad) or loss != 0.0:
            con_loss, con_grad = loss, grad

    if n_normal == 0 and con_grad is None:
        return TtaReport(0.0, 0.0, 0, n_total, stepped=False), None

    grads = state.zeros()
    weight = 1.0 / n_normal if n_normal else 0.0
    normal_loss = 0.0
    cursor = 0
    for fwds, labs in zip(records, labels):
        for k, (fwd, lab) in enumerate(zip(fwds, labs)):
            d_extra = None
            if con_grad is not None:
                flat = con_grad[cursor : cursor + lab.size]
                d_extra = gamma * flat.reshape(fwd.embeddings.shape)
            cursor += lab.size
            mask = (lab == 0).astype(np.float64)[:, :, None]
            rec_sq, gap_sq = vq_objective(fwd, state.params[k], weight, mask,
                                          cfg.alpha, cfg.beta, grads.params[k],
                                          grads.codebooks[k], d_extra)
            normal_loss += weight * rec_sq
            normal_loss += weight * (cfg.alpha + cfg.beta) * gap_sq

    report = TtaReport(
        normal_loss=normal_loss,
        contrastive=gamma * con_loss,
        n_normal=n_normal,
        n_patches=n_total,
        stepped=True,
    )
    return report, grads.named_arrays()


def tta_step(state: ModelState, optimizer: AdamW, windows: list[np.ndarray],
             activations: list[np.ndarray], config: RunConfig,
             records: list[list[ScaleForward]] | None = None) -> TtaReport:
    """Run the configured number of adaptation steps on one scored batch.

    records, when given, are the batch's forward records under the current
    state (the scoring pass's); the first step uses them instead of
    re-running the forward.
    """
    last = TtaReport(0.0, 0.0, 0, 0, stepped=False)
    for _ in range(config.tta.steps_per_batch):
        if records is None:
            records = [rec for group in window_groups(windows, state.n_vars, config)
                       for rec in forward(state, [[w] for w in group], config.scales)]
        report, grads = adaptation_loss_and_grads(state, records, activations, config)
        last = report
        if grads is None:
            break
        optimizer.step(state.named_arrays(), grads)
        records = None
    return last


def refresh_coreset(state: ModelState, activations: list[np.ndarray],
                    n_density: int) -> MemoryBank:
    """The bank of the adapted codebooks; a named step for bench/spans.py to time."""
    return build_memory_bank(state.codebooks, activations, n_density)


def stream_windows(windows: list[np.ndarray], offsets: list[int],
                   state: ModelState, bank: MemoryBank,
                   activations: list[np.ndarray], config: RunConfig
                   ) -> list[WindowScores]:
    """scoring.score_windows with adaptation after each batch, when enabled.

    Mutates the given state; pass a copy to keep the original.
    """
    scorer = Scorer(state, bank, config)
    if not config.tta.enabled:
        return score_windows(scorer, windows, offsets)
    lr = config.tta.learning_rate
    if lr is None:
        lr = config.train.learning_rate
    optimizer = AdamW(lr=lr, weight_decay=config.train.weight_decay)

    def adapt(batch: list[np.ndarray], records: list[list[ScaleForward]]):
        tta_step(state, optimizer, batch, activations, config, records)
        scorer.set_model(state, refresh_coreset(state, activations, config.n_density))

    return score_windows(scorer, windows, offsets, config.tta.windows_per_batch, adapt)


def stream_series(series: np.ndarray, state: ModelState, bank: MemoryBank,
                  activations: list[np.ndarray], config: RunConfig,
                  labels: np.ndarray | None = None) -> ScoreSeries:
    """Scoring of a full series, adapting when tta.enabled; windows in order."""
    wins, offs = data_mod.windows(series, config.window_length, config.window_stride)
    per_window = stream_windows(wins, list(offs), state, bank, activations, config)
    return merge_window_scores(per_window, len(series), labels)
