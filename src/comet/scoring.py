"""Per-timestep anomaly scores from a model state and memory bank.

Two complementary streams are computed per window:

* memory score — mean local-scaling distance from each quantized embedding to
  its nearest same-scale bank entries, averaged over scales. The local-scaling
  distance divides the squared Euclidean distance by the mean of the two
  endpoints' local density scales, so dense regions stay sensitive to small
  deviations while sparse regions tolerate larger ones.
* quantization score — plain (unsquared) Euclidean norm of the encoder-output
  to nearest-entry residual, averaged over scales.

Patch-level scores spread uniformly over each patch's timestep span (means
over overlapping patches); per-variable score matrices then pass through
deviation-based variable selection, EMA min-max normalization (a strictly
ordered fold over windows), and the final weighted mix. score_windows is the
one driver, frozen or adaptive: per batch of windows it raw-scores the windows
in forward groups (one encode and one nearest-entry search per scale per
group), selects variables once over the batch's stacked raw scores, yields the
batch's windows finalized in order, then runs the optional adaptation step. A
frozen batch is whole groups whose raw scores fit in ndmath.GROUP_BYTES, an
adaptive one tta.windows_per_batch windows; the driver keeps no yielded
window, and score_series and tta.stream_series merge each one at once, so
beside the series' window views and the merged scores every scoring path holds
one batch, whatever the series length. A window's frozen scores depend on
neither its group (see model.encode), its batch nor the series length. Scores
of overlapping inference windows merge by arithmetic mean.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from . import ndmath  # GROUP_BYTES read at call time
from .config import RunConfig, SelectionConfig
from .errors import DataError, NumericError, ShapeError
from .model import ModelState, ScaleForward, forward, group_size, window_groups
from .patching import CoverageMap, coverage
from .ndmath import pairwise_sq_dists, sorted_median
from .vq import BankScale, MemoryBank
from .vq import nearest_entries  # noqa: F401  bench/test_bench.py traces this second binding


def local_scaling_distance(query: np.ndarray, entry: np.ndarray,
                           query_scale: float, entry_scale: float,
                           eps: float = 1e-8) -> float:
    """Squared distance normalized by the averaged local scales of both ends."""
    diff = np.asarray(query, dtype=np.float64) - np.asarray(entry, dtype=np.float64)
    return float(diff @ diff) / ((query_scale + entry_scale) / 2.0 + eps)


def query_local_scale(sq_dists_to_bank: np.ndarray, n_density: int) -> float:
    """Median squared distance to the nearest bank entries (all, if fewer)."""
    d = np.sort(np.asarray(sq_dists_to_bank, dtype=np.float64))
    k = min(n_density, d.size)
    return float(np.median(d[:k]))


def memory_scores_for_queries(queries: np.ndarray, bank_scale: BankScale,
                              n_neighbors: int, n_density: int, eps: float,
                              use_local_scaling: bool = True) -> np.ndarray:
    """Memory score of each query against one scale's bank entries.

    queries: (Q, d). Returns (Q,). For every query the n_neighbors nearest
    bank entries contribute either their local-scaling distance or, with
    use_local_scaling off, their raw squared distance.
    """
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2:
        raise ShapeError("queries must be 2-D (n_queries, dim)")
    n_bank = bank_scale.vectors.shape[0]
    d2 = pairwise_sq_dists(q, bank_scale.vectors)
    order = np.argsort(d2, axis=1, kind="stable")
    sorted_d2 = np.take_along_axis(d2, order, axis=1)
    n_use = min(n_neighbors, n_bank)
    if not use_local_scaling:
        return sorted_d2[:, :n_use].mean(axis=1)
    k_dens = min(n_density, n_bank)
    sigma_q = sorted_median(sorted_d2, k_dens)
    neighbor_scales = bank_scale.local_scales[order[:, :n_use]]
    d_local = sorted_d2[:, :n_use] / ((sigma_q[:, None] + neighbor_scales) / 2.0 + eps)
    return d_local.mean(axis=1)


def select_variables(scores: np.ndarray, cfg: SelectionConfig,
                     eps: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Deviation-based variable selection over (..., n_vars, T) score matrices.

    Standardizes each variable's scores over time and, per position, keeps the
    variables with the smallest absolute deviations: either those at or below
    the configured percentile of the position's deviations, or a fixed budget
    of the most stable ones. Variable 0 is always kept. Returns the selected
    mean per position, (..., T), and the boolean selection mask. Leading axes
    are independent matrices; a stack gives each matrix's bits alone.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim < 2:
        raise ShapeError("scores must be (..., n_vars, n_positions)")
    mu = s.mean(axis=-1, keepdims=True)
    sd = s.std(axis=-1, keepdims=True)
    dev = np.abs((s - mu) / (sd + eps))
    # a constant row deviates by exactly 0, however np.mean rounds its mean
    dev[np.ptp(s, axis=-1) == 0] = 0.0
    if cfg.mode == "percentile":
        mask = dev <= np.percentile(dev, cfg.percentile, axis=-2)[..., None, :]
    else:
        mask = np.zeros_like(s, dtype=bool)
        keep = min(cfg.budget, s.shape[-2])
        if keep > 1:
            order = np.argsort(dev[..., 1:, :], axis=-2, kind="stable")[..., : keep - 1, :] + 1
            np.put_along_axis(mask, order, True, axis=-2)
    mask[..., 0, :] = True
    agg = np.where(mask, s, 0.0).sum(axis=-2) / mask.sum(axis=-2)
    return agg, mask


@dataclass
class EmaState:
    """Running min/max for one score stream, seeded by the first window."""

    momentum: float
    mu_min: float = 0.0
    mu_max: float = 0.0
    initialized: bool = False


def ema_normalize(scores: np.ndarray, state: EmaState, eps: float = 1e-8) -> np.ndarray:
    """Normalize one window's scores by EMA-tracked min/max; updates state."""
    s = np.asarray(scores, dtype=np.float64)
    if s.size == 0:
        raise DataError("cannot normalize an empty window")
    bad = np.flatnonzero(~np.isfinite(s))
    if bad.size:
        raise NumericError(f"window score at offset {bad[0]} is not finite ({s[bad[0]]})")
    lo, hi = float(s.min()), float(s.max())
    if not state.initialized:
        state.mu_min, state.mu_max = lo, hi
        state.initialized = True
    else:
        state.mu_min = state.momentum * state.mu_min + (1.0 - state.momentum) * lo
        state.mu_max = state.momentum * state.mu_max + (1.0 - state.momentum) * hi
    return (s - state.mu_min) / (state.mu_max - state.mu_min + eps)


def aggregate(mem_scores: np.ndarray, quant_scores: np.ndarray, mix: float) -> np.ndarray:
    """Weighted mix of the normalized streams: (1-mix)*memory + mix*quantization."""
    m = np.asarray(mem_scores, dtype=np.float64)
    q = np.asarray(quant_scores, dtype=np.float64)
    if m.shape != q.shape:
        raise ShapeError(f"score streams differ in shape: {m.shape} vs {q.shape}")
    return (1.0 - mix) * m + mix * q


@dataclass
class WindowScores:
    """Finalized scores of one window (length W each)."""

    offset: int
    mem: np.ndarray
    quant: np.ndarray
    combined: np.ndarray


@dataclass
class ScoreSeries:
    """Per-timestep scores aligned to the scored series."""

    mem: np.ndarray
    quant: np.ndarray
    score: np.ndarray
    labels: np.ndarray | None = None


class Scorer:
    """Stateful window-by-window scoring pipeline.

    Raw per-window scores and their variable selection are pure functions of
    (model, bank, window), whatever group or stack the window is scored in;
    finalization (EMA fold, mix) is a strictly ordered fold and must see
    windows in temporal order. set_model swaps the model state and bank
    between windows (test-time adaptation) and rebuilds the per-entry memory
    scores with them.
    """

    def __init__(self, state: ModelState, bank: MemoryBank, config: RunConfig):
        config.validate()  # the one config check on every scoring path
        self.config = config
        self.coverages: list[CoverageMap] = [
            coverage(sc, config.window_length) for sc in config.scales
        ]
        self.ema_mem = EmaState(momentum=config.ema_momentum)
        self.ema_quant = EmaState(momentum=config.ema_momentum)
        self.set_model(state, bank)

    def set_model(self, state: ModelState, bank: MemoryBank):
        """Score with this model and bank from the next window on.

        Builds the memory score of every codebook entry, per scale: queries
        are always codebook rows, so a memory score depends only on the
        quantization index.
        """
        cfg = self.config
        self.state = state
        self.entry_scores = [
            memory_scores_for_queries(cb, bank.scales[k], cfg.n_neighbors,
                                      cfg.n_density, cfg.eps, cfg.use_local_scaling)
            for k, cb in enumerate(state.codebooks)
        ]

    def raw_window_scores(self, windows: np.ndarray) -> tuple[list[ScaleForward], np.ndarray]:
        """Forward records and raw scores of a (G, length, n_vars) stack, one forward.

        The raw scores are (2, G, n_vars, W): the memory stream, then the
        quantization stream, of each of the G windows.
        """
        cfg, n_vars = self.config, self.state.n_vars
        for w in windows:
            if np.shape(w) != (cfg.window_length, n_vars):
                raise ShapeError(f"window shape {np.shape(w)} != configured "
                                 f"({cfg.window_length}, {n_vars})")
        group = np.asarray(windows, dtype=np.float64)
        records = forward(self.state, group, cfg.scales)
        raw = np.zeros((2, len(group), n_vars, cfg.window_length))
        for k, fwd in enumerate(records):
            residual = np.linalg.norm(fwd.embeddings - fwd.quantized, axis=2)  # (n_vars, G*N)
            streams = np.stack([self.entry_scores[k][fwd.indices], residual])
            # (2, G, n_vars, N): each window's patch scores spread on their own
            raw += self.coverages[k].spread(
                streams.reshape(2, n_vars, len(group), -1).transpose(0, 2, 1, 3))
        raw /= len(cfg.scales)
        return records, raw

    def finalize_window(self, offset: int, mem: np.ndarray,
                        quant: np.ndarray) -> WindowScores:
        """Normalization and mixing of one window's selected streams; advances the EMA fold."""
        cfg = self.config
        if cfg.use_normalization:
            mem = ema_normalize(mem, self.ema_mem, cfg.eps)
            quant = ema_normalize(quant, self.ema_quant, cfg.eps)
        return WindowScores(offset=offset, mem=mem, quant=quant,
                            combined=aggregate(mem, quant, cfg.score_mix))


def score_windows(scorer: Scorer, windows: list[np.ndarray], offsets: list[int],
                  adapt: Callable | None = None) -> Iterator[WindowScores]:
    """The one scoring loop, frozen or adaptive; windows in temporal order.

    Per batch: raw-score the windows in the forward groups of
    model.window_groups, select variables once over the batch's stacked raw
    scores, yield the batch's windows finalized in order, then call
    adapt(batch, records) with the batch's forward records. adapt may update
    scorer.state in place and returns the bank scorer.set_model installs for
    the next batch (tta.adapter). With adapt a batch is tta.windows_per_batch
    windows; without, it is as many whole groups as keep its float64 raw
    scores within ndmath.GROUP_BYTES, at least one, and keeps no records. A
    generator: it checks its arguments and scores as it is iterated.
    """
    if len(windows) != len(offsets):
        raise ShapeError("windows and offsets differ in length")
    if any(b <= a for a, b in zip(offsets, offsets[1:])):
        raise DataError("window offsets must be strictly increasing")
    cfg = scorer.config
    n_vars = scorer.state.n_vars
    size = group_size(n_vars, cfg)
    per_batch = max(1, ndmath.GROUP_BYTES // (16 * n_vars * cfg.window_length * size))
    step = size * per_batch if adapt is None else cfg.tta.windows_per_batch
    for start in range(0, len(windows), step):
        batch = windows[start : start + step]
        records = []
        raw = np.empty((2, len(batch), n_vars, cfg.window_length))
        for i, group in enumerate(window_groups(batch, n_vars, cfg)):
            fwd, raw[:, i * size : (i + 1) * size] = scorer.raw_window_scores(group)
            if adapt is not None:
                records.append(fwd)
            del fwd  # free this group's records before the next forward
        if cfg.use_variable_selection:
            mem, quant = select_variables(raw, cfg.selection, cfg.eps)[0]
        else:
            mem, quant = raw.mean(axis=-2)
        for off, m, q in zip(offsets[start : start + step], mem, quant):
            yield scorer.finalize_window(off, m, q)
        if adapt is not None:
            scorer.set_model(scorer.state, adapt(batch, records))


def merge_window_scores(window_scores: Iterable[WindowScores], total_length: int,
                        labels: np.ndarray | None = None) -> ScoreSeries:
    """Average overlapping windows' scores into one per-timestep series."""
    acc = np.zeros((3, total_length))
    counts = np.zeros(total_length)
    for ws in window_scores:
        span = slice(ws.offset, ws.offset + ws.combined.size)
        acc[0, span] += ws.mem
        acc[1, span] += ws.quant
        acc[2, span] += ws.combined
        counts[span] += 1.0
    if np.any(counts == 0):
        raise DataError("window set does not cover every timestep")
    acc /= counts
    return ScoreSeries(mem=acc[0], quant=acc[1], score=acc[2], labels=labels)


def score_series(state: ModelState, bank: MemoryBank, series: np.ndarray,
                 config: RunConfig, labels: np.ndarray | None = None) -> ScoreSeries:
    """Frozen-model batch scoring of a full series, each window merged as it is scored."""
    wins, offsets = data_mod.windows(series, config.window_length, config.window_stride)
    per_window = score_windows(Scorer(state, bank, config), wins, list(offsets))
    return merge_window_scores(per_window, len(series), labels)
