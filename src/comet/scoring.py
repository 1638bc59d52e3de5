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
in forward groups (one nearest-entry search per scale per group), selects
variables once over the batch's stacked raw scores, finalizes the batch in
order, then runs the optional adaptation step. So a window's frozen scores
depend on neither its group nor the series length. Scores of overlapping
inference windows merge by arithmetic mean.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from .config import RunConfig, SelectionConfig
from .errors import DataError, NumericError, ShapeError
from .model import ModelState, ScaleForward, forward, window_groups
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


def _percentile_over_variables(dev: np.ndarray, percentile: float) -> np.ndarray:
    """np.percentile(dev, percentile, axis=-2), its linear method, from one sort.

    The same bits: numpy's virtual index (n - 1) q, its neighbours and its
    lerp (numpy.lib._function_base_impl._lerp), and NaN where a slice holds
    one.
    """
    srt = np.sort(dev, axis=-2)
    n = srt.shape[-2]
    virtual = (n - 1) * (percentile / 100)
    if virtual >= n - 1:  # numpy takes index -1 on both sides, gamma from -1
        lo = hi = n - 1
        gamma = virtual + 1
    else:
        lo = math.floor(virtual)
        hi = lo + 1
        gamma = virtual - lo
    below, above = srt[..., lo, :], srt[..., hi, :]
    diff = above - below
    tau = above - diff * (1 - gamma) if gamma >= 0.5 else below + diff * gamma
    last = srt[..., -1, :]
    np.copyto(tau, last, where=np.isnan(last))
    return tau


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
    n_vars = s.shape[-2]
    mask = np.zeros_like(s, dtype=bool)
    if n_vars == 1:
        mask[:] = True
        return s[..., 0, :].copy(), mask
    mu = s.mean(axis=-1, keepdims=True)
    sd = s.std(axis=-1, keepdims=True)
    dev = np.abs((s - mu) / (sd + eps))
    # a constant row deviates by exactly 0, however np.mean rounds its mean
    dev[np.ptp(s, axis=-1) == 0] = 0.0
    if cfg.mode == "percentile":
        mask = dev <= _percentile_over_variables(dev, cfg.percentile)[..., None, :]
    else:
        keep = min(cfg.budget, n_vars)
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
    windows in temporal order. The model state and bank may be
    swapped between windows (test-time adaptation); swapping invalidates the
    per-entry memory-score cache.
    """

    def __init__(self, state: ModelState, bank: MemoryBank, config: RunConfig):
        config.validate()  # the one config check on every scoring path
        self.state = state
        self.bank = bank
        self.config = config
        self.coverages: list[CoverageMap] = [
            coverage(sc, config.window_length) for sc in config.scales
        ]
        self.ema_mem = EmaState(momentum=config.ema_momentum)
        self.ema_quant = EmaState(momentum=config.ema_momentum)
        self._entry_scores: list[np.ndarray] | None = None

    def set_model(self, state: ModelState, bank: MemoryBank):
        self.state = state
        self.bank = bank
        self._entry_scores = None

    def _entry_score_tables(self) -> list[np.ndarray]:
        # memory score of every codebook entry, per scale; queries are always
        # codebook rows, so scores depend only on the quantization index
        if self._entry_scores is None:
            cfg = self.config
            self._entry_scores = [
                memory_scores_for_queries(
                    cb, self.bank.scales[k], cfg.n_neighbors,
                    cfg.n_density, cfg.eps, cfg.use_local_scaling,
                )
                for k, cb in enumerate(self.state.codebooks)
            ]
        return self._entry_scores

    def raw_window_scores(self, windows: list[np.ndarray]
                          ) -> tuple[list[list[ScaleForward]], np.ndarray]:
        """Forward records and raw scores of a group of windows, one forward.

        The raw scores are (2, G, n_vars, W): the memory stream, then the
        quantization stream, of each of the G windows.
        """
        cfg = self.config
        group = [np.asarray(w, dtype=np.float64) for w in windows]
        for w in group:
            if w.shape[0] != cfg.window_length:
                raise ShapeError(
                    f"window length {w.shape[0]} != configured {cfg.window_length}"
                )
        records = forward(self.state, [[w] for w in group], cfg.scales)
        tables = self._entry_score_tables()
        raw = np.zeros((2, len(group), self.state.n_vars, cfg.window_length))
        for g, fwds in enumerate(records):
            for k, fwd in enumerate(fwds):
                residual = np.linalg.norm(fwd.embeddings - fwd.quantized, axis=2)  # (n_vars, N)
                raw[:, g] += self.coverages[k].spread(np.stack([tables[k][fwd.indices], residual]))
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
                  batch_size: int | None = None, adapt: Callable | None = None
                  ) -> list[WindowScores]:
    """The one scoring loop, frozen or adaptive; windows in temporal order.

    Per batch of batch_size windows (default: all of them): raw-score the
    windows in the forward groups of model.window_groups, select variables
    once over the batch's stacked raw scores, finalize the batch in order,
    then call adapt(batch, records) with the batch's forward records. Without
    adapt no records are kept.
    """
    if len(windows) != len(offsets):
        raise ShapeError("windows and offsets differ in length")
    if any(b <= a for a, b in zip(offsets, offsets[1:])):
        raise DataError("window offsets must be strictly increasing")
    cfg = scorer.config
    step = batch_size or max(len(windows), 1)
    n_vars = scorer.state.n_vars
    out: list[WindowScores] = []
    for start in range(0, len(windows), step):
        batch = windows[start : start + step]
        records = []
        raw = np.empty((2, len(batch), n_vars, cfg.window_length))
        done = 0
        for group in window_groups(batch, n_vars, cfg):
            fwd, raw[:, done : done + len(group)] = scorer.raw_window_scores(group)
            done += len(group)
            if adapt is not None:
                records += fwd
            del fwd  # free this group's records before the next forward
        if cfg.use_variable_selection:
            mem, quant = select_variables(raw, cfg.selection, cfg.eps)[0]
        else:
            mem, quant = raw.mean(axis=-2)
        out += [scorer.finalize_window(off, m, q)
                for off, m, q in zip(offsets[start : start + step], mem, quant)]
        if adapt is not None:
            adapt(batch, records)
    return out


def merge_window_scores(window_scores: list[WindowScores], total_length: int,
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
    """Frozen-model batch scoring of a full series."""
    wins, offsets = data_mod.windows(series, config.window_length, config.window_stride)
    per_window = score_windows(Scorer(state, bank, config), wins, list(offsets))
    return merge_window_scores(per_window, len(series), labels)
