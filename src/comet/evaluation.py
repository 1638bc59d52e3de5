"""Detection metrics: point-adjusted F1, best-F1 threshold search, AUC-ROC/PR.

Point adjustment (the PA%K protocol): a maximal contiguous run of label-1
timesteps counts as fully detected when the fraction of predicted points in
it strictly exceeds K percent, in which case every prediction inside the run
is set to 1. K=0 is the classic lenient variant (any single detection adjusts
the whole segment); K=100 never adjusts and equals the raw point-wise metric.

Every metric sweeps one stable descending sort of the scores, predicting
score >= t at each unique score t. Best F1 is exact: a segment is adjusted at
t iff its c-th largest score is >= t, c being the least hit count that passes
the PA%K test, so F1 at all thresholds follows from cumulative counts. AUC-ROC
uses the rank statistic with averaged ties; AUC-PR step-wise interpolation."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import MetricError, ShapeError


def _check_pair(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels).reshape(-1)
    if s.size != y.size:
        raise ShapeError(f"scores ({s.size}) and labels ({y.size}) differ in length")
    bad = np.flatnonzero(~np.isfinite(s))
    if bad.size:
        raise MetricError(f"score at index {bad[0]} is not finite ({s[bad[0]]})")
    if not np.all(np.isin(y, (0, 1))):
        raise MetricError("labels must be binary 0/1")
    return s, y.astype(np.int64)


def _adjusts(count, n, k_percent: float):
    """The PA%K test: a segment of length n with count hits is adjusted."""
    return count / n * 100.0 > k_percent


def _descending(s: np.ndarray, y: np.ndarray):
    """Stable descending order, the last sorted position of each tie group,
    and the label-1 count at or above each group's score."""
    order = np.argsort(-s, kind="stable")
    last = np.append(np.flatnonzero(np.diff(s[order])), s.size - 1)
    return order, last, np.cumsum(y[order])[last]


def label_segments(labels: np.ndarray) -> list[tuple[int, int]]:
    """Half-open [start, end) spans of maximal contiguous label-1 runs."""
    y = np.asarray(labels).astype(np.int64)
    padded = np.concatenate([[0], y, [0]])
    diff = np.diff(padded)
    starts = np.nonzero(diff == 1)[0]
    ends = np.nonzero(diff == -1)[0]
    return list(zip(starts.tolist(), ends.tolist()))


def point_adjust(preds: np.ndarray, labels: np.ndarray, k_percent: float) -> np.ndarray:
    """Apply PA%K adjustment to binary predictions; returns a new array."""
    p = np.asarray(preds).astype(np.int64).reshape(-1)
    y = np.asarray(labels).astype(np.int64).reshape(-1)
    if p.size != y.size:
        raise ShapeError(f"preds ({p.size}) and labels ({y.size}) differ in length")
    out = p.copy()
    for start, end in label_segments(y):
        if _adjusts(p[start:end].sum(), end - start, k_percent):
            out[start:end] = 1
    return out


def best_f1(scores, labels, k_percent: float) -> tuple[float, float]:
    """Best point-adjusted F1 over every unique score; returns (f1, threshold).

    Ties in F1 resolve to the lowest threshold.
    """
    s, y = _check_pair(scores, labels)
    if not 0.0 <= k_percent <= 100.0:
        raise MetricError(f"k_percent must lie in [0, 100], got {k_percent}")
    n_pos = int(y.sum())
    if n_pos == 0:
        raise MetricError("best_f1 undefined without any positive label")
    order, last, tp_raw = _descending(s, y)
    thresholds = s[order][last]
    fp = last + 1 - tp_raw
    # label-1 points grouped by segment, descending score within each
    segment = np.cumsum(np.diff(y, prepend=0) == 1) - 1
    ranked = order[y[order] == 1]
    ranked = ranked[np.argsort(segment[ranked], kind="stable")]
    lengths = np.bincount(segment[ranked])
    offsets = np.cumsum(lengths) - lengths
    rank = np.arange(1, n_pos + 1) - np.repeat(offsets, lengths)
    passing = _adjusts(rank, np.repeat(lengths, lengths), k_percent)
    # each segment's c-th largest score (-inf if no count passes): after
    # adjustment a label-1 point is predicted at t iff it or this is >= t
    detect = np.maximum.reduceat(np.where(passing, s[ranked], -np.inf), offsets)
    effective = np.sort(np.maximum(s[ranked], np.repeat(detect, lengths)))
    tp = n_pos - np.searchsorted(effective, thresholds)
    f1 = 2.0 * tp / (2 * tp + fp + (n_pos - tp))
    best = f1.size - 1 - int(np.argmax(f1[::-1]))
    return float(f1[best]), float(thresholds[best])


def auc_roc(scores, labels) -> float:
    """Area under the ROC curve via the rank statistic (ties averaged)."""
    s, y = _check_pair(scores, labels)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("auc_roc needs both classes present")
    order, last, _ = _descending(s, y)
    first = np.append(0, last[:-1] + 1)
    # a tie group at descending positions first..last spans ascending i..j
    # with i + j = 2(T-1) - first - last; its average 1-based rank
    group_rank = 0.5 * (2 * (s.size - 1) - first - last) + 1.0
    ranks = np.empty(s.size, dtype=np.float64)
    ranks[order] = np.repeat(group_rank, last - first + 1)
    pos_rank_sum = float(ranks[y == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc_pr(scores, labels) -> float:
    """Area under the precision-recall curve, step-wise interpolation."""
    s, y = _check_pair(scores, labels)
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == y.size:
        raise MetricError("auc_pr needs both classes present")
    _, last, tp = _descending(s, y)
    precision = tp / (last + 1)
    recall = tp / n_pos
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev_recall) * precision))


@dataclass
class MetricReport:
    f1_k0: float
    f1_k100: float
    auc_roc: float
    auc_pr: float
    threshold_k0: float
    threshold_k100: float

    def lines(self) -> list[str]:
        return [f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)]


def evaluate(scores, labels) -> MetricReport:
    """All reported metrics for one scored series."""
    f1_0, th_0 = best_f1(scores, labels, 0.0)
    f1_100, th_100 = best_f1(scores, labels, 100.0)
    return MetricReport(f1_k0=f1_0, f1_k100=f1_100, auc_roc=auc_roc(scores, labels),
                        auc_pr=auc_pr(scores, labels), threshold_k0=th_0,
                        threshold_k100=th_100)
