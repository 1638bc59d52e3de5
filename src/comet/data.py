"""Dataset ingestion, standardization, windowing, and synthetic corpora.

CSV files are rectangular numeric tables with a header row, comma-delimited,
'.' decimal. A column named ``label_column``, if present, is split off as
binary labels.
Standardization always uses statistics of the training portion only; a
variable constant in training is centred only (its std is taken as 1).

The synthetic generator produces clean multivariate sine mixtures for training
and a labeled test continuation with injected anomalies:

* point — a single-timestep spike of magnitude * sigma on every variable,
* contextual — a segment mirrored around its local mean (values stay within
  the global range but break the local phase),
* collective — a sustained mean shift of magnitude * sigma over the segment.

An optional linear mean drift over the test portion exercises adaptation
under distribution shift.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .config import _check_finite, from_json
from .errors import ConfigError, DataError
from .ndmath import Rng


@dataclass
class TimeSeries:
    values: np.ndarray                 # (length, n_vars)
    labels: np.ndarray | None = None   # (length,) in {0,1}, optional
    var_names: list[str] | None = None

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def n_vars(self) -> int:
        return self.values.shape[1]


@dataclass
class Dataset:
    train: TimeSeries
    test: TimeSeries


def load_csv(path, label_column: str | None = None) -> TimeSeries:
    """Load a numeric CSV with header; parse errors name the offending row.

    The column named ``label_column``, when the header has it, is split off
    as labels. Every cell must be finite and every label 0 or 1: a bad cell
    is rejected with its row and column. A file that is not UTF-8 text, or
    whose header line is blank (no columns at all), is a DataError too. A
    table of only the label column is read for its labels.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # skips a BOM
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    if not header:
        raise DataError(f"{path}: no variable columns: the header line is blank")
    header = [h.strip() for h in header]
    label_idx = header.index(label_column) if label_column in header else None
    rows, labels = [], []
    for rownum, row in enumerate(reader, start=1):
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {rownum} has {len(row)} cells, expected {len(header)}"
            )
        try:
            vals = [float(c) for c in row]
        except ValueError as exc:
            raise DataError(f"{path}: row {rownum}: {exc}") from None
        if label_idx is not None:
            labels.append(vals.pop(label_idx))
            if labels[-1] not in (0.0, 1.0):
                raise DataError(f"{path}: row {rownum}, column {label_column!r}: "
                                f"{row[label_idx]!r} is not 0/1")
        rows.append(vals)
    if not rows:
        raise DataError(f"{path}: no data rows")
    values = np.asarray(rows, dtype=np.float64)
    names = [h for i, h in enumerate(header) if i != label_idx]
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        row, col = bad[0]
        raise DataError(f"{path}: row {row + 1}, column {names[col]!r}: "
                        f"non-finite value {values[row, col]}")
    lab = None if label_idx is None else np.asarray(labels, dtype=np.int64)
    return TimeSeries(values=values, labels=lab, var_names=names)


def train_statistics(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-variable mean and std of training data. A variable constant in
    training gets std 1, so it is centred only: dividing by its zero std
    (plus eps) would blow a tiny test deviation up to an enormous input."""
    v = np.asarray(values, dtype=np.float64)
    std = v.std(axis=0)
    std[np.ptp(v.T.copy(), axis=1) == 0] = 1.0  # along rows of a copy: ~10x faster
    return v.mean(axis=0), std


def standardize(dataset: Dataset, eps: float = 1e-8) -> Dataset:
    """Z-score train and test with per-variable train statistics."""
    mean, std = train_statistics(dataset.train.values)

    def apply(ts: TimeSeries) -> TimeSeries:
        return TimeSeries(
            values=apply_standardization(ts.values, mean, std, eps),
            labels=ts.labels,
            var_names=ts.var_names,
        )

    return Dataset(train=apply(dataset.train), test=apply(dataset.test))


def apply_standardization(values: np.ndarray, mean: np.ndarray,
                          std: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Standardize new data with previously computed train statistics."""
    return (np.asarray(values, dtype=np.float64) - mean) / (std + eps)


def window_offsets(length: int, window_length: int, stride: int) -> np.ndarray:
    """Window start offsets 0, stride, ...; a tail window snaps to the end.

    Every window set is made here, so a stride longer than the window, which
    would leave timesteps in no window, is rejected here.
    """
    if stride > window_length:
        raise ConfigError(f"window_stride {stride} > window_length {window_length}: "
                          f"windows would skip timesteps")
    if length < window_length:
        raise DataError(
            f"series of length {length} shorter than one window ({window_length})"
        )
    offsets = list(range(0, length - window_length + 1, stride))
    if offsets[-1] + window_length < length:
        offsets.append(length - window_length)
    return np.asarray(offsets, dtype=np.int64)


def windows(series: np.ndarray, window_length: int, stride: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Ordered list of (window_length, n_vars) views plus their offsets."""
    s = np.asarray(series, dtype=np.float64)
    offs = window_offsets(s.shape[0], window_length, stride)
    return [s[o : o + window_length] for o in offs], offs


@dataclass
class AnomalySpec:
    kind: str        # point | contextual | collective
    start: int       # offset within the test portion
    duration: int
    magnitude: float

    def validate(self, test_length: int):
        _check_finite(self, "anomaly.")
        if self.kind not in ("point", "contextual", "collective"):
            raise ConfigError(f"unknown anomaly type {self.kind!r}")
        dur = 1 if self.kind == "point" else self.duration
        if dur < 1:
            raise ConfigError(f"anomaly duration must be >= 1, got {self.duration}")
        if self.start < 0 or self.start + dur > test_length:
            raise ConfigError(
                f"anomaly [{self.start}, {self.start + dur}) outside test "
                f"length {test_length}"
            )

    def span(self) -> tuple[int, int]:
        dur = 1 if self.kind == "point" else self.duration
        return self.start, self.start + dur


@dataclass
class SyntheticSpec:
    n_vars: int = 2
    train_length: int = 4000
    test_length: int = 2000
    noise_level: float = 0.1
    drift_sigma: float = 0.0   # linear mean drift over the test portion, in sigmas
    seed: int = 42
    anomalies: list[AnomalySpec] = field(default_factory=list)

    def validate(self):
        _check_finite(self)
        if self.n_vars < 1:
            raise ConfigError(f"n_vars must be >= 1, got {self.n_vars}")
        if self.train_length < 1 or self.test_length < 1:
            raise ConfigError("train_length and test_length must be >= 1")
        if self.noise_level < 0:
            raise ConfigError("noise_level must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        spans = []
        for a in self.anomalies:
            a.validate(self.test_length)
            spans.append(a.span())
        spans.sort()
        for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
            if s1 < e0:
                raise ConfigError(
                    f"anomaly intervals overlap: [{s0},{e0}) and [{s1},{e1})"
                )

    @classmethod
    def from_dict(cls, raw: dict) -> "SyntheticSpec":
        """Validated spec from a JSON object; anomaly fields are required."""
        spec = from_json(cls, raw)
        spec.validate()
        return spec


def _clean_signal(spec: SyntheticSpec, rng: Rng) -> np.ndarray:
    """Sine mixture, one continuous process spanning train + test."""
    total = spec.train_length + spec.test_length
    t = np.arange(total, dtype=np.float64)
    values = np.zeros((total, spec.n_vars))
    shared_phase = rng.uniform(0.0, 2.0 * np.pi, 1)[0]
    for i in range(spec.n_vars):
        freqs = rng.uniform(0.01, 0.05, 2)
        phases = rng.uniform(0.0, 2.0 * np.pi, 2)
        amps = rng.uniform(0.6, 1.2, 2)
        values[:, i] = (
            amps[0] * np.sin(2.0 * np.pi * freqs[0] * t + phases[0])
            + amps[1] * np.sin(2.0 * np.pi * freqs[1] * t + phases[1])
            + 0.3 * np.sin(2.0 * np.pi * 0.02 * t + shared_phase)
        )
    values += rng.normal(spec.noise_level, values.shape)
    return values


def synthesize(spec: SyntheticSpec) -> Dataset:
    """Generate a (clean train, labeled test) dataset from a spec, seeded."""
    spec.validate()
    rng = Rng(spec.seed)
    clean = _clean_signal(spec, rng)
    train_values = clean[: spec.train_length].copy()
    test_values = clean[spec.train_length :].copy()
    sigma = train_values.std(axis=0)

    labels = np.zeros(spec.test_length, dtype=np.int64)
    for a in spec.anomalies:
        s, e = a.span()
        labels[s:e] = 1
        if a.kind == "point":
            test_values[s, :] += a.magnitude * sigma
        elif a.kind == "collective":
            test_values[s:e, :] += a.magnitude * sigma
        else:  # contextual: mirror the segment around its local mean
            seg = test_values[s:e, :]
            local_mean = seg.mean(axis=0)
            test_values[s:e, :] = 2.0 * local_mean - seg

    if spec.drift_sigma != 0.0:
        ramp = np.linspace(0.0, 1.0, spec.test_length, endpoint=False)
        test_values += spec.drift_sigma * ramp[:, None] * sigma[None, :]

    names = [f"x{i + 1}" for i in range(spec.n_vars)]
    return Dataset(
        train=TimeSeries(values=train_values, var_names=names),
        test=TimeSeries(values=test_values, labels=labels, var_names=names),
    )


def write_csv(path, series: TimeSeries, label_column: str | None = None):
    """Write a TimeSeries as CSV; includes the label column when requested."""
    names = series.var_names or [f"x{i + 1}" for i in range(series.n_vars)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = list(names)
        if label_column is not None:
            if series.labels is None:
                raise DataError("series has no labels to write")
            header.append(label_column)
        writer.writerow(header)
        for i in range(series.length):
            row = [repr(float(v)) for v in series.values[i]]
            if label_column is not None:
                row.append(str(int(series.labels[i])))
            writer.writerow(row)
