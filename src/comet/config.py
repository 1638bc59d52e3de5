"""Run configuration: every hyperparameter of the pipeline in one place.

Defaults follow the reference operating point: patch sizes {2,4,6} with
strides {1,2,3}, window length 100 / stride 50, core dimension 64, loss
weights alpha=beta=1, score mix lambda=0.5, EMA momentum 0.75, 10 neighbors
for both density estimation and score aggregation, AdamW at 1e-4 with weight
decay 5e-4, 20 epochs, batch 128, 10% validation split, seed 42.

Named dataset presets carry the per-dataset (codebook size, model dimension)
pairs; unknown data defaults to M=128 and a desk-scale d=64.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass

from .errors import ConfigError
from .patching import ScaleSpec

# (codebook_size, model_dim) per named dataset preset
PRESETS: dict[str, tuple[int, int]] = {
    "psm": (128, 256),
    "swat": (256, 256),
    "smap": (128, 128),
    "msl": (256, 128),
    "wadi": (32, 64),
}


def _check_finite(section, prefix: str = ""):
    """Reject a non-finite float field: from_json's rule, for configs built in code."""
    for f in fields(section):
        value = getattr(section, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{prefix}{f.name} must be finite, got {value}")


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 128
    learning_rate: float = 1e-4
    weight_decay: float = 5e-4
    validation_fraction: float = 0.1
    seed: int = 42

    def validate(self):
        _check_finite(self, "train.")
        if self.epochs < 1:
            raise ConfigError(f"train.epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"train.batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ConfigError(
                f"train.validation_fraction must be in [0, 1), got {self.validation_fraction}"
            )
        if self.learning_rate < 0 or self.weight_decay < 0:
            raise ConfigError("train.learning_rate and train.weight_decay must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"train.seed must be >= 0, got {self.seed}")


@dataclass
class TtaConfig:
    enabled: bool = False
    contrastive_weight: float = 1.0
    temperature: float = 0.1
    steps_per_batch: int = 1
    learning_rate: float | None = None  # None: reuse the training learning rate
    windows_per_batch: int = 1

    def validate(self):
        _check_finite(self, "tta.")
        if self.temperature <= 0:
            raise ConfigError(f"tta.temperature must be > 0, got {self.temperature}")
        if self.steps_per_batch < 1:
            raise ConfigError(f"tta.steps_per_batch must be >= 1, got {self.steps_per_batch}")
        if self.windows_per_batch < 1:
            raise ConfigError(
                f"tta.windows_per_batch must be >= 1, got {self.windows_per_batch}"
            )
        if self.contrastive_weight < 0:
            raise ConfigError("tta.contrastive_weight must be >= 0")
        if self.learning_rate is not None and self.learning_rate < 0:
            raise ConfigError(f"tta.learning_rate must be >= 0, got {self.learning_rate}")


@dataclass
class SelectionConfig:
    """Deviation-based variable selection. Variable 0 is always kept."""

    mode: str = "percentile"  # "percentile" | "budget"
    percentile: float = 75.0
    budget: int = 1

    def validate(self):
        _check_finite(self, "selection.")
        if self.mode not in ("percentile", "budget"):
            raise ConfigError(f"selection.mode must be percentile|budget, got {self.mode!r}")
        if not 0.0 <= self.percentile <= 100.0:
            raise ConfigError(
                f"selection.percentile must be in [0, 100], got {self.percentile}"
            )
        if self.budget < 1:
            raise ConfigError(f"selection.budget must be >= 1, got {self.budget}")


@dataclass
class RunConfig:
    patch_sizes: list[int] = field(default_factory=lambda: [2, 4, 6])
    strides: list[int] = field(default_factory=lambda: [1, 2, 3])
    embed_dim: int = 64          # d, per-patch embedding width (must be even)
    core_dim: int = 64           # d_c, shared cross-variable encoder width
    codebook_size: int = 128     # M, entries per scale
    alpha: float = 1.0           # codebook loss weight
    beta: float = 1.0            # commitment loss weight
    score_mix: float = 0.5       # lambda, quantization-score share of the final score
    ema_momentum: float = 0.75   # gamma for min/max normalization
    n_neighbors: int = 10        # n, bank neighbors averaged into the memory score
    n_density: int = 10          # neighbors used for local-scale (density) estimation
    eps: float = 1e-8
    window_length: int = 100
    window_stride: int = 50
    use_local_scaling: bool = True
    use_variable_selection: bool = True
    use_normalization: bool = True
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    tta: TtaConfig = field(default_factory=TtaConfig)

    @property
    def scales(self) -> list[ScaleSpec]:
        return [ScaleSpec(p, s) for p, s in zip(self.patch_sizes, self.strides)]

    def validate(self):
        _check_finite(self)
        if not self.patch_sizes:
            raise ConfigError("patch_sizes must not be empty")
        if len(self.patch_sizes) != len(self.strides):
            raise ConfigError(
                f"patch_sizes and strides differ in length: "
                f"{len(self.patch_sizes)} vs {len(self.strides)}"
            )
        _ = self.scales  # ScaleSpec validates each (patch, stride) pair
        if self.embed_dim < 2 or self.embed_dim % 2 != 0:
            raise ConfigError(f"embed_dim must be even and >= 2, got {self.embed_dim}")
        if self.core_dim < 1:
            raise ConfigError(f"core_dim must be >= 1, got {self.core_dim}")
        if self.codebook_size < 1:
            raise ConfigError(f"codebook_size must be >= 1, got {self.codebook_size}")
        if not 0.0 <= self.score_mix <= 1.0:
            raise ConfigError(f"score_mix must be in [0, 1], got {self.score_mix}")
        if not 0.0 <= self.ema_momentum < 1.0:
            raise ConfigError(
                f"ema_momentum must be in [0, 1), got {self.ema_momentum}"
            )
        if self.n_neighbors < 1 or self.n_density < 1:
            raise ConfigError("n_neighbors and n_density must be >= 1")
        if self.eps <= 0:
            raise ConfigError(f"eps must be > 0, got {self.eps}")
        if self.window_length < max(self.patch_sizes):
            raise ConfigError(
                f"window_length {self.window_length} shorter than the largest patch "
                f"size {max(self.patch_sizes)}"
            )
        if self.window_stride < 1:
            raise ConfigError(f"window_stride must be >= 1, got {self.window_stride}")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("alpha and beta must be >= 0")
        self.selection.validate()
        self.train.validate()
        self.tta.validate()

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """Validated config from a JSON object; every field optional, typed."""
        cfg = from_json(cls, raw)
        cfg.validate()
        return cfg


# the JSON values each scalar annotation accepts; a bool is not a number here
_JSON_SCALARS = {
    int: lambda v: type(v) is int,
    float: lambda v: type(v) is int or (type(v) is float and math.isfinite(v)),
    bool: lambda v: type(v) is bool,
    str: lambda v: type(v) is str,
    type(None): lambda v: v is None,
}


def from_json(cls, raw, path: str = ""):
    """A dataclass from a JSON object of its fields, each type-checked.

    A field without a default is required. A dataclass field, or a list of
    them, decodes recursively, and errors name the field's path, e.g.
    ``anomalies[0].duration``. A float field takes only finite numbers.
    """
    if type(raw) is not dict:
        raise ConfigError(f"{path or cls.__name__} must be a JSON object, got {raw!r}")
    prefix = f"{path}." if path else ""
    specs = {f.name: f for f in fields(cls)}
    unknown = sorted(prefix + k for k in set(raw) - set(specs))
    if unknown:
        raise ConfigError(f"unknown fields: {unknown}")
    missing = [prefix + f.name for f in specs.values() if f.name not in raw
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"missing required fields: {missing}")
    types = _field_types(cls)
    return cls(**{k: _decode(types[k], v, prefix + k) for k, v in raw.items()})


@functools.cache
def _field_types(cls) -> dict:
    """Field annotations resolved to types (they are strings in source)."""
    return typing.get_type_hints(cls)


def _decode(tp, value, path: str):
    if is_dataclass(tp):
        return from_json(tp, value, path)
    if typing.get_origin(tp) is list:
        if type(value) is not list:
            raise ConfigError(f"{path} must be a JSON list, got {value!r}")
        (item,) = typing.get_args(tp)
        return [_decode(item, v, f"{path}[{i}]") for i, v in enumerate(value)]
    options = typing.get_args(tp) or (tp,)
    if not any(_JSON_SCALARS[t](value) for t in options):
        finite = " (finite)" if float in options else ""
        raise ConfigError(
            f"{path} must be {getattr(tp, '__name__', tp)}{finite}, got {value!r}")
    return value


def preset_config(name: str) -> RunConfig:
    """RunConfig with the (codebook size, model dim) pair of a named dataset."""
    key = name.lower()
    if key not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; known: {sorted(PRESETS)}"
        )
    m, d = PRESETS[key]
    cfg = RunConfig(codebook_size=m, embed_dim=d)
    cfg.validate()
    return cfg
