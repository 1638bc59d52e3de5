"""Multi-scale patch extraction and patch-index/timestep bookkeeping.

A scale is a (patch_size, stride) pair. For a window of length L the patches
of one variable start at offsets 0, stride, 2*stride, ...; the number of
patches is floor((L - patch_size) / stride) + 1. When the stride grid leaves
trailing timesteps unreachable by any full patch, those timesteps inherit the
per-timestep score of the last covered position (see CoverageMap).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError


@dataclass(frozen=True)
class ScaleSpec:
    """One patching scale: patch length and stride, stride <= patch length."""

    patch_size: int
    stride: int

    def __post_init__(self):
        if self.patch_size < 1:
            raise ConfigError(f"patch_size must be >= 1, got {self.patch_size}")
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        if self.stride > self.patch_size:
            raise ConfigError(
                f"stride {self.stride} > patch_size {self.patch_size}: patches would skip timesteps"
            )

    def n_patches(self, length: int) -> int:
        if length < self.patch_size:
            raise DataError(
                f"window of length {length} shorter than patch size {self.patch_size}"
            )
        return (length - self.patch_size) // self.stride + 1


def extract_patches(windows: np.ndarray, scale: ScaleSpec) -> np.ndarray:
    """Slice a (G, length, n_vars) stack of windows into per-variable patches.

    Returns shape (n_vars, G, n_patches, patch_size); entry (i, g, j) is a
    copy of windows[g, j*stride : j*stride + patch_size, i], never a view.
    """
    w = np.asarray(windows, dtype=np.float64)
    if w.ndim != 3:
        raise ShapeError(f"windows must be a 3-D (G, length, n_vars) stack, got ndim={w.ndim}")
    n = scale.n_patches(w.shape[1])
    starts = np.arange(n) * scale.stride
    # (n_patches, patch_size) gather indices, shared across variables
    idx = starts[:, None] + np.arange(scale.patch_size)[None, :]
    return np.ascontiguousarray(w[:, idx, :].transpose(3, 0, 1, 2))


@dataclass
class CoverageMap:
    """Patch-to-timestep averaging for one scale and window length.

    weights is the (n_patches, length) averaging matrix: column t holds
    1/count(t) for every patch whose span contains t, and each trailing
    timestep no full patch reaches copies the last covered column.
    """

    weights: np.ndarray

    def spread(self, patch_scores: np.ndarray) -> np.ndarray:
        """Per-timestep means of the per-patch scores (..., n_patches)."""
        ps = np.asarray(patch_scores, dtype=np.float64)
        if ps.shape[-1] != self.weights.shape[0]:
            raise ShapeError(
                f"expected {self.weights.shape[0]} patch scores, got {ps.shape[-1]}"
            )
        return ps @ self.weights


def coverage(scale: ScaleSpec, length: int) -> CoverageMap:
    """Build the patch/timestep averaging matrix for a window length."""
    n = scale.n_patches(length)
    weights = np.zeros((n, length), dtype=np.float64)
    for j in range(n):
        weights[j, j * scale.stride : j * scale.stride + scale.patch_size] = 1.0
    end = (n - 1) * scale.stride + scale.patch_size  # first uncovered timestep
    weights[:, :end] /= weights[:, :end].sum(axis=0)
    weights[:, end:] = weights[:, end - 1 : end]
    return CoverageMap(weights=weights)
