"""Multi-scale patch extraction and patch-index/timestep bookkeeping.

A scale is a (patch_size, stride) pair. For a window of length L the patches
of one variable start at offsets 0, stride, 2*stride, ...; the number of
patches is floor((L - patch_size) / stride) + 1. When the stride grid leaves
trailing timesteps unreachable by any full patch, those timesteps inherit the
per-timestep score of the last covered position (see CoverageMap.spread).
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


def extract_patches(window: np.ndarray, scale: ScaleSpec) -> np.ndarray:
    """Slice a (length, n_vars) window into per-variable patches.

    Returns shape (n_vars, n_patches, patch_size); entry (i, j) is a copy of
    window[j*stride : j*stride + patch_size, i], never a view.
    """
    w = np.asarray(window, dtype=np.float64)
    if w.ndim != 2:
        raise ShapeError(f"window must be 2-D (length, n_vars), got ndim={w.ndim}")
    length = w.shape[0]
    n = scale.n_patches(length)
    starts = np.arange(n) * scale.stride
    # (n_patches, patch_size) gather indices, shared across variables
    idx = starts[:, None] + np.arange(scale.patch_size)[None, :]
    return w[idx, :].transpose(2, 0, 1).copy()


@dataclass
class CoverageMap:
    """Which patches cover which timesteps of a window, for one scale."""

    length: int
    counts: np.ndarray          # (length,) number of covering patches per timestep
    incidence: np.ndarray       # (n_patches, length) 0/1 matrix
    last_covered: int           # highest timestep covered by any patch

    def spread(self, patch_scores: np.ndarray) -> np.ndarray:
        """Distribute per-patch scores to per-timestep scores.

        patch_scores has shape (..., n_patches). Each covered timestep gets
        the mean of the scores of all patches whose span contains it; trailing
        uncovered timesteps repeat the last covered timestep's value.
        """
        ps = np.asarray(patch_scores, dtype=np.float64)
        if ps.shape[-1] != self.incidence.shape[0]:
            raise ShapeError(
                f"expected {self.incidence.shape[0]} patch scores, got {ps.shape[-1]}"
            )
        totals = ps @ self.incidence
        out = totals[..., : self.last_covered + 1] / self.counts[: self.last_covered + 1]
        if self.last_covered + 1 < self.length:
            tail = np.repeat(
                out[..., -1:], self.length - self.last_covered - 1, axis=-1
            )
            out = np.concatenate([out, tail], axis=-1)
        return out


def coverage(scale: ScaleSpec, length: int) -> CoverageMap:
    """Build the patch/timestep coverage map for a window length."""
    n = scale.n_patches(length)
    starts = np.arange(n) * scale.stride
    incidence = np.zeros((n, length), dtype=np.float64)
    for j, s in enumerate(starts):
        incidence[j, s : s + scale.patch_size] = 1.0
    counts = incidence.sum(axis=0)
    last_covered = int(starts[-1]) + scale.patch_size - 1
    return CoverageMap(length=length, counts=counts, incidence=incidence,
                       last_covered=last_covered)
