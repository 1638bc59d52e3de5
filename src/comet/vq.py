"""Nearest-entry quantization and the coreset memory bank.

Each scale owns a learnable codebook of M d-dimensional entries. Embeddings
quantize to the nearest entry by squared Euclidean distance, ties broken by
the lowest index. Training records, per scale, a boolean mask of the entries
its data activated. The memory bank (coreset) is the subset of entries each
scale activated, together with per-entry local scales (median squared
distance to the nearest same-scale bank neighbors, self excluded; a scale
with a single bank entry gets local scale 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateModelError, NumericError, ShapeError
from .ndmath import Rng, pairwise_sq_dists, sorted_median


def init_codebook(size: int, embed_dim: int, rng: Rng) -> np.ndarray:
    """(size, embed_dim) entries i.i.d. normal with variance 1/d, matching
    embedding scale at init."""
    if size < 1:
        raise ConfigError(f"codebook size must be >= 1, got {size}")
    return rng.normal(1.0 / np.sqrt(embed_dim), (size, embed_dim))


def nearest_entries(embeddings: np.ndarray, entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized nearest-codebook-entry lookup.

    embeddings: (..., d). Returns (indices (...,), quantized (..., d)).
    Indices equal ``argmin(pairwise_sq_dists(...), axis=1)`` bit for bit, so
    equal distances tie-break to the lowest entry index. One GEMM computes
    h = q.(-2e) + |e|^2, which is |q - e|^2 - |q|^2: the row constant |q|^2
    does not change the gaps between entries, so it is left out. A row with
    no second entry within the rounding margin of its minimum of h (its second
    smallest h lies above the bound) keeps that entry, and any other row, a
    NaN row included, is recomputed with the exact kernel.

    Margin: with u = 2^-53, S = (|q| + max |e|)^2 and gamma = (d+2)u/(1-(d+2)u),
    h differs from |q - e|^2 - |q|^2 by at most gamma * (2 |q||e| + |e|^2)
    <= gamma * S (the scaling by -2 is exact), and the exact kernel's distance
    differs from |q - e|^2 by at most gamma * S (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 3.1), whatever the BLAS summation
    order. So the exact kernel's argmin has h within about 4 gamma * S of the
    smallest h. The margin 8 (d+2) u S also covers the rounding of the margin
    itself and of the comparison, and the absolute term covers products that
    underflow.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    flat = emb.reshape(-1, emb.shape[-1])
    if flat.shape[1] != entries.shape[1]:
        raise ShapeError(
            f"embedding dim {flat.shape[1]} does not match codebook dim {entries.shape[1]}"
        )
    if not (np.isfinite(flat).all() and np.isfinite(entries).all()):
        raise NumericError("non-finite embedding or codebook entry in nearest-entry search")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: re-checked below
        q_sq = np.einsum("ij,ij->i", flat, flat)
        e_sq = np.einsum("ij,ij->i", entries, entries)
        h = flat @ (-2.0 * entries).T
        h += e_sq
        idx = np.argmin(h, axis=1)
        reach = np.sqrt(q_sq) + np.sqrt(e_sq.max())
        margin = 8.0 * (flat.shape[1] + 2) * (2.0**-53 * reach * reach + 2.0**-1074)
        rows = np.arange(idx.size)
        bound = h[rows, idx] + margin
        h[rows, idx] = np.inf
        second = h.min(axis=1)
        # rows with a second candidate, or none because h overflowed to NaN
        recheck = np.flatnonzero(~(second > bound))
    if recheck.size:
        idx[recheck] = np.argmin(pairwise_sq_dists(flat[recheck], entries), axis=1)
    quantized = entries[idx]
    return idx.reshape(emb.shape[:-1]), quantized.reshape(emb.shape)


@dataclass
class BankScale:
    """Activated entries of one scale with their local density scales."""

    vectors: np.ndarray     # (n_k, d) activated entries, in codebook order
    local_scales: np.ndarray  # (n_k,)


@dataclass
class MemoryBank:
    scales: list[BankScale]


def local_scales_for(vectors: np.ndarray, n_density: int) -> np.ndarray:
    """Median squared distance to the n_density nearest neighbors, self excluded.

    With fewer than n_density other entries, all others are used; a lone entry
    gets scale 0.
    """
    n = vectors.shape[0]
    if n <= 1:
        return np.zeros(n)
    d2 = pairwise_sq_dists(vectors, vectors)
    np.fill_diagonal(d2, np.inf)
    k = min(n_density, n - 1)
    return sorted_median(np.sort(d2, axis=1), k)


def build_memory_bank(codebooks: list[np.ndarray], activations: list[np.ndarray],
                      n_density: int) -> MemoryBank:
    """Collect activated entries per scale and compute their local scales.

    codebooks[k] is scale k's (M, d) codebook and activations[k] its (M,)
    boolean mask of entries activated in training. The one way a bank is
    made; checkpoints and the stream derive theirs here.
    """
    scales = []
    for k, (cb, mask) in enumerate(zip(codebooks, activations)):
        if not mask.any():
            raise DegenerateModelError(
                f"scale {k} has no activated codebook entries; the model never "
                f"quantized training data at this scale"
            )
        vectors = cb[mask]
        scales.append(BankScale(vectors=vectors,
                                local_scales=local_scales_for(vectors, n_density)))
    return MemoryBank(scales=scales)
