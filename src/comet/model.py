"""Per-scale patch encoder/decoder, the shared forward pass, and the VQ objective.

The encoder at one scale is purely affine and has three stages:

1. a per-variable series encoder mapping each patch of length p to d/2 features,
2. a core encoder shared across variables, mapping the concatenation of all
   variables' patches at one patch index to d_c features,
3. a fusion layer mapping the concatenated (d/2 + d_c) features to the final
   d-dimensional embedding.

The fusion layer runs split: the series block w_fuse[:, :d/2] maps each
variable's features, while the core block w_fuse[:, d/2:] and b_fuse map the
shared core features once per patch and the result broadcasts over
variables. Backward mirrors it: the core path's gradients come from the
embedding gradient summed over variables, once per patch. Products that
reduce over a length set by the input (patches times variables in the
gradients, variables times patch length in the core encoder) run in fixed
chunks (ndmath.chunked_tdot), so their bits do not depend on the BLAS thread
count.

The decoder is one affine layer per scale, shared by all variables, mapping a
d-vector back to a patch of length p. There are deliberately no activation
functions anywhere.

forward() is the one per-scale step every caller shares — training,
validation, activation collection, scoring, adaptation and the gradient-check
oracle: extract patches, encode, quantize to the nearest codebook entry. It
takes a group of windows and returns one ScaleForward record per window and
scale. Each window is encoded on its own; the group shares one nearest-entry
search per scale. Scoring, activation collection and adaptation pass the
groups of window_groups(); training passes one window per call.

vq_objective() is the one VQ-VAE loss body for training and adaptation: a
masked, weighted sum of reconstruction, codebook and commitment terms with
stop-gradient routing. The codebook term updates only the selected entries,
the commitment term only the encoder, and reconstruction gradients reach the
encoder by the straight-through copy: backward() applies the gradient at the
decoder input to the embedding unchanged. Gradients have one layout, the
ModelState's own: a step adds every term into a zeroed state
(ModelState.zeros) in place.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .config import RunConfig
from .errors import ShapeError
from .ndmath import Rng, chunked_tdot, row_sums_by_key
from .patching import ScaleSpec, extract_patches
from .vq import init_codebook, nearest_entries

# patch rows (variables x patches over all scales) per forward group: one
# nearest-entry search per scale covers that many rows, and a group's records
# are alive at once
GROUP_PATCH_ROWS = 2048


@dataclass
class ScaleParams:
    """Learnable arrays of one scale, or their gradients (same fields and shapes).

    w_series: (n_vars, d/2, p)   per-variable series-encoder weights
    b_series: (n_vars, d/2)
    w_core:   (d_c, n_vars * p)  shared cross-variable encoder
    b_core:   (d_c,)
    w_fuse:   (d, d/2 + d_c)
    b_fuse:   (d,)
    w_dec:    (p, d)             shared decoder
    b_dec:    (p,)
    """

    w_series: np.ndarray
    b_series: np.ndarray
    w_core: np.ndarray
    b_core: np.ndarray
    w_fuse: np.ndarray
    b_fuse: np.ndarray
    w_dec: np.ndarray
    b_dec: np.ndarray

    def arrays(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def init_scale_params(scale: ScaleSpec, n_vars: int, embed_dim: int,
                      core_dim: int, rng: Rng) -> ScaleParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    p = scale.patch_size
    dh = embed_dim // 2

    def u(fan_in, shape):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, shape)

    return ScaleParams(
        w_series=u(p, (n_vars, dh, p)),
        b_series=np.zeros((n_vars, dh)),
        w_core=u(n_vars * p, (core_dim, n_vars * p)),
        b_core=np.zeros(core_dim),
        w_fuse=u(dh + core_dim, (embed_dim, dh + core_dim)),
        b_fuse=np.zeros(embed_dim),
        w_dec=u(embed_dim, (p, embed_dim)),
        b_dec=np.zeros(p),
    )


@dataclass
class ForwardCache:
    """The encoder features backward() needs beyond the patches themselves."""

    concat: np.ndarray    # (n_patches, n_vars * p) variable-major concatenation
    h_series: np.ndarray  # (n_vars, n_patches, d/2) per-variable series features
    h_core: np.ndarray    # (n_patches, d_c) core features, shared by every variable


def encode(patches: np.ndarray, params: ScaleParams) -> tuple[np.ndarray, ForwardCache]:
    """Embed (n_vars, n_patches, p) patches: returns (n_vars, n_patches, d) plus cache."""
    n_vars, n_patches, p = patches.shape
    if params.w_series.shape[0] != n_vars or params.w_series.shape[2] != p:
        raise ShapeError(
            f"params built for {params.w_series.shape[0]} vars / patch {params.w_series.shape[2]}, "
            f"got {n_vars} vars / patch {p}"
        )
    dh = params.w_series.shape[1]
    h_series = np.matmul(patches, params.w_series.transpose(0, 2, 1))
    h_series += params.b_series[:, None, :]
    # variable-major concatenation per patch index: (n_patches, n_vars * p)
    concat = patches.transpose(1, 0, 2).reshape(n_patches, n_vars * p)
    # concat @ w_core.T, its reduction over n_vars * p in fixed chunks
    h_core = chunked_tdot(concat.T, params.w_core.T) + params.b_core
    # split fuse: the core block of w_fuse runs once per patch, then
    # broadcasts over variables
    core_part = h_core @ params.w_fuse[:, dh:].T + params.b_fuse
    embeddings = h_series @ params.w_fuse[:, :dh].T
    embeddings += core_part
    return embeddings, ForwardCache(concat=concat, h_series=h_series, h_core=h_core)


def decode(quantized: np.ndarray, params: ScaleParams) -> np.ndarray:
    """Affine reconstruction of patches from embeddings, (..., d) -> (..., p)."""
    q = np.asarray(quantized, dtype=np.float64)
    if q.shape[-1] != params.w_dec.shape[1]:
        raise ShapeError(
            f"embedding dim {q.shape[-1]} does not match decoder input {params.w_dec.shape[1]}"
        )
    return q @ params.w_dec.T + params.b_dec


@dataclass
class ScaleForward:
    """One scale's forward pass over one window."""

    patches: np.ndarray     # (n_vars, n_patches, p) extract_patches output
    embeddings: np.ndarray  # (n_vars, n_patches, d) encoder output
    cache: ForwardCache
    indices: np.ndarray     # (n_vars, n_patches) nearest codebook entries
    quantized: np.ndarray   # (n_vars, n_patches, d) those entries' vectors


def window_groups(windows: list[np.ndarray], n_vars: int,
                  config: RunConfig) -> list[list[np.ndarray]]:
    """Consecutive forward groups of configured-length windows, in order.

    A group holds as many windows as fit in GROUP_PATCH_ROWS patch rows, and
    at least one: under the default scales 5 windows at 2 variables, 2 at 4
    or 5, and 1 at 6 or more.
    """
    rows = n_vars * sum(sc.n_patches(config.window_length) for sc in config.scales)
    size = max(1, GROUP_PATCH_ROWS // rows)
    return [windows[i : i + size] for i in range(0, len(windows), size)]


def forward(state: ModelState, windows: list[np.ndarray],
            scales: list[ScaleSpec]) -> list[list[ScaleForward]]:
    """Patch, encode and quantize a group of (length, n_vars) windows at every scale.

    Returns records[window][scale]. Each window is patched and encoded on its
    own, so its embeddings do not depend on the group; per scale, one
    nearest_entries call quantizes the whole group, and its indices are exact.
    """
    records: list[list[ScaleForward]] = [[] for _ in windows]
    for k, scale in enumerate(scales):
        patches = [extract_patches(w, scale) for w in windows]
        encoded = [encode(p, state.params[k]) for p in patches]
        indices, quantized = nearest_entries(np.stack([emb for emb, _ in encoded]),
                                             state.codebooks[k])
        for rec, p, (emb, cache), idx, q in zip(records, patches, encoded,
                                                indices, quantized):
            rec.append(ScaleForward(p, emb, cache, idx, q))
    return records


def backward(fwd: ScaleForward, params: ScaleParams,
             d_embeddings: np.ndarray, d_recon: np.ndarray, grads: ScaleParams):
    """Add the gradients of all scale parameters into grads, in place.

    d_embeddings: (n_vars, n_patches, d) gradient w.r.t. the encoder output
        from terms acting on the embedding directly (commitment, contrastive).
    d_recon: (n_vars, n_patches, p) gradient w.r.t. the reconstructions
        decoded from fwd.quantized.

    The reconstruction gradient is backed through the decoder and then copied
    straight through quantization onto the embedding gradient. The shared core
    encoder accumulates contributions from every variable.
    """
    cache = fwd.cache
    n_vars, n_patches, p = fwd.patches.shape
    if d_embeddings.shape[:2] != (n_vars, n_patches) or d_recon.shape[:2] != (n_vars, n_patches):
        raise ShapeError("upstream gradients do not match the cached forward pass")
    dh = params.w_series.shape[1]
    rows = n_vars * n_patches

    grads.w_dec += chunked_tdot(d_recon.reshape(rows, p), fwd.quantized.reshape(rows, -1))
    grads.b_dec += d_recon.sum(axis=(0, 1))
    d_emb = d_embeddings + d_recon @ params.w_dec  # straight-through copy
    d_emb_core = d_emb.sum(axis=0)  # (n_patches, d): the core path, once per patch

    grads.w_fuse[:, :dh] += chunked_tdot(d_emb.reshape(rows, -1), cache.h_series.reshape(rows, dh))
    grads.w_fuse[:, dh:] += chunked_tdot(d_emb_core, cache.h_core)
    grads.b_fuse += d_emb_core.sum(axis=0)
    d_h_series = d_emb @ params.w_fuse[:, :dh]  # (n_vars, n_patches, d/2)
    d_h_core = d_emb_core @ params.w_fuse[:, dh:]  # (n_patches, d_c)

    grads.w_series += np.matmul(d_h_series.transpose(0, 2, 1), fwd.patches)
    grads.b_series += d_h_series.sum(axis=1)
    grads.w_core += chunked_tdot(d_h_core, cache.concat)
    grads.b_core += d_h_core.sum(axis=0)


def vq_terms(fwd: ScaleForward, params: ScaleParams, mask=1.0):
    """Masked sums of squared reconstruction errors and quantization gaps.

    mask holds 0/1 per patch, broadcastable to (n_vars, n_patches, 1). Returns
    (rec_sq, gap_sq, residual, gap) with the masked residual = mask *
    (decode(quantized) - patches) and gap = mask * (quantized - embeddings).
    """
    residual = (decode(fwd.quantized, params) - fwd.patches) * mask
    gap = (fwd.quantized - fwd.embeddings) * mask
    rec_sq = float(np.sum(residual * residual))
    gap_sq = float(np.sum(gap * gap))
    return rec_sq, gap_sq, residual, gap


def vq_objective(fwd: ScaleForward, params: ScaleParams, weight: float, mask,
                 alpha: float, beta: float, grads: ScaleParams,
                 codebook_grad: np.ndarray,
                 d_extra: np.ndarray | None = None) -> tuple[float, float]:
    """weight * (reconstruction + alpha * codebook + beta * commitment), masked.

    Returns (rec_sq, gap_sq), the masked sums of squared reconstruction errors
    and quantization gaps; the value of the objective is weight * (rec_sq +
    (alpha + beta) * gap_sq). Its gradients, with stop-gradient routing, are
    added in place: encoder and decoder ones into grads, and codebook ones
    into the selected rows of codebook_grad. Training passes a mask of ones
    and weight 1/(B*S*V*N); adaptation passes the pseudo-normal mask,
    1/n_normal, and the contrastive gradient as d_extra, an extra upstream
    gradient on the embeddings.
    """
    rec_sq, gap_sq, residual, gap = vq_terms(fwd, params, mask)
    d_recon = (2.0 * weight) * residual
    d_emb = (-2.0 * beta * weight) * gap
    if d_extra is not None:
        d_emb = d_extra + d_emb
    backward(fwd, params, d_emb, d_recon, grads)
    codebook_rows = (2.0 * alpha * weight) * gap
    codebook_grad += row_sums_by_key(fwd.indices.reshape(-1),
                                     codebook_rows.reshape(-1, codebook_rows.shape[-1]),
                                     codebook_grad.shape[0])
    return rec_sq, gap_sq


@dataclass
class ModelState:
    """All learnable state: per-scale parameters plus per-scale codebooks."""

    n_vars: int
    params: list[ScaleParams]
    codebooks: list[np.ndarray]  # (M, d) per scale

    def _map(self, fn) -> "ModelState":
        return ModelState(
            n_vars=self.n_vars,
            params=[ScaleParams(**{k: fn(v) for k, v in p.arrays().items()})
                    for p in self.params],
            codebooks=[fn(c) for c in self.codebooks],
        )

    def copy(self) -> "ModelState":
        return self._map(np.ndarray.copy)

    def zeros(self) -> "ModelState":
        """A zeroed state of the same shapes: the gradient buffer of one step."""
        return self._map(np.zeros_like)

    def named_arrays(self) -> dict[str, np.ndarray]:
        """Flat {name: array} view used by the optimizer and the checkpoint."""
        out: dict[str, np.ndarray] = {}
        for k, p in enumerate(self.params):
            for name, arr in p.arrays().items():
                out[f"scale{k}.{name}"] = arr
        for k, cb in enumerate(self.codebooks):
            out[f"scale{k}.codebook"] = cb
        return out

    def load_named_arrays(self, arrays: dict[str, np.ndarray]):
        for k, p in enumerate(self.params):
            for name in p.arrays():
                setattr(p, name, arrays[f"scale{k}.{name}"])
        for k in range(len(self.codebooks)):
            self.codebooks[k] = arrays[f"scale{k}.codebook"]


def init_model_state(config: RunConfig, n_vars: int, rng: Rng) -> ModelState:
    """Seeded initialization; scale by scale, parameters then codebook."""
    params, codebooks = [], []
    for scale in config.scales:
        params.append(
            init_scale_params(scale, n_vars, config.embed_dim, config.core_dim, rng)
        )
        codebooks.append(init_codebook(config.codebook_size, config.embed_dim, rng))
    return ModelState(n_vars=n_vars, params=params, codebooks=codebooks)
