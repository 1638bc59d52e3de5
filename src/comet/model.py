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
chunks (ndmath.chunked_tdot), and every product over patch rows, as GEMM
rows or as a reduction, runs on rows padded with zeros to a multiple of
ndmath.PAD_ROWS (ndmath.pad_rows), so their bits do not depend on the BLAS
thread count.

The decoder is one affine layer per scale, shared by all variables, mapping a
d-vector back to a patch of length p. There are deliberately no activation
functions anywhere.

forward() is the one per-scale step every caller shares — training,
validation, activation collection, scoring, adaptation and the gradient-check
oracle: extract patches, encode, quantize to the nearest codebook entry. It
takes one (G, length, n_vars) stack of windows and returns one ScaleForward
per scale, whose rows are the G windows' patches, window by window, along the
patch axis; one encode and one nearest-entry search per scale cover the
stack. encode() runs the series product and the core product once per
window, over a leading window axis, so each window gets the GEMM shape it has
alone: run over the stack's rows, those two products gave bits that depend
on the stack under some kernels. Both fuse products, whose bits did not
move, the decoder and backward() run once over the stack's rows. So a
window's embeddings, and its scores, do not depend on its group.
group_size() sizes the stacks in bytes for window_groups(): as many windows
as keep one float64 (patch rows x d) array within ndmath.GROUP_BYTES, so a
group is 2048 patch rows at d = 64 and 4096 at d = 32.

vq_objective() is the one VQ-VAE loss body for training and adaptation: a
masked, weighted sum of reconstruction, codebook and commitment terms with
stop-gradient routing. The codebook term updates only the selected entries,
the commitment term only the encoder, and reconstruction gradients reach the
encoder by the straight-through copy: backward() applies the gradient at the
decoder input to the embedding unchanged. Gradients have one layout, the
ModelState's own: a step adds every term into a zeroed state
(ModelState.zeros) in place, and AdamW then steps the model's flat vector
with the gradient's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .config import RunConfig
from .errors import ShapeError
from . import ndmath  # GROUP_BYTES read at call time
from .ndmath import Rng, chunked_tdot, pad_rows, row_sums_by_key
from .patching import ScaleSpec, extract_patches
from .vq import init_codebook, nearest_entries


@dataclass
class ScaleParams:
    """Learnable arrays of one scale, or their gradients (same fields and shapes).

    In a ModelState the fields are views into its flat vector.

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


def model_shapes(config: RunConfig, n_vars: int) -> dict[str, tuple[int, ...]]:
    """The shape of each ModelState.named_arrays array of a model of config.

    Scale by scale, the ScaleParams fields in field order, then the codebook.
    """
    d, dh, d_c = config.embed_dim, config.embed_dim // 2, config.core_dim
    shapes = {}
    for k, scale in enumerate(config.scales):
        p = scale.patch_size
        shapes.update({
            f"scale{k}.w_series": (n_vars, dh, p), f"scale{k}.b_series": (n_vars, dh),
            f"scale{k}.w_core": (d_c, n_vars * p), f"scale{k}.b_core": (d_c,),
            f"scale{k}.w_fuse": (d, dh + d_c), f"scale{k}.b_fuse": (d,),
            f"scale{k}.w_dec": (p, d), f"scale{k}.b_dec": (p,),
            f"scale{k}.codebook": (config.codebook_size, d),
        })
    return shapes


def encode(patches: np.ndarray, params: ScaleParams
           ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Embed (n_vars, G, n_patches, p) patches of G windows.

    Returns (n_vars, G * n_patches, d) embeddings, the windows' patches in
    order along the patch axis, and the cache backward() reads: the pair
    (h_series, h_core) of per-variable series features, (n_vars * G *
    n_patches, d/2), and core features shared by every variable, (G *
    n_patches, d_c), their rows padded with zero rows by ndmath.pad_rows. The
    series and core products run per window, one-window GEMMs.
    """
    n_vars, n_windows, n_patches, p = patches.shape
    if params.w_series.shape[0] != n_vars or params.w_series.shape[2] != p:
        raise ShapeError(
            f"params built for {params.w_series.shape[0]} vars / patch {params.w_series.shape[2]}, "
            f"got {n_vars} vars / patch {p}"
        )
    dh = params.w_series.shape[1]
    n = n_windows * n_patches
    h_series = np.matmul(patches, params.w_series.transpose(0, 2, 1)[:, None])
    h_series += params.b_series[:, None, None, :]
    h_series = pad_rows(h_series.reshape(n_vars * n, dh))
    # variable-major concatenation per patch index: (G, n_patches, n_vars * p)
    concat = pad_rows(patches.transpose(1, 2, 0, 3).reshape(n_windows, n_patches, -1))
    # concat @ w_core.T per window, its reduction over n_vars * p in fixed
    # chunks; padded rows stay zero
    h_core = chunked_tdot(concat.swapaxes(1, 2), params.w_core.T)
    # the windows' rows in order, padded as one, as the fuse and backward read them
    h_core = pad_rows(h_core[:, :n_patches].reshape(n, -1))
    h_core[:n] += params.b_core
    # split fuse: the core block of w_fuse runs once per patch, then
    # broadcasts over variables
    core_part = (h_core @ params.w_fuse[:, dh:].T)[:n] + params.b_fuse
    embeddings = (h_series @ params.w_fuse[:, :dh].T)[: n_vars * n].reshape(n_vars, n, -1)
    embeddings += core_part
    return embeddings, (h_series, h_core)


def decode(quantized: np.ndarray, params: ScaleParams) -> np.ndarray:
    """Affine reconstruction of patches from embeddings, (..., d) -> (..., p)."""
    q = np.asarray(quantized, dtype=np.float64)
    if q.shape[-1] != params.w_dec.shape[1]:
        raise ShapeError(
            f"embedding dim {q.shape[-1]} does not match decoder input {params.w_dec.shape[1]}"
        )
    rows = q.reshape(-1, q.shape[-1])  # one GEMM over the padded patch rows
    recon = (pad_rows(rows) @ params.w_dec.T)[: rows.shape[0]]
    return recon.reshape(*q.shape[:-1], -1) + params.b_dec


@dataclass
class ScaleForward:
    """One scale's forward pass over a stack of windows, their patches in order."""

    patches: np.ndarray     # (n_vars, n_patches, p) the windows' patches
    embeddings: np.ndarray  # (n_vars, n_patches, d) encoder output
    cache: tuple[np.ndarray, np.ndarray]  # encode's (h_series, h_core)
    indices: np.ndarray     # (n_vars, n_patches) nearest codebook entries
    quantized: np.ndarray   # (n_vars, n_patches, d) those entries' vectors

    @cached_property
    def quantized_rows(self) -> np.ndarray:
        """quantized as (patch rows, d) padded by ndmath.pad_rows: padded once, for
        decode (in vq_terms) and backward, and never by frozen scoring."""
        return pad_rows(self.quantized.reshape(-1, self.quantized.shape[-1]))


def group_size(n_vars: int, config: RunConfig) -> int:
    """Windows per forward group, at least one.

    As many windows as keep their (patch rows x embed_dim) float64 embeddings,
    patch rows counted over all scales, within ndmath.GROUP_BYTES: a group's
    records are alive at once. Under the default scales (180 patch rows a
    variable) that is 2048 rows at d = 64: 5 windows at 2 variables, 2 at 4
    or 5, 1 at 6 or more; and 4096 at d = 32: 11 at 2 variables, 5 at 4, 1 at
    12 or more.
    """
    rows = n_vars * sum(sc.n_patches(config.window_length) for sc in config.scales)
    return max(1, ndmath.GROUP_BYTES // (8 * config.embed_dim * rows))


def window_groups(windows: list[np.ndarray], n_vars: int,
                  config: RunConfig) -> list[list[np.ndarray]]:
    """Consecutive forward groups of group_size windows, in order."""
    size = group_size(n_vars, config)
    return [windows[i : i + size] for i in range(0, len(windows), size)]


def forward(state: ModelState, windows: np.ndarray,
            scales: list[ScaleSpec]) -> list[ScaleForward]:
    """Patch, encode and quantize a (G, length, n_vars) stack of windows.

    Returns one record per scale, the G windows' patches joined along the
    patch axis, in order: one encode and one nearest_entries call per scale.
    """
    stack = np.asarray(windows, dtype=np.float64)
    records = []
    for k, scale in enumerate(scales):
        patches = extract_patches(stack, scale)
        emb, cache = encode(patches, state.params[k])
        indices, quantized = nearest_entries(emb, state.codebooks[k])
        records.append(ScaleForward(patches.reshape(len(patches), -1, scale.patch_size),
                                    emb, cache, indices, quantized))
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
    encoder's gradient reads all variables' patches, concatenated here.
    """
    h_series, h_core = fwd.cache
    n_vars, n_patches, p = fwd.patches.shape
    if d_embeddings.shape[:2] != (n_vars, n_patches) or d_recon.shape[:2] != (n_vars, n_patches):
        raise ShapeError("upstream gradients do not match the cached forward pass")
    dh = params.w_series.shape[1]
    rows = n_vars * n_patches

    # products over patch rows run on rows padded by ndmath.pad_rows; the
    # padded rows are zero, so they add nothing
    recon = pad_rows(d_recon.reshape(rows, p))
    grads.w_dec += chunked_tdot(recon, fwd.quantized_rows)
    grads.b_dec += d_recon.sum(axis=(0, 1))
    d_emb = recon @ params.w_dec
    d_emb[:rows] += d_embeddings.reshape(rows, -1)  # straight-through copy
    # the core path, once per patch
    d_emb_core = pad_rows(d_emb[:rows].reshape(n_vars, n_patches, -1).sum(axis=0))

    grads.w_fuse[:, :dh] += chunked_tdot(d_emb, h_series)
    grads.w_fuse[:, dh:] += chunked_tdot(d_emb_core, h_core)
    grads.b_fuse += d_emb_core[:n_patches].sum(axis=0)
    d_h_series = (d_emb @ params.w_fuse[:, :dh])[:rows].reshape(n_vars, n_patches, dh)
    d_h_core = d_emb_core @ params.w_fuse[:, dh:]

    grads.w_series += chunked_tdot(pad_rows(d_h_series), pad_rows(fwd.patches))  # per variable
    grads.b_series += d_h_series.sum(axis=1)
    concat = pad_rows(fwd.patches.transpose(1, 0, 2).reshape(n_patches, -1))
    grads.w_core += chunked_tdot(d_h_core, concat)
    grads.b_core += d_h_core[:n_patches].sum(axis=0)


def vq_terms(fwd: ScaleForward, params: ScaleParams, mask=None):
    """Sums of squared reconstruction errors and quantization gaps, masked if given.

    mask, when given, holds 0/1 per patch, broadcastable to (n_vars,
    n_patches, 1). Returns (rec_sq, gap_sq, residual, gap) with the masked
    residual = mask * (decode(quantized) - patches) and gap = mask *
    (quantized - embeddings).
    """
    recon = decode(fwd.quantized_rows, params)[: fwd.indices.size]
    residual = recon.reshape(fwd.patches.shape) - fwd.patches
    gap = fwd.quantized - fwd.embeddings
    if mask is not None:
        residual *= mask
        gap *= mask
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
    into the selected rows of codebook_grad. Training passes no mask (None)
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


class ModelState:
    """All learnable state, as views into one flat float64 vector.

    flat holds every array of shapes (model_shapes order: scale by scale, the
    ScaleParams fields in field order, then the codebook). Each params[k]
    field and each codebooks[k] is a view into flat, so an elementwise
    update of flat (AdamW.step) updates every array, and copy() and zeros()
    are one array operation each. Code writes into the views and never
    rebinds them.
    """

    def __init__(self, n_vars: int, shapes: dict[str, tuple[int, ...]],
                 flat: np.ndarray | None = None):
        sizes = [math.prod(shape) for shape in shapes.values()]
        if 8 * sum(sizes) > np.iinfo(np.intp).max:  # numpy would raise ValueError
            raise MemoryError(f"cannot allocate a model of {sum(sizes)} float64 values")
        self.n_vars = n_vars
        self.shapes = shapes
        self.flat = np.zeros(sum(sizes)) if flat is None else flat
        views, start = {}, 0
        for (name, shape), size in zip(shapes.items(), sizes):
            views[name] = self.flat[start : start + size].reshape(shape)
            start += size
        self._views = views
        self.codebooks = [v for name, v in views.items() if name.endswith(".codebook")]
        self.params = [ScaleParams(**{f.name: views[f"scale{k}.{f.name}"]
                                      for f in fields(ScaleParams)})
                       for k in range(len(self.codebooks))]

    def copy(self) -> "ModelState":
        return ModelState(self.n_vars, self.shapes, self.flat.copy())

    def zeros(self) -> "ModelState":
        """A zeroed state of the same shapes: the gradient buffer of one step."""
        return ModelState(self.n_vars, self.shapes)

    def named_arrays(self) -> dict[str, np.ndarray]:
        """{name: view} of every array, in flat order; the checkpoint reads it."""
        return self._views


def init_model_state(config: RunConfig, n_vars: int, rng: Rng) -> ModelState:
    """Seeded initialization, drawn into the views in flat order.

    Weights are Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)), a weight's fan-in
    being its last axis; biases are zero; codebooks come from
    vq.init_codebook.
    """
    state = ModelState(n_vars, model_shapes(config, n_vars))
    for name, arr in state.named_arrays().items():
        if name.endswith(".codebook"):
            arr[...] = init_codebook(*arr.shape, rng)
        elif ".w_" in name:
            bound = 1.0 / np.sqrt(arr.shape[-1])
            arr[...] = rng.uniform(-bound, bound, arr.shape)
    return state
