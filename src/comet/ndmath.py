"""Dense float64 math kernels: seeded RNG, AdamW, gradient checking, distances,
and the row-padded products and fixed-order reductions that keep results
independent of the BLAS thread count.

Everything in the package runs on 64-bit floats so that central-difference
gradient validation is meaningful. Matrix storage is plain C-contiguous
``numpy.ndarray``.

The RNG is pinned to numpy's PCG64 counter-based generator: a given integer
seed yields the same draw sequence on every platform and run, which makes
training checkpoints reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError

REDUCTION_CHUNK = 256  # rows per partial product of a long reduction
PAD_ROWS = 16  # row count of a product over patch rows pads to a multiple of this
# the one working-set budget, in bytes: forward groups (model.group_size),
# frozen batches (scoring.score_windows) and pairwise_sq_dists's query blocks
# size their largest float64 temporary to it; read as ndmath.GROUP_BYTES
GROUP_BYTES = 1 << 20


class Rng:
    """Seeded random source (PCG64). Identical seed, identical sequence."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        return self._gen.uniform(low, high, size=size)

    def normal(self, scale: float, size) -> np.ndarray:
        return self._gen.normal(0.0, scale, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


class AdamW:
    """Decoupled-weight-decay Adam over one flat parameter vector.

    step updates the parameter vector in place from a gradient vector of the
    same shape, and leaves the gradients untouched. The update is
    elementwise, so it needs no structure beyond the flat vector: a model
    passes ModelState.flat, whose arrays are views into it. The moments are
    allocated on the first step for that step's shape; a later step with
    another shape raises ShapeError. Weight decay scales the parameter
    directly and never enters the moment estimates.
    """

    def __init__(self, lr: float = 1e-4, weight_decay: float = 5e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def step(self, params: np.ndarray, grads: np.ndarray):
        """One in-place update of the parameter vector."""
        if params.shape != grads.shape:
            raise ShapeError(f"param/grad shape mismatch: {params.shape} vs {grads.shape}")
        if self.m is None:
            self.m = np.zeros(params.shape)
            self.v = np.zeros(params.shape)
        elif params.shape != self.m.shape:
            raise ShapeError(f"moments shaped {self.m.shape}, step given {params.shape}")
        self.step_count += 1
        t = self.step_count
        work = (1.0 - self.beta1) * grads
        self.m *= self.beta1
        self.m += work
        np.multiply(grads, 1.0 - self.beta2, out=work)
        work *= grads
        self.v *= self.beta2
        self.v += work
        # lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(self.v, 1.0 - self.beta2**t, out=work)
        np.sqrt(work, out=work)
        work += self.eps
        update = self.m / (1.0 - self.beta1**t)
        update *= self.lr
        update /= work
        params *= 1.0 - self.lr * self.weight_decay
        params -= update


def finite_diff_check(loss_fn, params: list[np.ndarray],
                      analytic_grads: list[np.ndarray], h: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central differences.

    ``loss_fn`` takes the parameter list and returns a scalar; it must be
    deterministic. Error per coordinate is |analytic - fd| / (|fd| + 1e-8).
    Intended for toy problem sizes only — cost is two loss evaluations per
    scalar parameter.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    worst = 0.0
    work = [p.copy() for p in params]
    for k, p in enumerate(work):
        flat = p.reshape(-1)
        g_flat = analytic_grads[k].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lo_hi = loss_fn(work)
            flat[i] = orig - h
            lo_lo = loss_fn(work)
            flat[i] = orig
            if not (np.isfinite(lo_hi) and np.isfinite(lo_lo)):
                raise NumericError("loss_fn returned a non-finite value during checking")
            fd = (lo_hi - lo_lo) / (2.0 * h)
            err = abs(g_flat[i] - fd) / (abs(fd) + 1e-8)
            worst = max(worst, err)
    return worst


def pairwise_sq_dists(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean distances, (Q, P) for (Q, d) x (P, d) inputs.

    Computed as direct squared differences (not the norm expansion) so that
    mathematically equal distances compare equal in floating point; argmin
    tie-breaking then deterministically favors the lowest index. Queries run
    in blocks of as many rows as keep the (rows, P, d) difference within
    GROUP_BYTES, at least one; a row's sums do not depend on its block.
    """
    q = np.asarray(queries, dtype=np.float64)
    p = np.asarray(points, dtype=np.float64)
    if q.ndim != 2 or p.ndim != 2 or q.shape[1] != p.shape[1]:
        raise ShapeError(f"incompatible shapes for distances: {q.shape} vs {p.shape}")
    block = max(1, GROUP_BYTES // max(1, 8 * p.size))
    out = np.empty((q.shape[0], p.shape[0]), dtype=np.float64)
    for s in range(0, q.shape[0], block):
        diff = q[s : s + block, None, :] - p[None, :, :]
        np.multiply(diff, diff, out=diff)  # squares in place: one temporary
        out[s : s + block] = diff.sum(axis=-1)
    return out


def sorted_median(rows: np.ndarray, k: int) -> np.ndarray:
    """np.median(rows[:, :k], axis=1) of rows sorted ascending, by indexing.

    The middle entry for odd k, the mean of the two middle entries for even
    k: the bits np.median gives, without its partition pass.
    """
    if k % 2:
        return rows[:, k // 2].copy()
    return (rows[:, k // 2 - 1] + rows[:, k // 2]) / 2.0


def pad_rows(x: np.ndarray) -> np.ndarray:
    """x with zero rows appended on axis -2 up to a multiple of PAD_ROWS.

    Products whose row count is a count of patch rows, as GEMM rows or as the
    reduction of a.T @ b, run on rows padded this way: off that multiple a
    GEMM gave bits that depend on the BLAS thread count. The zero rows add
    nothing to a product.
    """
    n = x.shape[-2]
    if not n % PAD_ROWS:
        return x
    out = np.zeros(x.shape[:-2] + (n + -n % PAD_ROWS, x.shape[-1]))
    out[..., :n, :] = x
    return out


def chunked_tdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a.T @ b for (..., n, k) and (..., n, m) arrays, summed over chunks of n.

    Leading axes batch the product. The n rows run in fixed chunks of
    REDUCTION_CHUNK, one GEMM per chunk, and the partial products add in
    order. One GEMM over a long reduction gave bits that depend on the BLAS
    thread count; in chunks, the bits were equal at 1 and 2 threads at every
    width the cross-thread tests cover. Callers reducing over patch rows pass
    them padded by pad_rows, so every chunk is a multiple of PAD_ROWS.
    """
    c = REDUCTION_CHUNK
    out = a[..., :c, :].swapaxes(-1, -2) @ b[..., :c, :]
    for s in range(c, a.shape[-2], c):
        out += a[..., s : s + c, :].swapaxes(-1, -2) @ b[..., s : s + c, :]
    return out


def row_sums_by_key(keys: np.ndarray, rows: np.ndarray, n_keys: int) -> np.ndarray:
    """(n_keys, k) sums of (n, k) rows grouped by integer keys in [0, n_keys).

    Row j of the result adds the rows with key j in row order, starting from
    zero: the bits of a sequential np.add.at into zeros, from one
    np.bincount over (key, column) pairs at a fraction of its cost.
    """
    width = rows.shape[1]
    cells = (keys * width)[:, None] + np.arange(width)
    return np.bincount(cells.ravel(), weights=np.ravel(rows),
                       minlength=n_keys * width).reshape(n_keys, width)
