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
    """Decoupled-weight-decay Adam over a named collection of parameter arrays.

    Callers pass parameters and gradients as {name: array} dicts; step
    updates the parameter arrays in place. The update is elementwise, so the
    moments and the step run once over the flat concatenation of every named
    gradient, and each array then takes its slice of the step. The flat
    moments are allocated on the first step for that step's names and
    shapes, in order; a later step with other names or shapes raises
    ShapeError. One step count covers every name. Weight decay scales the
    parameter directly and never enters the moment estimates.
    """

    def __init__(self, lr: float = 1e-4, weight_decay: float = 5e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.layout: list[tuple[str, tuple[int, ...]]] | None = None
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        """One in-place update of every named parameter array."""
        for name, p in params.items():
            if p.shape != grads[name].shape:
                raise ShapeError(f"{name}: param/grad shape mismatch: "
                                 f"{p.shape} vs {grads[name].shape}")
        layout = [(name, p.shape) for name, p in params.items()]
        if self.layout is None:
            self.layout = layout
            self.m = np.zeros(sum(p.size for p in params.values()))
            self.v = np.zeros_like(self.m)
        elif layout != self.layout:
            raise ShapeError(f"moments laid out for {self.layout}, step given {layout}")
        self.step_count += 1
        t = self.step_count
        g = np.concatenate([grads[name].ravel() for name in params])
        work = (1.0 - self.beta1) * g
        self.m *= self.beta1
        self.m += work
        np.multiply(g, 1.0 - self.beta2, out=work)
        work *= g
        self.v *= self.beta2
        self.v += work
        # lr * m_hat / (sqrt(v_hat) + eps) into g, in the two flat buffers
        np.divide(self.v, 1.0 - self.beta2**t, out=work)
        np.sqrt(work, out=work)
        work += self.eps
        np.divide(self.m, 1.0 - self.beta1**t, out=g)
        g *= self.lr
        g /= work
        decay = 1.0 - self.lr * self.weight_decay
        start = 0
        for p in params.values():
            p *= decay
            p -= g[start : start + p.size].reshape(p.shape)
            start += p.size


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


def pairwise_sq_dists(queries: np.ndarray, points: np.ndarray,
                      chunk: int = 512) -> np.ndarray:
    """Exact squared Euclidean distances, (Q, P) for (Q, d) x (P, d) inputs.

    Computed as direct squared differences (not the norm expansion) so that
    mathematically equal distances compare equal in floating point; argmin
    tie-breaking then deterministically favors the lowest index. Chunked over
    queries to bound the temporary (chunk, P, d) allocation.
    """
    q = np.asarray(queries, dtype=np.float64)
    p = np.asarray(points, dtype=np.float64)
    if q.ndim != 2 or p.ndim != 2 or q.shape[1] != p.shape[1]:
        raise ShapeError(f"incompatible shapes for distances: {q.shape} vs {p.shape}")
    out = np.empty((q.shape[0], p.shape[0]), dtype=np.float64)
    for s in range(0, q.shape[0], chunk):
        e = min(s + chunk, q.shape[0])
        diff = q[s:e, None, :] - p[None, :, :]
        np.multiply(diff, diff, out=diff)  # squares in place: one temporary
        out[s:e] = diff.sum(axis=-1)
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
