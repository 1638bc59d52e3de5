import numpy as np
import pytest

from helpers import group_bytes, scale_params, st_loss_closure, stdout_at_blas_threads

from comet.config import RunConfig, TrainConfig
from comet.errors import ShapeError
from comet import model, ndmath
from comet.model import (ScaleForward, ScaleParams, backward, decode, encode, forward,
                         init_model_state, model_shapes, vq_terms, window_groups)
from comet.ndmath import Rng, finite_diff_check
from comet.patching import ScaleSpec, extract_patches


def toy_params(n_vars=2, p=2, d=4, d_c=2, seed=0):
    return scale_params(ScaleSpec(p, 1), n_vars, d, d_c, Rng(seed))


def zero_params(n_vars, p, d, d_c):
    dh = d // 2
    return ScaleParams(
        w_series=np.zeros((n_vars, dh, p)),
        b_series=np.zeros((n_vars, dh)),
        w_core=np.zeros((d_c, n_vars * p)),
        b_core=np.zeros(d_c),
        w_fuse=np.zeros((d, dh + d_c)),
        b_fuse=np.zeros(d),
        w_dec=np.zeros((p, d)),
        b_dec=np.zeros(p),
    )


class TestEncode:
    def test_zero_params_give_zero_embeddings(self):
        window = np.random.default_rng(0).normal(size=(10, 2))
        params = zero_params(2, 2, 4, 2)
        emb, _ = encode(extract_patches(window[None], ScaleSpec(2, 1)), params)
        assert np.array_equal(emb, np.zeros_like(emb))

    def test_scalar_patch_hand_evaluation(self):
        # D=1, p=1, d=2, d_c=1: z = W_g [a*x + b1; c*x + c0] + b_g
        params = zero_params(1, 1, 2, 1)
        a, b1, c, c0 = 1.5, 0.25, -0.5, 2.0
        params.w_series[0, 0, 0] = a
        params.b_series[0, 0] = b1
        params.w_core[0, 0] = c
        params.b_core[0] = c0
        params.w_fuse = np.array([[2.0, 1.0], [0.5, -1.0]])
        params.b_fuse = np.array([0.1, -0.2])
        x = 0.7
        emb, _ = encode(extract_patches(np.array([[[x]]]), ScaleSpec(1, 1)), params)
        hs = a * x + b1
        hc = c * x + c0
        want = np.array([2.0 * hs + 1.0 * hc + 0.1, 0.5 * hs - 1.0 * hc - 0.2])
        assert np.allclose(emb[0, 0], want, atol=1e-15)

    def test_cross_variable_path_only_through_core(self):
        # with a zero core encoder, perturbing variable 1's patch leaves
        # variable 0's embeddings exactly unchanged
        rng = np.random.default_rng(1)
        window = rng.normal(size=(8, 2))
        params = toy_params()
        params.w_core[:] = 0.0
        params.b_core[:] = 0.0
        emb_a, _ = encode(extract_patches(window[None], ScaleSpec(2, 1)), params)
        perturbed = window.copy()
        perturbed[:, 1] += rng.normal(size=8)
        emb_b, _ = encode(extract_patches(perturbed[None], ScaleSpec(2, 1)), params)
        assert np.array_equal(emb_a[0], emb_b[0])
        assert not np.array_equal(emb_a[1], emb_b[1])

    def test_affine_linearity_with_zero_biases(self):
        rng = np.random.default_rng(2)
        params = toy_params(seed=3)
        params.b_series[:] = 0.0
        params.b_core[:] = 0.0
        params.b_fuse[:] = 0.0
        w1 = rng.normal(size=(6, 2))
        w2 = rng.normal(size=(6, 2))
        alpha, beta = 1.7, -0.3
        spec = ScaleSpec(2, 1)
        e1, _ = encode(extract_patches(w1[None], spec), params)
        e2, _ = encode(extract_patches(w2[None], spec), params)
        e3, _ = encode(extract_patches((alpha * w1 + beta * w2)[None], spec), params)
        assert np.max(np.abs(e3 - (alpha * e1 + beta * e2))) <= 1e-12

    def test_shape_mismatch(self):
        params = toy_params(n_vars=2, p=2)
        window = np.zeros((10, 3))
        with pytest.raises(ShapeError):
            encode(extract_patches(window[None], ScaleSpec(2, 1)), params)


class TestDecode:
    def test_zero_embedding_returns_bias(self):
        params = toy_params()
        params.b_dec = np.array([1.0, -2.0])
        assert np.array_equal(decode(np.zeros(4), params), np.array([1.0, -2.0]))

    def test_zero_weight_ignores_embedding(self):
        params = toy_params()
        params.w_dec[:] = 0.0
        params.b_dec = np.array([0.5, 0.5])
        out = decode(np.random.default_rng(4).normal(size=4), params)
        assert np.array_equal(out, params.b_dec)

    def test_matches_triple_loop_oracle(self):
        params = toy_params(seed=5)
        z = np.random.default_rng(6).normal(size=4)
        want = params.b_dec.copy()
        for r in range(2):
            for c in range(4):
                want[r] += params.w_dec[r, c] * z[c]
        assert np.max(np.abs(decode(z, params) - want)) <= 1e-12


def backward_grads(fwd, params, d_emb, d_rec, grads=None):
    """backward() added into zeroed gradients (or the given ones); returns them."""
    if grads is None:
        grads = ScaleParams(**{k: np.zeros_like(v) for k, v in vars(params).items()})
    backward(fwd, params, d_emb, d_rec, grads)
    return grads


class TestBackward:
    def _setup(self, seed=7):
        rng = np.random.default_rng(seed)
        window = rng.normal(size=(8, 2))
        params = toy_params(seed=seed)
        patches = extract_patches(window[None], ScaleSpec(2, 1))[:, 0]
        emb, cache = encode(patches[:, None], params)
        # the decoder input backward reads is the record's quantized vectors
        fwd = ScaleForward(patches, emb, cache, np.zeros(emb.shape[:2], dtype=np.int64),
                           rng.normal(size=emb.shape))
        return params, patches, fwd, emb, rng

    def test_zero_upstream_gives_zero_grads(self):
        params, patches, fwd, emb, _ = self._setup()
        grads = backward_grads(fwd, params, np.zeros_like(emb), np.zeros_like(patches))
        for arr in vars(grads).values():
            assert np.array_equal(arr, np.zeros_like(arr))

    def test_linearity_in_upstream(self):
        params, patches, fwd, emb, rng = self._setup()
        d_emb = rng.normal(size=emb.shape)
        d_rec = rng.normal(size=patches.shape)
        g1 = backward_grads(fwd, params, d_emb, d_rec)
        g2 = backward_grads(fwd, params, 2.0 * d_emb, 2.0 * d_rec)
        for name, arr in vars(g1).items():
            assert np.allclose(2.0 * arr, getattr(g2, name), atol=1e-12)

    def test_adds_into_given_grads(self):
        # a second call accumulates onto the first call's gradients
        params, patches, fwd, emb, rng = self._setup()
        d_emb = rng.normal(size=emb.shape)
        d_rec = rng.normal(size=patches.shape)
        once = backward_grads(fwd, params, d_emb, d_rec)
        twice = backward_grads(fwd, params, d_emb, d_rec,
                               backward_grads(fwd, params, d_emb, d_rec))
        for name, arr in vars(once).items():
            assert np.array_equal(2.0 * arr, getattr(twice, name)), name

    def test_patch_order_independence(self):
        # summed gradients are identical whether patches contribute all at
        # once or split into two groups
        params, patches, fwd, emb, rng = self._setup()
        d_emb = rng.normal(size=emb.shape)
        d_rec = rng.normal(size=patches.shape)
        full = backward_grads(fwd, params, d_emb, d_rec)
        half = np.zeros(emb.shape[1], dtype=bool)
        half[::2] = True
        parts = [backward_grads(fwd, params, d_emb * m3, d_rec * m3)
                 for m3 in (half[None, :, None], ~half[None, :, None])]
        for name, arr in vars(full).items():
            summed = getattr(parts[0], name) + getattr(parts[1], name)
            assert np.max(np.abs(arr - summed)) <= 1e-12

    def test_total_loss_gradients_pass_finite_difference(self):
        # toy configuration: D=2, L=12, p=2, d=4, d_c=2, M=3
        config = RunConfig(
            patch_sizes=[2], strides=[1], embed_dim=4, core_dim=2,
            codebook_size=3, window_length=12,
            train=TrainConfig(seed=11),
        )
        config.validate()
        rng = np.random.default_rng(12)
        window = rng.normal(size=(12, 2))
        state = init_model_state(config, 2, Rng(config.train.seed))
        loss_fn, params, grads = st_loss_closure(state, [window], config)
        assert finite_diff_check(loss_fn, params, grads, h=1e-5) <= 1e-4


def einsum_encode(patches, params):
    """The per-variable einsum encoder with the unsplit fuse: the oracle.

    Returns (embeddings, concat, fused_input), fused_input being the
    (n_vars, n_patches, d/2 + d_c) concatenation of series and core features.
    """
    n_vars, n_patches, p = patches.shape
    h_series = np.einsum("idp,inp->ind", params.w_series, patches) + params.b_series[:, None, :]
    concat = patches.transpose(1, 0, 2).reshape(n_patches, n_vars * p)
    h_core = concat @ params.w_core.T + params.b_core
    fused_input = np.concatenate(
        [h_series, np.broadcast_to(h_core, (n_vars,) + h_core.shape)], axis=2
    )
    return fused_input @ params.w_fuse.T + params.b_fuse, concat, fused_input


def einsum_backward(patches, quantized, params, d_embeddings, d_recon):
    """The einsum gradients of every scale parameter: the oracle of backward()."""
    _, concat, fused_input = einsum_encode(patches, params)
    dh = params.w_series.shape[1]
    g = {"w_dec": np.einsum("inp,ind->pd", d_recon, quantized),
         "b_dec": d_recon.sum(axis=(0, 1))}
    d_emb = d_embeddings + d_recon @ params.w_dec
    g["w_fuse"] = np.einsum("ind,inu->du", d_emb, fused_input)
    g["b_fuse"] = d_emb.sum(axis=(0, 1))
    d_fused_in = d_emb @ params.w_fuse
    d_h_series = d_fused_in[:, :, :dh]
    d_h_core = d_fused_in[:, :, dh:].sum(axis=0)
    g["w_series"] = np.einsum("ind,inp->idp", d_h_series, patches)
    g["b_series"] = d_h_series.sum(axis=1)
    g["w_core"] = d_h_core.T @ concat
    g["b_core"] = d_h_core.sum(axis=0)
    return g


def assert_close_relative(got, want, name):
    scale = max(float(np.max(np.abs(want))), np.finfo(float).tiny)
    assert np.max(np.abs(got - want)) <= 1e-12 * scale, name


class TestEinsumOracle:
    """The split-fuse BLAS forms against the einsum forms they replaced."""

    # n_vars = 5 at patch 2 gives 495 rows: two chunks of the gradient products
    @pytest.mark.parametrize("d,d_c", [(4, 2), (8, 5), (64, 64)])
    @pytest.mark.parametrize("p", [2, 4, 6])
    @pytest.mark.parametrize("n_vars", [1, 3, 5])
    def test_encode_and_backward_match_einsum(self, n_vars, p, d, d_c):
        rng = np.random.default_rng(n_vars * 100 + p * 10 + d)
        params = scale_params(ScaleSpec(p, 1), n_vars, d, d_c, Rng(p))
        for arr in vars(params).values():  # non-zero biases too
            arr += 0.1 * rng.normal(size=arr.shape)
        patches = extract_patches(rng.normal(size=(1, 100, n_vars)), ScaleSpec(p, 1))[:, 0]
        emb, cache = encode(patches[:, None], params)
        assert_close_relative(emb, einsum_encode(patches, params)[0], "embeddings")

        fwd = ScaleForward(patches, emb, cache, np.zeros(emb.shape[:2], dtype=np.int64),
                           rng.normal(size=emb.shape))
        d_emb = rng.normal(size=emb.shape)
        d_rec = rng.normal(size=patches.shape)
        got = backward_grads(fwd, params, d_emb, d_rec)
        want = einsum_backward(patches, fwd.quantized, params, d_emb, d_rec)
        for name, arr in vars(got).items():
            assert_close_relative(arr, want[name], name)


class TestModelState:
    CONFIG = dict(patch_sizes=[2, 4], strides=[1, 2], embed_dim=4, core_dim=2,
                  codebook_size=3, window_length=12)

    def test_named_arrays_round_trip(self):
        # named arrays are views that tile flat in model_shapes order, so
        # writing one state's arrays into another's views copies the model
        config = RunConfig(**self.CONFIG)
        state = init_model_state(config, 2, Rng(0))
        arrays = state.named_arrays()
        assert {k: v.shape for k, v in arrays.items()} == model_shapes(config, 2)
        assert np.array_equal(np.concatenate([v.ravel() for v in arrays.values()]),
                              state.flat)
        clone = init_model_state(config, 2, Rng(99))
        for name, arr in clone.named_arrays().items():
            arr[...] = arrays[name]
        assert np.array_equal(clone.flat, state.flat)

    def test_zeros_matches_shapes_and_shares_nothing(self):
        state = init_model_state(RunConfig(**self.CONFIG), 2, Rng(0))
        zeros = state.zeros()
        assert zeros.n_vars == state.n_vars
        assert not np.any(zeros.flat) and not np.shares_memory(zeros.flat, state.flat)
        arrays = state.named_arrays()
        for name, arr in zeros.named_arrays().items():
            assert arr.shape == arrays[name].shape
            assert np.array_equal(arr, np.zeros_like(arr))
            assert not np.shares_memory(arr, arrays[name])
            assert np.shares_memory(arr, zeros.flat)

    def test_copy_is_equal_and_shares_nothing(self):
        state = init_model_state(RunConfig(**self.CONFIG), 2, Rng(0))
        twin = state.copy()
        assert twin.n_vars == state.n_vars
        assert np.array_equal(twin.flat, state.flat)
        assert not np.shares_memory(twin.flat, state.flat)
        arrays = state.named_arrays()
        for name, arr in twin.named_arrays().items():
            assert np.array_equal(arr, arrays[name])
            assert not np.shares_memory(arr, arrays[name])
            assert np.shares_memory(arr, twin.flat)

    def test_init_is_seed_deterministic(self):
        config = RunConfig(embed_dim=8, core_dim=4, codebook_size=5)
        a = init_model_state(config, 3, Rng(42)).named_arrays()
        b = init_model_state(config, 3, Rng(42)).named_arrays()
        for k in a:
            assert np.array_equal(a[k], b[k])


class TestWindowGroups:
    # default scales and window: 180 patch rows per variable
    @pytest.mark.parametrize("d,n_vars,size", [
        (64, 2, 5), (64, 4, 2), (32, 4, 5), (32, 2, 11), (256, 51, 1),
    ])
    def test_windows_per_group(self, d, n_vars, size):
        config = RunConfig(embed_dim=d)
        wins = [np.zeros((config.window_length, n_vars)) for _ in range(23)]
        groups = window_groups(wins, n_vars, config)
        assert [len(g) for g in groups[:-1]] == [size] * (len(groups) - 1)
        assert 0 < len(groups[-1]) <= size
        assert [w for g in groups for w in g] == wins
        for group in groups:
            if len(group) > 1:
                assert group_bytes(config, n_vars, len(group)) <= ndmath.GROUP_BYTES


class TestQuantizedRows:
    @pytest.mark.parametrize("n_vars", [1, 2])  # 99 and 198 rows at patch 2
    def test_padded_once_and_shared_by_decode_and_backward(self, n_vars, monkeypatch):
        config = RunConfig(patch_sizes=[2], strides=[1], embed_dim=4, core_dim=2,
                           codebook_size=3)
        state = init_model_state(config, n_vars, Rng(1))
        window = np.random.default_rng(n_vars).normal(size=(100, n_vars))
        fwd = forward(state, [window], config.scales)[0]
        padded = fwd.quantized_rows
        rows = fwd.indices.size
        assert padded.shape == (rows + -rows % 16, 4)
        assert np.array_equal(padded[:rows], fwd.quantized.reshape(rows, 4))
        assert not np.any(padded[rows:])
        calls, pad = [], model.pad_rows
        monkeypatch.setattr(model, "pad_rows", lambda x: calls.append(x) or pad(x))
        grads = state.zeros()
        d_rec = vq_terms(fwd, state.params[0])[2]
        backward(fwd, state.params[0], np.zeros_like(fwd.embeddings), d_rec, grads.params[0])
        assert fwd.quantized_rows is padded
        assert not any(np.shares_memory(x, fwd.quantized) for x in calls)


# For each of 54 (d, n_vars, G) cases and each default scale, forwards a stack
# of G random windows and each window alone, and prints whether every window's
# embeddings and indices in the stack equal its own forward's, bit for bit,
# with a digest of the stack's embeddings. The stacks of one (d, n_vars) are
# the first G of 11 windows.
STACKED_FORWARD_SCRIPT = """
import hashlib
import itertools
import numpy as np
from comet.config import RunConfig
from comet.model import forward, init_model_state
from comet.ndmath import Rng
rng = np.random.default_rng(0)
for d, n_vars in itertools.product((32, 64, 128), (1, 2, 3, 4, 7, 12)):
    config = RunConfig(embed_dim=d, core_dim=d // 2, codebook_size=16)
    state = init_model_state(config, n_vars, Rng(d + n_vars))
    wins = rng.normal(size=(11, config.window_length, n_vars))
    alone = [forward(state, w[None], config.scales) for w in wins]
    for g in (2, 5, 11):
        for k, rec in enumerate(forward(state, wins[:g], config.scales)):
            emb = rec.embeddings.reshape(n_vars, g, -1, d)
            idx = rec.indices.reshape(n_vars, g, -1)
            same = all(np.array_equal(emb[:, i], one[k].embeddings)
                       and np.array_equal(idx[:, i], one[k].indices)
                       for i, one in enumerate(alone[:g]))
            print(d, n_vars, g, k, same, hashlib.sha256(rec.embeddings.tobytes()).hexdigest())
"""


# Prescott selects the Katmai kernel too; a kernel OpenBLAS does not report
# back is skipped
@pytest.mark.parametrize("core", ["SkylakeX", "Haswell", "Nehalem", "Sandybridge", "Katmai"])
def test_stacked_forward_equals_one_window_forward(core):
    # row-stacked, the core product moved embedding bits at 7 and 12
    # variables (d = 32 and 64) under SkylakeX, and the series product at
    # scale (4, 2) under Nehalem; run per window they do not
    one, two = stdout_at_blas_threads(STACKED_FORWARD_SCRIPT, core=core)
    lines = one.splitlines()
    assert len(lines) == 54 * 3
    assert [line for line in lines if line.split()[4] != "True"] == []
    assert one == two
