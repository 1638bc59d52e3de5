import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from comet import vq
from comet.config import RunConfig, TrainConfig
from comet.errors import ConfigError, DegenerateModelError, NumericError
from comet.model import (ScaleForward, ScaleParams, backward, encode, forward,
                         init_model_state, init_scale_params, vq_objective)
from comet.ndmath import Rng, pairwise_sq_dists
from comet.patching import ScaleSpec, extract_patches
from comet.train import Checkpoint, collect_activations, load_checkpoint, save_checkpoint
from comet.vq import build_memory_bank, init_codebook, local_scales_for, nearest_entries


def scan_nearest(z, entries):
    """Exhaustive-scan oracle: strict < keeps the lowest index on ties."""
    best, best_d = 0, None
    for m in range(entries.shape[0]):
        d = float(np.sum((z - entries[m]) ** 2))
        if best_d is None or d < best_d:
            best, best_d = m, d
    return best


def tiny_record(z_e, z_q):
    """One variable, one patch of length 1, d=2, with hand-set z_e and z_q.

    The forward cache comes from a real encode; the VQ terms read only the
    embedding and quantized vectors, and backward the cache and the quantized
    vectors.
    """
    scale = ScaleSpec(1, 1)
    params = init_scale_params(scale, 1, 2, 2, Rng(0))
    patches = extract_patches(np.array([[0.3]]), scale)
    _, cache = encode(patches, params)
    idx = np.zeros((1, 1), dtype=np.int64)
    fwd = ScaleForward(patches, np.array([[z_e]], dtype=np.float64), cache, idx,
                       np.array([[z_q]], dtype=np.float64))
    return fwd, params


class TestQuantize:
    def test_exact_match_residual_zero(self):
        entries = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
        z = np.array([2.0, 0.5])
        idx, quantized = nearest_entries(z, entries)
        assert idx == 2
        assert np.linalg.norm(z - quantized) == 0.0
        assert np.array_equal(quantized, entries[2])

    def test_hand_distances(self):
        entries = np.array([[0.0, 0.0], [1.0, 1.0]])
        idx, _ = nearest_entries(np.array([0.9, 1.2]), entries)
        assert idx == 1  # 0.05 vs 2.25

    def test_tie_breaks_to_lowest_index(self):
        entries = np.array([[0.0, 0.0], [1.0, 1.0]])
        idx, _ = nearest_entries(np.array([0.5, 0.5]), entries)
        assert idx == 0

    def test_empty_codebook(self):
        with pytest.raises(ConfigError):
            init_codebook(0, 2, Rng(0))

    def test_matches_exhaustive_scan_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m, d = int(rng.integers(1, 12)), int(rng.integers(1, 6))
            entries = rng.normal(size=(m, d))
            z = rng.normal(size=d)
            assert nearest_entries(z, entries)[0] == scan_nearest(z, entries)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        entries = rng.normal(size=(7, 3))
        for _ in range(20):
            idx, quantized = nearest_entries(rng.normal(size=3), entries)
            again, requantized = nearest_entries(quantized, entries)
            assert np.linalg.norm(quantized - requantized) == 0.0
            assert again == idx

    def test_batched_matches_single(self):
        rng = np.random.default_rng(2)
        entries = rng.normal(size=(5, 4))
        batch = rng.normal(size=(3, 6, 4))
        idx, quantized = nearest_entries(batch, entries)
        for i in range(3):
            for j in range(6):
                single = scan_nearest(batch[i, j], entries)
                assert idx[i, j] == single
                assert np.array_equal(quantized[i, j], entries[single])


def exact_nearest(queries, entries):
    """The exact kernel's argmin: the indices nearest_entries must reproduce."""
    return np.argmin(pairwise_sq_dists(queries, entries), axis=1)


def assert_certified(queries, entries):
    idx, quantized = nearest_entries(queries, entries)
    assert np.array_equal(idx, exact_nearest(queries, entries))
    assert idx.tolist() == [scan_nearest(z, entries) for z in queries]
    assert np.array_equal(quantized, entries[idx])


def plain_gemm_nearest(queries, entries):
    g = ((queries * queries).sum(1)[:, None] - 2.0 * queries @ entries.T
         + (entries * entries).sum(1)[None, :])
    return np.argmin(g, axis=1)


def count_certificate_rows(queries, entries):
    """Rows the count certificate sends to the exact kernel: those with other
    than exactly one entry within the margin of the row's smallest h."""
    with np.errstate(over="ignore", invalid="ignore"):
        q_sq = np.einsum("ij,ij->i", queries, queries)
        e_sq = np.einsum("ij,ij->i", entries, entries)
        h = queries @ (-2.0 * entries).T
        h += e_sq
        idx = np.argmin(h, axis=1)
        reach = np.sqrt(q_sq) + np.sqrt(e_sq.max())
        margin = 8.0 * (queries.shape[1] + 2) * (2.0**-53 * reach * reach + 2.0**-1074)
        bound = h[np.arange(idx.size), idx] + margin
        return np.flatnonzero(np.count_nonzero(h <= bound[:, None], axis=1) != 1)


def certificate_case(kind):
    """(queries, entries) of one kind, mixed with plain rows where it can be."""
    rng = np.random.default_rng(14)
    entries = rng.normal(size=(12, 5))
    queries = rng.normal(size=(40, 5))
    if kind == "tied":
        entries[7] = entries[2]
        queries[::3] = entries[2] + 1e-3 * rng.normal(size=(14, 5))
    elif kind == "one_ulp":
        entries[9] = np.nextafter(entries[4], np.inf)
        queries[::4] = entries[4]
    elif kind == "nan":
        # |e|^2 overflows to inf and q.e to -inf on every row: h is all NaN
        # (a plain row would overflow the exact kernel itself)
        entries = 1e160 + 1e150 * entries
        queries = 1e160 + 1e150 * queries
    elif kind == "overflow":
        # the big rows' |q|^2 and q.e overflow, so their margin is inf and
        # their h -inf, while |e|^2 and the exact distances stay finite
        entries = rng.uniform(1.0e154, 1.3e154, size=(12, 1))
        queries = queries[:, :1]
        queries[::6] = rng.uniform(1.35e154, 1.4e154, size=(7, 1))
    return queries, entries


@pytest.fixture
def recheck_rows(monkeypatch):
    """Counts the rows nearest_entries hands to the exact kernel."""
    rows = []

    def counting(queries, points):
        rows.append(queries.shape[0])
        return pairwise_sq_dists(queries, points)

    monkeypatch.setattr(vq, "pairwise_sq_dists", counting)
    return rows


@st.composite
def search_cases(draw):
    """(queries, entries) with ties, 1-ulp twins, offsets and tiny magnitudes."""
    d = draw(st.integers(1, 6))
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 5))
    coords = st.integers(-3, 3).map(float) | st.floats(-4.0, 4.0, width=64)
    entries = draw(hnp.arrays(np.float64, (m, d), elements=coords))
    queries = draw(hnp.arrays(np.float64, (n, d), elements=coords))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e-150, 1e-162, 1e120]))
    offset = draw(st.sampled_from([0.0, 1.0, 1e4, -1e8]))
    entries, queries = entries * scale + offset, queries * scale + offset
    for i, j, ulps in draw(st.lists(st.tuples(st.integers(0, m - 1),
                                              st.integers(0, m - 1),
                                              st.integers(-2, 2)), max_size=3)):
        twin = entries[j].copy()
        for _ in range(abs(ulps)):
            twin = np.nextafter(twin, np.copysign(np.inf, ulps))
        entries[i] = twin
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, m - 1)), max_size=2)):
        queries[i] = entries[j]
    return queries, entries


class TestCertifiedSearch:
    """GEMM search with exact re-check against the exhaustive scan."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(search_cases())
    def test_matches_exhaustive_scan(self, case):
        assert_certified(*case)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 70), st.integers(1, 40))
    def test_matches_exact_kernel_on_random_codebooks(self, seed, d, m):
        rng = np.random.default_rng(seed)
        entries = rng.normal(size=(m, d))
        queries = np.concatenate([rng.normal(size=(20, d)),
                                  entries[rng.integers(0, m, 5)]])
        assert np.array_equal(nearest_entries(queries, entries)[0],
                              exact_nearest(queries, entries))

    def test_entries_one_ulp_apart(self):
        base = np.random.default_rng(3).normal(size=4)
        up, down = np.nextafter(base, np.inf), np.nextafter(base, -np.inf)
        entries = np.stack([up, base, down, up])
        queries = np.stack([base, up, down, (base + up) / 2])
        assert_certified(queries, entries)
        assert nearest_entries(base, entries)[0] == 1

    def test_duplicated_rows_resolve_to_lowest_index(self, recheck_rows):
        rng = np.random.default_rng(5)
        entries = rng.normal(size=(6, 3))
        entries[4] = entries[1]
        queries = entries[1] + 1e-3 * rng.normal(size=(10, 3))
        idx, _ = nearest_entries(queries, entries)
        assert idx.tolist() == [1] * 10
        assert_certified(queries, entries)
        assert sum(recheck_rows) >= 10

    def test_common_offset_where_plain_gemm_fails(self, recheck_rows):
        rng = np.random.default_rng(6)
        queries = 1e4 + 1e-4 * rng.normal(size=(500, 8))
        entries = 1e4 + 1e-4 * rng.normal(size=(16, 8))
        exact = exact_nearest(queries, entries)
        assert np.mean(plain_gemm_nearest(queries, entries) == exact) < 0.9
        assert np.array_equal(nearest_entries(queries, entries)[0], exact)
        assert sum(recheck_rows) > 0

    def test_no_recheck_on_well_separated_data(self, recheck_rows):
        rng = np.random.default_rng(7)
        entries = rng.normal(size=(128, 64)) / 8.0
        queries = rng.normal(size=(198, 64)) / 8.0
        assert np.array_equal(nearest_entries(queries, entries)[0],
                              exact_nearest(queries, entries))
        assert recheck_rows == []

    def test_degenerate_sizes_and_zero_vectors(self):
        rng = np.random.default_rng(8)
        one = rng.normal(size=(1, 5))
        assert nearest_entries(rng.normal(size=(7, 5)), one)[0].tolist() == [0] * 7
        assert_certified(rng.normal(size=(9, 1)), rng.normal(size=(6, 1)))
        zeros = np.zeros((4, 3))
        assert nearest_entries(np.zeros((2, 3)), zeros)[0].tolist() == [0, 0]
        entries = np.vstack([np.ones(3), np.zeros(3), np.zeros(3)])
        assert nearest_entries(np.zeros(3), entries)[0] == 1

    def test_underflowing_products(self):
        # squares near 1e-324 lose their relative accuracy; the margin's
        # absolute term keeps the certificate valid
        rng = np.random.default_rng(10)
        for _ in range(200):
            d, m = int(rng.integers(1, 4)), int(rng.integers(2, 6))
            scale = 10.0 ** rng.uniform(-163, -150)
            entries = scale * rng.normal(size=(m, d))
            queries = scale * rng.normal(size=(4, d))
            assert np.array_equal(nearest_entries(queries, entries)[0],
                                  exact_nearest(queries, entries))

    def test_overflowing_norms_fall_back_to_exact_kernel(self, recheck_rows):
        # |q|^2 overflows to inf, so g is NaN, while the differences stay finite
        rng = np.random.default_rng(11)
        entries = 1e160 + 1e150 * rng.normal(size=(5, 2))
        queries = 1e160 + 1e150 * rng.normal(size=(6, 2))
        assert np.isfinite(pairwise_sq_dists(queries, entries)).all()
        assert_certified(queries, entries)
        assert sum(recheck_rows) == 6

    @pytest.mark.parametrize("kind", ["random", "tied", "one_ulp", "nan", "overflow"])
    def test_same_recheck_rows_as_count_certificate(self, kind, monkeypatch):
        queries, entries = certificate_case(kind)
        sent = []

        def capture(q, points):
            sent.append(q.copy())
            return pairwise_sq_dists(q, points)

        monkeypatch.setattr(vq, "pairwise_sq_dists", capture)
        idx, _ = nearest_entries(queries, entries)
        want = count_certificate_rows(queries, entries)
        got = np.concatenate(sent) if sent else np.empty((0, queries.shape[1]))
        assert np.array_equal(got, queries[want])
        assert np.array_equal(idx, exact_nearest(queries, entries))
        if kind == "nan":
            assert want.size == len(queries)
        elif kind != "random":
            assert 0 < want.size < len(queries)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        entries = np.random.default_rng(9).normal(size=(4, 2))
        queries = np.zeros((3, 2))
        queries[1, 0] = bad
        with pytest.raises(NumericError):
            nearest_entries(queries, entries)
        entries[2, 1] = bad
        with pytest.raises(NumericError):
            nearest_entries(np.zeros((3, 2)), entries)


def zeros_like_params(params):
    return ScaleParams(**{k: np.zeros_like(v) for k, v in params.arrays().items()})


class TestVqLosses:
    """The codebook and commitment terms of model.vq_objective and their routing."""

    def objective(self, fwd, params, alpha, beta):
        # (gap_sq, encoder/decoder grads, codebook grad) added into zeros
        grads = zeros_like_params(params)
        codebook_grad = np.zeros((2, fwd.quantized.shape[-1]))
        _, gap_sq = vq_objective(fwd, params, 1.0, 1.0, alpha, beta, grads, codebook_grad)
        return gap_sq, grads, codebook_grad

    def commitment_grads(self, fwd, params, alpha, beta):
        # encoder gradients of the commitment term alone: the objective's
        # gradients minus those of the same objective with beta = 0
        gap_sq, full, codebook_grad = self.objective(fwd, params, alpha, beta)
        _, rest, _ = self.objective(fwd, params, alpha, 0.0)
        return gap_sq, codebook_grad, {k: v - getattr(rest, k)
                                       for k, v in full.arrays().items()}

    def backward_of(self, fwd, params, d_emb):
        grads = zeros_like_params(params)
        backward(fwd, params, d_emb, np.zeros((1, 1, 1)), grads)
        return grads

    def test_equal_vectors_zero_everything(self):
        fwd, params = tiny_record([0.4, -0.1], [0.4, -0.1])
        gap_sq, codebook_grad, commit = self.commitment_grads(fwd, params, 1.0, 1.0)
        assert gap_sq == 0.0
        assert np.array_equal(codebook_grad, np.zeros((2, 2)))
        for arr in commit.values():
            assert np.array_equal(arr, np.zeros_like(arr))

    def test_hand_gradients(self):
        fwd, params = tiny_record([1.0, 0.0], [0.0, 0.0])
        gap_sq, codebook_grad, commit = self.commitment_grads(fwd, params, 1.0, 1.0)
        assert gap_sq == 1.0
        # only the selected row (entry 0) receives the codebook gradient
        assert np.array_equal(codebook_grad, np.array([[-2.0, 0.0], [0.0, 0.0]]))
        want = self.backward_of(fwd, params, np.array([[[2.0, 0.0]]]))
        for name, arr in want.arrays().items():
            assert np.allclose(commit[name], arr, atol=1e-12), name

    def test_weights_scale_gradients(self):
        fwd, params = tiny_record([1.0, 0.0], [0.0, 0.0])
        _, codebook_grad, commit = self.commitment_grads(fwd, params, 0.5, 2.0)
        assert np.array_equal(codebook_grad, np.array([[-1.0, 0.0], [0.0, 0.0]]))
        want = self.backward_of(fwd, params, np.array([[[4.0, 0.0]]]))
        for name, arr in want.arrays().items():
            assert np.allclose(commit[name], arr, atol=1e-12), name


def activation_setup(codebook_size=8, n_scales=2):
    """A small untrained model and a few windows for collect_activations."""
    config = RunConfig(patch_sizes=[2, 4][:n_scales], strides=[1, 2][:n_scales],
                       embed_dim=4, core_dim=2, codebook_size=codebook_size,
                       window_length=16, train=TrainConfig(seed=1))
    state = init_model_state(config, 2, Rng(1))
    windows = [np.random.default_rng(i).normal(size=(16, 2)) for i in range(4)]
    return config, state, windows


def only_entry(state, k, entry):
    """Make every embedding of scale k quantize to ``entry``: it sits at the
    origin and every other entry far away."""
    state.codebooks[k][:] = 1e6
    state.codebooks[k][entry] = 0.0


class TestActivations:
    def test_idempotent_insertion(self):
        # an entry hit by every patch of repeated windows is marked once
        config, state, windows = activation_setup()
        only_entry(state, 0, 3)
        once = collect_activations(state, windows[:1], config)
        twice = collect_activations(state, windows[:1] * 2, config)
        assert np.flatnonzero(once[0]).tolist() == [3]
        assert all(np.array_equal(a, b) for a, b in zip(once, twice))

    def test_scales_keep_distinct_members(self):
        config, state, windows = activation_setup()
        only_entry(state, 0, 5)
        only_entry(state, 1, 2)
        acts = collect_activations(state, windows, config)
        assert np.flatnonzero(acts[0]).tolist() == [5]
        assert np.flatnonzero(acts[1]).tolist() == [2]

    def test_record_activation_helper(self):
        # the mask marks exactly the entries the forward pass quantized to
        config, state, windows = activation_setup()
        acts = collect_activations(state, windows, config)
        for k in range(len(config.scales)):
            chosen = np.concatenate([forward(state, [[w]], config.scales)[0][k].indices.ravel()
                                     for w in windows])
            assert np.flatnonzero(acts[k]).tolist() == np.unique(chosen).tolist()

    def test_cardinality_bounded_by_codebook(self):
        config, state, windows = activation_setup(codebook_size=3)
        acts = collect_activations(state, windows, config)
        assert len(acts) == len(config.scales)
        for mask in acts:
            assert mask.dtype == bool
            assert mask.shape == (config.codebook_size,) and mask.sum() >= 1

    def test_membership_matches_set_scan(self, tmp_path):
        # a checkpoint's id lists load as masks whose lookups match a set scan
        config, state, _ = activation_setup(codebook_size=6, n_scales=1)
        acts = [np.isin(np.arange(6), [0, 2, 5])]
        path = tmp_path / "m.ckpt"
        save_checkpoint(Checkpoint(config, state, acts, np.zeros(2), np.ones(2)), path)
        mask = load_checkpoint(path).activations[0]
        idx = np.array([[0, 1], [5, 3]])
        want = np.array([[i in {0, 2, 5} for i in row] for row in idx])
        assert np.array_equal(mask[idx], want)


class TestMemoryBank:
    def test_two_entry_hand_fixture(self):
        # 1-D entries {0, 1}: each one's only neighbor is at squared distance 1
        acts = [np.array([True, True])]
        bank = build_memory_bank([np.array([[0.0], [1.0]])], acts, n_density=2)
        assert np.array_equal(bank.scales[0].local_scales, np.array([1.0, 1.0]))

    def test_single_entry_scale_zero_by_convention(self):
        acts = [np.arange(6) == 4]
        cb = np.random.default_rng(3).normal(size=(6, 2))
        bank = build_memory_bank([cb], acts, n_density=10)
        assert bank.scales[0].local_scales.tolist() == [0.0]

    def test_empty_scale_is_degenerate(self):
        with pytest.raises(DegenerateModelError):
            build_memory_bank([np.zeros((3, 2))], [np.zeros(3, dtype=bool)], n_density=2)

    def test_bank_rows_identical_to_codebook_rows(self):
        rng = np.random.default_rng(4)
        cb = rng.normal(size=(8, 3))
        bank = build_memory_bank([cb], [np.isin(np.arange(8), [1, 4, 6])], n_density=2)
        assert np.array_equal(bank.scales[0].vectors, cb[[1, 4, 6]])
        cb[1] += 1.0  # the bank holds copies
        assert not np.array_equal(bank.scales[0].vectors, cb[[1, 4, 6]])

    def test_contents_match_brute_force_activation_pass(self):
        config = RunConfig(patch_sizes=[2], strides=[1], embed_dim=4,
                           core_dim=2, codebook_size=5, window_length=12,
                           train=TrainConfig(seed=5))
        state = init_model_state(config, 2, Rng(5))
        windows = [np.random.default_rng(10 + i).normal(size=(12, 2)) for i in range(3)]
        acts = collect_activations(state, windows, config)
        bank = build_memory_bank(state.codebooks, acts, n_density=3)

        # brute force: re-quantize every patch embedding one by one
        seen = set()
        for w in windows:
            patches = extract_patches(w, config.scales[0])
            emb, _ = encode(patches, state.params[0])
            for i in range(emb.shape[0]):
                for j in range(emb.shape[1]):
                    seen.add(scan_nearest(emb[i, j], state.codebooks[0]))
        assert np.flatnonzero(acts[0]).tolist() == sorted(seen)
        assert np.array_equal(bank.scales[0].vectors, state.codebooks[0][sorted(seen)])

    def test_local_scales_median_definition(self):
        vectors = np.array([[0.0], [1.0], [3.0], [10.0]])
        # squared distances from 0: 1, 9, 100 -> 2 nearest {1, 9}, median 5
        scales = local_scales_for(vectors, n_density=2)
        assert scales[0] == 5.0

    def test_codebook_init_seeded(self):
        a = init_codebook(4, 8, Rng(7))
        b = init_codebook(4, 8, Rng(7))
        assert np.array_equal(a, b)
        assert a.shape == (4, 8)
