import numpy as np
import pytest

from comet.config import RunConfig, TrainConfig
from comet.errors import ConfigError, DegenerateModelError
from comet.model import (ScaleForward, backward, encode, init_model_state,
                         init_scale_params, vq_objective)
from comet.ndmath import Rng
from comet.patching import ScaleSpec, extract_patches
from comet.train import collect_activations
from comet.vq import (ActivationSet, Codebook, build_memory_bank,
                      init_codebook, local_scales_for, nearest_entries)


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
    embedding and quantized vectors, and backward only the cache.
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
            init_codebook(0, 0, 2, Rng(0))

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


class TestVqLosses:
    """Codebook and commitment terms of model.vq_objective and their routing."""

    def commitment_grads(self, fwd, params, alpha, beta):
        # encoder gradients of the commitment term alone: the objective's
        # gradients minus those of the same objective with beta = 0
        full = vq_objective(fwd, params, 1.0, 1.0, alpha, beta)
        rest = vq_objective(fwd, params, 1.0, 1.0, alpha, 0.0)
        return full, {k: v - getattr(rest.grads, k)
                      for k, v in full.grads.arrays().items()}

    def test_equal_vectors_zero_everything(self):
        fwd, params = tiny_record([0.4, -0.1], [0.4, -0.1])
        out, commit = self.commitment_grads(fwd, params, alpha=1.0, beta=1.0)
        assert out.gap_sq == 0.0
        assert np.array_equal(out.codebook_rows, np.zeros((1, 2)))
        for arr in commit.values():
            assert np.array_equal(arr, np.zeros_like(arr))

    def test_hand_gradients(self):
        fwd, params = tiny_record([1.0, 0.0], [0.0, 0.0])
        out, commit = self.commitment_grads(fwd, params, alpha=1.0, beta=1.0)
        assert out.gap_sq == 1.0
        assert np.array_equal(out.codebook_rows, np.array([[-2.0, 0.0]]))
        want = backward(fwd.cache, params, np.array([[[2.0, 0.0]]]),
                        np.zeros((1, 1, 1)), fwd.quantized)
        for name, arr in want.arrays().items():
            assert np.allclose(commit[name], arr, atol=1e-12), name

    def test_weights_scale_gradients(self):
        fwd, params = tiny_record([1.0, 0.0], [0.0, 0.0])
        out, commit = self.commitment_grads(fwd, params, alpha=0.5, beta=2.0)
        assert np.array_equal(out.codebook_rows, np.array([[-1.0, 0.0]]))
        want = backward(fwd.cache, params, np.array([[[4.0, 0.0]]]),
                        np.zeros((1, 1, 1)), fwd.quantized)
        for name, arr in want.arrays().items():
            assert np.allclose(commit[name], arr, atol=1e-12), name


class TestActivations:
    def test_idempotent_insertion(self):
        acts = ActivationSet(2)
        acts.record(0, 3)
        acts.record(0, 3)
        assert acts.sorted_indices(0).tolist() == [3]

    def test_scales_keep_distinct_members(self):
        acts = ActivationSet(2)
        acts.record(0, 5)
        acts.record(1, 5)
        assert acts.total() == 2
        assert 5 in acts.per_scale[0] and 5 in acts.per_scale[1]

    def test_record_activation_helper(self):
        # recording a quantization result activates the entry it chose
        acts = ActivationSet(1)
        idx, _ = nearest_entries(np.array([[0.9]]), np.array([[0.0], [1.0]]))
        acts.record_many(0, idx)
        assert acts.sorted_indices(0).tolist() == [1]

    def test_cardinality_bounded_by_codebook(self):
        config = RunConfig(patch_sizes=[2, 4], strides=[1, 2], embed_dim=4,
                           core_dim=2, codebook_size=3, window_length=16,
                           train=TrainConfig(seed=1))
        state = init_model_state(config, 2, Rng(1))
        windows = [np.random.default_rng(i).normal(size=(16, 2)) for i in range(4)]
        acts = collect_activations(state, windows, config)
        assert acts.total() <= len(config.scales) * config.codebook_size
        for k in range(2):
            assert len(acts.per_scale[k]) >= 1

    def test_membership_matches_set_scan(self):
        acts = ActivationSet(1)
        for i in (0, 2, 5):
            acts.record(0, i)
        idx = np.array([[0, 1], [5, 3]])
        got = acts.membership(0, idx)
        want = np.array([[True, False], [True, False]])
        assert np.array_equal(got, want)


class TestMemoryBank:
    def test_two_entry_hand_fixture(self):
        # 1-D entries {0, 1}: each one's only neighbor is at squared distance 1
        acts = ActivationSet(1)
        acts.record(0, 0)
        acts.record(0, 1)
        cb = Codebook(0, np.array([[0.0], [1.0]]))
        bank = build_memory_bank([cb], acts, n_density=2)
        assert np.array_equal(bank.scales[0].local_scales, np.array([1.0, 1.0]))

    def test_single_entry_scale_zero_by_convention(self):
        acts = ActivationSet(1)
        acts.record(0, 4)
        cb = Codebook(0, np.random.default_rng(3).normal(size=(6, 2)))
        bank = build_memory_bank([cb], acts, n_density=10)
        assert bank.scales[0].local_scales.tolist() == [0.0]

    def test_empty_scale_is_degenerate(self):
        acts = ActivationSet(1)
        cb = Codebook(0, np.zeros((3, 2)))
        with pytest.raises(DegenerateModelError):
            build_memory_bank([cb], acts, n_density=2)

    def test_bank_rows_identical_to_codebook_rows(self):
        rng = np.random.default_rng(4)
        cb = Codebook(0, rng.normal(size=(8, 3)))
        acts = ActivationSet(1)
        for i in (1, 4, 6):
            acts.record(0, i)
        bank = build_memory_bank([cb], acts, n_density=2)
        assert bank.scales[0].entry_ids.tolist() == [1, 4, 6]
        assert np.array_equal(bank.scales[0].vectors, cb.entries[[1, 4, 6]])

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
                    seen.add(scan_nearest(emb[i, j], state.codebooks[0].entries))
        assert bank.scales[0].entry_ids.tolist() == sorted(seen)

    def test_local_scales_median_definition(self):
        vectors = np.array([[0.0], [1.0], [3.0], [10.0]])
        # squared distances from 0: 1, 9, 100 -> 2 nearest {1, 9}, median 5
        scales = local_scales_for(vectors, n_density=2)
        assert scales[0] == 5.0

    def test_codebook_init_seeded(self):
        a = init_codebook(0, 4, 8, Rng(7)).entries
        b = init_codebook(0, 4, 8, Rng(7)).entries
        assert np.array_equal(a, b)
        assert a.shape == (4, 8)
