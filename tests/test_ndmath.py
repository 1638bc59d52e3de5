import numpy as np
import pytest

from comet.errors import NumericError, ShapeError
from comet.ndmath import (PAD_ROWS, REDUCTION_CHUNK, AdamW, Rng, chunked_tdot,
                          finite_diff_check, pad_rows, pairwise_sq_dists,
                          row_sums_by_key, sorted_median)


def one_step(opt, p, g):
    """opt's in-place update of a single parameter array; returns that array."""
    opt.step({"p": p}, {"p": g})
    return p


class TestAdamW:
    def test_zero_grad_zero_decay_is_fixed_point(self):
        opt = AdamW(lr=0.1, weight_decay=0.0)
        p = np.array([[1.0, -2.0]])
        out = one_step(opt, p.copy(), np.zeros_like(p))
        assert np.array_equal(out, p)

    def test_first_step_matches_hand_evaluation(self):
        # t=1: m_hat = g, v_hat = g^2, update = -lr * g / (|g| + eps)
        opt = AdamW(lr=0.1, weight_decay=0.0)
        out = one_step(opt, np.array([[0.0]]), np.array([[1.0]]))
        expected = -0.1 * 1.0 / (1.0 + 1e-8)
        assert abs(out[0, 0] - expected) < 1e-15
        assert abs(out[0, 0] - (-0.1)) < 1e-8

    def test_decoupled_decay_only(self):
        opt = AdamW(lr=0.1, weight_decay=0.5)
        out = one_step(opt, np.array([[1.0]]), np.array([[0.0]]))
        assert out[0, 0] == pytest.approx(0.95, abs=1e-15)

    def test_lr_zero_is_bit_identical(self):
        opt = AdamW(lr=0.0, weight_decay=0.3)
        p = np.array([[0.1, -0.7], [2.5, 0.0]])
        out = one_step(opt, p.copy(), np.ones_like(p))
        assert np.array_equal(out, p)

    def test_updates_given_arrays_in_place(self):
        # step returns nothing; the caller's arrays hold the update and the
        # gradients are left as they were
        opt = AdamW(lr=0.1, weight_decay=0.5)
        params = {"a": np.array([1.0, -1.0]), "b": np.array([[2.0]])}
        grads = {"a": np.array([0.5, 0.0]), "b": np.array([[-1.0]])}
        arrays = dict(params)
        before = {k: v.copy() for k, v in grads.items()}
        assert opt.step(params, grads) is None
        for name, arr in params.items():
            assert arr is arrays[name]
            assert np.array_equal(grads[name], before[name])
        assert params["a"][1] == pytest.approx(0.95 * -1.0, abs=1e-15)
        assert params["b"][0, 0] == pytest.approx(1.9 + 0.1, abs=1e-8)

    def test_step_count_increments(self):
        opt = AdamW(lr=0.1)
        params = {"a": np.zeros((2, 2)), "b": np.zeros(3)}
        for expected in (1, 2, 3):
            opt.step(params, {k: np.ones_like(v) for k, v in params.items()})
            assert opt.step_count == expected

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            one_step(AdamW(), np.zeros((2, 2)), np.zeros((3, 2)))

    @pytest.mark.parametrize("later", [
        {"a": np.zeros((2, 2))},                                 # a name dropped
        {"a": np.zeros((2, 2)), "b": np.zeros(3), "c": np.zeros(1)},  # one added
        {"b": np.zeros(3), "a": np.zeros((2, 2))},               # reordered
        {"a": np.zeros((4, 1)), "b": np.zeros(3)},               # same size, reshaped
    ])
    def test_other_layout_on_a_later_step_rejected(self, later):
        # the flat moments belong to the first step's names and shapes
        opt = AdamW(lr=0.1)
        params = {"a": np.zeros((2, 2)), "b": np.zeros(3)}
        opt.step(params, {k: np.ones_like(v) for k, v in params.items()})
        with pytest.raises(ShapeError):
            opt.step(later, {k: np.ones_like(v) for k, v in later.items()})
        assert opt.step_count == 1

    def test_optimizer_matches_functional_steps(self):
        # each name's update depends only on its own parameter and gradients
        rng = np.random.default_rng(2)
        params = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=(4,))}
        opt = AdamW(lr=0.01, weight_decay=0.1)
        alone = {name: AdamW(lr=0.01, weight_decay=0.1) for name in params}
        want = {name: p.copy() for name, p in params.items()}
        for _ in range(3):
            grads = {name: rng.normal(size=p.shape) for name, p in params.items()}
            opt.step(params, grads)
            for name in want:
                one_step(alone[name], want[name], grads[name])
            for name in params:
                assert np.array_equal(params[name], want[name])


class TestFiniteDiffCheck:
    def test_quadratic_exact(self):
        p = np.array([[0.3, -1.2], [2.0, 0.5]])

        def loss(params):
            return 0.5 * float(np.sum(params[0] ** 2))

        err = finite_diff_check(loss, [p], [p.copy()], h=1e-5)
        assert err <= 1e-6

    def test_detects_wrong_gradient(self):
        p = np.array([[1.0, 2.0]])

        def loss(params):
            return 0.5 * float(np.sum(params[0] ** 2))

        err = finite_diff_check(loss, [p], [2.0 * p], h=1e-5)
        assert err == pytest.approx(1.0, abs=1e-4)

    def test_non_finite_loss_raises(self):
        with pytest.raises(NumericError):
            finite_diff_check(
                lambda params: float("nan"), [np.ones((1, 1))], [np.ones((1, 1))]
            )


class TestRng:
    def test_seed_reproducibility(self):
        a = Rng(42).uniform(0.0, 1.0, 100)
        b = Rng(42).uniform(0.0, 1.0, 100)
        assert np.array_equal(a, b)

    def test_frozen_first_values_seed_42(self):
        # golden values of the PCG64 stream; guards cross-platform drift
        got = Rng(42).uniform(0.0, 1.0, 5)
        want = np.array([
            0.7739560485559633,
            0.4388784397520523,
            0.8585979199113825,
            0.6973680290593639,
            0.09417734788764953,
        ])
        assert np.array_equal(got, want)

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            Rng(1).uniform(0.0, 1.0, 10), Rng(2).uniform(0.0, 1.0, 10)
        )


class TestPairwiseSqDists:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(17, 4))
        p = rng.normal(size=(9, 4))
        d2 = pairwise_sq_dists(q, p, chunk=5)
        for i in range(17):
            for j in range(9):
                want = float(np.sum((q[i] - p[j]) ** 2))
                assert d2[i, j] == want

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            pairwise_sq_dists(np.zeros((2, 3)), np.zeros((2, 4)))


class TestChunkedTdot:
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    def test_matches_one_gemm(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.normal(size=(n, 5)), rng.normal(size=(n, 3))
        got = chunked_tdot(a, b)
        want = a.T @ b
        assert got.shape == (5, 3)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        if n <= REDUCTION_CHUNK:
            assert np.array_equal(got, want)

    def test_chunks_add_in_order(self):
        c = REDUCTION_CHUNK
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(2 * c + 88, 4)), rng.normal(size=(2 * c + 88, 2))
        want = a[:c].T @ b[:c]
        want += a[c : 2 * c].T @ b[c : 2 * c]
        want += a[2 * c :].T @ b[2 * c :]
        assert np.array_equal(chunked_tdot(a, b), want)

    @pytest.mark.parametrize("n", [1, 99, 260, 600])
    def test_batched_is_one_product_per_leading_index(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.normal(size=(3, n, 5)), rng.normal(size=(3, n, 2))
        got = chunked_tdot(a, b)
        assert got.shape == (3, 5, 2)
        for i in range(3):
            assert np.array_equal(got[i], chunked_tdot(a[i], b[i]))


class TestPadRows:
    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 33])
    def test_appends_zero_rows_to_a_multiple(self, n):
        x = np.arange(2 * n * 3, dtype=float).reshape(2, n, 3) + 1.0
        got = pad_rows(x)
        assert got.shape == (2, -(-n // PAD_ROWS) * PAD_ROWS, 3)
        assert np.array_equal(got[:, :n], x)
        assert not got[:, n:].any()

    def test_multiple_is_returned_as_is(self):
        x = np.ones((PAD_ROWS, 2))
        assert pad_rows(x) is x


class TestRowSumsByKey:
    @pytest.mark.parametrize("n,n_keys", [(1, 1), (7, 3), (198, 128), (500, 4)])
    def test_bits_of_sequential_add_at(self, n, n_keys):
        rng = np.random.default_rng(n)
        keys = rng.integers(0, n_keys, n)
        rows = rng.normal(size=(n, 6))
        want = np.zeros((n_keys, 6))
        np.add.at(want, keys, rows)
        assert np.array_equal(row_sums_by_key(keys, rows, n_keys), want)

    def test_keys_without_rows_sum_to_zero(self):
        out = row_sums_by_key(np.array([2, 2]), np.array([[1.0], [2.0]]), 4)
        assert out.tolist() == [[0.0], [0.0], [3.0], [0.0]]


class TestSortedMedian:
    @pytest.mark.parametrize("k", [1, 2, 5, 6, 7])
    def test_bits_of_np_median(self, k):
        # k = 7 is the row width
        rng = np.random.default_rng(k)
        rows = np.sort(rng.normal(size=(50, 7)) * rng.uniform(1e-3, 1e3, size=(50, 1)),
                       axis=1)
        got = sorted_median(rows, k)
        assert np.array_equal(got, np.median(rows[:, :k], axis=1))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_inf_beyond_k_ignored(self, k):
        # vq.local_scales_for's rows end in the +inf of their diagonal
        rng = np.random.default_rng(10 + k)
        d2 = rng.uniform(0.0, 4.0, size=(5, 5))
        np.fill_diagonal(d2, np.inf)
        rows = np.sort(d2, axis=1)
        got = sorted_median(rows, k)
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, np.median(rows[:, :k], axis=1))
