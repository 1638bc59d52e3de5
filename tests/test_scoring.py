import sys

import numpy as np
import pytest
from helpers import finalized_alive, group_bytes, stdout_at_blas_threads, tiny_pipeline

from comet.config import RunConfig, SelectionConfig, TrainConfig
from comet.errors import ConfigError, DataError, NumericError, ShapeError
from comet.model import init_model_state
from comet.ndmath import Rng
from comet.scoring import (EmaState, Scorer, aggregate,
                           ema_normalize, local_scaling_distance, memory_scores_for_queries,
                           merge_window_scores, query_local_scale, score_series,
                           score_windows, select_variables)
from comet.vq import BankScale, build_memory_bank

EPS = 1e-8


def one_d_bank():
    """Bank entries {0, 1} in one dimension, density neighbors = 2."""
    vectors = np.array([[0.0], [1.0]])
    return BankScale(
        vectors=vectors,
        local_scales=np.array([1.0, 1.0]),  # all-but-self at squared distance 1
    )


class TestLocalScalingDistance:
    def test_zero_numerator(self):
        z = np.array([0.3, -0.4])
        assert local_scaling_distance(z, z.copy(), 2.0, 5.0, EPS) == 0.0

    def test_hand_fixture(self):
        # query 0.5 against entry 0: 0.25 / ((0.25 + 1)/2 + eps)
        sigma_q = query_local_scale(np.array([0.25, 0.25]), n_density=2)
        assert sigma_q == 0.25
        got = local_scaling_distance(np.array([0.5]), np.array([0.0]),
                                     sigma_q, 1.0, EPS)
        assert got == pytest.approx(0.25 / (0.625 + EPS), abs=1e-15)
        assert got == pytest.approx(0.4, abs=1e-7)

    def test_density_adaptivity(self):
        z, m = np.array([1.0, 0.0]), np.array([0.0, 0.0])
        near = local_scaling_distance(z, m, 0.5, 0.5, 0.0)
        far = local_scaling_distance(z, m, 5.0, 5.0, 0.0)
        assert near == pytest.approx(10.0 * far, rel=1e-12)

    def test_symmetric_in_scales(self):
        z, m = np.array([1.0, 2.0]), np.array([0.0, 1.0])
        a = local_scaling_distance(z, m, 0.3, 1.9, EPS)
        b = local_scaling_distance(z, m, 1.9, 0.3, EPS)
        assert a == b


class TestMemoryScores:
    def test_hand_fixture_mean(self):
        got = memory_scores_for_queries(np.array([[0.5]]), one_d_bank(),
                                        n_neighbors=2, n_density=2, eps=EPS)
        assert got[0] == pytest.approx(0.25 / (0.625 + EPS), abs=1e-12)

    def test_self_inclusion_lowers_mean(self):
        # a query equal to a bank entry sees itself at distance 0; that zero
        # term pulls the neighborhood mean below the self-excluded mean
        bank = one_d_bank()
        got = memory_scores_for_queries(np.array([[0.0]]), bank, 2, 2, EPS)[0]
        sigma_q = query_local_scale(np.array([0.0, 1.0]), 2)  # median .5
        self_term = 0.0
        other_term = 1.0 / ((sigma_q + 1.0) / 2.0 + EPS)
        assert got == pytest.approx((self_term + other_term) / 2.0, abs=1e-12)
        assert got < other_term

    def test_plain_squared_distance_ablation(self):
        bank = one_d_bank()
        got = memory_scores_for_queries(np.array([[0.5]]), bank, 2, 2, EPS,
                                        use_local_scaling=False)
        assert got[0] == pytest.approx(0.25, abs=1e-15)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(12, 5))
        queries = rng.normal(size=(7, 5))
        rot, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        from comet.vq import local_scales_for
        bank_a = BankScale(vectors, local_scales_for(vectors, 4))
        rv = vectors @ rot
        bank_b = BankScale(rv, local_scales_for(rv, 4))
        a = memory_scores_for_queries(queries, bank_a, 5, 4, EPS)
        b = memory_scores_for_queries(queries @ rot, bank_b, 5, 4, EPS)
        assert np.max(np.abs(a - b)) <= 1e-9


class TestSelectVariables:
    def test_single_variable_passthrough(self):
        s = np.array([[1.0, 5.0, 2.0]])
        agg, mask = select_variables(s, SelectionConfig())
        assert np.array_equal(agg, s[0])
        assert mask.all()

    def test_constant_scores_select_everyone(self):
        s = np.ones((3, 4)) * 2.5
        agg, mask = select_variables(s, SelectionConfig(mode="percentile", percentile=0.0))
        assert mask.all()
        assert np.allclose(agg, 2.5)

    def test_constant_row_deviates_by_zero_however_its_mean_rounds(self):
        # the mean of three 0.1s rounds to 0.10000000000000002, that of three
        # 0.5s to 0.5; both rows are constant, so both deviate by exactly 0
        # and, at t=1 beside variable 1's exact 0, tie at the threshold
        base = np.array([[0.0, 5.0, 1.0], [0.0, 1.0, 2.0], [0.0, 0.0, 0.0]])
        cfg = SelectionConfig(percentile=25.0)
        masks = []
        for value in (0.1, 0.5):
            s = base.copy()
            s[2] = value
            masks.append(select_variables(s, cfg)[1])
        assert np.full(3, 0.1).mean() != 0.1 and np.full(3, 0.5).mean() == 0.5
        assert np.array_equal(masks[0], masks[1])
        assert masks[0][:, 1].tolist() == [True, True, True]

    def test_budget_hand_fixture(self):
        # variables' deviations at t=1: |1|, 0, |1|; budget 2 keeps the stable
        # variable 2 plus the always-included variable 0 -> mean(10, 5) = 7.5
        s = np.array([[0.0, 10.0], [5.0, 5.0], [0.0, 2.0]])
        agg, mask = select_variables(s, SelectionConfig(mode="budget", budget=2))
        assert mask[:, 1].tolist() == [True, True, False]
        assert agg[1] == pytest.approx(7.5)

    def test_budget_counts_forced_variable(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=(6, 9))
        for budget in (1, 2, 4, 6, 8):
            _, mask = select_variables(s, SelectionConfig(mode="budget", budget=budget))
            assert np.all(mask[0])
            assert np.all(mask.sum(axis=0) == min(budget, 6))

    def test_never_empty_and_variable_zero_forced(self):
        rng = np.random.default_rng(2)
        s = rng.normal(size=(4, 11)) ** 2
        for rho in (0.0, 25.0, 75.0, 100.0):
            _, mask = select_variables(s, SelectionConfig(percentile=rho))
            assert np.all(mask.sum(axis=0) >= 1)
            assert np.all(mask[0])

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            select_variables(np.zeros(3), SelectionConfig())

    @pytest.mark.parametrize("kind", ["random", "ties", "near_ties", "constant_rows"])
    def test_stack_matches_percentile_oracle(self, kind):
        # every (n_vars, W) matrix of a (B, n_vars, W) stack gets the bits
        # np.percentile gives that matrix alone
        rng = np.random.default_rng(12)
        for n_vars in range(1, 10):
            stack = selection_inputs(rng, kind, (5, n_vars, 7))
            for rho in (0.0, 12.5, 25.0, 50.0, 75.0, 99.0, 100.0):
                cfg = SelectionConfig(percentile=rho)
                agg, mask = select_variables(stack, cfg, EPS)
                for b, s in enumerate(stack):
                    want_agg, want_mask = percentile_selection_oracle(s, rho, EPS)
                    assert np.array_equal(agg[b], want_agg), (n_vars, rho, b)
                    assert np.array_equal(mask[b], want_mask), (n_vars, rho, b)

    def test_stack_matches_each_matrix_in_every_mode(self):
        # both score streams of a batch stack as (2, B, n_vars, W)
        rng = np.random.default_rng(13)
        stack = selection_inputs(rng, "ties", (2, 4, 6, 9))
        for cfg in (SelectionConfig(percentile=40.0),
                    SelectionConfig(mode="budget", budget=3)):
            agg, mask = select_variables(stack, cfg, EPS)
            for i in np.ndindex(stack.shape[:2]):
                one_agg, one_mask = select_variables(stack[i], cfg, EPS)
                assert np.array_equal(agg[i], one_agg)
                assert np.array_equal(mask[i], one_mask)


def percentile_selection_oracle(s, percentile, eps):
    """Percentile-mode selection of one (n_vars, W) matrix through np.percentile."""
    n_vars = s.shape[0]
    if n_vars == 1:
        return s[0].copy(), np.ones_like(s, dtype=bool)
    mu = s.mean(axis=1, keepdims=True)
    sd = s.std(axis=1, keepdims=True)
    dev = np.abs((s - mu) / (sd + eps))
    dev[np.ptp(s, axis=1) == 0] = 0.0
    mask = dev <= np.percentile(dev, percentile, axis=0)[None, :]
    mask[0, :] = True
    return np.where(mask, s, 0.0).sum(axis=0) / mask.sum(axis=0), mask


def selection_inputs(rng, kind, shape):
    """Score stacks: random, with tied values, with rows one ulp apart, or
    with some constant rows."""
    if kind == "ties":
        return rng.integers(0, 3, size=shape).astype(np.float64) / 10.0
    s = rng.normal(size=shape) ** 2
    if kind == "near_ties":
        # every variable a copy of variable 0, every other one 1 ulp above it,
        # so deviations at a position tie or sit a few ulps apart
        s[..., :, :] = s[..., :1, :]
        s[..., 1::2, :] = np.nextafter(s[..., 1::2, :], np.inf)
    if kind == "constant_rows":
        rows = rng.random(shape[:-1]) < 0.4
        s[rows] = rng.choice([0.1, 0.5, 1.0 / 3.0], size=int(rows.sum()))[:, None]
    return s


class TestEmaNormalize:
    def test_momentum_zero_is_per_window_minmax(self):
        state = EmaState(momentum=0.0)
        w1 = np.array([2.0, 4.0, 6.0])
        out1 = ema_normalize(w1, state, EPS)
        assert np.allclose(out1, (w1 - 2.0) / (4.0 + EPS))
        w2 = np.array([10.0, 30.0])
        out2 = ema_normalize(w2, state, EPS)
        assert np.allclose(out2, (w2 - 10.0) / (20.0 + EPS))

    def test_recurrence_hand_value(self):
        state = EmaState(momentum=0.75)
        ema_normalize(np.array([2.0, 9.0]), state, EPS)   # seeds mu_min = 2
        ema_normalize(np.array([6.0, 9.0]), state, EPS)
        assert state.mu_min == pytest.approx(0.75 * 2.0 + 0.25 * 6.0, abs=1e-15)

    def test_constant_window_all_zero(self):
        state = EmaState(momentum=0.5)
        out = ema_normalize(np.full(5, 3.3), state, EPS)
        assert np.array_equal(out, np.zeros(5))

    def test_empty_window_rejected(self):
        with pytest.raises(DataError):
            ema_normalize(np.array([]), EmaState(momentum=0.5), EPS)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_window_rejected(self, bad):
        # unchecked, one NaN turns the whole window and the EMA state into NaN
        state = EmaState(momentum=0.5)
        with pytest.raises(NumericError, match="offset 2"):
            ema_normalize(np.array([1.0, 2.0, bad, 4.0]), state, EPS)
        assert not state.initialized


class TestAggregate:
    def test_extremes_and_midpoint(self):
        mem = np.array([0.2, 0.8])
        quant = np.array([0.6, 0.0])
        assert np.array_equal(aggregate(mem, quant, 0.0), mem)
        assert np.array_equal(aggregate(mem, quant, 1.0), quant)
        assert np.allclose(aggregate(np.array([0.2]), np.array([0.6]), 0.5), [0.4])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            aggregate(np.zeros(3), np.zeros(4), 0.5)


class TestPipeline:
    def test_scale_averaging_of_quant_scores(self):
        # two single-timestep scales with constant embeddings: residuals are
        # 3 and 4 per scale, so the per-timestep quantization score is 3.5
        config = RunConfig(
            patch_sizes=[1, 1], strides=[1, 1], embed_dim=2, core_dim=1,
            codebook_size=1, window_length=4, window_stride=4,
            use_variable_selection=False, use_normalization=False,
        )
        config.validate()
        state = init_model_state(config, 1, Rng(0))
        for k, residual in enumerate((3.0, 4.0)):
            p = state.params[k]
            for arr in (p.w_series, p.b_series, p.w_core, p.b_core, p.w_fuse):
                arr[:] = 0.0
            p.b_fuse[:] = 0.0
            state.codebooks[k][:] = 0.0
            p.b_fuse[0] = residual  # embedding (residual, 0), entry (0, 0)
        acts = [np.ones(1, dtype=bool), np.ones(1, dtype=bool)]
        bank = build_memory_bank(state.codebooks, acts, config.n_density)
        scorer = Scorer(state, bank, config)
        _, raw = scorer.raw_window_scores([np.zeros((4, 1))])
        assert raw.shape == (2, 1, 1, 4)
        assert np.allclose(raw[1], 3.5)

    def test_quant_scores_match_recompute_oracle(self):
        config, state, bank, series = tiny_pipeline()
        scorer = Scorer(state, bank, config)
        window = series[:12]
        _, raw = scorer.raw_window_scores([window])
        quant = raw[1, 0]

        from comet.model import encode
        from comet.patching import coverage, extract_patches
        from comet.vq import nearest_entries
        acc = np.zeros((2, 12))
        for k, scale in enumerate(config.scales):
            patches = extract_patches(window[None], scale)
            emb, _ = encode(patches, state.params[k])
            _, q = nearest_entries(emb, state.codebooks[k])
            residual = np.linalg.norm(emb - q, axis=2)
            acc += coverage(scale, 12).spread(residual)
        assert np.max(np.abs(quant - acc / 2)) <= 1e-12

    def test_score_series_deterministic(self):
        config, state, bank, series = tiny_pipeline()
        a = score_series(state, bank, series, config)
        b = score_series(state, bank, series, config)
        assert np.array_equal(a.score, b.score)
        assert np.array_equal(a.mem, b.mem)
        assert np.array_equal(a.quant, b.quant)

    def test_argmax_invariant_under_affine_rescaling(self):
        # momentum 0: per-window min-max removes affine offsets of raw streams
        rng = np.random.default_rng(4)
        raw_mem = [rng.normal(size=10) ** 2 for _ in range(4)]
        raw_quant = [rng.normal(size=10) ** 2 for _ in range(4)]

        def run(a, b):
            st_m, st_q = EmaState(momentum=0.0), EmaState(momentum=0.0)
            merged = []
            for m, q in zip(raw_mem, raw_quant):
                mn = ema_normalize(a * m + b, st_m, EPS)
                qn = ema_normalize(a * q + b, st_q, EPS)
                merged.append(aggregate(mn, qn, 0.5))
            return np.argmax(np.concatenate(merged))

        assert run(1.0, 0.0) == run(3.7, 2.2)

    def test_merge_requires_full_coverage(self):
        from comet.scoring import WindowScores
        ws = WindowScores(offset=0, mem=np.zeros(4), quant=np.zeros(4),
                          combined=np.zeros(4))
        with pytest.raises(DataError):
            merge_window_scores([ws], total_length=6)

    def test_group_with_a_window_of_other_width_rejected(self):
        config, state, bank, series = tiny_pipeline()
        scorer = Scorer(state, bank, config)
        with pytest.raises(ShapeError):
            scorer.raw_window_scores([series[:12], series[:12, :1]])

    def test_out_of_order_windows_rejected(self):
        config, state, bank, series = tiny_pipeline()
        scorer = Scorer(state, bank, config)
        wins = [series[:12], series[6:18]]
        with pytest.raises(DataError):
            list(score_windows(scorer, wins, [6, 0]))  # checked as it is iterated

    @pytest.mark.parametrize("selection", [True, False])
    @pytest.mark.parametrize("normalization", [True, False])
    def test_finalize_matches_hand_applied_steps(self, selection, normalization):
        config, state, bank, series = tiny_pipeline(n_vars=3)
        config.use_variable_selection = selection
        config.use_normalization = normalization
        scorer = Scorer(state, bank, config)
        from comet.data import windows
        wins, offsets = windows(series, config.window_length, config.window_stride)
        assert len(wins) >= 3
        ema_m, ema_q = EmaState(config.ema_momentum), EmaState(config.ema_momentum)
        scored = list(score_windows(scorer, wins, [int(o) for o in offsets]))
        for w, off, got in zip(wins, offsets, scored):
            _, raw = Scorer(state, bank, config).raw_window_scores([w])
            mem, quant = raw[:, 0]
            if selection:
                mem_t = select_variables(mem, config.selection, config.eps)[0]
                quant_t = select_variables(quant, config.selection, config.eps)[0]
            else:
                mem_t, quant_t = mem.mean(axis=0), quant.mean(axis=0)
            if normalization:
                mem_t = ema_normalize(mem_t, ema_m, config.eps)
                quant_t = ema_normalize(quant_t, ema_q, config.eps)
            assert got.offset == off
            assert np.array_equal(got.mem, mem_t)
            assert np.array_equal(got.quant, quant_t)
            assert np.array_equal(got.combined, aggregate(mem_t, quant_t, config.score_mix))
        # each stream folds its own min/max
        assert scorer.ema_mem == ema_m and scorer.ema_quant == ema_q
        if normalization:
            assert (ema_m.mu_min, ema_m.mu_max) != (ema_q.mu_min, ema_q.mu_max)

    @pytest.mark.parametrize("name,value", [
        ("score_mix", float("nan")), ("score_mix", 2.0), ("ema_momentum", float("nan")),
    ])
    def test_frozen_scoring_rejects_bad_config(self, name, value):
        config, state, bank, series = tiny_pipeline()
        setattr(config, name, value)
        with pytest.raises(ConfigError, match=name):
            score_series(state, bank, series, config)


def scores_by_group_size(state, bank, config, wins, offsets, monkeypatch):
    """{windows per forward group: per-window scores}, at 1, 2, 7 and the default."""
    from comet import ndmath
    default = ndmath.GROUP_BYTES // group_bytes(config, state.n_vars, 1)
    assert default > 2
    out = {}
    for size in (1, 2, 7, default):
        monkeypatch.setattr(ndmath, "GROUP_BYTES", group_bytes(config, state.n_vars, size))
        out[size] = list(score_windows(Scorer(state, bank, config), wins, offsets))
    return out


class TestGroupInvariance:
    def test_one_encode_per_scale_and_group(self, monkeypatch):
        # a forward group encodes its windows together, once per scale
        from comet import model, ndmath
        config, state, bank, _ = tiny_pipeline(n_vars=3)
        series = np.random.default_rng(9).normal(size=(400, 3))
        from comet.data import windows
        wins, _ = windows(series, config.window_length, config.window_stride)
        monkeypatch.setattr(ndmath, "GROUP_BYTES", group_bytes(config, 3, 7))
        calls = []
        original = model.encode

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("comet.") and mod is not None:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted)
        score_series(state, bank, series, config)
        n_groups = len(model.window_groups(wins, 3, config))
        assert (len(wins), n_groups) == (66, 10)
        assert len(calls) == n_groups * len(config.scales)

    def test_frozen_batches_are_whole_groups_within_the_budget(self, monkeypatch):
        # a frozen batch holds as many whole forward groups as keep its
        # (2, n_windows, n_vars, W) raw scores within ndmath.GROUP_BYTES, read
        # at call time: 3 groups of the 66 windows here, at every group size
        from comet import ndmath, scoring
        config, state, bank, _ = tiny_pipeline(n_vars=3)
        series = np.random.default_rng(9).normal(size=(400, 3))
        original, batches = scoring.select_variables, []

        def recorded(raw, *args):
            batches.append(raw.shape[1])
            return original(raw, *args)

        monkeypatch.setattr(scoring, "select_variables", recorded)
        default = ndmath.GROUP_BYTES // group_bytes(config, 3, 1)
        for size, want in [(1, [3] * 22), (2, [6] * 11), (7, [21, 21, 21, 3]),
                           (default, [66])]:
            monkeypatch.setattr(ndmath, "GROUP_BYTES", group_bytes(config, 3, size))
            batches.clear()
            score_series(state, bank, series, config)
            assert batches == want
            assert 16 * 3 * config.window_length * max(batches) <= ndmath.GROUP_BYTES

    @pytest.mark.parametrize("variant", ["percentile", "budget", "no_selection",
                                         "no_normalization"])
    def test_scores_independent_of_group_and_length(self, variant, monkeypatch):
        config, state, bank, _ = tiny_pipeline(n_vars=3)
        config.selection = SelectionConfig(mode="budget", budget=2) if variant == "budget" \
            else SelectionConfig(percentile=60.0)
        config.use_variable_selection = variant != "no_selection"
        config.use_normalization = variant != "no_normalization"
        series = np.random.default_rng(9).normal(size=(400, 3))
        from comet.data import windows
        wins, offs = windows(series, config.window_length, config.window_stride)
        offs = [int(o) for o in offs]
        full = scores_by_group_size(state, bank, config, wins, offs, monkeypatch)
        prefix = scores_by_group_size(state, bank, config, wins[:23], offs[:23],
                                      monkeypatch)
        reference = full[1]
        for scored in list(full.values()) + list(prefix.values()):
            for got, want in zip(scored, reference):
                assert got.offset == want.offset
                assert np.array_equal(got.mem, want.mem)
                assert np.array_equal(got.quant, want.quant)
                assert np.array_equal(got.combined, want.combined)


def test_frozen_scoring_memory_bounded_in_series_length():
    # frozen scoring holds one bounded batch of raw scores, not the whole
    # series: at 8 variables the tracemalloc peak barely grows from 8000 to
    # 32000 steps, where one whole-series (2, n_windows, n_vars, W) stack took
    # it from 8.6 to 30 MiB
    import tracemalloc
    from comet.train import train
    rng = np.random.default_rng(0)
    config = RunConfig(train=TrainConfig(epochs=1, seed=42))
    ckpt = train(rng.normal(size=(1000, 8)), config)
    state, bank = ckpt.state, ckpt.bank
    peaks = []
    for length in (8000, 32000):
        series = rng.normal(size=(length, 8))
        tracemalloc.start()
        try:
            score_series(state, bank, series, config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], [peak / 2**20 for peak in peaks]


def test_frozen_scoring_keeps_no_window_list(monkeypatch):
    # score_series merges each window as score_windows yields it: when a
    # window is finalized, at most the one before it is still alive. A
    # whole-series list would keep them all, a growth the tracemalloc ratio
    # test above cannot see at its lengths
    config, state, bank, _ = tiny_pipeline(n_vars=3)
    series = np.random.default_rng(9).normal(size=(400, 3))
    _, alive = finalized_alive(monkeypatch, score_series, state, bank, series, config)
    assert len(alive) == 66 and max(alive) <= 1, alive


def test_bank_refresh_memory_bounded_at_preset_width():
    # the refresh after an adaptation step at the SWaT preset (3 scales,
    # M = d = 256, banks of 180/200/220 entries): the bank's local scales and
    # the entry-score tables. Distances in blocks of 512 query rows made one
    # 112 MiB (512, P, d) temporary; blocks within ndmath.GROUP_BYTES peak
    # near 3.5 MiB
    import tracemalloc
    from comet.config import preset_config
    config = preset_config("swat")
    state = init_model_state(config, 2, Rng(0))
    activations = [np.arange(config.codebook_size) < n for n in (180, 200, 220)]
    tracemalloc.start()
    try:
        bank = build_memory_bank(state.codebooks, activations, config.n_density)
        Scorer(state, bank, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(bs.vectors) for bs in bank.scales] == [180, 200, 220]
    assert peak <= 16 * 2**20, peak / 2**20


# Trains a model on n_vars = argv[1] variables of the demo corpus and scores
# its test split frozen: score_series at forward groups of 1 window, 2 windows
# and the default, then score_windows on the first 7 windows alone. Prints the
# group size model.group_size reads and the sha256 of every window's scores,
# one line per way, the prefix's padded out with the full series' remaining
# windows.
GROUP_INVARIANCE_SCRIPT = """
import hashlib
import sys
import numpy as np
from helpers import group_bytes
from comet import model, ndmath
from comet.cli import default_synthetic_spec
from comet.config import RunConfig, TrainConfig
from comet.data import standardize, synthesize, windows
from comet.scoring import Scorer, score_series, score_windows
from comet.train import train
spec = default_synthetic_spec()
spec.n_vars = int(sys.argv[1])
spec.train_length, spec.test_length = 1000, 600
spec.anomalies = [a for a in spec.anomalies if a.start + a.duration <= 600]
ds = standardize(synthesize(spec))
config = RunConfig(embed_dim=32, core_dim=16, codebook_size=64,
                   train=TrainConfig(epochs=1, batch_size=8, learning_rate=1e-3, seed=42))
ckpt = train(ds.train.values, config)
wins, offs = windows(ds.test.values, config.window_length, config.window_stride)
offs = [int(o) for o in offs]
digest = lambda *arrays: hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
full = list(score_windows(Scorer(ckpt.state, ckpt.bank, config), wins, offs))
for size in (1, 2, ndmath.GROUP_BYTES // group_bytes(config, spec.n_vars, 1)):
    ndmath.GROUP_BYTES = group_bytes(config, spec.n_vars, size)
    size = model.group_size(spec.n_vars, config)
    s = score_series(ckpt.state, ckpt.bank, ds.test.values, config)
    print(size, digest(s.mem, s.quant, s.score))
    prefix = list(score_windows(Scorer(ckpt.state, ckpt.bank, config), wins[:7], offs[:7]))
    print(size, [digest(w.mem, w.quant, w.combined) for w in prefix + full[7:]])
print("full", [digest(w.mem, w.quant, w.combined) for w in full])
"""


def assert_group_invariant(lines: list[str]):
    *variants, full = lines
    series = {line.split(" ", 1)[1] for line in variants[0::2]}
    prefixes = {line.split(" ", 1)[1] for line in variants[1::2]}
    assert [line.split(" ", 1)[0] for line in variants[:4]] == ["1", "1", "2", "2"]
    assert len(series) == 1 and prefixes == {full.split(" ", 1)[1]}


@pytest.mark.parametrize("n_vars", [2, 7])  # default groups of 11 and 3 windows
def test_frozen_scores_independent_of_group_threads_and_length(n_vars):
    one, two = stdout_at_blas_threads(GROUP_INVARIANCE_SCRIPT, str(n_vars))
    assert_group_invariant(one.splitlines())
    assert one == two


@pytest.mark.parametrize("n_vars", [2, 7])
def test_group_invariance_under_haswell_kernels(n_vars):
    # stacked encodes moved embedding bits under this kernel at 1-7 variables
    one, two = stdout_at_blas_threads(GROUP_INVARIANCE_SCRIPT, str(n_vars),
                                      core="Haswell")
    assert_group_invariant(one.splitlines())
    assert one == two


@pytest.mark.parametrize("n_vars", [2, 7])
def test_group_invariance_under_nehalem_kernels(n_vars):
    # one series-product GEMM over a group's patch rows moved embedding bits
    # under this kernel at scale (4, 2)
    one, two = stdout_at_blas_threads(GROUP_INVARIANCE_SCRIPT, str(n_vars),
                                      core="Nehalem")
    assert_group_invariant(one.splitlines())
    assert one == two
