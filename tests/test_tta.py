import sys
import tracemalloc

import numpy as np
import pytest
from helpers import finalized_alive, stdout_at_blas_threads, tiny_pipeline

from comet import model, tta
from comet.config import RunConfig, TrainConfig, TtaConfig
from comet.data import SyntheticSpec, standardize, synthesize, windows
from comet.errors import ConfigError, DataError, ShapeError
from comet.ndmath import AdamW, finite_diff_check
from comet.train import collect_activations, train
from comet.tta import (adaptation_loss_and_grads, contrastive_loss,
                       pseudo_label, refresh_coreset, stream_series,
                       stream_windows, tta_step)
from comet.vq import local_scales_for


def stream_config(**tta_kw):
    tta = TtaConfig(enabled=True, **tta_kw)
    cfg = RunConfig(
        patch_sizes=[2, 4], strides=[1, 2], embed_dim=8, core_dim=4,
        codebook_size=8, window_length=40, window_stride=40,
        n_neighbors=3, n_density=3,
        train=TrainConfig(epochs=3, batch_size=4, learning_rate=1e-3, seed=42),
        tta=tta,
    )
    cfg.validate()
    return cfg


def trained_fixture(seed=0, train_length=800, test_length=240, **tta_kw):
    spec = SyntheticSpec(n_vars=2, train_length=train_length,
                         test_length=test_length, seed=seed)
    ds = standardize(synthesize(spec))
    config = stream_config(**tta_kw)
    ckpt = train(ds.train.values, config)
    return ckpt, ds, config


class TestTtaConfig:
    @pytest.mark.parametrize("enabled", [False, True])
    def test_zero_steps_per_batch_rejected_whether_enabled_or_not(self, enabled):
        # a disabled config that passed with 0 steps streamed without ever
        # stepping once code enabled it
        with pytest.raises(ConfigError, match="steps_per_batch"):
            RunConfig.from_dict({"tta": {"enabled": enabled, "steps_per_batch": 0}})

    @pytest.mark.parametrize("section, name, value", [
        ("tta", "contrastive_weight", float("nan")),
        ("tta", "temperature", float("nan")),
        ("tta", "learning_rate", float("inf")),
        ("train", "learning_rate", float("nan")),
        ("selection", "percentile", float("nan")),
        (None, "alpha", float("nan")),
        (None, "eps", float("inf")),
    ])
    def test_non_finite_float_built_in_code_rejected(self, section, name, value):
        # from_json already rejects these in JSON; NaN passes every
        # comparison, so the range checks alone let it through
        cfg = RunConfig()
        setattr(getattr(cfg, section) if section else cfg, name, value)
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            cfg.validate()

    def test_stream_rejects_nan_contrastive_weight(self):
        # NaN failed `gamma > 0`: the stream adapted without the contrastive
        # term and returned normally
        ckpt, ds, config = trained_fixture(test_length=80)
        config.tta.contrastive_weight = float("nan")
        with pytest.raises(ConfigError, match="contrastive_weight"):
            stream_series(ds.test.values, ckpt.state.copy(), ckpt.bank,
                          ckpt.activations, config)


class TestPseudoLabel:
    def test_training_data_relabels_normal(self):
        ckpt, ds, config = trained_fixture()
        from comet.model import encode
        from comet.patching import extract_patches
        from comet.vq import nearest_entries
        wins, _ = windows(ds.train.values, config.window_length,
                          config.window_stride)
        # phase 2 saw the training windows, so every index is activated
        n_val = int(len(wins) * config.train.validation_fraction)
        for w in wins[: len(wins) - n_val]:
            for k, scale in enumerate(config.scales):
                emb, _ = encode(extract_patches(w[None], scale), ckpt.state.params[k])
                idx, _ = nearest_entries(emb, ckpt.state.codebooks[k])
                labels = pseudo_label(k, idx, ckpt.activations)
                assert labels.sum() == 0

    def test_never_activated_is_abnormal(self):
        acts = [np.arange(6) == 2]
        labels = pseudo_label(0, np.array([2, 0, 2, 5]), acts)
        assert labels.tolist() == [0, 1, 0, 1]

    def test_matches_set_scan(self):
        rng = np.random.default_rng(1)
        seen = set(rng.integers(0, 30, 12).tolist())
        acts = [np.isin(np.arange(30), list(seen))]
        idx = rng.integers(0, 30, (4, 7))
        got = pseudo_label(0, idx, acts)
        want = np.array([[0 if int(v) in seen else 1 for v in row] for row in idx])
        assert np.array_equal(got, want)


def dense_contrastive_loss(z, labels, temperature):
    """Oracle: the contrastive loss and gradient from full N x N logit,
    softmax and same-class arrays, the gradient's sum over batch members
    done as one GEMM, (g_sims + g_sims.T) @ unit."""
    n = z.shape[0]
    norms = np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-12)
    unit = z / norms
    logits = unit @ unit.T / temperature
    np.fill_diagonal(logits, -np.inf)
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    n_pos = same.sum(axis=1)
    row_max = logits.max(axis=1, keepdims=True)
    exp = np.exp(logits - row_max)
    denom = exp.sum(axis=1, keepdims=True)
    log_prob = (logits - row_max) - np.log(denom)
    active = n_pos > 0
    loss = 0.0
    if np.any(active):
        loss = float(-(np.where(same, log_prob, 0.0).sum(axis=1)[active]
                       / n_pos[active]).sum())
    softmax = exp / denom
    g_sims = np.zeros((n, n))
    g_sims[active] = (softmax[active] - same[active] / n_pos[active, None]) / temperature
    g_unit = (g_sims + g_sims.T) @ unit
    radial = (g_unit * unit).sum(axis=1, keepdims=True)
    return loss, (g_unit - radial * unit) / norms


def oracle_labels(kind, n, rng):
    if kind == "two_classes":
        return rng.integers(0, 2, size=n)
    if kind == "four_classes":
        return rng.integers(0, 4, size=n)
    if kind == "singleton":  # anchor 0 is the only member of class 9
        return np.concatenate([[9], rng.integers(0, 2, size=n - 1)])
    return np.zeros(n, dtype=np.int64)  # one class


# 1/t scales a GEMM operand, so the oracle runs at several temperatures; the
# default t = 0.1 keeps the ids "n-kind" it had before the others were added
ORACLE_CASES = [
    pytest.param(t, n, kind, id=f"{n}-{kind}" if t == 0.1 else f"{n}-{kind}-t{t}")
    for t in (0.07, 0.1, 1.0)
    for n in (2, 5, 255, 256, 257, 700, 720)
    for kind in ("two_classes", "four_classes", "singleton", "one_class")
]


class TestContrastiveLoss:
    @pytest.mark.parametrize("temperature, n, kind", ORACLE_CASES)
    def test_blocked_form_matches_dense_oracle(self, temperature, n, kind):
        # 255-257 straddle one anchor block, 700 and 720 span three blocks
        # with the last one partial. Two same-class embeddings have loss and
        # gradient exactly 0 (log 1), where the closed-form same-class terms
        # leave rounding of ~1e-15: the bound is relative, with a floor of 1.
        rng = np.random.default_rng(n)
        z = rng.normal(size=(n, 8)) * rng.uniform(0.1, 3.0, size=(n, 1))
        labels = oracle_labels(kind, n, rng)
        loss, grad = contrastive_loss(z, labels, temperature)
        want_loss, want_grad = dense_contrastive_loss(z, labels, temperature)
        assert abs(loss - want_loss) <= 1e-12 * max(abs(want_loss), 1.0)
        assert (np.max(np.abs(grad - want_grad))
                <= 1e-12 * max(np.max(np.abs(want_grad)), 1.0))

    def test_peak_memory_linear_in_batch(self):
        # the dense form holds about eight N x N float64 arrays and peaked at
        # 523 MiB at this size; blocks of anchors need O(block * N + N * d)
        rng = np.random.default_rng(0)
        z = rng.normal(size=(2880, 32))
        labels = rng.integers(0, 2, size=2880)
        tracemalloc.start()
        try:
            contrastive_loss(z, labels, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20

    def test_two_identical_same_label(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0]])
        loss, grad = contrastive_loss(z, np.array([0, 0]), temperature=1.0)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_all_labels_distinct(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(4, 3))
        loss, grad = contrastive_loss(z, np.array([0, 1, 2, 3]), 0.5)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(z))

    def test_batch_of_one_is_zero_by_convention(self):
        loss, grad = contrastive_loss(np.ones((1, 3)), np.array([0]), 1.0)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros((1, 3)))

    def test_gradient_passes_finite_difference(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(6, 4))
        labels = np.array([0, 1, 0, 1, 0, 1])

        def loss_fn(params):
            return contrastive_loss(params[0], labels, 0.7)[0]

        _, grad = contrastive_loss(z, labels, 0.7)
        assert finite_diff_check(loss_fn, [z], [grad], h=1e-6) <= 1e-4

    def test_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(5, 3))
        labels = np.array([0, 0, 1, 1, 0])
        base, _ = contrastive_loss(z, labels, 0.3)
        scaled = z.copy()
        scaled[2] *= 37.5
        scaled[0] *= 0.004
        got, _ = contrastive_loss(scaled, labels, 0.3)
        assert abs(got - base) <= 1e-9

    def test_separating_gradient_direction(self):
        # two close embeddings with different labels are pushed apart
        z = np.array([[1.0, 0.05], [1.0, -0.05], [-1.0, 0.0]])
        labels = np.array([0, 1, 0])
        loss, grad = contrastive_loss(z, labels, 0.5)
        assert loss > 0.0
        step = z - 0.01 * grad
        after, _ = contrastive_loss(step, labels, 0.5)
        assert after < loss


class TestTtaStep:
    def test_vacuous_objective_skips_update(self):
        # zero contrastive weight and no pseudo-normal patches: no step
        ckpt, ds, config = trained_fixture(contrastive_weight=0.0)
        empty = [np.zeros(config.codebook_size, dtype=bool)
                 for _ in config.scales]  # nothing activated
        before = {k: v.copy() for k, v in ckpt.state.named_arrays().items()}
        opt = AdamW(lr=0.01)
        wins, _ = windows(ds.test.values, config.window_length,
                          config.window_stride)
        records = [model.forward(ckpt.state, wins[:1], config.scales)]
        report, grads = adaptation_loss_and_grads(ckpt.state, records, empty, config)
        assert grads is None and report.n_normal == 0
        tta_step(ckpt.state, opt, wins[:1], empty, config)
        for name, arr in ckpt.state.named_arrays().items():
            assert np.array_equal(arr, before[name])

    def test_near_converged_batch_moves_at_most_lr_scale(self):
        ckpt, ds, config = trained_fixture()
        lr = 0.001
        config.tta.learning_rate = lr
        opt = AdamW(lr=lr, weight_decay=config.train.weight_decay)
        wins, _ = windows(ds.train.values, config.window_length,
                          config.window_stride)
        before = {k: v.copy() for k, v in ckpt.state.named_arrays().items()}
        report = tta_step(ckpt.state, opt, wins[:2], ckpt.activations, config)
        assert report.stepped and report.n_normal > 0
        for name, arr in ckpt.state.named_arrays().items():
            biggest = np.max(np.abs(arr - before[name]))
            bound = 2.0 * lr * (1.0 + np.max(np.abs(before[name])))
            assert biggest <= bound, name

    def test_adaptation_gradients_pass_finite_difference(self):
        # flat-mean objective over pseudo-normal patches, stop-gradient form
        ckpt, ds, config = trained_fixture()
        config.tta.contrastive_weight = 0.0
        wins, _ = windows(ds.train.values, config.window_length,
                          config.window_stride)
        window = wins[0]
        state = ckpt.state
        records = [model.forward(state, [window], config.scales)]
        _, grads = adaptation_loss_and_grads(state, records, ckpt.activations, config)

        from comet.model import decode, encode
        from comet.patching import extract_patches
        from comet.vq import nearest_entries
        frozen = []
        n_norm = 0
        for k, scale in enumerate(config.scales):
            patches = extract_patches(window[None], scale)[:, 0]
            emb, _ = encode(patches[:, None], state.params[k])
            idx, quant = nearest_entries(emb, state.codebooks[k])
            mask = (pseudo_label(k, idx, ckpt.activations) == 0)
            n_norm += int(mask.sum())
            frozen.append((patches, emb, idx, quant, mask))

        def loss_fn(param_list):
            trial = state.copy()
            trial.flat[:] = param_list[0]
            total = 0.0
            for k in range(len(config.scales)):
                patches, base_emb, idx, base_quant, mask = frozen[k]
                emb, _ = encode(patches[:, None], trial.params[k])
                dec_in = emb + (base_quant - base_emb)
                recon = decode(dec_in, trial.params[k])
                m = mask[:, :, None]
                rec = np.sum(m * (recon - patches) ** 2)
                rows = trial.codebooks[k][idx]
                cb = np.sum(m * (rows - base_emb) ** 2)
                cm = np.sum(m * (base_quant - emb) ** 2)
                total += (rec + config.alpha * cb + config.beta * cm) / n_norm
            return float(total)

        assert finite_diff_check(loss_fn, [state.flat], [grads.flat], h=1e-5) <= 1e-4

    def test_full_objective_with_contrastive_passes_finite_difference(self):
        # validates the scatter of flat contrastive gradients back into the
        # per-scale backward passes, jointly with the normal-patch terms
        ckpt, ds, config = trained_fixture()
        config.tta.contrastive_weight = 0.7
        wins, _ = windows(ds.train.values, config.window_length,
                          config.window_stride)
        window = wins[0]
        state = ckpt.state
        gamma, tau = config.tta.contrastive_weight, config.tta.temperature
        records = [model.forward(state, [window], config.scales)]
        _, grads = adaptation_loss_and_grads(state, records, ckpt.activations, config)

        from comet.model import decode, encode
        from comet.patching import extract_patches
        from comet.vq import nearest_entries
        frozen = []
        flat_labels = []
        n_norm = 0
        for k, scale in enumerate(config.scales):
            patches = extract_patches(window[None], scale)[:, 0]
            emb, _ = encode(patches[:, None], state.params[k])
            idx, quant = nearest_entries(emb, state.codebooks[k])
            labels = pseudo_label(k, idx, ckpt.activations)
            mask = labels == 0
            n_norm += int(mask.sum())
            frozen.append((patches, emb, idx, quant, mask))
            flat_labels.append(labels.reshape(-1))
        flat_labels = np.concatenate(flat_labels)

        def loss_fn(param_list):
            trial = state.copy()
            trial.flat[:] = param_list[0]
            total = 0.0
            flat = []
            for k in range(len(config.scales)):
                patches, base_emb, idx, base_quant, mask = frozen[k]
                emb, _ = encode(patches[:, None], trial.params[k])
                flat.append(emb.reshape(-1, emb.shape[-1]))
                m = mask[:, :, None]
                dec_in = emb + (base_quant - base_emb)
                recon = decode(dec_in, trial.params[k])
                rec = np.sum(m * (recon - patches) ** 2)
                rows = trial.codebooks[k][idx]
                cb = np.sum(m * (rows - base_emb) ** 2)
                cm = np.sum(m * (base_quant - emb) ** 2)
                total += (rec + config.alpha * cb + config.beta * cm) / n_norm
            con, _ = contrastive_loss(np.concatenate(flat), flat_labels, tau)
            return float(total) + gamma * con

        assert finite_diff_check(loss_fn, [state.flat], [grads.flat], h=1e-5) <= 1e-4


def refreshed(ckpt, config):
    return refresh_coreset(ckpt.state, ckpt.activations, config.n_density)


class TestRefreshCoreset:
    def test_unchanged_codebook_identical_bank(self):
        ckpt, _, config = trained_fixture()
        for a, b in zip(refreshed(ckpt, config).scales, ckpt.bank.scales):
            assert np.array_equal(a.vectors, b.vectors)
            assert np.array_equal(a.local_scales, b.local_scales)

    def test_translation_preserves_scales(self):
        ckpt, _, config = trained_fixture()
        before = ckpt.bank
        shift = np.full(config.embed_dim, 0.37)
        for cb in ckpt.state.codebooks:
            cb += shift
        for a, b in zip(refreshed(ckpt, config).scales, before.scales):
            assert np.allclose(a.vectors, b.vectors + shift)
            assert np.allclose(a.local_scales, b.local_scales, atol=1e-9)

    def test_matches_rebuild_from_scratch(self):
        # the refresh re-reads the frozen activated entries of the adapted
        # codebooks: rows of the codebooks, in entry-id order
        ckpt, _, config = trained_fixture()
        for cb in ckpt.state.codebooks:
            cb *= 1.1
        for k, bs in enumerate(refreshed(ckpt, config).scales):
            ids = np.flatnonzero(ckpt.activations[k])
            assert np.array_equal(bs.vectors, ckpt.state.codebooks[k][ids])
            assert np.array_equal(bs.local_scales,
                                  local_scales_for(bs.vectors, config.n_density))

    def test_cardinality_preserved(self):
        ckpt, _, config = trained_fixture()
        sizes = [bs.vectors.shape[0] for bs in ckpt.bank.scales]
        for cb in ckpt.state.codebooks:
            cb[:] = np.random.default_rng(5).normal(size=cb.shape)
        assert [bs.vectors.shape[0] for bs in refreshed(ckpt, config).scales] == sizes


class TestStreamDriver:
    @pytest.mark.parametrize("test_length, enabled, windows_per_batch", [
        (40, True, 1),    # one window, scored before its batch adapts
        (240, False, 3),  # six windows in two batches, no adaptation
    ], ids=["one_batch_adapting", "two_batches_frozen"])
    def test_stream_matches_frozen(self, test_length, enabled, windows_per_batch):
        ckpt, ds, config = trained_fixture(test_length=test_length,
                                           windows_per_batch=windows_per_batch)
        config.tta.enabled = enabled
        from comet.scoring import score_series
        frozen = score_series(ckpt.state, ckpt.bank, ds.test.values, config)
        stream = stream_series(ds.test.values, ckpt.state.copy(), ckpt.bank,
                               ckpt.activations, config)
        assert np.array_equal(frozen.mem, stream.mem)
        assert np.array_equal(frozen.quant, stream.quant)
        assert np.array_equal(frozen.score, stream.score)

    def test_arrays_stay_views_of_flat(self):
        # train() and an adapting stream update the model through its flat
        # vector; code that rebinds a field or a codebook breaks the link
        ckpt, ds, config = trained_fixture()
        state = ckpt.state.copy()
        stream_series(ds.test.values, state, ckpt.bank, ckpt.activations, config)
        assert not np.array_equal(state.flat, ckpt.state.flat)  # the stream adapted
        for checked in (ckpt.state, state):
            for name, arr in checked.named_arrays().items():
                assert np.shares_memory(arr, checked.flat), name

    def test_disabled_is_bit_identical(self, monkeypatch):
        # with adaptation off the stream takes no step and leaves the state
        # it was given untouched
        ckpt, ds, config = trained_fixture()
        config.tta.enabled = False
        before = {k: v.copy() for k, v in ckpt.state.named_arrays().items()}
        monkeypatch.setattr(tta, "tta_step", lambda *a, **k: pytest.fail("stepped"))
        stream_series(ds.test.values, ckpt.state, ckpt.bank, ckpt.activations,
                      config)
        for name, arr in ckpt.state.named_arrays().items():
            assert np.array_equal(arr, before[name])

    def test_first_batch_unaffected_second_may_differ(self):
        ckpt, ds, config = trained_fixture(test_length=80, learning_rate=0.05)
        wins, offs = windows(ds.test.values, config.window_length,
                             config.window_stride)
        on = stream_windows(wins, list(offs), ckpt.state.copy(), ckpt.bank,
                            ckpt.activations, config)
        config_off = stream_config()
        config_off.tta.enabled = False
        off = stream_windows(wins, list(offs), ckpt.state.copy(), ckpt.bank,
                             ckpt.activations, config_off)
        assert np.array_equal(on[0].combined, off[0].combined)
        assert not np.array_equal(on[1].combined, off[1].combined)

    def test_replay_is_bit_identical(self):
        ckpt, ds, config = trained_fixture(test_length=160, learning_rate=0.02)
        a = stream_series(ds.test.values, ckpt.state.copy(), ckpt.bank,
                          ckpt.activations, config)
        b = stream_series(ds.test.values, ckpt.state.copy(), ckpt.bank,
                          ckpt.activations, config)
        assert np.array_equal(a.score, b.score)

    def test_truncation_equivalence(self):
        # scoring batch i in the stream equals scoring it after adapting on
        # batches 1..i-1 only
        ckpt, ds, config = trained_fixture(test_length=160, learning_rate=0.02)
        wins, offs = windows(ds.test.values, config.window_length,
                             config.window_stride)
        full = stream_windows(wins, list(offs), ckpt.state.copy(), ckpt.bank,
                              ckpt.activations, config)
        for i in range(len(wins)):
            prefix = stream_windows(wins[: i + 1], list(offs[: i + 1]),
                                    ckpt.state.copy(), ckpt.bank,
                                    ckpt.activations, config)
            assert np.array_equal(prefix[i].combined, full[i].combined)

    def test_activations_frozen_during_stream(self):
        ckpt, ds, config = trained_fixture(test_length=160, learning_rate=0.05)
        before = [m.copy() for m in ckpt.activations]
        stream_series(ds.test.values, ckpt.state.copy(), ckpt.bank,
                      ckpt.activations, config)
        assert all(np.array_equal(a, b) for a, b in zip(ckpt.activations, before))

    def test_out_of_order_stream_rejected(self):
        ckpt, ds, config = trained_fixture(test_length=160)
        wins, offs = windows(ds.test.values, config.window_length,
                             config.window_stride)
        with pytest.raises(DataError):
            stream_windows([wins[1], wins[0]], [int(offs[1]), int(offs[0])],
                           ckpt.state.copy(), ckpt.bank, ckpt.activations,
                           config)

    def test_wrong_window_length_rejected(self):
        ckpt, ds, config = trained_fixture(test_length=160)
        wins, offs = windows(ds.test.values, config.window_length,
                             config.window_stride)
        with pytest.raises(ShapeError):
            stream_windows([wins[0][:-1]], [int(offs[0])], ckpt.state.copy(),
                           ckpt.bank, ckpt.activations, config)

    @pytest.mark.parametrize("enabled, windows_per_batch", [
        (False, 1), (True, 1), (True, 3),
    ], ids=["off", "on_batch1", "on_batch3"])
    def test_stream_keeps_no_window_list(self, monkeypatch, enabled, windows_per_batch):
        # stream_series merges each window as score_windows yields it: when a
        # window is finalized, at most the one before it is still alive. A
        # whole-series list kept all 65 earlier windows, adapting or not
        config, state, bank, fit = tiny_pipeline(n_vars=3)
        config.tta = TtaConfig(enabled=enabled, windows_per_batch=windows_per_batch)
        acts = collect_activations(
            state, windows(fit, config.window_length, config.window_stride)[0], config)
        series = np.random.default_rng(9).normal(size=(400, 3))
        _, alive = finalized_alive(monkeypatch, stream_series, series, state, bank,
                                   acts, config)
        assert len(alive) == 66 and max(alive) <= 1, alive

    @pytest.mark.parametrize("steps", [1, 2])
    def test_one_encode_per_window_scale_and_step(self, monkeypatch, steps):
        # the first adaptation step reuses the scoring forward; each later
        # step re-encodes once
        ckpt, ds, config = trained_fixture(test_length=160, steps_per_batch=steps)
        wins, offs = windows(ds.test.values, config.window_length,
                             config.window_stride)
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
        stream_windows(wins, list(offs), ckpt.state.copy(), ckpt.bank,
                       ckpt.activations, config)
        assert len(calls) == len(wins) * len(config.scales) * steps


# Trains a model on n_vars = argv[1] variables and streams a +2 sigma drift
# with adaptation; prints the sha256 of the stream's score bytes.
STREAM_DIGEST_SCRIPT = """
import hashlib
import sys
import numpy as np
from comet.cli import default_synthetic_spec
from comet.config import RunConfig, TrainConfig, TtaConfig
from comet.data import standardize, synthesize
from comet.train import train
from comet.tta import stream_series
spec = default_synthetic_spec()
spec.n_vars, spec.drift_sigma = int(sys.argv[1]), 2.0
spec.train_length, spec.test_length = 1000, 600
spec.anomalies = [a for a in spec.anomalies if a.start + a.duration <= 600]
ds = standardize(synthesize(spec))
config = RunConfig(embed_dim=32, core_dim=16, codebook_size=64,
                   train=TrainConfig(epochs=2, batch_size=8, learning_rate=1e-3, seed=42))
ckpt = train(ds.train.values, config)
config.tta = TtaConfig(enabled=True)
s = stream_series(ds.test.values, ckpt.state, ckpt.bank, ckpt.activations, config)
print(hashlib.sha256(np.concatenate([s.mem, s.quant, s.score]).tobytes()).hexdigest())
"""


@pytest.mark.parametrize("n_vars", [3, 4])
def test_adaptive_scores_independent_of_blas_threads(n_vars):
    # the contrastive loss sums over all N = n_vars * 180 patches: its long
    # reductions run in fixed 256-row chunks, and its GEMM widths pad to a
    # multiple of ndmath.PAD_ROWS = 16 (N = 540 at 3 variables is not)
    one, two = stdout_at_blas_threads(STREAM_DIGEST_SCRIPT, str(n_vars))
    assert one == two


def test_two_variable_stream_independent_of_blas_threads_under_nehalem():
    # N = 360 contrastive rows: padded to 8 rows, not 16, the Nehalem stream
    # gave different digests at 1 and 2 threads
    one, two = stdout_at_blas_threads(STREAM_DIGEST_SCRIPT, "2", core="Nehalem")
    assert one == two


# Trains a 2-variable model at the msl preset width (M = 256, d = 128) for one
# epoch on 500 steps, then scores a 400-step +2 sigma drift frozen and with
# adaptation; prints the sha256 of the trained arrays, of the frozen scores and
# of the adaptive scores, one line each.
PRESET_WIDTH_DIGEST_SCRIPT = """
import hashlib
from comet.cli import default_synthetic_spec
from comet.config import TrainConfig, TtaConfig, preset_config
from comet.data import standardize, synthesize
from comet.scoring import score_series
from comet.train import train
from comet.tta import stream_series
spec = default_synthetic_spec()
spec.n_vars, spec.drift_sigma = 2, 2.0
spec.train_length, spec.test_length = 500, 400
spec.anomalies = [a for a in spec.anomalies if a.start + a.duration <= 400]
ds = standardize(synthesize(spec))
config = preset_config("msl")
config.train = TrainConfig(epochs=1, seed=42)
ckpt = train(ds.train.values, config)
digest = lambda *arrays: hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
arrays = ckpt.state.named_arrays()
print(digest(*(arrays[k] for k in sorted(arrays))))
s = score_series(ckpt.state, ckpt.bank, ds.test.values, config)
print(digest(s.mem, s.quant, s.score))
config.tta = TtaConfig(enabled=True)
s = stream_series(ds.test.values, ckpt.state, ckpt.bank, ckpt.activations, config)
print(digest(s.mem, s.quant, s.score))
"""


def test_preset_width_independent_of_blas_threads():
    one, two = stdout_at_blas_threads(PRESET_WIDTH_DIGEST_SCRIPT)
    trained, frozen, adaptive = one.splitlines()
    assert adaptive != frozen  # the stream adapted
    assert one == two


# The gradient of contrastive_loss alone at N = argv[1] embeddings of width 32.
CONTRASTIVE_DIGEST_SCRIPT = """
import hashlib
import sys
import numpy as np
from comet.tta import contrastive_loss
rng = np.random.default_rng(0)
n = int(sys.argv[1])
loss, grad = contrastive_loss(rng.normal(size=(n, 32)), rng.integers(0, 2, n), 0.1)
print(hashlib.sha256(np.append(grad.ravel(), loss).tobytes()).hexdigest())
"""


def test_contrastive_loss_independent_of_blas_threads():
    # 9180 = 51 variables x 180 patches, not a multiple of ndmath.PAD_ROWS = 16
    one, two = stdout_at_blas_threads(CONTRASTIVE_DIGEST_SCRIPT, "9180")
    assert one == two


@pytest.mark.parametrize("n", ["180", "360"])
def test_contrastive_loss_independent_of_blas_threads_under_nehalem(n):
    # 1 and 2 variables x 180 patches: 180 rows (4 x 45) and 360 (8 x 45),
    # neither a multiple of 16, which under Nehalem gave bits that depend on
    # the thread count
    one, two = stdout_at_blas_threads(CONTRASTIVE_DIGEST_SCRIPT, n, core="Nehalem")
    assert one == two
