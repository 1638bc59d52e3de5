import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import stdout_at_blas_threads

from comet.config import RunConfig, TrainConfig
from comet.data import SyntheticSpec, standardize, synthesize, windows
from comet.errors import (CheckpointFormatError, CheckpointVersionError,
                          DataError, ShapeError)
from comet import model
from comet.model import forward, init_model_state, vq_objective
from comet.ndmath import AdamW, Rng
from comet.scoring import score_series
from comet.train import (CHECKPOINT_MAGIC, Checkpoint, LossReport, batch_loss,
                         batch_loss_and_grads, collect_activations,
                         load_checkpoint, save_checkpoint, train)


def desk_config(**kw):
    base = dict(
        patch_sizes=[2, 4], strides=[1, 2], embed_dim=8, core_dim=4,
        codebook_size=8, window_length=40, window_stride=20,
        n_neighbors=3, n_density=3,
        train=TrainConfig(epochs=3, batch_size=4, learning_rate=1e-3, seed=42),
    )
    base.update(kw)
    cfg = RunConfig(**base)
    cfg.validate()
    return cfg


def sine_series(length=600, n_vars=2, seed=0):
    spec = SyntheticSpec(n_vars=n_vars, train_length=length, test_length=50,
                         seed=seed)
    ds = standardize(synthesize(spec))
    return ds.train.values


class TestTraining:
    def test_loss_decreases_over_epochs(self):
        # 2-variable sine mixture, 4000 steps; epoch means trend down
        series = sine_series(length=4000)
        config = desk_config(train=TrainConfig(epochs=5, batch_size=16,
                                               learning_rate=1e-3, seed=42))
        losses = []
        train(series, config, log=lambda line: losses.append(line))
        totals = []
        for line in losses:
            parts = dict(kv.split("=") for kv in line.split())
            totals.append(float(parts["rec"]) + float(parts["cb"]) + float(parts["cm"]))
        assert len(totals) == 5
        assert totals[-1] < totals[0] - 1e-6
        # monotone trend with small slack
        assert all(b <= a + 1e-6 for a, b in zip(totals, totals[1:]))

    def test_zero_lr_keeps_initial_params_but_builds_activations(self):
        series = sine_series(length=400)
        config = desk_config(
            train=TrainConfig(epochs=1, batch_size=4, learning_rate=0.0,
                              weight_decay=0.0, seed=7),
        )
        ckpt = train(series, config)
        fresh = init_model_state(config, 2, Rng(7))
        trained = ckpt.state.named_arrays()
        for name, arr in fresh.named_arrays().items():
            assert np.array_equal(arr, trained[name])
        n_activated = [int(m.sum()) for m in ckpt.activations]
        assert min(n_activated) >= 1
        for k, bs in enumerate(ckpt.bank.scales):
            ids = np.flatnonzero(ckpt.activations[k])
            assert np.array_equal(bs.vectors, ckpt.state.codebooks[k][ids])

    def test_seed_determinism(self):
        series = sine_series(length=500)
        config = desk_config()
        a = train(series, config).state.named_arrays()
        b = train(series, config).state.named_arrays()
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_too_short_series_rejected(self):
        with pytest.raises(DataError):
            train(np.zeros((10, 2)), desk_config())

    def test_series_without_variables_rejected(self):
        with pytest.raises(ShapeError):
            train(np.zeros((200, 0)), desk_config())

    def test_one_step_equals_hand_composition(self):
        # a single optimizer step inside train() is exactly
        # batch_loss_and_grads followed by AdamW.step
        series = sine_series(length=120)
        config = desk_config(
            window_length=40, window_stride=40,
            train=TrainConfig(epochs=1, batch_size=8, learning_rate=1e-3,
                              validation_fraction=0.0, seed=13),
        )
        ckpt = train(series, config)

        rng = Rng(config.train.seed)
        state = init_model_state(config, 2, rng)
        wins, _ = windows(series, config.window_length, config.window_stride)
        order = rng.permutation(len(wins))
        batch = [wins[i] for i in order]
        _, grads = batch_loss_and_grads(state, batch, config)
        opt = AdamW(lr=config.train.learning_rate,
                    weight_decay=config.train.weight_decay)
        opt.step(state.named_arrays(), grads)

        got = ckpt.state.named_arrays()
        for name, arr in state.named_arrays().items():
            assert np.array_equal(arr, got[name]), name

    def test_phase2_idempotent(self):
        series = sine_series(length=400)
        config = desk_config()
        ckpt = train(series, config)
        wins, _ = windows(series, config.window_length, config.window_stride)
        n_val = int(len(wins) * config.train.validation_fraction)
        train_wins = wins[: len(wins) - n_val] if n_val else wins
        again = collect_activations(ckpt.state, train_wins, config)
        assert all(np.array_equal(a, b)
                   for a, b in zip(again, ckpt.activations))

    def test_validation_split_is_temporal_tail(self):
        # training must not touch the last 10% of windows: a model trained on
        # the full series with val_fraction=0 differs from one with 0.5
        series = sine_series(length=800)
        cfg_half = desk_config(
            train=TrainConfig(epochs=1, batch_size=4, learning_rate=1e-3,
                              validation_fraction=0.5, seed=3),
        )
        cfg_all = desk_config(
            train=TrainConfig(epochs=1, batch_size=4, learning_rate=1e-3,
                              validation_fraction=0.0, seed=3),
        )
        a = train(series, cfg_half).state.named_arrays()
        b = train(series, cfg_all).state.named_arrays()
        assert any(not np.array_equal(a[n], b[n]) for n in a)

    def test_zero_vq_weights_reduce_to_affine_autoencoder(self):
        # alpha=beta=0: the codebook receives no gradient (stays frozen) and
        # the model trains as a plain affine autoencoder through fixed
        # prototypes; reconstruction loss still decreases
        series = sine_series(length=1200)
        config = desk_config(
            alpha=0.0, beta=0.0,
            train=TrainConfig(epochs=4, batch_size=8, learning_rate=1e-3, seed=42),
        )
        rng = Rng(config.train.seed)
        initial = init_model_state(config, 2, rng)
        initial_codebooks = [cb.copy() for cb in initial.codebooks]

        lines = []
        ckpt = train(series, config, log=lambda ln: lines.append(ln))
        recs = [float(dict(kv.split("=") for kv in ln.split())["rec"])
                for ln in lines]
        assert recs[-1] < recs[0]
        for cb, before in zip(ckpt.state.codebooks, initial_codebooks):
            # only AdamW weight decay may touch the frozen codebook
            drift = np.max(np.abs(cb - before))
            assert drift <= config.train.epochs * 2 * 1e-3 * (1 + np.max(np.abs(before)))

    def test_batch_loss_matches_grad_path_loss(self):
        series = sine_series(length=200)
        config = desk_config()
        state = init_model_state(config, 2, Rng(1))
        wins, _ = windows(series, config.window_length, config.window_stride)
        with_grads, _ = batch_loss_and_grads(state, wins[:3], config)
        forward_only = batch_loss(state, wins[:3], config)
        assert with_grads.total == pytest.approx(forward_only.total, rel=1e-12)


def per_window_loss_and_grads(state, windows, config):
    """The training step with one encode unit per window: the stacked step's oracle."""
    n_scales = len(config.scales)
    grads = state.zeros()
    rec_sum = cb_sum = 0.0
    for window in windows:
        for k, fwd in enumerate(forward(state, [[window]], config.scales)[0]):
            weight = 1.0 / (len(windows) * n_scales * fwd.indices.size)
            rec_sq, gap_sq = vq_objective(fwd, state.params[k], weight, 1.0,
                                          config.alpha, config.beta,
                                          grads.params[k], grads.codebooks[k])
            rec_sum += weight * rec_sq
            cb_sum += weight * gap_sq
    report = LossReport(rec=rec_sum, cb=config.alpha * cb_sum, cm=config.beta * cb_sum)
    return report, grads.named_arrays()


class TestStackedGroups:
    @pytest.mark.parametrize("n_vars", [1, 2, 4, 7])
    @pytest.mark.parametrize("group", [1, 2, 5])
    def test_matches_per_window_oracle(self, n_vars, group, monkeypatch):
        # 7 windows in groups of `group`, each group one encode unit
        config = desk_config()
        state = init_model_state(config, n_vars, Rng(5))
        series = np.random.default_rng(n_vars).normal(size=(160, n_vars))
        wins, _ = windows(series, config.window_length, 20)
        assert len(wins) == 7
        rows = n_vars * sum(sc.n_patches(config.window_length) for sc in config.scales)
        monkeypatch.setattr(model, "GROUP_PATCH_ROWS", group * rows)
        report, grads = batch_loss_and_grads(state, wins, config)
        want_report, want = per_window_loss_and_grads(state, wins, config)
        val = batch_loss(state, wins, config)
        for got in (report, val):
            for field in ("rec", "cb", "cm"):
                assert getattr(got, field) == pytest.approx(getattr(want_report, field),
                                                            rel=1e-12, abs=0)
        for name, g in grads.items():
            scale = np.max(np.abs(want[name]))
            assert np.max(np.abs(g - want[name])) <= 1e-12 * scale, name
            if group == 1:  # one window per unit is the oracle's computation
                assert np.array_equal(g, want[name]), name


class TestCheckpoint:
    def _trained(self, tmp_path):
        series = sine_series(length=400)
        config = desk_config()
        ckpt = train(series, config)
        ckpt.norm_mean = np.array([0.5, -1.0])
        ckpt.norm_std = np.array([2.0, 3.0])
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        return ckpt, path, series, config

    def test_save_load_save_byte_identical(self, tmp_path):
        ckpt, path, _, _ = self._trained(tmp_path)
        loaded = load_checkpoint(path)
        path2 = tmp_path / "again.ckpt"
        save_checkpoint(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_round_trip_is_bit_exact(self, tmp_path):
        ckpt, path, _, _ = self._trained(tmp_path)
        loaded = load_checkpoint(path)
        orig = ckpt.state.named_arrays()
        for name, arr in loaded.state.named_arrays().items():
            assert np.array_equal(arr, orig[name])
        assert all(np.array_equal(a, b)
                   for a, b in zip(loaded.activations, ckpt.activations))
        assert np.array_equal(loaded.norm_mean, ckpt.norm_mean)
        assert np.array_equal(loaded.norm_std, ckpt.norm_std)
        for k, (bs_a, bs_b) in enumerate(zip(loaded.bank.scales, ckpt.bank.scales)):
            ids = np.flatnonzero(loaded.activations[k])
            assert np.array_equal(bs_a.vectors, loaded.state.codebooks[k][ids])
            assert np.array_equal(bs_a.vectors, bs_b.vectors)
            assert np.array_equal(bs_a.local_scales, bs_b.local_scales)

    def test_loaded_checkpoint_scores_identically(self, tmp_path):
        ckpt, path, series, config = self._trained(tmp_path)
        loaded = load_checkpoint(path)
        a = score_series(ckpt.state, ckpt.bank, series, config)
        b = score_series(loaded.state, loaded.bank, series, loaded.config)
        assert np.array_equal(a.score, b.score)

    def test_truncated_file_is_format_error(self, tmp_path):
        _, path, _, _ = self._trained(tmp_path)
        blob = path.read_bytes()
        for cut in (4, 12, len(blob) // 2, len(blob) - 3):
            bad = tmp_path / f"cut{cut}.ckpt"
            bad.write_bytes(blob[:cut])
            with pytest.raises(CheckpointFormatError):
                load_checkpoint(bad)

    def test_not_a_checkpoint(self, tmp_path):
        p = tmp_path / "noise.bin"
        p.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(p)

    def test_version_mismatch(self, tmp_path):
        _, path, _, _ = self._trained(tmp_path)
        blob = bytearray(path.read_bytes())
        # bump the version integer inside the JSON header
        idx = blob.find(b'"version":2')
        assert idx >= 0
        blob[idx : idx + len(b'"version":2')] = b'"version":9'
        bad = tmp_path / "vers.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(bad)


# values that stress a bit-exact round trip
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                  1.0 / 3.0, -1e-300]


@st.composite
def checkpoints(draw):
    """A small untrained checkpoint: drawn model shape, finite arrays with
    drawn special values, drawn non-empty activations per scale."""
    scales = draw(st.lists(st.sampled_from([(1, 1), (2, 1), (3, 2), (4, 4)]),
                           min_size=1, max_size=3))
    config = desk_config(patch_sizes=[p for p, _ in scales], strides=[s for _, s in scales],
                         embed_dim=draw(st.sampled_from([2, 4])),
                         core_dim=draw(st.integers(1, 3)),
                         codebook_size=draw(st.integers(1, 5)),
                         n_density=draw(st.integers(1, 4)))
    n_vars = draw(st.integers(1, 3))
    state = init_model_state(config, n_vars, Rng(draw(st.integers(0, 2**32 - 1))))
    for arr in state.named_arrays().values():
        flat = arr.reshape(-1)
        for i in draw(st.lists(st.integers(0, flat.size - 1), max_size=3)):
            flat[i] = draw(st.sampled_from(SPECIAL_FLOATS))
    activations = [np.isin(np.arange(config.codebook_size), list(draw(st.sets(
        st.integers(0, config.codebook_size - 1), min_size=1)))) for _ in scales]
    stats = st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(-1e6, 1e6),
                     min_size=n_vars, max_size=n_vars)
    return Checkpoint(config=config, state=state, activations=activations,
                      norm_mean=np.array(draw(stats)), norm_std=np.array(draw(stats)))


def json_paths(node, path=()):
    """The path (a tuple of keys and indices) of every item below the root."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


json_values = (st.none() | st.booleans() | st.integers(-3, 300)
               | st.floats(allow_nan=False, allow_infinity=False)
               | st.text(max_size=4) | st.lists(st.integers(-2, 9), max_size=3))


@st.composite
def header_mutations(draw, header):
    """A copy of header with one item replaced, deleted or given a new key;
    the result is written canonically or with default JSON spacing."""
    header = json.loads(json.dumps(header))
    path = draw(st.sampled_from(list(json_paths(header))))
    parent = header
    for key in path[:-1]:
        parent = parent[key]
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        parent[path[-1]] = draw(json_values)
    elif action == "delete":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent["unknown_key"] = draw(json_values)
    else:
        parent.append(draw(json_values))
    if draw(st.booleans()):
        return json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return json.dumps(header).encode()


def corrupted_files(raw: bytes):
    """raw with one byte changed, cut short, or its JSON header mutated."""
    pos = len(CHECKPOINT_MAGIC)
    hlen = int.from_bytes(raw[pos : pos + 8], "little")
    header = json.loads(raw[pos + 8 : pos + 8 + hlen])

    def with_header(blob):
        return raw[:pos] + len(blob).to_bytes(8, "little") + blob + raw[pos + 8 + hlen :]

    def flip(args):
        at, mask = args
        return raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1 :]

    return (st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)).map(flip)
            | st.integers(0, len(raw) - 1).map(lambda n: raw[:n])
            | header_mutations(header).map(with_header))


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def valid_checkpoint_bytes(tmp_path_factory):
    ckpt = Checkpoint(config=desk_config(), state=init_model_state(desk_config(), 2, Rng(3)),
                      activations=[np.isin(np.arange(8), ids) for ids in ([0, 3, 7], [2])],
                      norm_mean=np.array([0.5, -1.0]), norm_std=np.array([2.0, 1.0]))
    path = tmp_path_factory.mktemp("ckpt") / "valid.ckpt"
    save_checkpoint(ckpt, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


class TestCheckpointProperties:
    @PROPERTY
    @given(checkpoints())
    def test_save_load_save_is_byte_identical(self, scratch, ckpt):
        first, second = scratch / "first.ckpt", scratch / "second.ckpt"
        save_checkpoint(ckpt, first)
        loaded = load_checkpoint(first)
        save_checkpoint(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        for name, arr in ckpt.state.named_arrays().items():
            assert arr.tobytes() == loaded.state.named_arrays()[name].tobytes()
        for a, b in zip(ckpt.activations, loaded.activations):
            assert np.array_equal(a, b)

    @PROPERTY
    @given(st.data())
    def test_corruption_is_rejected_or_resaves_identically(self, scratch,
                                                           valid_checkpoint_bytes, data):
        corrupt = data.draw(corrupted_files(valid_checkpoint_bytes))
        path, again = scratch / "corrupt.ckpt", scratch / "again.ckpt"
        path.write_bytes(corrupt)
        try:
            loaded = load_checkpoint(path)
        except CheckpointFormatError:
            return
        save_checkpoint(loaded, again)
        assert again.read_bytes() == corrupt


# Trains a 5-variable model at d = 64 and scores its test split frozen; prints
# the sha256 of the trained arrays and of the score bytes.
TRAIN_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from comet.cli import default_synthetic_spec
from comet.config import RunConfig, TrainConfig
from comet.data import standardize, synthesize
from comet.scoring import score_series
from comet.train import train
spec = default_synthetic_spec()
spec.n_vars = 5
spec.train_length, spec.test_length = 1000, 600
spec.anomalies = [a for a in spec.anomalies if a.start + a.duration <= 600]
ds = standardize(synthesize(spec))
config = RunConfig(embed_dim=64, train=TrainConfig(epochs=2, batch_size=8, seed=42))
ckpt = train(ds.train.values, config)
arrays = ckpt.state.named_arrays()
trained = hashlib.sha256(b"".join(arrays[k].tobytes() for k in sorted(arrays)))
s = score_series(ckpt.state, ckpt.bank, ds.test.values, config)
scores = hashlib.sha256(np.concatenate([s.mem, s.quant, s.score]).tobytes())
print(trained.hexdigest(), scores.hexdigest())
"""


# Trains a model at d = 64 on the demo corpus for each n_vars in argv, in
# batches of 8 windows: forward groups of 8 windows at 1 variable, 5 + 3 at 2
# and 2 + 2 + 2 + 2 at 4. Prints the sha256 of each model's trained arrays.
STACKED_TRAIN_DIGEST_SCRIPT = """
import hashlib
import sys
from comet.cli import default_synthetic_spec
from comet.config import RunConfig, TrainConfig
from comet.data import standardize, synthesize
from comet.train import train
for n_vars in map(int, sys.argv[1:]):
    spec = default_synthetic_spec()
    spec.n_vars = n_vars
    spec.train_length, spec.test_length = 1000, 600
    spec.anomalies = [a for a in spec.anomalies if a.start + a.duration <= 600]
    ds = standardize(synthesize(spec))
    config = RunConfig(embed_dim=64, train=TrainConfig(epochs=1, batch_size=8, seed=42))
    arrays = train(ds.train.values, config).state.named_arrays()
    print(hashlib.sha256(b"".join(arrays[k].tobytes() for k in sorted(arrays))).hexdigest())
"""


@pytest.mark.parametrize("core", [None, "Haswell", "Nehalem"])
def test_stacked_training_independent_of_blas_threads(core):
    # a group's products run over hundreds of patch rows; unpadded, as GEMM
    # rows or as a reduction chunk, their bits changed with the thread count
    # under Haswell and Nehalem at 1, 2 and 4 variables
    one, two = stdout_at_blas_threads(STACKED_TRAIN_DIGEST_SCRIPT, "1", "2", "4", core=core)
    assert one == two


def test_training_and_frozen_scores_independent_of_blas_threads():
    # the gradient products reduce over n_vars * n_patches rows (495 at the
    # finest scale here); one GEMM over all of them changed bits with the
    # thread count, fixed 256-row chunks do not
    one, two = stdout_at_blas_threads(TRAIN_DIGEST_SCRIPT)
    assert one == two
