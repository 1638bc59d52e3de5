import json

import numpy as np
import pytest

from comet.cli import (default_synthetic_spec, main, read_metrics, read_scores,
                       resolve_config)
from comet.data import SyntheticSpec, synthesize, write_csv
from comet.train import CHECKPOINT_MAGIC


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Small synthetic corpus on disk plus a desk-scale config file."""
    root = tmp_path_factory.mktemp("corpus")
    spec = SyntheticSpec.from_dict({
        "n_vars": 2, "train_length": 900, "test_length": 300, "seed": 11,
        "anomalies": [
            {"kind": "point", "start": 80, "duration": 1, "magnitude": 8.0},
            {"kind": "collective", "start": 180, "duration": 40, "magnitude": 6.0},
        ],
    })
    ds = synthesize(spec)
    write_csv(root / "train.csv", ds.train)
    write_csv(root / "test.csv", ds.test, label_column="label")
    config = {
        "patch_sizes": [2, 4], "strides": [1, 2], "embed_dim": 8,
        "core_dim": 4, "codebook_size": 8, "window_length": 50,
        "window_stride": 25, "n_neighbors": 3, "n_density": 3,
        "train": {"epochs": 2, "batch_size": 8, "learning_rate": 1e-3,
                  "seed": 42},
    }
    (root / "config.json").write_text(json.dumps(config))
    return root


def run(argv):
    return main([str(a) for a in argv])


def split_checkpoint(path):
    """(raw bytes, offset of the array payload, parsed JSON header)."""
    raw = path.read_bytes()
    pos = len(CHECKPOINT_MAGIC)
    hlen = int.from_bytes(raw[pos : pos + 8], "little")
    return raw, pos + 8 + hlen, json.loads(raw[pos + 8 : pos + 8 + hlen])


@pytest.fixture(scope="module")
def checkpoint(corpus):
    out = corpus / "scorer.ckpt"
    assert run(["train", "--config", corpus / "config.json",
                "--data", corpus / "train.csv", "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def scores_file(corpus, checkpoint):
    out = corpus / "eval_scores.txt"
    assert run(["score", "--checkpoint", checkpoint,
                "--data", corpus / "test.csv", "--out", out]) == 0
    return out


class TestTrainCommand:
    def test_train_writes_checkpoint(self, corpus, capsys):
        out = corpus / "model.ckpt"
        code = run(["train", "--config", corpus / "config.json",
                    "--data", corpus / "train.csv", "--out", out])
        assert code == 0
        assert out.exists()
        logged = capsys.readouterr().out
        assert "epoch=1" in logged and "rec=" in logged

    def test_missing_data_file_exit_2(self, corpus, capsys):
        code = run(["train", "--config", corpus / "config.json",
                    "--data", corpus / "nope.csv", "--out", corpus / "x.ckpt"])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_odd_embed_dim_rejected_before_training(self, corpus, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"embed_dim": 5}))
        code = run(["train", "--config", bad,
                    "--data", corpus / "train.csv", "--out", tmp_path / "x.ckpt"])
        assert code == 1
        assert "embed_dim" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    def test_unknown_flag_exit_1(self, corpus):
        assert run(["train", "--no-such-flag"]) == 1

    def test_seed_override_changes_checkpoint(self, corpus, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.ckpt", "b.ckpt", "c.ckpt"))
        base = ["train", "--config", corpus / "config.json",
                "--data", corpus / "train.csv"]
        assert run(base + ["--out", a]) == 0
        assert run(base + ["--out", b, "--seed", "43"]) == 0
        assert run(base + ["--out", c]) == 0
        assert a.read_bytes() == c.read_bytes()
        assert a.read_bytes() != b.read_bytes()


class TestScoreCommand:
    def test_score_twice_byte_identical(self, corpus, checkpoint, tmp_path):
        s1, s2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
        for out in (s1, s2):
            assert run(["score", "--checkpoint", checkpoint,
                        "--data", corpus / "test.csv", "--out", out,
                        "--tta", "off"]) == 0
        assert s1.read_bytes() == s2.read_bytes()

    def test_score_file_round_trips(self, corpus, checkpoint, tmp_path):
        out = tmp_path / "scores.txt"
        assert run(["score", "--checkpoint", checkpoint,
                    "--data", corpus / "test.csv", "--out", out]) == 0
        scores = read_scores(out)
        assert scores.score.size == 300
        assert scores.labels is not None and scores.labels.sum() == 41
        assert np.all(np.isfinite(scores.score))

    def test_tta_on_single_window_matches_off(self, corpus, checkpoint, tmp_path):
        # one window = one batch: adaptation cannot affect its own scores
        one = tmp_path / "one.csv"
        ds = synthesize(SyntheticSpec(n_vars=2, train_length=60, test_length=50,
                                      seed=12))
        write_csv(one, ds.test)
        on, off = tmp_path / "on.txt", tmp_path / "off.txt"
        for out, mode in ((on, "on"), (off, "off")):
            assert run(["score", "--checkpoint", checkpoint, "--data", one,
                        "--out", out, "--tta", mode]) == 0
        a, b = read_scores(on), read_scores(off)
        assert np.array_equal(a.score, b.score)

    def test_bad_checkpoint_exit_3(self, corpus, tmp_path, capsys):
        bad = tmp_path / "junk.ckpt"
        bad.write_bytes(b"not a checkpoint at all")
        code = run(["score", "--checkpoint", bad,
                    "--data", corpus / "test.csv", "--out", tmp_path / "s.txt"])
        assert code == 3

    @pytest.mark.parametrize("edit", ["config", "n_vars", "arrays", "not_object",
                                      "bad_config"])
    def test_malformed_checkpoint_header_exit_3(self, corpus, checkpoint, tmp_path,
                                                capsys, edit):
        # magic, 8-byte header length, JSON header, payload
        raw = checkpoint.read_bytes()
        pos = len(b"COMETCKPT\n")
        hlen = int.from_bytes(raw[pos : pos + 8], "little")
        header = json.loads(raw[pos + 8 : pos + 8 + hlen])
        if edit == "not_object":
            header = [header]
        elif edit == "bad_config":
            header["config"] = "window_length=100"
        else:
            del header[edit]
        blob = json.dumps(header).encode()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw[:pos] + len(blob).to_bytes(8, "little") + blob
                        + raw[pos + 8 + hlen :])
        code = run(["score", "--checkpoint", bad,
                    "--data", corpus / "test.csv", "--out", tmp_path / "s.txt"])
        assert code == 3
        assert "bad.ckpt" in capsys.readouterr().err

    def test_non_finite_checkpoint_array_exit_3(self, corpus, checkpoint, tmp_path,
                                                capsys):
        raw, pos, header = split_checkpoint(checkpoint)
        for meta in header["arrays"]:
            if meta["name"] == "scale0.w_fuse":
                break
            pos += 8 * int(np.prod(meta["shape"]))
        bad = tmp_path / "nan_weight.ckpt"
        bad.write_bytes(raw[:pos] + np.array([np.nan]).astype("<f8").tobytes()
                        + raw[pos + 8 :])
        out = tmp_path / "s.txt"
        code = run(["score", "--checkpoint", bad,
                    "--data", corpus / "test.csv", "--out", out])
        assert code == 3
        assert "scale0.w_fuse" in capsys.readouterr().err
        assert not out.exists()

    def test_legacy_threads_key_loads_with_identical_scores(self, corpus, checkpoint,
                                                            tmp_path):
        raw, pos, header = split_checkpoint(checkpoint)
        header["config"]["threads"] = 2
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        legacy = tmp_path / "legacy.ckpt"
        legacy.write_bytes(raw[:len(CHECKPOINT_MAGIC)] + len(blob).to_bytes(8, "little")
                           + blob + raw[pos:])
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run(["score", "--checkpoint", checkpoint,
                    "--data", corpus / "test.csv", "--out", a]) == 0
        assert run(["score", "--checkpoint", legacy,
                    "--data", corpus / "test.csv", "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_variable_count_mismatch_exit_2(self, checkpoint, tmp_path, capsys):
        one_var = tmp_path / "one_var.csv"
        ds = synthesize(SyntheticSpec(n_vars=1, train_length=60, test_length=100,
                                      seed=14))
        write_csv(one_var, ds.test, label_column="label")
        out = tmp_path / "s.txt"
        code = run(["score", "--checkpoint", checkpoint, "--data", one_var,
                    "--out", out])
        assert code == 2
        assert "1 variables" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_cell_exit_2(self, corpus, checkpoint, tmp_path, capsys):
        lines = (corpus / "test.csv").read_text().splitlines()
        cells = lines[6].split(",")
        cells[1] = "nan"
        lines[6] = ",".join(cells)
        bad = tmp_path / "nan.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "s.txt"
        code = run(["score", "--checkpoint", checkpoint, "--data", bad,
                    "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert "row 6" in err and "x2" in err
        assert not out.exists()

    def test_structural_override_rejected(self, corpus, checkpoint, tmp_path, capsys):
        override = tmp_path / "override.json"
        override.write_text(json.dumps({"embed_dim": 16}))
        code = run(["score", "--checkpoint", checkpoint,
                    "--data", corpus / "test.csv", "--out", tmp_path / "s.txt",
                    "--config", override])
        assert code == 1
        assert "embed_dim" in capsys.readouterr().err

    def test_resolved_config_echoed_into_score_file(self, corpus, checkpoint, tmp_path):
        out = tmp_path / "cfg.txt"
        assert run(["score", "--checkpoint", checkpoint,
                    "--data", corpus / "test.csv", "--out", out]) == 0
        comment = [ln for ln in out.read_text().splitlines()
                   if ln.startswith("# config:")][0]
        cfg = json.loads(comment.removeprefix("# config:"))
        assert cfg["embed_dim"] == 8


class TestEvalCommand:
    def test_eval_prints_and_writes_identical_numbers(self, scores_file,
                                                      tmp_path, capsys):
        report = tmp_path / "metrics.txt"
        assert run(["eval", "--data", scores_file, "--out", report]) == 0
        printed = capsys.readouterr().out
        parsed = read_metrics(report)
        for key in ("f1_k0", "f1_k100", "auc_roc", "auc_pr"):
            line = [ln for ln in printed.splitlines() if ln.startswith(key + "=")][0]
            assert float(line.split("=")[1]) == parsed[key]

    def test_single_class_labels_exit_2(self, checkpoint, tmp_path, capsys):
        # score file with labels all zero
        clean = tmp_path / "clean.csv"
        ds = synthesize(SyntheticSpec(n_vars=2, train_length=60, test_length=120,
                                      seed=13))
        write_csv(clean, ds.test, label_column="label")
        out = tmp_path / "clean_scores.txt"
        assert run(["score", "--checkpoint", checkpoint, "--data", clean,
                    "--out", out]) == 0
        assert run(["eval", "--data", out]) == 2

    def test_hand_fixture_reproduces_expected_f1(self, tmp_path, capsys):
        # 4-point fixture: labels (0,1,1,0), one detection inside the segment
        scores = tmp_path / "fixture.txt"
        scores.write_text(
            "# comet-scores v1\n"
            "index,mem,quant,score,label\n"
            "0,0.0,0.0,0.0,0\n"
            "1,1.0,1.0,1.0,1\n"
            "2,0.0,0.0,0.0,1\n"
            "3,0.0,0.0,0.0,0\n"
        )
        assert run(["eval", "--data", scores]) == 0
        out = capsys.readouterr().out
        vals = dict(ln.split("=") for ln in out.splitlines() if "=" in ln)
        assert float(vals["f1_k0"]) == 1.0
        assert float(vals["f1_k100"]) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_non_finite_score_exit_2(self, scores_file, tmp_path, capsys):
        lines = scores_file.read_text().splitlines()
        header = [i for i, ln in enumerate(lines) if ln.startswith("index,")][0]
        cells = lines[header + 5].split(",")
        cells[3] = "nan"
        lines[header + 5] = ",".join(cells)
        bad = tmp_path / "nan_scores.txt"
        bad.write_text("\n".join(lines) + "\n")
        report = tmp_path / "metrics.txt"
        assert run(["eval", "--data", bad, "--out", report]) == 2
        err = capsys.readouterr().err
        assert "row 5" in err and "'score'" in err
        assert not report.exists()

    def test_length_mismatch_exit_2(self, scores_file, corpus, tmp_path):
        short = tmp_path / "short.csv"
        ds = synthesize(SyntheticSpec(n_vars=1, train_length=60, test_length=10,
                                      seed=14))
        write_csv(short, ds.test, label_column="label")
        assert run(["eval", "--data", scores_file, "--labels", short]) == 2


class TestSynthCommand:
    def test_default_spec_writes_three_files(self, tmp_path):
        out = tmp_path / "corpus"
        assert run(["synth", "--out", out]) == 0
        for name in ("train.csv", "test.csv", "spec.json"):
            assert (out / name).exists()
        header = (out / "test.csv").read_text().splitlines()[0]
        assert header.split(",")[-1] == "label"

    def test_same_spec_and_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(default_synthetic_spec().to_dict()))
        for out in (a, b):
            assert run(["synth", "--spec", spec, "--out", out]) == 0
        for name in ("train.csv", "test.csv", "spec.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_overlapping_anomalies_exit_1(self, tmp_path):
        spec = default_synthetic_spec().to_dict()
        spec["anomalies"] = [
            {"kind": "collective", "start": 10, "duration": 50, "magnitude": 6.0},
            {"kind": "point", "start": 30, "duration": 1, "magnitude": 6.0},
        ]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(spec))
        assert run(["synth", "--spec", p, "--out", tmp_path / "x"]) == 1


class TestLogging:
    def test_comet_log_quiet_suppresses_progress(self, corpus, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.setenv("COMET_LOG", "quiet")
        out = tmp_path / "quiet.ckpt"
        assert run(["train", "--config", corpus / "config.json",
                    "--data", corpus / "train.csv", "--out", out]) == 0
        assert capsys.readouterr().out == ""


class TestConfigResolution:
    def test_preset_expands_codebook_and_dim(self):
        class Args:
            preset = "wadi"
            config = None
            seed = None
            tta = None

        cfg = resolve_config(Args())
        assert (cfg.codebook_size, cfg.embed_dim) == (32, 64)

    def test_file_overrides_preset_and_flags_override_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"codebook_size": 99, "train": {"seed": 7}}))

        class Args:
            preset = "psm"
            config = str(p)
            seed = 123
            tta = "on"

        cfg = resolve_config(Args())
        assert cfg.codebook_size == 99          # file beats preset
        assert cfg.embed_dim == 256             # preset survives where file is silent
        assert cfg.train.seed == 123            # flag beats file
        assert cfg.tta.enabled
