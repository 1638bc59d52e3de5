import argparse
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import comet
import comet.train as train_mod
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import finalized_alive

from comet import scoring
from comet.cli import (METRICS_MAGIC, build_parser, default_synthetic_spec, main,
                       read_scores, write_scores)
from comet.config import RunConfig
from comet.errors import DataError
from comet.scoring import ScoreSeries
from comet.data import (SyntheticSpec, apply_standardization, load_csv, synthesize,
                        write_csv)
from comet.train import CHECKPOINT_MAGIC, load_checkpoint
from comet.tta import stream_series


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


def read_metrics(path) -> dict[str, float]:
    """key=value lines of a metric report, as floats."""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == METRICS_MAGIC
    return {key: float(val) for key, _, val in
            (ln.partition("=") for ln in lines[1:] if "=" in ln and ln[0] != "#")}


def split_checkpoint(path):
    """(raw bytes, offset of the array payload, parsed JSON header)."""
    raw = path.read_bytes()
    pos = len(CHECKPOINT_MAGIC)
    hlen = int.from_bytes(raw[pos : pos + 8], "little")
    return raw, pos + 8 + hlen, json.loads(raw[pos + 8 : pos + 8 + hlen])


def rewrite_header(checkpoint, header, out):
    """A copy of checkpoint with its JSON header replaced, in canonical form."""
    raw, pos, _ = split_checkpoint(checkpoint)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    out.write_bytes(raw[:len(CHECKPOINT_MAGIC)] + len(blob).to_bytes(8, "little")
                    + blob + raw[pos:])
    return out


DELETE = object()


def edit(path, value):
    """Header edit that sets the item at path (keys and indices) to value;
    the value DELETE removes the item instead."""
    def apply(header):
        *parents, last = path
        target = header
        for key in parents:
            target = target[key]
        if value is DELETE:
            del target[last]
        else:
            target[last] = value
        return header
    return apply


def edit_array_shape(name, shape):
    def apply(header):
        [meta] = [m for m in header["arrays"] if m["name"] == name]
        meta["shape"] = shape
        return header
    return apply


def drop_array(name):
    def apply(header):
        header["arrays"] = [m for m in header["arrays"] if m["name"] != name]
        return header
    return apply


# hand edits of a valid checkpoint header: (edit, fragment of the error)
MALFORMED_HEADERS = {
    "config": (edit(["config"], DELETE), "lacks config"),
    "n_vars": (edit(["n_vars"], DELETE), "lacks n_vars"),
    "arrays": (edit(["arrays"], DELETE), "lacks arrays"),
    "not_object": (lambda h: [h], "not a JSON object"),
    "bad_config": (edit(["config"], "window_length=100"), "bad config"),
    "activations": (edit(["activations"], DELETE), "lacks activations"),
    # a version 1 header, which also stored the memory bank
    "v1": (lambda h: {**h, "version": 1, "n_density": 3, "bank_ids": [[0, 1], [2]]},
           "retrain"),
    "n_density": (edit(["n_density"], 0), "unknown header keys n_density"),
    "bank_ids": (edit(["bank_ids"], [[999], [0]]), "unknown header keys bank_ids"),
    "id_999": (edit(["activations", 0], [0, 999]), "activations must"),
    "id_negative": (edit(["activations", 0], [-1, 0]), "activations must"),
    "id_float": (edit(["activations", 0], [0, 1.5]), "activations must"),
    "id_true": (edit(["activations", 0], [True]), "activations must"),
    "id_duplicate": (edit(["activations", 0], [3, 3]), "activations must"),
    "empty_scale": (edit(["activations", 0], []), "activations must"),
    "missing_scale": (edit(["activations", 1], DELETE), "activations must"),
    "codebook_flat": (edit_array_shape("scale0.codebook", [64]),
                      "expected scale0.codebook [8, 8]"),
    "norm_mean_2d": (edit_array_shape("norm.mean", [1, 2]), "expected norm.mean [2]"),
    "missing_array": (drop_array("scale0.w_fuse"), "expected scale0.w_fuse"),
    "unknown_array": (lambda h: {**h, "arrays": h["arrays"] + [
        {"name": "bank0.vectors", "shape": [8, 8]}]}, "unknown or repeated entries"),
    # sizes of at least 1 TiB: the manifest is checked before any allocation
    "n_vars_1e12": (edit(["n_vars"], 10**12), "array manifest differs"),
    "embed_dim_1e12": (edit(["config", "embed_dim"], 10**12), "array manifest differs"),
    # a config field the loaded config would fill in with its default
    "config_field_missing": (edit(["config", "n_neighbors"], DELETE),
                             "differs from the one"),
}


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


ANOMALY = '"kind": "point", "start": 5, "duration": 1, "magnitude": 6.0'

# synthetic specs `comet synth --spec` rejects: (spec file text, fragment of the
# error); None runs the default spec with `--seed -1` instead
MALFORMED_SPECS = {
    "not_json": ('{"n_vars": ', "invalid JSON"),
    "not_object": ("[1, 2]", "not a JSON object"),
    "n_vars_str": ('{"n_vars": "2"}', "n_vars must be int"),
    "n_vars_bool": ('{"n_vars": true}', "n_vars must be int"),
    "n_vars_float": ('{"n_vars": 2.5}', "n_vars must be int"),
    "unknown_field": ('{"n_var": 2}', "n_var"),
    "anomalies_not_list": ('{"anomalies": {}}', "anomalies must be a JSON list"),
    "anomaly_not_object": ('{"anomalies": [5]}', "anomalies[0] must be a JSON object"),
    "anomaly_unknown_key": ('{"anomalies": [{%s, "width": 3}]}' % ANOMALY,
                            "anomalies[0].width"),
    "anomaly_no_duration": ('{"anomalies": [{%s}, {"kind": "point", "start": 9, '
                            '"magnitude": 6.0}]}' % ANOMALY, "anomalies[1].duration"),
    "anomaly_no_magnitude": ('{"anomalies": [{"kind": "point", "start": 9, '
                             '"duration": 1}]}', "anomalies[0].magnitude"),
    "anomaly_nan_magnitude": ('{"anomalies": [{"kind": "point", "start": 9, '
                              '"duration": 1, "magnitude": NaN}]}',
                              "anomalies[0].magnitude"),
    "negative_seed": ('{"seed": -1}', "seed must be >= 0"),
    "negative_seed_flag": (None, "seed must be >= 0"),
    "nan_noise_level": ('{"noise_level": NaN}', "noise_level must be float"),
    "inf_drift_sigma": ('{"drift_sigma": Infinity}', "drift_sigma must be float"),
}


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

    def test_csv_without_variable_columns_exit_2(self, tmp_path, capsys):
        blank = tmp_path / "blank.csv"
        blank.write_text("\n" * 300)
        code = run(["train", "--data", blank, "--out", tmp_path / "x.ckpt"])
        assert code == 2
        assert "blank.csv: no variable columns" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    def test_odd_embed_dim_rejected_before_training(self, corpus, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"embed_dim": 5}))
        code = run(["train", "--config", bad,
                    "--data", corpus / "train.csv", "--out", tmp_path / "x.ckpt"])
        assert code == 1
        assert "embed_dim" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("config", [
        {"selection": 5}, {"train": {"epochs": 2.0}}, {"use_normalization": 1},
        {"train": {"seed": -1}}, {"alpha": float("nan")},
        {"tta": {"temperature": float("inf")}},
        {"train": {"learning_rate": float("nan")}},
        {"tta": {"learning_rate": -5.0}}, {"window_stride": 150}, {"threads": 2},
        {"tta": {"steps_per_batch": 0}},
    ], ids=["section_not_object", "float_for_int", "int_for_bool", "negative_seed",
            "nan_alpha", "inf_temperature", "nan_learning_rate",
            "negative_tta_learning_rate", "stride_longer_than_window", "threads",
            "zero_tta_steps_while_disabled"])
    def test_mistyped_config_exit_1(self, corpus, tmp_path, capsys, config):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        code = run(["train", "--config", bad,
                    "--data", corpus / "train.csv", "--out", tmp_path / "x.ckpt"])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    def test_seed_flag_over_malformed_train_section_exit_1(self, corpus, tmp_path,
                                                           capsys):
        # the file is decoded before --seed is applied over it
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": 5}))
        code = run(["train", "--config", bad, "--seed", "7",
                    "--data", corpus / "train.csv", "--out", tmp_path / "x.ckpt"])
        assert code == 1
        assert "train must be a JSON object" in capsys.readouterr().err

    def test_unknown_flag_exit_1(self, corpus):
        assert run(["train", "--no-such-flag"]) == 1

    def test_constant_training_column_is_centred_only(self, corpus, tmp_path):
        # a variable stuck at 5.0 in training stores std 1, so a 1e-6 test
        # offset stays a 1e-6 input instead of becoming a 100-sigma one
        lines = (corpus / "train.csv").read_text().splitlines()
        rows = [ln.split(",") for ln in lines[1:]]
        data = tmp_path / "train.csv"
        data.write_text("\n".join([lines[0]] + [f"5.0,{x2}" for _, x2 in rows]) + "\n")
        out = tmp_path / "model.ckpt"
        assert run(["train", "--config", corpus / "config.json",
                    "--data", data, "--out", out]) == 0
        ckpt = load_checkpoint(out)
        values = load_csv(data).values
        assert ckpt.norm_mean[0] == 5.0 and ckpt.norm_std[0] == 1.0
        assert ckpt.norm_std[1] == values.std(axis=0)[1]  # unchanged

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
        scores, _ = read_scores(out)
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
        (a, _), (b, _) = read_scores(on), read_scores(off)
        assert np.array_equal(a.score, b.score)

    def test_scores_are_the_library_bits(self, corpus, checkpoint, tmp_path):
        # score --tta off|on writes the bits of scoring.score_series and
        # tta.stream_series on the CSV standardized by the checkpoint
        series = load_csv(corpus / "test.csv", label_column="label")
        written = {}
        for mode in ("off", "on"):
            out = tmp_path / f"{mode}.txt"
            assert run(["score", "--checkpoint", checkpoint, "--data", corpus / "test.csv",
                        "--out", out, "--tta", mode]) == 0
            written[mode], _ = read_scores(out)
            assert np.array_equal(written[mode].labels, series.labels)
        ckpt = load_checkpoint(checkpoint)
        config = ckpt.config
        values = apply_standardization(series.values, ckpt.norm_mean, ckpt.norm_std,
                                       config.eps)
        config.tta.enabled = False
        frozen = scoring.score_series(ckpt.state, ckpt.bank, values, config)
        config.tta.enabled = True
        adapted = stream_series(values, ckpt.state, ckpt.bank, ckpt.activations, config)
        for got, want in ((written["off"], frozen), (written["on"], adapted)):
            for stream in ("mem", "quant", "score"):
                assert np.array_equal(getattr(got, stream), getattr(want, stream)), stream
        assert not np.array_equal(frozen.score, adapted.score)  # the stream adapted

    @pytest.mark.parametrize("mode", ["off", "on"])
    def test_score_keeps_no_window_list(self, corpus, checkpoint, tmp_path,
                                        monkeypatch, mode):
        # score merges each window as it is scored: when a window is
        # finalized, at most the one before it is still alive
        code, alive = finalized_alive(
            monkeypatch, run, ["score", "--checkpoint", checkpoint, "--data",
                               corpus / "test.csv", "--out", tmp_path / "s.txt",
                               "--tta", mode])
        assert code == 0 and len(alive) == 11 and max(alive) <= 1, alive

    def test_bad_checkpoint_exit_3(self, corpus, tmp_path, capsys):
        bad = tmp_path / "junk.ckpt"
        bad.write_bytes(b"not a checkpoint at all")
        code = run(["score", "--checkpoint", bad,
                    "--data", corpus / "test.csv", "--out", tmp_path / "s.txt"])
        assert code == 3

    @pytest.mark.parametrize("edit", list(MALFORMED_HEADERS))
    def test_malformed_checkpoint_header_exit_3(self, corpus, checkpoint, tmp_path,
                                                capsys, edit):
        change, message = MALFORMED_HEADERS[edit]
        _, _, header = split_checkpoint(checkpoint)
        bad = rewrite_header(checkpoint, change(header), tmp_path / "bad.ckpt")
        for tta in ("off", "on"):
            out = tmp_path / f"s_{tta}.txt"
            code = run(["score", "--checkpoint", bad, "--data", corpus / "test.csv",
                        "--out", out, "--tta", tta])
            assert code == 3
            err = capsys.readouterr().err
            assert "bad.ckpt" in err and message in err
            assert not out.exists()

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

    def test_nan_contrastive_weight_exit_1(self, corpus, checkpoint, tmp_path,
                                           capsys):
        # NaN would fail the `weight > 0` test and silently drop the term
        bad = tmp_path / "nan.json"
        bad.write_text('{"tta": {"contrastive_weight": NaN}}')
        out = tmp_path / "s.txt"
        code = run(["score", "--checkpoint", checkpoint, "--config", bad,
                    "--data", corpus / "test.csv", "--out", out, "--tta", "on"])
        assert code == 1
        assert "tta.contrastive_weight" in capsys.readouterr().err
        assert not out.exists()

    def test_floating_point_overflow_exit_3(self, corpus, checkpoint, tmp_path,
                                            capsys):
        # temperature 1e-300 passes validation (> 0, finite), but the square of
        # the ~1e300 contrastive gradient overflows AdamW's second moment
        hot = tmp_path / "hot.json"
        hot.write_text('{"tta": {"temperature": 1e-300}}')
        out = tmp_path / "s.txt"
        before = np.geterr()
        code = run(["score", "--checkpoint", checkpoint, "--config", hot,
                    "--data", corpus / "test.csv", "--out", out, "--tta", "on"])
        assert code == 3
        err = capsys.readouterr().err
        assert "floating-point error in score (ndmath.AdamW.step): overflow" in err
        assert not out.exists()
        assert np.geterr() == before  # the rule holds only inside the command

    @pytest.mark.parametrize("header", ['"x1","x2","label"', "x1, x2, label"],
                             ids=["quoted", "spaced"])
    def test_header_parsed_like_plain(self, corpus, checkpoint, tmp_path, header):
        lines = (corpus / "test.csv").read_text().splitlines()
        assert lines[0] == "x1,x2,label"
        variant = tmp_path / "variant.csv"
        variant.write_text("\n".join([header] + lines[1:]) + "\n")
        plain, other = tmp_path / "plain.txt", tmp_path / "other.txt"
        assert run(["score", "--checkpoint", checkpoint,
                    "--data", corpus / "test.csv", "--out", plain]) == 0
        assert run(["score", "--checkpoint", checkpoint,
                    "--data", variant, "--out", other]) == 0
        assert plain.read_bytes() == other.read_bytes()

    def test_structural_override_rejected(self, corpus, checkpoint, tmp_path, capsys):
        # n_density fixes the local scales of the bank the checkpoint derives
        for field, value in (("embed_dim", 16), ("n_density", 5)):
            override = tmp_path / "override.json"
            override.write_text(json.dumps({field: value}))
            code = run(["score", "--checkpoint", checkpoint,
                        "--data", corpus / "test.csv", "--out", tmp_path / "s.txt",
                        "--config", override])
            assert code == 1
            assert field in capsys.readouterr().err

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

    def test_report_comment_lines_are_the_score_files(self, scores_file, tmp_path):
        def comments(path):
            return [ln for ln in path.read_text().splitlines()[1:] if ln[0] == "#"]

        report = tmp_path / "metrics.txt"
        assert run(["eval", "--data", scores_file, "--out", report]) == 0
        assert len(comments(scores_file)) == 1            # the config echo
        assert comments(report) == comments(scores_file)
        bare = tmp_path / "bare.txt"                       # no comment lines
        bare.write_text("# comet-scores v1\nindex,mem,quant,score,label\n"
                        "0,0.0,0.0,0.0,0\n1,1.0,1.0,1.0,1\n")
        assert run(["eval", "--data", bare, "--out", report]) == 0
        assert comments(report) == []

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

    @pytest.mark.parametrize("body, detail", [
        (b"index,mem,label\n0,1.0,0\n1,2.0,1\n", "columns"),
        (b"index,mem,quant,score\n0,1.0,1.0,\xff\n", "UTF-8"),
        (b"index,mem,quant,score,label\n0,1.0,1.0,1.0,0\n1,1.0,1.0,1.0,7\n",
         "row 2, column 'label'"),
        (b"index,mem,quant,score,label\n0,1.0,1.0,1.0,99999999999999999999\n",
         "row 1, column 'label'"),                             # overflows int64
        (b"index,mem,quant,score\nabc,1.0,1.0,1.0\n", "row 1, column 'index'"),
        (b"index,mem,quant,score,label\n1,1.0,1.0,1.0,0\n0,2.0,2.0,2.0,1\n",
         "row 1, column 'index'"),
        (b"index,mem,quant,score,label\n", "no score rows"),
    ], ids=["columns", "not_utf8", "label_not_binary", "label_overflow",
            "index_not_number", "rows_swapped", "header_only"])
    def test_malformed_score_file_exit_2(self, tmp_path, capsys, body, detail):
        scores = tmp_path / "bad.txt"
        scores.write_bytes(b"# comet-scores v1\n" + body)
        assert run(["eval", "--data", scores]) == 2
        err = capsys.readouterr().err
        assert "bad.txt" in err and detail in err

    def test_labels_file_with_byte_order_mark(self, scores_file, corpus, tmp_path):
        # eval --labels said a BOM file of only a label column had no `label`
        labels = load_csv(corpus / "test.csv", label_column="label").labels
        text = "label\n" + "".join(f"{v}\n" for v in labels)
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        for path in (plain, bom):
            assert run(["eval", "--data", scores_file, "--labels", path,
                        "--out", path.with_suffix(".txt")]) == 0
        assert plain.with_suffix(".txt").read_bytes() == bom.with_suffix(".txt").read_bytes()

    def test_score_file_with_byte_order_mark(self, scores_file, tmp_path):
        # a score file saved with a UTF-8 byte-order mark was "not a comet
        # score file"
        bom = tmp_path / "bom.txt"
        bom.write_bytes(b"\xef\xbb\xbf" + scores_file.read_bytes())
        plain_out, bom_out = tmp_path / "plain_metrics.txt", tmp_path / "bom_metrics.txt"
        assert run(["eval", "--data", scores_file, "--out", plain_out]) == 0
        assert run(["eval", "--data", bom, "--out", bom_out]) == 0
        assert plain_out.read_bytes() == bom_out.read_bytes()

    def test_labels_file_without_label_column_exit_2(self, scores_file, corpus,
                                                     capsys):
        assert run(["eval", "--data", scores_file, "--labels",
                    corpus / "train.csv"]) == 2
        assert "train.csv" in capsys.readouterr().err

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
        spec.write_text(json.dumps(asdict(default_synthetic_spec())))
        for out in (a, b):
            assert run(["synth", "--spec", spec, "--out", out]) == 0
        for name in ("train.csv", "test.csv", "spec.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_overlapping_anomalies_exit_1(self, tmp_path):
        spec = asdict(default_synthetic_spec())
        spec["anomalies"] = [
            {"kind": "collective", "start": 10, "duration": 50, "magnitude": 6.0},
            {"kind": "point", "start": 30, "duration": 1, "magnitude": 6.0},
        ]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(spec))
        assert run(["synth", "--spec", p, "--out", tmp_path / "x"]) == 1


    def test_module_entry_point_has_no_runtime_warning(self, tmp_path):
        src = str(Path(comet.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "COMET_LOG": "quiet"}
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "comet.cli",
             "synth", "--out", str(tmp_path / "corpus")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "corpus" / "test.csv").exists()

    @pytest.mark.parametrize("spec, detail", list(MALFORMED_SPECS.values()),
                             ids=list(MALFORMED_SPECS))
    def test_malformed_spec_exit_1(self, tmp_path, capsys, spec, detail):
        argv = ["synth", "--out", tmp_path / "out"]
        if spec is None:
            argv += ["--seed", "-1"]
        else:
            (tmp_path / "spec.json").write_text(spec)
            argv += ["--spec", tmp_path / "spec.json"]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and detail in err
        assert not (tmp_path / "out").exists()


class TestOsErrors:
    @pytest.mark.parametrize("command", [
        "train_data", "score_data", "score_checkpoint", "eval_data", "synth_out"])
    def test_os_error_exit_2(self, corpus, checkpoint, tmp_path, capsys, command):
        # a directory where a file is read, or a file where a directory is made
        folder = tmp_path / "folder"
        folder.mkdir()
        taken = tmp_path / "taken"
        taken.write_text("keep")
        out = tmp_path / "out"
        argv, culprit = {
            "train_data": (["train", "--data", folder, "--out", out], folder),
            "score_data": (["score", "--checkpoint", checkpoint, "--data", folder,
                            "--out", out], folder),
            "score_checkpoint": (["score", "--checkpoint", folder,
                                  "--data", corpus / "test.csv", "--out", out], folder),
            "eval_data": (["eval", "--data", folder, "--out", out], folder),
            "synth_out": (["synth", "--out", taken], taken),
        }[command]
        assert run(argv) == 2
        assert str(culprit) in capsys.readouterr().err
        assert not out.exists() and taken.read_text() == "keep"
        assert list(folder.iterdir()) == []


@pytest.mark.parametrize("command", ["train_data", "score_data", "eval_labels"])
def test_non_utf8_csv_exit_2(corpus, checkpoint, scores_file, tmp_path, capsys, command):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"x1,x2\n1.0,\xff\n")
    out = tmp_path / "out"
    argv = {
        "train_data": ["train", "--data", bad, "--out", out],
        "score_data": ["score", "--checkpoint", checkpoint, "--data", bad, "--out", out],
        "eval_labels": ["eval", "--data", scores_file, "--labels", bad, "--out", out],
    }[command]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(bad) in err
    assert not out.exists()


# sizes of at least 1 TiB: the allocation is refused, nothing is really allocated
@pytest.mark.parametrize("command, field, value, detail", [
    ("synth", "train_length", 10**12, "Unable to allocate 7.28 TiB"),
    ("train", "codebook_size", 10**12, "Unable to allocate 1.36 PiB"),
    # 2e24 values: beyond numpy's index range, not only the memory
    ("train", "embed_dim", 2 * 10**12, "cannot allocate a model"),
])
def test_unallocatable_size_exit_1(corpus, tmp_path, capsys, command, field, value, detail):
    # numpy's MemoryError escaped main as a traceback
    path = tmp_path / "sizes.json"
    path.write_text(json.dumps({field: value}))
    out = tmp_path / "out"
    argv = {
        "synth": ["synth", "--spec", path, "--out", out],
        "train": ["train", "--config", path, "--data", corpus / "train.csv", "--out", out],
    }[command]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command} ran out of memory") and detail in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


class TestLogging:
    def test_comet_log_quiet_suppresses_progress(self, corpus, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.setenv("COMET_LOG", "quiet")
        out = tmp_path / "quiet.ckpt"
        assert run(["train", "--config", corpus / "config.json",
                    "--data", corpus / "train.csv", "--out", out]) == 0
        assert capsys.readouterr().out == ""

    def test_quiet_train_skips_validation_loss(self, corpus, tmp_path,
                                               monkeypatch):
        # the validation loss only feeds the progress line: quiet training
        # never computes it and writes the same checkpoint
        calls = []
        original = train_mod.batch_loss

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(train_mod, "batch_loss", counted)
        written = {}
        for level in ("quiet", "info"):
            monkeypatch.setenv("COMET_LOG", level)
            out = tmp_path / f"{level}.ckpt"
            assert run(["train", "--config", corpus / "config.json",
                        "--data", corpus / "train.csv", "--out", out]) == 0
            written[level] = (out.read_bytes(), len(calls))
        assert written["quiet"][1] == 0
        assert written["info"][1] == 2  # one per epoch
        assert written["quiet"][0] == written["info"][0]


def trained_config(corpus, tmp_path, flags, drop=()) -> RunConfig:
    """Config of a checkpoint trained with flags and a copy of the corpus
    config that lacks the fields in drop, on the first 200 training steps."""
    config = json.loads((corpus / "config.json").read_text())
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({k: v for k, v in config.items() if k not in drop}))
    short = tmp_path / "short.csv"
    short.write_text("\n".join((corpus / "train.csv").read_text().splitlines()[:201]))
    out = tmp_path / "model.ckpt"
    assert run(["train", "--config", partial, "--data", short, "--out", out,
                *flags]) == 0
    return load_checkpoint(out).config


class TestConfigResolution:
    """train: --preset < --config < --seed; score: checkpoint < --config < --tta."""

    def test_preset_expands_codebook_and_dim(self, corpus, tmp_path):
        cfg = trained_config(corpus, tmp_path, ["--preset", "wadi"],
                             drop=("codebook_size", "embed_dim"))
        assert (cfg.codebook_size, cfg.embed_dim) == (32, 64)

    def test_file_overrides_preset_and_flags_override_file(self, corpus, tmp_path):
        cfg = trained_config(corpus, tmp_path, ["--preset", "psm", "--seed", "123"],
                             drop=("embed_dim",))
        assert cfg.codebook_size == 8          # file beats preset (psm: 128)
        assert cfg.embed_dim == 256            # preset survives where file is silent
        assert cfg.train.seed == 123           # --seed beats the file's 42

    def test_tta_flag_applies_only_when_given(self, corpus, checkpoint, tmp_path):
        on = tmp_path / "tta_on.json"
        on.write_text(json.dumps({"tta": {"enabled": True}}))
        files = {}
        for name, flags in (("file", ["--config", on]), ("flag", ["--tta", "on"]),
                            ("flag_over_file", ["--config", on, "--tta", "off"]),
                            ("off", ["--tta", "off"])):
            files[name] = tmp_path / f"{name}.txt"
            assert run(["score", "--checkpoint", checkpoint, "--data",
                        corpus / "test.csv", "--out", files[name], *flags]) == 0
        text = {name: path.read_text() for name, path in files.items()}
        assert text["file"] == text["flag"]            # config echo included
        assert text["flag_over_file"] == text["off"]   # --tta beats the file
        assert text["file"] != text["off"]             # adaptation moved scores


def test_each_command_takes_only_its_options():
    [commands] = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    options = {name: {opt for action in parser._actions
                      for opt in action.option_strings} - {"-h", "--help"}
               for name, parser in commands.choices.items()}
    assert options == {
        "train": {"--config", "--preset", "--seed", "--data", "--out"},
        "score": {"--config", "--checkpoint", "--data", "--out", "--tta",
                  "--label-column"},
        "eval": {"--data", "--labels", "--out"},
        "synth": {"--spec", "--seed", "--out"},
    }


REMOVED_FLAGS = [
    ("score", "--preset", "psm"), ("score", "--seed", "7"),
    ("eval", "--config", "config.json"), ("eval", "--preset", "psm"),
    ("eval", "--seed", "7"), ("synth", "--config", "config.json"),
    ("synth", "--preset", "psm"),
]


@pytest.mark.parametrize("command, flag, value", REMOVED_FLAGS,
                         ids=[f"{c}_{f[2:]}" for c, f, _ in REMOVED_FLAGS])
def test_removed_flag_exit_1(corpus, checkpoint, scores_file, tmp_path, capsys,
                             command, flag, value):
    out = tmp_path / "out"
    argv = {
        "score": ["score", "--checkpoint", checkpoint, "--data", corpus / "test.csv"],
        "eval": ["eval", "--data", scores_file],
        "synth": ["synth"],
    }[command]
    if value == "config.json":
        value = corpus / value
    assert run(argv + ["--out", out, flag, value]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@st.composite
def score_series(draw):
    n = draw(st.integers(1, 20))
    column = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=n, max_size=n).map(np.array)
    labels = draw(st.none() | st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return ScoreSeries(mem=draw(column), quant=draw(column), score=draw(column),
                       labels=None if labels is None else np.array(labels, dtype=np.int64))


def corrupted(text: bytes):
    """text with one byte changed, cut short, or one line replaced."""
    lines = text.split(b"\n")

    def flip(args):
        at, mask = args
        return text[:at] + bytes([text[at] ^ mask]) + text[at + 1 :]

    def replace_line(args):
        i, new = args
        return b"\n".join(lines[:i] + [new.encode()] + lines[i + 1 :])

    return (st.tuples(st.integers(0, len(text) - 1), st.integers(1, 255)).map(flip)
            | st.integers(0, len(text) - 1).map(lambda n: text[:n])
            | st.tuples(st.integers(0, len(lines) - 1),
                        st.text(alphabet="index,mequatsorlb0123456789.-e#", max_size=30)
                        ).map(replace_line))


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


class TestScoreFileProperties:
    @PROPERTY
    @given(score_series())
    def test_write_read_round_trips_exactly(self, scratch, scores):
        path = scratch / "scores.txt"
        write_scores(path, scores, RunConfig())
        back, comments = read_scores(path)
        assert comments == path.read_text().splitlines()[1:2]   # the config echo
        for name in ("mem", "quant", "score"):
            assert getattr(back, name).tobytes() == getattr(scores, name).tobytes()
        if scores.labels is None:
            assert back.labels is None
        else:
            assert np.array_equal(back.labels, scores.labels)

    @PROPERTY
    @given(score_series(), st.data())
    def test_corruption_raises_only_data_error(self, scratch, scores, data):
        path = scratch / "scores.txt"
        write_scores(path, scores, RunConfig())
        path.write_bytes(data.draw(corrupted(path.read_bytes())))
        try:
            read_scores(path)
        except DataError:
            pass
