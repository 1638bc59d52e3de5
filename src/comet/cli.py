"""Command-line surface: train, score (batch or streaming), eval, synth.

Exit codes: 0 ok, 1 usage/config (so also a size set in a config or spec
that is too large to allocate), 2 data, 3 numeric/model. Each command runs
under np.errstate(over, invalid and divide set to "raise"): a floating-point
overflow, invalid operation or division by zero exits 3, naming the command
and the comet function it came from; underflow stays silent. The COMET_LOG
environment variable controls verbosity ("quiet" silences progress lines;
default "info"). Each command takes only options that change its output:
  train  --config --preset --seed --data --out
  score  --config --checkpoint --data --out --tta --label-column
  eval   --data --labels --out
  synth  --spec --seed --out
train's config is --preset (else the defaults) < --config < --seed; score's is
the checkpoint's < --config < --tta, each flag applied only when given.

File formats
------------
Config file: JSON with the fields of config.RunConfig (all optional; nested
"selection", "train", "tta" objects), decoded by config.from_json: each value
has its field's type and a float field takes only finite numbers.

Score file: '# comet-scores v1' then '# config: <json>' then a CSV table
with columns index, mem, quant, score and, when the scored data had labels,
label. One row per timestep.

Metric report: '# comet-metrics v1', then the comment lines of the score file
it was computed from (its '# config: <json>'), then key=value lines for
f1_k0, f1_k100, auc_roc, auc_pr and the two best thresholds.

Synthetic spec: JSON with the fields of data.SyntheticSpec, decoded the same
way; anomalies are objects with the required fields kind
(point|contextual|collective), start, duration and magnitude.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import data as data_mod
from .config import RunConfig, preset_config
from .errors import (CheckpointFormatError, CometError, ConfigError, DataError,
                     MetricError, NumericError, ShapeError)
from .evaluation import MetricReport, evaluate
from .scoring import ScoreSeries
from .train import Checkpoint, load_checkpoint, save_checkpoint, train
from .tta import stream_series

SCORES_MAGIC = "# comet-scores v1"
METRICS_MAGIC = "# comet-metrics v1"

# fields that must match the checkpoint at scoring time: they fix array
# shapes, or (n_density) the local scales of the bank the checkpoint derives
STRUCTURAL_FIELDS = ("patch_sizes", "strides", "embed_dim", "core_dim",
                     "codebook_size", "window_length", "n_density")


class UsageError(CometError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def _read_json_object(path) -> dict:
    """The JSON object in a config or synthetic-spec file."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # invalid JSON or UTF-8
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: not a JSON object")
    return raw


def resolve_config(base: RunConfig, config_file: str | None,
                   flags: dict) -> RunConfig:
    """base < config file < flags, the nested fields the command line set."""
    from_file = _read_json_object(config_file) if config_file else {}
    cfg = RunConfig.from_dict(_merge(base.to_dict(), from_file))
    return RunConfig.from_dict(_merge(cfg.to_dict(), flags))


def _quiet() -> bool:
    return os.environ.get("COMET_LOG", "info").lower() == "quiet"


def _progress(line: str):
    if not _quiet():
        print(line)


def write_scores(path, scores: ScoreSeries, config: RunConfig):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SCORES_MAGIC + "\n")
        fh.write("# config: " + json.dumps(config.to_dict(), sort_keys=True) + "\n")
        cols = "index,mem,quant,score"
        if scores.labels is not None:
            cols += ",label"
        fh.write(cols + "\n")
        for i in range(scores.score.size):
            row = (f"{i},{float(scores.mem[i])!r},{float(scores.quant[i])!r},"
                   f"{float(scores.score[i])!r}")
            if scores.labels is not None:
                row += f",{int(scores.labels[i])}"
            fh.write(row + "\n")


def read_scores(path) -> tuple[ScoreSeries, list[str]]:
    """The scores of a score file and its comment lines (magic excluded)."""
    try:
        with open(path, encoding="utf-8-sig") as fh:  # skips a BOM
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    if not lines or lines[0] != SCORES_MAGIC:
        raise DataError(f"{path}: not a comet score file")
    comments = [ln for ln in lines[1:] if ln.startswith("#")]
    body = [ln for ln in lines[1:] if not ln.startswith("#")]
    if not body:
        raise DataError(f"{path}: missing column header")
    cols = body[0].split(",")
    has_labels = cols == ["index", "mem", "quant", "score", "label"]
    if not has_labels and cols != ["index", "mem", "quant", "score"]:
        raise DataError(f"{path}: unexpected columns {body[0]!r}")
    if len(body) == 1:
        raise DataError(f"{path}: no score rows after the column header")
    mem, quant, score, labels = [], [], [], []
    for rownum, ln in enumerate(body[1:], start=1):
        cells = ln.split(",")
        if len(cells) != len(cols):
            raise DataError(f"{path}: row {rownum} has {len(cells)} cells")
        if cells[0] != str(rownum - 1):
            raise DataError(f"{path}: row {rownum}, column 'index': "
                            f"{cells[0]!r} is not {rownum - 1}")
        try:
            mem.append(float(cells[1]))
            quant.append(float(cells[2]))
            score.append(float(cells[3]))
            if has_labels:
                if cells[4] not in ("0", "1"):
                    raise DataError(f"{path}: row {rownum}, column 'label': "
                                    f"{cells[4]!r} is not 0/1")
                labels.append(int(cells[4]))
        except ValueError as exc:
            raise DataError(f"{path}: row {rownum}: {exc}") from None
    streams = [np.asarray(v) for v in (mem, quant, score)]
    for col, values in enumerate(streams, start=1):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise DataError(f"{path}: row {bad[0] + 1}, column {cols[col]!r}: "
                            f"non-finite value {values[bad[0]]}")
    labels = np.asarray(labels, dtype=np.int64) if has_labels else None
    return ScoreSeries(*streams, labels=labels), comments


def write_metrics(path, report: MetricReport, comments: list[str]):
    """The report, headed by the comment lines of the scores it measures."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(METRICS_MAGIC + "\n")
        for line in comments + report.lines():
            fh.write(line + "\n")


def cmd_train(args) -> int:
    base = preset_config(args.preset) if args.preset else RunConfig()
    seed = {} if args.seed is None else {"train": {"seed": args.seed}}
    config = resolve_config(base, args.config, seed)
    series = data_mod.load_csv(args.data)
    mean, std = data_mod.train_statistics(series.values)
    standardized = data_mod.apply_standardization(series.values, mean, std, config.eps)
    # no log when quiet: train() skips the validation loss it would report
    ckpt = train(standardized, config, log=None if _quiet() else _progress)
    ckpt.norm_mean = mean
    ckpt.norm_std = std
    save_checkpoint(ckpt, args.out)
    _progress(f"checkpoint written to {args.out}")
    return 0


def _scoring_config(args, ckpt: Checkpoint) -> RunConfig:
    tta = {} if args.tta is None else {"tta": {"enabled": args.tta == "on"}}
    config = resolve_config(ckpt.config, args.config, tta)
    base = ckpt.config.to_dict()
    new = config.to_dict()
    for field in STRUCTURAL_FIELDS:
        if base[field] != new[field]:
            raise ConfigError(
                f"{field} differs from the checkpoint ({base[field]} -> {new[field]}); "
                f"structural fields cannot change at scoring time"
            )
    return config


def cmd_score(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    config = _scoring_config(args, ckpt)
    series = data_mod.load_csv(args.data, label_column=args.label_column)
    if series.n_vars != ckpt.state.n_vars:
        raise DataError(
            f"{args.data}: {series.n_vars} variables, the checkpoint was trained "
            f"on {ckpt.state.n_vars}"
        )
    values = data_mod.apply_standardization(
        series.values, ckpt.norm_mean, ckpt.norm_std, config.eps
    )
    scores = stream_series(values, ckpt.state, ckpt.bank, ckpt.activations,
                           config, labels=series.labels)
    write_scores(args.out, scores, config)
    _progress(f"scores for {scores.score.size} timesteps written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    scores, comments = read_scores(args.data)
    if args.labels:
        labels = data_mod.load_csv(args.labels, label_column="label").labels
        if labels is None:
            raise DataError(f"{args.labels}: no column named 'label'")
    else:
        labels = scores.labels
    if labels is None:
        raise DataError(
            "no labels: score file has no label column and --labels not given"
        )
    if labels.size != scores.score.size:
        raise DataError(
            f"scores ({scores.score.size}) and labels ({labels.size}) differ in length"
        )
    report = evaluate(scores.score, labels)
    for line in report.lines():
        print(line)
    if args.out:
        write_metrics(args.out, report, comments)
    return 0


def default_synthetic_spec() -> data_mod.SyntheticSpec:
    """Demo corpus: 2-variable sine mixture, 5 point + 3 sustained collective anomalies."""
    return data_mod.SyntheticSpec(
        n_vars=2,
        train_length=4000,
        test_length=2000,
        noise_level=0.1,
        seed=42,
        anomalies=[
            data_mod.AnomalySpec("point", 150, 1, 8.0),
            data_mod.AnomalySpec("point", 700, 1, 7.0),
            data_mod.AnomalySpec("point", 1250, 1, 6.5),
            data_mod.AnomalySpec("point", 1850, 1, 7.5),
            data_mod.AnomalySpec("point", 1950, 1, 6.0),
            data_mod.AnomalySpec("collective", 300, 250, 6.0),
            data_mod.AnomalySpec("collective", 900, 300, 6.0),
            data_mod.AnomalySpec("collective", 1500, 250, 7.0),
        ],
    )


def cmd_synth(args) -> int:
    if args.spec:
        spec = data_mod.SyntheticSpec.from_dict(_read_json_object(args.spec))
    else:
        spec = default_synthetic_spec()
    if args.seed is not None:
        spec.seed = args.seed
    dataset = data_mod.synthesize(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_mod.write_csv(out / "train.csv", dataset.train)
    data_mod.write_csv(out / "test.csv", dataset.test, label_column="label")
    with open(out / "spec.json", "w", encoding="utf-8") as fh:
        json.dump(asdict(spec), fh, sort_keys=True, indent=2)
        fh.write("\n")
    _progress(f"synthetic corpus written to {out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="comet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write a checkpoint")
    p_train.add_argument("--config", help="JSON config file")
    p_train.add_argument("--preset", help="named dataset preset (psm|swat|smap|msl|wadi)")
    p_train.add_argument("--seed", type=int, help="override the training seed")
    p_train.add_argument("--data", required=True, help="training CSV (assumed normal)")
    p_train.add_argument("--out", required=True, help="checkpoint output path")
    p_train.set_defaults(fn=cmd_train)

    p_score = sub.add_parser("score", help="score a series with a trained model")
    p_score.add_argument("--config", help="JSON config file over the checkpoint's")
    p_score.add_argument("--checkpoint", required=True)
    p_score.add_argument("--data", required=True, help="CSV to score")
    p_score.add_argument("--out", required=True, help="score file output path")
    p_score.add_argument("--tta", choices=("on", "off"),
                         help="stream with online codebook adaptation "
                              "(default: the config's tta.enabled)")
    p_score.add_argument("--label-column", default="label",
                         help="label column name, copied into the score file")
    p_score.set_defaults(fn=cmd_score)

    p_eval = sub.add_parser("eval", help="compute metrics from a score file")
    p_eval.add_argument("--data", required=True, help="score file")
    p_eval.add_argument("--labels", help="CSV with a 'label' column (else embedded)")
    p_eval.add_argument("--out", help="metric report output path")
    p_eval.set_defaults(fn=cmd_eval)

    p_synth = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p_synth.add_argument("--spec", help="synthetic spec JSON (default: demo corpus)")
    p_synth.add_argument("--seed", type=int, help="override the spec's seed")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(fn=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.fn(args)
    except FloatingPointError as exc:
        # the stage: the command and the innermost comet function of the error
        stage = args.command
        codes = [frame.f_code for frame, _ in traceback.walk_tb(exc.__traceback__)
                 if Path(frame.f_code.co_filename).parent == Path(__file__).parent]
        if codes:
            name = getattr(codes[-1], "co_qualname", codes[-1].co_name)  # 3.11+
            stage += f" ({Path(codes[-1].co_filename).stem}.{name})"
        print(f"model error: floating-point error in {stage}: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # every size a command allocates is set in a config or spec
        print(f"error: {args.command} ran out of memory, a configured size is too large: "
              f"{exc}", file=sys.stderr)
        return 1
    except (DataError, MetricError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (ShapeError, NumericError, CheckpointFormatError) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
