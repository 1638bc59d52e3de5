"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric BENCHMARK.json declares is emitted with its unit,
untraced and traced, on every workload, and that a non-finite score is
counted as a failed operation instead of being reported as a metric.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def emitted(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def tiny_run(name: str, trace: bool) -> dict:
    return run.run_workload(name, seed=3, seconds=0, trace=trace, tiny=True,
                            echo=lambda line: None)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = tiny_run(name, trace=False)
    assert result["correct"], result
    assert result["failed"] == 0
    assert emitted(result) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name):
    result = tiny_run(name, trace=True)
    assert result["correct"], result
    assert emitted(result) == declared("per_layer")
    assert result["metrics"]["model.encode.calls"]["value"] > 0


def test_nan_score_is_a_failed_operation(monkeypatch):
    from comet import scoring

    original = scoring.score_series

    def poisoned(*args, **kwargs):
        out = original(*args, **kwargs)
        out.score[len(out.score) // 2] = float("nan")
        return out

    monkeypatch.setattr(scoring, "score_series", poisoned)
    result = tiny_run("train-default", trace=False)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"] == {}


def test_tracer_removes_every_wrapper():
    from comet import model, scoring, tta, vq
    from spans import Tracer

    before = (model.encode, tta.encode, vq.nearest_entries, scoring.nearest_entries,
              scoring.Scorer.__dict__["raw_window_scores"])
    with Tracer():
        assert tta.encode is not before[1]
        assert scoring.nearest_entries is vq.nearest_entries
    after = (model.encode, tta.encode, vq.nearest_entries, scoring.nearest_entries,
             scoring.Scorer.__dict__["raw_window_scores"])
    assert all(a is b for a, b in zip(before, after))


def test_scores_that_differ_from_an_earlier_run_fail():
    assert tiny_run("train-default", trace=False)["correct"]  # records digests
    path = run.OUT_DIR / "digests.json"
    known = json.loads(path.read_text())
    key = f"train-default seed=3 tiny=True code={run._code_hash()}"
    recorded = known[key]
    known[key] = {"score": "0" * 64}
    path.write_text(json.dumps(known))
    try:
        result = tiny_run("train-default", trace=False)
    finally:
        known[key] = recorded
        path.write_text(json.dumps(known))
    assert not result["correct"]
    assert result["failed"] == 1
