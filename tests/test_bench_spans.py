"""The benchmark's span tracer still finds every function it traces.

bench/spans.py wraps comet functions by module and name. A change that
deletes or renames one of them breaks the benchmark; this test catches that
in the fast suite, without running a workload.
"""

import importlib
import pkgutil
from pathlib import Path

import comet

BENCH = Path(__file__).resolve().parent.parent / "bench"


def listing(folder: Path):
    """Every path below folder with its modification time."""
    return sorted((str(p), p.stat().st_mtime_ns) for p in folder.rglob("*"))


def test_tracer_installs_and_removes_on_every_traced_function(monkeypatch):
    out_before = listing(BENCH / "out")
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    modules = {info.name: importlib.import_module(f"comet.{info.name}")
               for info in pkgutil.iter_modules(comet.__path__)}

    def resolve(mod, path):
        owner = modules[mod]
        for attr in path.split("."):
            owner = getattr(owner, attr)
        return owner

    originals = {name: resolve(mod, path)
                 for (mod, path), name in zip(spans.TRACED, spans.SPAN_NAMES)}
    with spans.Tracer():
        for (mod, path), name in zip(spans.TRACED, spans.SPAN_NAMES):
            assert getattr(resolve(mod, path), "__bench_traced__", False), name
    for (mod, path), name in zip(spans.TRACED, spans.SPAN_NAMES):
        assert resolve(mod, path) is originals[name], name
    assert listing(BENCH / "out") == out_before


def test_bindings_the_bench_self_test_reads_exist():
    # bench/test_bench.py::test_tracer_removes_every_wrapper reads these
    from comet import model, scoring, tta, vq
    assert tta.encode is model.encode
    assert scoring.nearest_entries is vq.nearest_entries
    assert "raw_window_scores" in scoring.Scorer.__dict__
