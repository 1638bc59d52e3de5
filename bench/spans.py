"""Span tracer that wraps comet's public functions from outside the package.

Each traced function is replaced, in every comet module that binds it (a
``from .x import y`` makes a second binding), by a wrapper that times the
call and records it as a span. Methods are replaced on their class. A span's
self time is its duration minus the time of the spans nested inside it.
``Tracer.remove`` puts every original back and fails if any wrapper is left.

Spans are summed in memory per function (calls, busy and self seconds, and
counts taken from arguments or results) and attributed to the benchmark call
in progress; ``Tracer.span_metrics`` turns the sums into per-layer numbers.
The tracer is not thread-safe: trace only single-threaded calls.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

import numpy as np

# (module, attribute path) of every traced function, grouped by layer
TRACED = (
    ("ndmath", "pairwise_sq_dists"), ("ndmath", "AdamW.step"),
    ("patching", "extract_patches"), ("patching", "CoverageMap.spread"),
    ("model", "encode"), ("model", "backward"), ("model", "decode"),
    ("vq", "nearest_entries"), ("vq", "local_scales_for"),
    ("vq", "build_memory_bank"),
    ("scoring", "Scorer.raw_window_scores"), ("scoring", "Scorer.finalize_window"),
    ("scoring", "memory_scores_for_queries"),
    ("train", "batch_loss_and_grads"), ("train", "collect_activations"),
    ("train", "save_checkpoint"), ("train", "load_checkpoint"),
    ("tta", "tta_step"), ("tta", "adaptation_loss_and_grads"),
    ("tta", "contrastive_loss"), ("tta", "refresh_coreset"),
    ("evaluation", "best_f1"), ("evaluation", "point_adjust"),
    ("evaluation", "auc_roc"),
    ("data", "load_csv"), ("cli", "write_scores"), ("cli", "read_scores"),
)
SPAN_NAMES = tuple(f"{mod}.{path}" for mod, path in TRACED)


def _pairs(args, kwargs, result):
    return {"pairs": args[0].shape[0] * args[1].shape[0]}


def _queries(args, kwargs, result):
    return {"queries": int(np.prod(np.shape(args[0])[:-1]))}


def _contrastive_pairs(args, kwargs, result):
    return {"pairs": np.shape(args[0])[0] ** 2}


def _tta_report(args, kwargs, result):
    return {"stepped": int(result.stepped), "n_normal": result.n_normal,
            "n_patches": result.n_patches}


# counts taken from a call's arguments or result, added to its span's totals
COUNTERS = {
    "ndmath.pairwise_sq_dists": _pairs,
    "vq.nearest_entries": _queries,
    "tta.contrastive_loss": _contrastive_pairs,
    "tta.tta_step": _tta_report,
}


@dataclass
class SpanStats:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.stats = {name: SpanStats() for name in SPAN_NAMES}
        self.op = None                 # name of the benchmark call in progress
        self.op_start: dict = {}       # op -> time the call started
        self.op_calls: dict = {}       # (op, span name) -> calls
        self.finalize_ends: dict = {}  # op -> return times of finalize_window
        self._stack: list[float] = []  # child time accumulated per open span
        self._patches: list = []       # (owner, attribute, original)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        stats = self.stats[name]

        def traced(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                child = self._stack.pop()
                stats.calls += 1
                stats.busy += end - start
                stats.self_time += end - start - child
                if self._stack:
                    self._stack[-1] += end - start
                key = (self.op, name)
                self.op_calls[key] = self.op_calls.get(key, 0) + 1
            if name == "scoring.Scorer.finalize_window":
                self.finalize_ends.setdefault(self.op, []).append(end)
            if counter is not None:
                for k, v in counter(args, kwargs, result).items():
                    stats.counts[k] = stats.counts.get(k, 0) + v
            return result

        traced.__wrapped__ = fn
        traced.__bench_traced__ = True
        return traced

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if n.startswith("comet.") and m is not None]

    def install(self):
        """Wrap every traced function at every binding in the package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for (mod_name, path), name in zip(TRACED, SPAN_NAMES):
            home = sys.modules[f"comet.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original))
                continue
            original = getattr(home, path)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def remove(self):
        """Restore every original and check that no wrapper is left."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for mod in self._modules():
            for value in list(vars(mod).values()):
                objs = [value]
                if isinstance(value, type):
                    objs = list(vars(value).values())
                if any(getattr(o, "__bench_traced__", False) for o in objs):
                    raise RuntimeError(f"a traced wrapper is left in {mod.__name__}")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def begin(self, op: str):
        """Attribute the spans that follow to the benchmark call ``op``."""
        self.op = op
        self.op_start[op] = time.perf_counter()

    def calls_in(self, op: str, name: str) -> int:
        return self.op_calls.get((op, name), 0)

    def span_metrics(self) -> dict[str, tuple[float, str]]:
        """calls, busy seconds and self seconds of every traced function."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = (st.calls, "count")
            out[f"{name}.s"] = (st.busy, "s")
            out[f"{name}.self_s"] = (st.self_time, "s")
        return out
