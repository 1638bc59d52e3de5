"""comet benchmark: the four user paths (train, frozen score, adaptive score,
eval) timed end to end on three workloads, with a separate traced run that
times the calls into every comet layer.

One workload, untraced (end-to-end metrics):

    python3 bench/run.py --workload score-long --seed 42 --seconds 27 --trace 0

The same workload traced (per-layer metrics):

    python3 bench/run.py --workload score-long --seed 42 --seconds 27 --trace 1

All three workloads, one process each, with a combined table and a results
file under bench/out/:

    python3 bench/run.py --all [--trace 1] [--label NAME]

The last line of a single-workload run is one JSON object with the keys
correct, attempted, failed and metrics. Each workload runs single-threaded
in one process: BLAS and OpenMP get one thread, progress logging is off and,
on glibc, freed memory stays in the heap (see _pin_allocator).
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_MIN_REPEATS = 3   # set-up runs at least this often, for a median
SETUP_MIN_SECONDS = 1.0  # and cheap set-ups repeat until this much time passed

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "train_tps": "steps/s", "score_tps": "steps/s",
    "eval_tps": "steps/s", "peak_rss_mb": "MB", "auc_roc": "ratio",
    "auc_pr": "ratio", "f1_k0": "ratio", "f1_k100": "ratio",
}


def _pin_allocator() -> bool:
    """Make glibc keep freed memory: mmap and trim thresholds at 1 GiB.

    By default glibc moves its mmap threshold as large blocks are freed, so
    whether a temporary array is served from reused heap memory or from
    fresh pages (a page fault per 4 KiB) depends on the allocation history of
    the process. That history differs from run to run and made one timed
    call take either 4 s or 8 s. With fixed thresholds every run reuses the
    heap; page-fault cost of temporaries is then not part of what is timed.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, 1 << 30) and mallopt(m_trim_threshold, 1 << 30))


def _import_comet():
    if not (ROOT / "src" / "comet" / "__init__.py").is_file():
        print(f"error: no comet sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))


def run_iteration(workload, tracer=None):
    """One pass; returns the iteration and whether every call and check passed."""
    from workloads import Iteration

    it = Iteration(tracer)
    try:
        workload.iterate(it)
    except Exception as exc:  # any failure of the program is one failed operation
        print(f"failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return it, False
    return it, True


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


def run_setups(workload, tally: Tally, repeats: int | None = None):
    """Set the workload up repeatedly; returns (set-up seconds, training seconds).

    Without ``repeats`` it sets up at least SETUP_MIN_REPEATS times and until
    SETUP_MIN_SECONDS have passed. Every set-up must build the same inputs.
    """
    setup_s, train_s, first = [], [], None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result = workload.setup()
        setup_s.append(time.perf_counter() - t0)
        tally.attempted += 1
        if result.train_s is not None:
            train_s.append(result.train_s)
        first = first or result.digest
        if result.digest != first:
            print("failed: repeated set-up built different inputs", file=sys.stderr)
            tally.failed += 1
        if repeats is not None:
            done = len(setup_s) >= repeats
        else:
            done = len(setup_s) >= SETUP_MIN_REPEATS and (
                time.perf_counter() - start >= SETUP_MIN_SECONDS)
        if done:
            return setup_s, train_s


def measure(workload, seconds: float, tally: Tally) -> list:
    """Closed loop of passes until ``seconds`` have elapsed (at least one)."""
    passed, reference = [], None
    start = time.perf_counter()
    while True:
        it, ok = run_iteration(workload)
        tally.attempted += it.attempted
        if ok and reference is not None and it.digests != reference:
            print("failed: scores differ from the first pass (determinism)",
                  file=sys.stderr)
            ok = False
        if ok:
            reference = reference or it.digests
            passed.append(it)
        else:
            tally.failed += 1
        if time.perf_counter() - start >= seconds:
            return passed


def pooled(passed: list) -> dict[str, list[float]]:
    """Every call's seconds, per timed call, over all passes."""
    out: dict[str, list[float]] = {}
    for it in passed:
        for op, seconds in it.times.items():
            out.setdefault(op, []).append(seconds)
    return out


def end_to_end_metrics(workload, setup_s, train_s, passed) -> dict:
    med = statistics.median
    samples = pooled(passed)
    train_s = train_s or samples["train"]
    evals = [t for op, times in samples.items() if op.startswith("eval") for t in times]
    report = passed[0].report
    values = {
        "setup_s": med(setup_s),
        "wall_s": sum(med(times) for times in samples.values()),
        "train_tps": workload.train_work / med(train_s),
        "score_tps": workload.score_steps / med(samples[workload.main_score_op]),
        "eval_tps": workload.score_steps / med(evals),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "auc_roc": report.auc_roc,
        "auc_pr": report.auc_pr,
        "f1_k0": report.f1_k0,
        "f1_k100": report.f1_k100,
    }
    return {k: (float(v), END_TO_END_UNITS[k]) for k, v in values.items()}


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)] if s else 0.0


def _best_time(fn, budget: float = 1.0):
    """Fastest of repeated calls, repeating until ``budget`` seconds were spent."""
    best, spent = math.inf, 0.0
    while spent < budget:
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best, spent = min(best, dt), spent + dt
    return best, result


def growth_and_threads(workload) -> tuple[dict, bool]:
    """Untraced scaling measurements: threads=2 speed-up and growth exponents."""
    from comet import evaluation, scoring
    from comet.config import RunConfig
    from workloads import digest_arrays

    state, bank, values, labels, config = workload.frozen_inputs()
    n_vars = values.shape[1]
    length = values.shape[0]
    short = length // 4

    def with_threads(n):
        cfg = RunConfig.from_dict(config.to_dict())
        cfg.threads = n
        return cfg

    one, two = with_threads(1), with_threads(2)
    t_long, s_long = _best_time(lambda: scoring.score_series(state, bank, values, one))
    t_two, s_two = _best_time(lambda: scoring.score_series(state, bank, values, two))
    same = (digest_arrays(s_long.mem, s_long.quant, s_long.score)
            == digest_arrays(s_two.mem, s_two.quant, s_two.score))
    t_short, s_short = _best_time(
        lambda: scoring.score_series(state, bank, values[:short], one))
    e_long, _ = _best_time(lambda: evaluation.evaluate(s_long.score, labels))
    e_short, _ = _best_time(lambda: evaluation.evaluate(s_short.score, labels[:short]))
    alt_vars = 4 if n_vars == 2 else 2
    alt_state, alt_bank, alt_values, alt_cfg = workload.alt_vars_model(alt_vars)
    t_alt, _ = _best_time(
        lambda: scoring.score_series(alt_state, alt_bank, alt_values[:short], alt_cfg))
    slope = lambda t1, t0, x1, x0: math.log(t1 / t0) / math.log(x1 / x0)
    return {
        "scoring.threads2_speedup": (t_long / t_two, "ratio"),
        "scoring.growth_T": (slope(t_long, t_short, length, short), "exponent"),
        "evaluation.growth_T": (slope(e_long, e_short, length, short), "exponent"),
        "scoring.growth_vars": (slope(t_alt, t_short, alt_vars, n_vars), "exponent"),
    }, same


def layer_metrics(workload, tracer, untraced, traced) -> dict:
    st = tracer.stats
    n_scales = len(workload.config.scales)
    main = workload.main_score_op
    fin = "scoring.Scorer.finalize_window"
    windows = tracer.calls_in(main, fin)
    stream_windows = tracer.calls_in("stream", fin)
    tta_batches = st["tta.tta_step"].calls
    tta_counts = st["tta.tta_step"].counts
    ends = tracer.finalize_ends.get(main, [])
    gaps_ms = [1e3 * (b - a) for a, b in zip([tracer.op_start[main]] + ends, ends)]
    ratio = lambda a, b: a / b if b else 0.0
    out = tracer.span_metrics()
    out.update({
        "ndmath.pairwise_sq_dists.pairs":
            (st["ndmath.pairwise_sq_dists"].counts.get("pairs", 0), "count"),
        "vq.nearest_entries.queries_per_call":
            (ratio(st["vq.nearest_entries"].counts.get("queries", 0),
                   st["vq.nearest_entries"].calls), "count"),
        "tta.contrastive_loss.pairs":
            (st["tta.contrastive_loss"].counts.get("pairs", 0), "count"),
        "tta.encodes_per_window":
            (ratio(tracer.calls_in("stream", "model.encode"),
                   stream_windows * n_scales), "ratio"),
        "tta.stepped_ratio": (ratio(tta_counts.get("stepped", 0), tta_batches), "ratio"),
        "tta.pseudo_normal_fraction":
            (ratio(tta_counts.get("n_normal", 0), tta_counts.get("n_patches", 0)),
             "ratio"),
        "tta.gain_auc": (traced.extra.get("tta_gain_auc", 0.0), "ratio"),
        "scoring.memory_tables_per_batch":
            (ratio(tracer.calls_in(main, "scoring.memory_scores_for_queries"),
                   windows), "ratio"),
        "stream.batch_ms.p50": (_quantile(gaps_ms, 0.5), "ms"),
        "stream.batch_ms.p90": (_quantile(gaps_ms, 0.9), "ms"),
        "trace.overhead_s": (traced.wall - untraced.wall, "s"),
    })
    return {k: (float(v), u) for k, (v, u) in out.items()}


def environment() -> dict:
    import numpy as np
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (AttributeError, KeyError, TypeError, ValueError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "cpu": cpu, "nproc": os.cpu_count(), "commit": _commit()}


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, echo=print) -> dict:
    """Run one workload; echoes a readable report and returns the result object."""
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{name}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[name](seed, workdir, tiny=tiny)
        tally = Tally()
        echo(f"# workload={name} seed={seed} seconds={seconds} trace={int(trace)}")
        echo("# env: " + json.dumps(environment(), sort_keys=True))
        echo(f"# why: {workload.why}")
        if trace:
            metrics, digests = _traced(workload, tally, echo)
        else:
            metrics, digests = _untraced(workload, seconds, tally, echo)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if digests:
        echo("# score digests: " + json.dumps(digests, sort_keys=True))
        if not _same_as_earlier_runs(workload, digests):
            print("failed: scores differ from an earlier run of the same code "
                  "and seed", file=sys.stderr)
            tally.failed += 1
    for key, (value, unit) in metrics.items():
        echo(f"{key} = {value!r} {unit}")
    return {
        "correct": bool(metrics) and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _untraced(workload, seconds, tally, echo):
    setup_s, train_s = run_setups(workload, tally)
    passed = measure(workload, seconds, tally)
    echo(f"# setups={len(setup_s)} passes={len(passed)} "
         f"attempted={tally.attempted} failed={tally.failed}")
    if not passed:
        return {}, None
    for op, times in pooled(passed).items():
        echo(f"# op {op}: median {statistics.median(times)!r} s of passes "
             + " ".join(f"{t:.4f}" for t in times))
    for key, value in passed[0].extra.items():
        echo(f"# {key} = {value!r}")
    return end_to_end_metrics(workload, setup_s, train_s, passed), passed[0].digests


def _traced(workload, tally, echo):
    from spans import Tracer

    run_setups(workload, tally, repeats=1)
    untraced, ok_u = run_iteration(workload)
    tracer = Tracer()
    with tracer:
        traced, ok_t = run_iteration(workload, tracer)
    tally.attempted += untraced.attempted + traced.attempted
    tally.failed += (not ok_u) + (not ok_t)
    if not (ok_u and ok_t):
        return {}, None
    same = traced.digests == untraced.digests
    echo(f"# traced scores bit-identical to untraced: {same}")
    if not same:
        tally.failed += 1
    scaling, threads_same = growth_and_threads(workload)
    tally.attempted += 1
    echo(f"# threads=2 scores bit-identical to threads=1: {threads_same}")
    if not threads_same:
        tally.failed += 1
    metrics = layer_metrics(workload, tracer, untraced, traced)
    metrics.update(scaling)
    return metrics, untraced.digests


def _code_hash() -> str:
    """Digest of the comet sources, the benchmark and numpy's version."""
    import numpy as np
    h = hashlib.sha256(np.__version__.encode())
    for path in sorted((ROOT / "src" / "comet").glob("*.py")) + sorted(
            BENCH_DIR.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _same_as_earlier_runs(workload, digests: dict) -> bool:
    """Scores of one code and seed must match every earlier run's (determinism).

    Digests are kept in bench/out/digests.json under a key naming the
    workload, seed, size and code.
    """
    key = f"{workload.name} seed={workload.seed} tiny={workload.tiny} code={_code_hash()}"
    path = OUT_DIR / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    if key in known:
        return known[key] == digests
    known[key] = digests
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return True


def _run_all(args) -> int:
    """Each workload in its own process; a combined table and results file."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    order = list(END_TO_END_UNITS)
    names = sorted({m for r in results.values() for m in r["metrics"]},
                   key=lambda m: (order.index(m) if m in order else len(order), m))
    print("\n" + "metric".ljust(44) + "".join(n.rjust(16) for n in results) + "  unit")
    for metric in names:
        cells, unit = [], ""
        for r in results.values():
            m = r["metrics"].get(metric)
            cells.append(f"{m['value']:.6g}".rjust(16) if m else "-".rjust(16))
            unit = m["unit"] if m else unit
        print(metric.ljust(44) + "".join(cells) + "  " + unit)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({
        "label": args.label, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "workloads": results,
    }, indent=2, sort_keys=True) + "\n")
    print(f"\nresults written to {out.relative_to(ROOT)}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    # fixed before numpy is first imported (by the comet import below)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["COMET_LOG"] = "quiet"
    pinned = _pin_allocator()
    _import_comet()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true",
                        help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="run",
                        help="results file name for --all: bench/out/BENCH_<label>.json")
    args = parser.parse_args(argv)
    if args.all:
        return _run_all(args)
    print(f"# glibc allocator thresholds pinned: {pinned}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
