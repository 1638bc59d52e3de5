"""Shared test helpers: the gradient-check oracle, a tiny scoring pipeline, a
count of finalized windows kept alive, and the cross-thread runner.

The training objective contains stop-gradient operators: the codebook term
treats the embedding as a constant, the commitment term treats the quantized
embedding as a constant, and reconstruction gradients reach the encoder by the
straight-through copy (the decoder input moves one-to-one with the embedding
while the quantization gap stays frozen). Differentiating that objective
therefore means differentiating the loss with those quantities held at their
base-point values, which is exactly what the closure built here evaluates.
The quantization indices are captured at the base point as well, matching the
piecewise-constant assignment for small perturbations.
"""

import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from comet import scoring
from comet.config import RunConfig, TrainConfig
from comet.data import windows as series_windows
from comet.model import (ModelState, ScaleParams, decode, encode, forward,
                         init_model_state, window_groups)
from comet.ndmath import Rng
from comet.train import batch_loss_and_grads, collect_activations
from comet.vq import build_memory_bank


def scale_params(scale, n_vars, embed_dim, core_dim, rng) -> ScaleParams:
    """Initial parameters of one scale: those of a seeded one-scale model."""
    config = RunConfig(patch_sizes=[scale.patch_size], strides=[scale.stride],
                       embed_dim=embed_dim, core_dim=core_dim, codebook_size=1)
    return init_model_state(config, n_vars, rng).params[0]


def group_bytes(config: RunConfig, n_vars: int, n_windows: int) -> int:
    """The ndmath.GROUP_BYTES at which window_groups makes groups of n_windows windows.

    That is the size of one window's float64 (patch rows x embed_dim)
    embeddings over all scales, times n_windows.
    """
    rows = n_vars * sum(sc.n_patches(config.window_length) for sc in config.scales)
    return 8 * config.embed_dim * rows * n_windows


def tiny_pipeline(seed=3, n_vars=2):
    """(config, state, bank, series) of an untrained tiny model.

    The bank holds the entries the 30-step series activates; windows are 12
    steps at stride 6.
    """
    config = RunConfig(
        patch_sizes=[2, 3], strides=[1, 1], embed_dim=4, core_dim=2,
        codebook_size=6, window_length=12, window_stride=6,
        n_neighbors=3, n_density=3, train=TrainConfig(seed=seed),
    )
    config.validate()
    state = init_model_state(config, n_vars, Rng(seed))
    rng = np.random.default_rng(seed)
    series = rng.normal(size=(30, n_vars))
    wins, _ = series_windows(series, config.window_length, config.window_stride)
    acts = collect_activations(state, wins, config)
    bank = build_memory_bank(state.codebooks, acts, config.n_density)
    return config, state, bank, series


def finalized_alive(monkeypatch, fn, *args):
    """(fn(*args), alive): alive[i] counts the windows finalized before window
    i that are still alive when window i is finalized.

    A driver that merges each window as it is yielded keeps at most the one
    before; one that collects a whole-series list keeps them all.
    """
    original, refs, alive = scoring.Scorer.finalize_window, [], []

    def finalize(self, *fargs):
        alive.append(sum(ref() is not None for ref in refs))
        scored = original(self, *fargs)
        refs.append(weakref.ref(scored))
        return scored

    monkeypatch.setattr(scoring.Scorer, "finalize_window", finalize)
    return fn(*args), alive


def st_loss_closure(state: ModelState, windows, config: RunConfig):
    """(loss_fn, params, analytic_grads) for ndmath.finite_diff_check.

    loss_fn evaluates the total training loss in straight-through form with
    stop-gradient quantities frozen at the given state; params and
    analytic_grads each hold one array, the state's flat vector and its
    gradient's.
    """
    n_scales = len(config.scales)
    # the forward groups training uses
    groups = window_groups(windows, state.n_vars, config)
    frozen = [forward(state, group, config.scales) for group in groups]

    def loss_fn(param_list):
        trial = state.copy()
        trial.flat[:] = param_list[0]
        total = 0.0
        for group, records in zip(groups, frozen):
            for k, fwd in enumerate(records):
                patches = fwd.patches
                n_vars, n_patches, p = patches.shape
                emb, _ = encode(patches.reshape(n_vars, len(group), -1, p), trial.params[k])
                w = len(group) / (len(windows) * n_scales * n_vars * n_patches)
                # straight-through decoder input: embedding + frozen gap
                dec_in = emb + (fwd.quantized - fwd.embeddings)
                recon = decode(dec_in, trial.params[k])
                rec = np.sum((recon - patches) ** 2)
                rows = trial.codebooks[k][fwd.indices]
                cb = np.sum((rows - fwd.embeddings) ** 2)
                cm = np.sum((fwd.quantized - emb) ** 2)
                total += w * (rec + config.alpha * cb + config.beta * cm)
        return float(total)

    _, grads = batch_loss_and_grads(state, windows, config)
    return loss_fn, [state.flat], [grads.flat]


# Prints the kernel (core) name of numpy's bundled OpenBLAS, or nothing when
# the library or its symbol is not found.
CORE_NAME_SCRIPT = """
import ctypes, glob, os
import numpy
root = os.path.dirname(numpy.__file__)
for lib in sorted(glob.glob(root + ".libs/*openblas*")
                  + glob.glob(os.path.join(root, ".dylibs", "*openblas*"))):
    name = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
    if name is not None:
        name.argtypes, name.restype = [], ctypes.c_char_p
        print(name().decode())
        break
"""


def _run(script: str, args, env: dict) -> str:
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def stdout_at_blas_threads(script: str, *args: str, core: str | None = None) -> list[str]:
    """The stripped stdout of ``python -c script *args`` at 1 and 2 BLAS threads.

    The thread count is read when numpy loads, so each count runs in its own
    process, with the repository's src/ and tests/ on the path (a script may
    import this module) and progress logging off.
    With core, the processes run under OPENBLAS_CORETYPE=core; the test skips
    unless OpenBLAS reports that kernel back (an unknown name is skipped too),
    so it never passes on another kernel by mistake.
    """
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join([str(root / "src"), str(root / "tests"),
                            os.environ.get("PYTHONPATH", "")])
    base = dict(os.environ, PYTHONPATH=path, COMET_LOG="quiet")
    if core is not None:
        base["OPENBLAS_CORETYPE"] = core
        name = _run(CORE_NAME_SCRIPT, (), base)
        if name != core:
            pytest.skip(f"OpenBLAS runs the {name or 'unknown'} kernel, not {core}")
    return [_run(script, args, dict(base, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n))
            for n in ("1", "2")]
