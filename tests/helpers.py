"""Shared test helpers: the gradient-check oracle and the cross-thread runner.

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
from pathlib import Path

import numpy as np
import pytest

from comet.config import RunConfig
from comet.model import ModelState, decode, encode, forward, window_groups
from comet.train import batch_loss_and_grads


def st_loss_closure(state: ModelState, windows, config: RunConfig):
    """(loss_fn, params, analytic_grads) for ndmath.finite_diff_check.

    loss_fn evaluates the total training loss in straight-through form with
    stop-gradient quantities frozen at the given state; params and
    analytic_grads are parallel lists over every learnable array.
    """
    n_scales = len(config.scales)
    # the encode units training uses: one per forward group
    units = window_groups(windows, state.n_vars, config)
    frozen = forward(state, units, config.scales)

    names = sorted(state.named_arrays())
    base = state.named_arrays()

    def loss_fn(param_list):
        arrays = dict(zip(names, [np.asarray(p) for p in param_list]))
        trial = state.copy()
        trial.load_named_arrays({n: arrays[n].copy() for n in names})
        total = 0.0
        for unit, records in zip(units, frozen):
            for k, fwd in enumerate(records):
                patches = fwd.patches
                emb, _ = encode(patches, trial.params[k])
                n_vars, n_patches, _ = patches.shape
                w = len(unit) / (len(windows) * n_scales * n_vars * n_patches)
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
    return loss_fn, [base[n] for n in names], [grads[n] for n in names]


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
    process, with the repository's src/ on the path and progress logging off.
    With core, the processes run under OPENBLAS_CORETYPE=core; the test skips
    unless OpenBLAS reports that kernel back (an unknown name is skipped too),
    so it never passes on another kernel by mistake.
    """
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    base = dict(os.environ, PYTHONPATH=path, COMET_LOG="quiet")
    if core is not None:
        base["OPENBLAS_CORETYPE"] = core
        name = _run(CORE_NAME_SCRIPT, (), base)
        if name != core:
            pytest.skip(f"OpenBLAS runs the {name or 'unknown'} kernel, not {core}")
    return [_run(script, args, dict(base, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n))
            for n in ("1", "2")]
