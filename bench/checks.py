"""Correctness checks on the benchmark's outputs.

Each check returns the number of failed operations (training steps or
eval patches) it found, so the result line can count them against the
operations attempted.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from qcseis import autograd as ag
from qcseis import models, objectives, qlayer, qsim, trainer

# criterion 5 of the acceptance suite: vectorized layer vs scalar qsim loop
QSIM_TOLERANCE = 1e-6
# relative distance allowed between a run's val_mae and the baseline's for the same seed:
# room for rounding-level changes in the arithmetic, far below what a wrong gradient moves
REFERENCE_RTOL = 1e-6
BASELINE = Path(__file__).with_name("baseline.json")


def finite_history(history) -> bool:
    """True when every loss and metric in the history rows is finite."""
    return all(math.isfinite(float(v)) for row in history for v in row[2:] if v != "")


def capture_quantum_inputs(model, batch: np.ndarray) -> list:
    """Run `model` on `batch` under no_grad and return (x, circuits, cfg, out) per quantum call."""
    calls = []
    original = qlayer.quantum_forward

    def capture(x, circuits, cfg, workers=None):
        out = original(x, circuits, cfg, workers=workers)
        calls.append((np.array(x, dtype=np.float64), circuits, cfg, out))
        return out

    qlayer.quantum_forward = capture
    try:
        with ag.no_grad():
            model(ag.Tensor(batch[:, None]))
    finally:
        qlayer.quantum_forward = original
    return calls


def qsim_window_errors(calls, runs_per_call: int, seed: int) -> list:
    """Largest |fast - scalar qsim| over a random sample of windows of each call.

    Each sampled window costs one scalar circuit run per input channel and
    circuit; a call samples as many windows as fit in `runs_per_call` runs
    (at least two).

    The fast layer averages each circuit's expectation over input channels
    and repeats it along the window, so the value at a window's first trace
    must equal the channel mean of the scalar per-window expectations.
    """
    rng = np.random.default_rng(seed)
    obs = qsim.Observable(0)
    errors = []
    for x, circuits, cfg, out in calls:
        b, c, t, s = x.shape
        rows = qlayer.unfold(x, cfg) * cfg.input_scale
        n_windows = rows.shape[0] // (b * c * t)
        worst = 0.0
        for _ in range(max(2, runs_per_call // (c * len(circuits)))):
            bi, ti, wi = int(rng.integers(b)), int(rng.integers(t)), int(rng.integers(n_windows))
            for k, circuit in enumerate(circuits):
                scalar = np.mean([
                    qsim.expect(qsim.run_circuit(qsim.encode(rows[((bi * c + ci) * t + ti) * n_windows + wi]),
                                                 circuit), obs)
                    for ci in range(c)
                ])
                worst = max(worst, abs(float(out[bi, k, ti, wi * cfg.stride]) - scalar))
        errors.append(worst)
    return errors


def qsim_input_grad_errors(calls, n_patches: int, samples_per_call: int, seed: int) -> list:
    """Largest |quantum_input_grad - parameter shift through scalar qsim| per call.

    The gradient is taken for a random upstream gradient on the first
    `n_patches` of each call's batch. Each sampled window's entries must
    equal the sum over circuits of the window's upstream (summed over its
    output positions) times the scalar parameter-shift gradient of that
    circuit, scaled by input_scale over the channel count (the channel
    mean's adjoint).
    """
    rng = np.random.default_rng(seed)
    obs = qsim.Observable(0)
    errors = []
    for x, circuits, cfg, _ in calls:
        x = x[:n_patches]
        b, c, t, s = x.shape
        rows = qlayer.unfold(x, cfg) * cfg.input_scale
        # unfolding the flat indices gives each window entry's position in x
        index = qlayer.unfold(np.arange(x.size, dtype=np.float64).reshape(x.shape), cfg).astype(np.int64)
        upstream = rng.normal(size=(b, len(circuits), t, s))
        grad = qlayer.quantum_input_grad(upstream, x.shape, rows, circuits, cfg).reshape(-1)
        n_windows = rows.shape[0] // (b * c * t)
        worst = 0.0
        for _ in range(samples_per_call):
            # full windows only: padded entries of the last window fold into its last sample
            bi, ci, ti, wi = (int(rng.integers(n)) for n in (b, c, t, s // cfg.stride))
            r = ((bi * c + ci) * t + ti) * n_windows + wi
            coef = upstream[bi, :, ti, wi * cfg.stride:(wi + 1) * cfg.stride].sum(axis=-1)
            want = sum(coef[k] * qsim.grad_expect_wrt_encoding(rows[r], circuit, obs)
                       for k, circuit in enumerate(circuits)) * cfg.input_scale / c
            worst = max(worst, float(np.abs(grad[index[r]] - want).max()))
        errors.append(worst)
    return errors


def matches_reference(workload: str, seed: int, val_mae: float) -> bool:
    """False when bench/baseline.json records another val_mae for this workload and seed."""
    ref = json.loads(BASELINE.read_text())["val_mae"][workload].get(str(seed))
    return ref is None or abs(val_mae - ref) <= REFERENCE_RTOL * abs(ref)


def restore_generator(checkpoint_path):
    ckpt = trainer.load_checkpoint(checkpoint_path)
    model = models.build_model(ckpt.config["arch"]["generator"])
    trainer.load_model_state(model, ckpt, "generator")
    return model.eval()


def predict(model, degraded: np.ndarray, batch_size: int = 8) -> np.ndarray:
    """Forward in the eval command's batching, so predictions match it bit for bit."""
    out = np.empty_like(degraded)
    with ag.no_grad():
        for start in range(0, len(degraded), batch_size):
            sl = slice(start, start + batch_size)
            out[sl] = model(ag.Tensor(degraded[sl][:, None])).data[:, 0]
    return out


def report_failures(report_path, spectra_dir, expected: objectives.EvalReport) -> int:
    """Eval patches whose report row (or spectra files) disagree with `expected`.

    Every patch counts as failed when the aggregate row disagrees with the
    recomputed aggregate.
    """
    n = expected.count
    with open(report_path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != n + 2 or rows[0] != ["sample_id", "mae", "rmse", "psnr_db", "ssim"]:
        return n
    agg = expected.aggregate()
    if rows[-1] != ["aggregate"] + [repr(agg[k]) for k in ("mae", "rmse", "psnr_db", "ssim")]:
        return n
    failed = 0
    spectra_dir = Path(spectra_dir)
    for i, row in enumerate(rows[1:-1]):
        want = [str(i), repr(expected.sample_mae[i]), repr(expected.sample_rmse[i]),
                repr(expected.sample_psnr[i]), repr(expected.sample_ssim[i])]
        spectra = (spectra_dir / f"amp_spectrum_{i:03d}.csv", spectra_dir / f"fk_pred_{i:03d}.csv")
        if row != want or not all(p.is_file() for p in spectra):
            failed += 1
    return failed
