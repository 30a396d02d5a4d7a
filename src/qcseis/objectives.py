"""Training losses, evaluation metrics, and spectral diagnostics.

Losses operate on autograd tensors and are differentiable; metrics and
spectra are plain numpy. PSNR uses the amplitude convention
20*log10(MAX/RMSE); the self-test's `psnr_convention` check shows why the
literal 10*log10 reading cannot match the paper's figures.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor

__all__ = [
    "LossWeights",
    "loss_generator",
    "loss_discriminator",
    "loss_complementarity",
    "mae",
    "rmse",
    "psnr",
    "ssim",
    "amplitude_spectrum",
    "fk_spectrum",
    "band_energy",
    "EvalReport",
    "evaluate_pairs",
]

_SCORE_EPS = 1e-7
_NORM_EPS = 1e-8


@dataclass
class LossWeights:
    """Weights of the generator objective terms."""

    reconstruction: float = 100.0
    complementarity: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.reconstruction) and self.reconstruction >= 0):
            raise ValueError("reconstruction weight must be finite and >= 0")
        if not (np.isfinite(self.complementarity) and self.complementarity >= 0):
            raise ValueError("complementarity weight must be finite and >= 0")


def _clamped_log(scores: Tensor) -> Tensor:
    return ag.log(ag.clamp(scores, _SCORE_EPS, 1.0 - _SCORE_EPS))


def loss_generator(pred: Tensor, target: Tensor, d_score: Tensor, weights: LossWeights) -> Tensor:
    """Adversarial term -E[log D(pred)] plus weighted mean absolute error."""
    if pred.shape != target.shape:
        raise ag.ShapeError(f"pred/target shape mismatch: {pred.shape} vs {target.shape}")
    adv = ag.tmean(ag.neg(_clamped_log(d_score)))
    rec = ag.tmean(ag.absval(ag.sub(pred, target)))
    return ag.add(adv, ag.scale(rec, weights.reconstruction))


def loss_discriminator(d_real: Tensor, d_fake: Tensor) -> Tensor:
    """Negated two-sided score objective: -(E[log D(real)] + E[log(1 - D(fake))])."""
    real_term = ag.tmean(_clamped_log(d_real))
    fake_term = ag.tmean(_clamped_log(ag.add_scalar(ag.neg(d_fake), 1.0)))
    return ag.neg(ag.add(real_term, fake_term))


def loss_complementarity(pairs) -> Tensor:
    """Mean absolute cosine similarity between paired feature maps.

    Each map is mean-reduced over its channel axis, flattened per sample,
    and compared by |dot| / (||a|| ||b||) with an epsilon floor on the
    norms. Returns 0 for an empty pair list (classical twin).
    """
    if not pairs:
        return ag.tensor(0.0, dtype=np.float32)
    per_pair = []
    for classical, quantum in pairs:
        a = ag.flatten(ag.mean_axis(classical, 1))
        b = ag.flatten(ag.mean_axis(quantum, 1))
        if a.shape != b.shape:
            raise ag.ShapeError(
                f"complementarity pair does not align: {classical.shape} vs {quantum.shape}"
            )
        dot = ag.sum_axis(ag.mul(a, b), 1)
        na = ag.clamp(ag.sqrt(ag.sum_axis(ag.mul(a, a), 1)), lo=_NORM_EPS)
        nb = ag.clamp(ag.sqrt(ag.sum_axis(ag.mul(b, b), 1)), lo=_NORM_EPS)
        cosine = ag.div(ag.absval(dot), ag.mul(na, nb))
        per_pair.append(ag.tmean(cosine))
    total = per_pair[0]
    for extra in per_pair[1:]:
        total = ag.add(total, extra)
    return ag.scale(total, 1.0 / len(per_pair))


# ---------------------------------------------------------------------------
# metrics


def _paired(y, y_hat):
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {y_hat.shape}")
    if y.size == 0:
        raise ValueError("empty input")
    return y, y_hat


def mae(y, y_hat) -> float:
    y, y_hat = _paired(y, y_hat)
    return float(np.mean(np.abs(y - y_hat)))


def rmse(y, y_hat) -> float:
    y, y_hat = _paired(y, y_hat)
    return float(np.sqrt(np.mean((y - y_hat) ** 2)))


def psnr(y, y_hat) -> float:
    """20*log10(MAX/RMSE) in dB with MAX = max |y|; +inf when RMSE is 0."""
    y, y_hat = _paired(y, y_hat)
    err = rmse(y, y_hat)
    if err == 0.0:
        return float("inf")
    return float(20.0 * np.log10(np.max(np.abs(y)) / err))


def ssim(y, y_hat) -> float:
    """Single global-window structural similarity.

    Constants c1 = (0.01 L)^2, c2 = (0.03 L)^2 with L the dynamic range of
    the reference; raises on zero dynamic range.
    """
    y, y_hat = _paired(y, y_hat)
    dynamic = float(np.max(y) - np.min(y))
    if dynamic <= 0.0:
        raise ValueError("ssim needs a reference with nonzero dynamic range")
    c1 = (0.01 * dynamic) ** 2
    c2 = (0.03 * dynamic) ** 2
    mu_y = y.mean()
    mu_h = y_hat.mean()
    var_y = y.var()
    var_h = y_hat.var()
    cov = ((y - mu_y) * (y_hat - mu_h)).mean()
    num = (2.0 * mu_y * mu_h + c1) * (2.0 * cov + c2)
    den = (mu_y ** 2 + mu_h ** 2 + c1) * (var_y + var_h + c2)
    return float(num / den)


# ---------------------------------------------------------------------------
# spectra


def amplitude_spectrum(trace, dt: float):
    """One-sided DFT magnitude of a trace: (frequencies in Hz, |X_k|)."""
    trace = np.asarray(trace, dtype=np.float64)
    if trace.ndim != 1 or trace.size < 2:
        raise ValueError("amplitude_spectrum expects a trace of length >= 2")
    spectrum = np.fft.rfft(trace)
    freqs = np.fft.rfftfreq(trace.size, d=dt)
    return freqs, np.abs(spectrum)


def fk_spectrum(patch, dt: float, dx: float):
    """Frequency-wavenumber magnitude of a [T, S] patch.

    Returns (frequencies >= 0 in Hz, wavenumbers in 1/m centered on zero,
    magnitude grid [n_freq, S]).
    """
    patch = np.asarray(patch, dtype=np.float64)
    if patch.ndim != 2:
        raise ValueError("fk_spectrum expects a 2-d patch")
    t, s = patch.shape
    grid = np.fft.fftshift(np.fft.fft2(patch), axes=1)
    n_freq = t // 2 + 1
    freqs = np.fft.rfftfreq(t, d=dt)
    wavenumbers = np.fft.fftshift(np.fft.fftfreq(s, d=dx))
    return freqs, wavenumbers, np.abs(grid[:n_freq])


def band_energy(trace, dt: float, f_lo: float, f_hi: float) -> float:
    """Sum of squared spectral magnitudes over frequencies in [f_lo, f_hi]."""
    freqs, mags = amplitude_spectrum(trace, dt)
    sel = (freqs >= f_lo) & (freqs <= f_hi)
    return float(np.sum(mags[sel] ** 2))


# ---------------------------------------------------------------------------
# evaluation reports


@dataclass
class EvalReport:
    """Per-sample and aggregate restoration metrics for one task."""

    task: str
    sample_mae: list = field(default_factory=list)
    sample_rmse: list = field(default_factory=list)
    sample_psnr: list = field(default_factory=list)
    sample_ssim: list = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.sample_mae)

    def add_sample(self, target, prediction) -> None:
        self.sample_mae.append(mae(target, prediction))
        self.sample_rmse.append(rmse(target, prediction))
        self.sample_psnr.append(psnr(target, prediction))
        # reported range is clipped to [0, 1]
        self.sample_ssim.append(min(max(ssim(target, prediction), 0.0), 1.0))

    def aggregate(self) -> dict:
        if not self.count:
            raise ValueError("report has no samples")
        return {
            "mae": float(np.mean(self.sample_mae)),
            "rmse": float(np.mean(self.sample_rmse)),
            "psnr_db": float(np.mean(self.sample_psnr)),
            "ssim": float(np.mean(self.sample_ssim)),
        }

    def to_csv(self, path) -> None:
        agg = self.aggregate()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_id", "mae", "rmse", "psnr_db", "ssim"])
            for i in range(self.count):
                writer.writerow(
                    [i, repr(self.sample_mae[i]), repr(self.sample_rmse[i]),
                     repr(self.sample_psnr[i]), repr(self.sample_ssim[i])]
                )
            writer.writerow(
                ["aggregate", repr(agg["mae"]), repr(agg["rmse"]),
                 repr(agg["psnr_db"]), repr(agg["ssim"])]
            )


def evaluate_pairs(targets, predictions, task: str = "") -> EvalReport:
    """Metrics over aligned stacks of [T, S] patches."""
    targets = np.asarray(targets)
    predictions = np.asarray(predictions)
    if targets.shape != predictions.shape:
        raise ValueError(f"shape mismatch: {targets.shape} vs {predictions.shape}")
    report = EvalReport(task=task)
    for y, y_hat in zip(targets, predictions):
        report.add_sample(y, y_hat)
    return report
