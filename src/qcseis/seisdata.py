"""Synthetic shot gathers, degradation protocols, and on-disk datasets.

Gathers are sums of hyperbolic reflection events convolved with Ricker
wavelets by a real FFT along the time axis, zero-padded to a 5-smooth
length. Three degradation families are provided: trace masking (random or
regular), additive Gaussian noise, and a band-split that pairs a
band-limited input with its low-frequency complement. Datasets persist in
the little-endian SEIS container described in `save_seis`, written through
`replacing` (shared with the trainer's files) so a failed write never
leaves a torn file behind.
"""
from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "TASKS",
    "SeismicPatch",
    "DegradationSpec",
    "SeismicDataset",
    "ricker",
    "synth_gather",
    "degrade_mask_random",
    "degrade_mask_regular",
    "degrade_noise",
    "bandpass_split",
    "build_dataset",
    "save_seis",
    "load_seis",
]

# a SEIS file tags its task by its position here, so this order is part of the format
TASKS = ("interpolation_random", "interpolation_regular", "denoise", "lfe")

_SEIS_MAGIC = b"SEIS"
_SEIS_VERSION = 1
_HEADER = struct.Struct("<4sIQIIddB")
# the missing-trace fractions random masking accepts, bounds included
_MISSING_FRACTIONS = (0.3, 0.7)


def _patch_record(t: int, s: int) -> np.dtype:
    """One patch of a SEIS file: target and degraded [T, S] f32, then the keep mask [S] u8."""
    return np.dtype([("target", "<f4", (t, s)), ("degraded", "<f4", (t, s)), ("mask", "u1", (s,))])


@dataclass
class SeismicPatch:
    """One [T, S] gather patch with its sampling intervals."""

    data: np.ndarray
    dt: float
    dx: float

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 8 or arr.shape[1] < 8:
            raise ValueError(f"patch must be [T >= 8, S >= 8], got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("patch contains non-finite values")
        self.data = arr

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def n_traces(self) -> int:
        return self.data.shape[1]


@dataclass
class DegradationSpec:
    """Which degradation to apply and its parameters."""

    task: str
    missing_fraction_range: tuple = _MISSING_FRACTIONS
    regular_pattern: str = "keep2drop1"
    noise_sigma: float = 0.1
    input_band: tuple = (5.0, 10.0)
    label_band: tuple = (0.0, 5.0)
    seed: int = 0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; expected one of {TASKS}")
        lo, hi = self.missing_fraction_range
        if not (_MISSING_FRACTIONS[0] <= lo <= hi <= _MISSING_FRACTIONS[1]):
            raise ValueError(f"missing fractions must satisfy {_MISSING_FRACTIONS[0]} <= lo <= hi "
                             f"<= {_MISSING_FRACTIONS[1]}, got ({lo}, {hi})")
        if self.regular_pattern != "keep2drop1":
            raise ValueError("only the keep-two-drop-one regular pattern is supported")
        _check_positive("noise sigma", self.noise_sigma)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for band in (self.input_band, self.label_band):
            if band[1] <= band[0] or band[0] < 0:
                raise ValueError(f"band {band} must be ordered and non-negative")


def ricker(f0: float, dt: float, half_width: float) -> np.ndarray:
    """Zero-phase Ricker wavelet sampled on [-half_width, half_width].

    w(t) = (1 - 2 pi^2 f0^2 t^2) exp(-pi^2 f0^2 t^2); peak value 1 at t = 0.
    """
    if f0 <= 0:
        raise ValueError("central frequency must be positive")
    if half_width < 2.0 / f0:
        raise ValueError(f"half_width must be >= 2/f0 = {2.0 / f0:.4f} s")
    n = int(round(half_width / dt))
    t = np.arange(-n, n + 1) * dt
    arg = (np.pi * f0 * t) ** 2
    return (1.0 - 2.0 * arg) * np.exp(-arg)


def _smooth_len(n: int) -> int:
    """The smallest integer >= n with no prime factor above 5."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _convolve_time(spikes: np.ndarray, wavelet: np.ndarray) -> np.ndarray:
    """Convolve each trace (column) of `spikes` with `wavelet`, centered to the input length.

    The padded length is the one scipy.signal.fftconvolve picks for real
    input, so the result matches it bit for bit and datasets keep their bytes.
    """
    t, length = spikes.shape[0], wavelet.shape[0]
    n = _smooth_len(t + length - 1)
    spectrum = np.fft.rfft(spikes, n, axis=0) * np.fft.rfft(wavelet, n)[:, None]
    start = (length - 1) // 2
    return np.fft.irfft(spectrum, n, axis=0)[start:start + t]


# Longest Ricker half-width synth_gather accepts, in trace lengths. Wavelet
# samples farther than t_samples from the centre never reach the window, so
# a longer wavelet only pads the convolution: a tiny f0 asks for petabytes.
_MAX_HALF_WIDTH = 64
_AMP_RANGE = (0.3, 1.0)  # each event's spike amplitude, before peak normalization
_TAPER_HZ = 1.0  # width of the raised-cosine edge bandpass_split puts at each band cutoff


def _check_positive(name: str, value) -> None:
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def synth_gather(
    t_samples: int,
    s_traces: int,
    dt: float,
    dx: float,
    n_events: int,
    velocity_range: tuple = (1500.0, 4000.0),
    seed=0,
    f0_range: tuple = (15.0, 45.0),
) -> SeismicPatch:
    """Sum of hyperbolic reflections t(x) = sqrt(t0^2 + (x/v)^2), peak-normalized.

    Each event draws its apex time, velocity, amplitude, and wavelet
    frequency from the seeded generator; events whose hyperbola misses the
    time window entirely are redrawn (up to 100 tries). Raises ValueError
    for a dt or dx that is not positive and finite, for a velocity or f0
    range that is not finite with 0 < lo <= hi, and for an f0 so low that
    the wavelet's half-width, 2/(f0*dt) samples, exceeds
    _MAX_HALF_WIDTH * t_samples.
    """
    if n_events < 1:
        raise ValueError("need at least one event")
    _check_positive("dt", dt)
    _check_positive("dx", dx)
    for name, (lo, hi) in (("velocity range", velocity_range), ("f0 range", f0_range)):
        if not (np.isfinite(lo) and np.isfinite(hi) and 0 < lo <= hi):
            raise ValueError(f"{name} must be finite with 0 < lo <= hi, got ({lo}, {hi})")
    if 2.0 > f0_range[0] * dt * _MAX_HALF_WIDTH * t_samples:  # no division: f0*dt may underflow
        raise ValueError(f"f0 {f0_range[0]} Hz at dt {dt} s gives a wavelet half-width over "
                         f"{_MAX_HALF_WIDTH} x {t_samples} samples")
    rng = np.random.default_rng(seed)
    duration = t_samples * dt
    offsets = np.arange(s_traces) * dx
    data = np.zeros((t_samples, s_traces))
    for _ in range(n_events):
        for attempt in range(100):
            t0 = rng.uniform(0.1 * duration, 0.85 * duration)
            v = rng.uniform(*velocity_range)
            amp = rng.uniform(*_AMP_RANGE)
            f0 = rng.uniform(*f0_range)
            with np.errstate(over="ignore"):  # a time far past the window may overflow to inf
                times = np.sqrt(t0 ** 2 + (offsets / v) ** 2)
                steps = np.round(times / dt)  # compared before the cast, which would wrap
            inside = steps < t_samples
            if np.any(inside):
                break
        else:
            raise RuntimeError("could not place an event inside the time window")
        spikes = np.zeros((t_samples, s_traces))
        spikes[steps[inside].astype(int), np.nonzero(inside)[0]] = amp
        wavelet = ricker(f0, dt, 2.0 / f0)
        data += _convolve_time(spikes, wavelet)
    peak = np.max(np.abs(data))
    if peak > 0:
        data /= peak
    return SeismicPatch(data=data, dt=dt, dx=dx)


def _unwrap(patch):
    """Degradations accept either a SeismicPatch or a bare [T, S] array."""
    if isinstance(patch, SeismicPatch):
        return patch.data, lambda arr: SeismicPatch(arr, patch.dt, patch.dx)
    arr = np.asarray(patch, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a [T, S] patch, got shape {arr.shape}")
    return arr, lambda out: out


def degrade_mask_random(patch, fraction: float, seed=0):
    """Zero a random `fraction` of traces; returns (degraded, keep mask)."""
    if not _MISSING_FRACTIONS[0] <= fraction <= _MISSING_FRACTIONS[1]:
        raise ValueError(f"missing fraction {fraction} outside {list(_MISSING_FRACTIONS)}")
    data, wrap = _unwrap(patch)
    s = data.shape[1]
    n_drop = int(round(fraction * s))
    rng = np.random.default_rng(seed)
    dropped = rng.choice(s, size=n_drop, replace=False)
    mask = np.ones(s, dtype=np.uint8)
    mask[dropped] = 0
    return wrap(data * mask[None, :]), mask


def degrade_mask_regular(patch):
    """Drop every third trace (keep two, drop one); returns (degraded, mask)."""
    data, wrap = _unwrap(patch)
    s = data.shape[1]
    if s < 3:
        raise ValueError("regular masking needs at least 3 traces")
    mask = np.ones(s, dtype=np.uint8)
    mask[2::3] = 0
    return wrap(data * mask[None, :]), mask


def degrade_noise(patch, sigma: float, seed=0):
    """Add i.i.d. zero-mean Gaussian noise with the given standard deviation."""
    _check_positive("noise sigma", sigma)
    data, wrap = _unwrap(patch)
    rng = np.random.default_rng(seed)
    return wrap(data + rng.normal(0.0, sigma, size=data.shape))


def _falling_edge(freqs: np.ndarray, fc: float) -> np.ndarray:
    """Raised-cosine gain: 1 below fc - _TAPER_HZ/2, 0 above fc + _TAPER_HZ/2."""
    lo, hi = fc - 0.5 * _TAPER_HZ, fc + 0.5 * _TAPER_HZ
    gain = np.ones_like(freqs)
    ramp = (freqs > lo) & (freqs < hi)
    gain[ramp] = 0.5 * (1.0 + np.cos(np.pi * (freqs[ramp] - lo) / _TAPER_HZ))
    gain[freqs >= hi] = 0.0
    return gain


def _band_gain(freqs: np.ndarray, band: tuple) -> np.ndarray:
    lo, hi = band
    gain = _falling_edge(freqs, hi)
    if lo > 0.0:
        gain *= 1.0 - _falling_edge(freqs, lo)
    return gain


def bandpass_split(patch: SeismicPatch, input_band=(5.0, 10.0), label_band=(0.0, 5.0)):
    """Zero-phase per-trace split into a band-limited input and its low label.

    Each pass band gets a raised-cosine taper of 1 Hz centered on its
    cutoffs, so the two filters crossfade at a shared edge.
    """
    nyquist = 0.5 / patch.dt
    for band in (input_band, label_band):
        if band[1] > nyquist:
            raise ValueError(f"band {band} exceeds the Nyquist frequency {nyquist:.2f} Hz")
    freqs = np.fft.rfftfreq(patch.n_samples, d=patch.dt)
    spectrum = np.fft.rfft(patch.data, axis=0)
    gain_in = _band_gain(freqs, input_band)
    gain_lab = _band_gain(freqs, label_band)
    data_in = np.fft.irfft(spectrum * gain_in[:, None], n=patch.n_samples, axis=0)
    data_lab = np.fft.irfft(spectrum * gain_lab[:, None], n=patch.n_samples, axis=0)
    return (
        SeismicPatch(data_in, patch.dt, patch.dx),
        SeismicPatch(data_lab, patch.dt, patch.dx),
    )


# ---------------------------------------------------------------------------
# dataset container and SEIS persistence


@dataclass
class SeismicDataset:
    """Aligned stacks of (degraded, target) patches plus task metadata.

    Raises ValueError for non-finite samples, keep masks other than 0/1
    and a dt or dx that is not positive and finite.
    """

    targets: np.ndarray
    degraded: np.ndarray
    masks: np.ndarray
    dt: float
    dx: float
    task: str

    def __post_init__(self):
        self.targets = np.ascontiguousarray(self.targets, dtype=np.float32)
        self.degraded = np.ascontiguousarray(self.degraded, dtype=np.float32)
        self.masks = np.ascontiguousarray(self.masks, dtype=np.uint8)
        if self.targets.shape != self.degraded.shape:
            raise ValueError("target/degraded stacks must align")
        if self.masks.shape != (self.targets.shape[0], self.targets.shape[2]):
            raise ValueError("mask stack must be [n_patches, n_traces]")
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        _check_positive("dt", self.dt)
        _check_positive("dx", self.dx)
        if not (np.isfinite(self.targets).all() and np.isfinite(self.degraded).all()):
            raise ValueError("patch stacks contain non-finite samples")
        if (self.masks > 1).any():
            raise ValueError("keep masks must hold only 0 and 1")

    def __len__(self) -> int:
        return self.targets.shape[0]

    @property
    def patch_shape(self):
        return self.targets.shape[1:]


@contextmanager
def replacing(path, mode: str):
    """A temporary file beside `path` that replaces it if the block succeeds, else is removed."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_seis(path, dataset: SeismicDataset) -> None:
    """Write the SEIS container.

    Layout (little-endian): magic "SEIS", version u32, n_patches u64,
    T u32, S u32, dt f64, dx f64, task tag u8, then per patch the target
    [T*S f32], the degraded [T*S f32], and the keep mask [S u8], all in
    row-major order. The file is written beside `path` and then replaces it.
    """
    n, t, s = dataset.targets.shape
    header = _HEADER.pack(
        _SEIS_MAGIC, _SEIS_VERSION, n, t, s, dataset.dt, dataset.dx, TASKS.index(dataset.task)
    )
    records = np.empty(n, dtype=_patch_record(t, s))
    records["target"] = dataset.targets
    records["degraded"] = dataset.degraded
    records["mask"] = dataset.masks
    with replacing(path, "wb") as fh:
        fh.write(header)
        fh.write(records.tobytes())


def load_seis(path) -> SeismicDataset:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated SEIS header")
    magic, version, n, t, s, dt, dx, tag = _HEADER.unpack_from(raw)
    if magic != _SEIS_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != _SEIS_VERSION:
        raise ValueError(f"{path}: unsupported SEIS version {version}")
    if tag >= len(TASKS):
        raise ValueError(f"{path}: unknown task tag {tag}")
    # sizes checked as Python integers: a huge header must not reach the dtype constructor
    expected = _HEADER.size + n * (2 * t * s * 4 + s)
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {len(raw)} (truncated or padded)")
    records = np.frombuffer(raw, dtype=_patch_record(t, s), count=n, offset=_HEADER.size)
    try:
        return SeismicDataset(records["target"], records["degraded"], records["mask"], dt, dx, TASKS[tag])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _degrade(patch: SeismicPatch, spec: DegradationSpec, patch_index: int):
    rng = np.random.default_rng([spec.seed, 31, patch_index])
    if spec.task == "interpolation_random":
        lo, hi = spec.missing_fraction_range
        fraction = float(rng.uniform(lo, hi))
        degraded, mask = degrade_mask_random(patch, fraction, seed=[spec.seed, 41, patch_index])
        return degraded.data, patch.data, mask
    if spec.task == "interpolation_regular":
        degraded, mask = degrade_mask_regular(patch)
        return degraded.data, patch.data, mask
    if spec.task == "denoise":
        degraded = degrade_noise(patch, spec.noise_sigma, seed=[spec.seed, 41, patch_index])
        if np.abs(degraded.data).max() > np.finfo(np.float32).max:
            raise ValueError(f"noise sigma {spec.noise_sigma} overflows the float32 samples of a patch")
        return degraded.data, patch.data, np.ones(patch.n_traces, dtype=np.uint8)
    # lfe: input is the band-limited observation, label the low band
    band_in, band_lab = bandpass_split(patch, spec.input_band, spec.label_band)
    return band_in.data, band_lab.data, np.ones(patch.n_traces, dtype=np.uint8)


def build_dataset(
    spec: DegradationSpec,
    n_patches: int,
    dims: tuple,
    out_dir,
    dt: float = 0.004,
    dx: float = 25.0,
    n_events: int = 4,
    velocity_range: tuple = (1500.0, 4000.0),
    f0_range: tuple = (15.0, 45.0),
) -> dict:
    """Generate, degrade, split 8:1:1, and persist a synthetic dataset.

    Writes train/val/test SEIS files plus a JSON sidecar carrying the spec
    and generation parameters. Fully deterministic in `spec.seed`.
    """
    if n_patches < 10:
        raise ValueError("need at least 10 patches for an 8:1:1 split")
    t_dim, s_dim = dims
    targets = np.empty((n_patches, t_dim, s_dim), dtype=np.float32)
    degradeds = np.empty((n_patches, t_dim, s_dim), dtype=np.float32)
    masks = np.empty((n_patches, s_dim), dtype=np.uint8)
    noise_power, signal_power = 0.0, 0.0
    for i in range(n_patches):
        patch = synth_gather(
            t_dim, s_dim, dt, dx, n_events,
            velocity_range=velocity_range, seed=[spec.seed, 17, i], f0_range=f0_range,
        )
        degraded, target, mask = _degrade(patch, spec, i)
        targets[i] = target
        degradeds[i] = degraded
        masks[i] = mask
        if spec.task == "denoise":
            signal_power += float(np.sum(target ** 2))
            noise_power += float(np.sum((degraded - target) ** 2))

    n_train = int(n_patches * 0.8)
    n_val = int(n_patches * 0.1)
    splits = {
        "train": slice(0, n_train),
        "val": slice(n_train, n_train + n_val),
        "test": slice(n_train + n_val, n_patches),
    }
    subsets = {name: SeismicDataset(targets[sel], degradeds[sel], masks[sel], dt, dx, spec.task)
               for name, sel in splits.items()}
    # made only now, so a generation value that raises leaves no directory behind
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, subset in subsets.items():
        path = out_dir / f"{name}.seis"
        save_seis(path, subset)
        paths[name] = str(path)

    sidecar = {
        "spec": asdict(spec),
        "n_patches": n_patches,
        "dims": [t_dim, s_dim],
        "dt": dt,
        "dx": dx,
        "n_events": n_events,
        "velocity_range": list(velocity_range),
        "f0_range": list(f0_range),
        "splits": {k: [v.start, v.stop] for k, v in splits.items()},
    }
    if spec.task == "denoise" and noise_power > 0:
        sidecar["reported_snr_db"] = 10.0 * float(np.log10(signal_power / noise_power))
    with open(out_dir / "dataset.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
    paths["sidecar"] = str(out_dir / "dataset.json")
    return paths


def load_split(data_dir, split: str) -> SeismicDataset:
    return load_seis(Path(data_dir) / f"{split}.seis")
