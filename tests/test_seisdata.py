"""Synthetic data tests: wavelets, gathers, degradations, persistence."""
import hashlib
import struct
from pathlib import Path

import numpy as np
import pytest

from qcseis import seisdata as sd
from qcseis.objectives import amplitude_spectrum


class TestRicker:
    def test_peak_is_one_at_center(self):
        w = sd.ricker(25.0, 0.002, 2 / 25.0)
        assert w[len(w) // 2] == 1.0

    def test_even_symmetry(self):
        w = sd.ricker(18.0, 0.004, 2 / 18.0)
        assert np.array_equal(w, w[::-1])

    def test_dominant_frequency(self):
        f0, dt = 25.0, 0.002
        w = sd.ricker(f0, dt, 2 / f0)
        freqs, mags = amplitude_spectrum(np.pad(w, 256), dt)
        df = freqs[1] - freqs[0]
        assert abs(freqs[np.argmax(mags)] - f0) <= df

    def test_short_half_width_rejected(self):
        with pytest.raises(ValueError):
            sd.ricker(10.0, 0.004, 0.1)


class TestSynthGather:
    def test_flat_event_in_high_velocity_limit(self):
        patch = sd.synth_gather(64, 32, 0.004, 25.0, 1, velocity_range=(1e12, 1e12), seed=4)
        apex = np.argmax(np.abs(patch.data), axis=0)
        assert len(np.unique(apex)) == 1

    def test_seeded_reproducibility(self):
        a = sd.synth_gather(64, 32, 0.004, 25.0, 3, seed=11)
        b = sd.synth_gather(64, 32, 0.004, 25.0, 3, seed=11)
        assert np.array_equal(a.data, b.data)

    def test_apex_time_matches_draw(self):
        seed = 9
        patch = sd.synth_gather(64, 32, 0.004, 25.0, 1, seed=seed)
        rng = np.random.default_rng(seed)
        t0 = rng.uniform(0.1 * 64 * 0.004, 0.85 * 64 * 0.004)
        apex = np.argmax(np.abs(patch.data[:, 0]))
        assert abs(apex - round(t0 / 0.004)) <= 1

    def test_peak_normalized(self):
        patch = sd.synth_gather(64, 32, 0.004, 25.0, 5, seed=2)
        assert abs(np.max(np.abs(patch.data)) - 1.0) < 1e-12

    def test_needs_one_event(self):
        with pytest.raises(ValueError):
            sd.synth_gather(64, 32, 0.004, 25.0, 0)

    @pytest.mark.parametrize("dx, velocity", [(1e300, 1500.0), (25.0, 1e-300)])
    def test_travel_time_past_int64_misses_the_window(self, dx, velocity):
        # trace 0 has zero offset, so only it holds the event; the far traces must not wrap
        patch = sd.synth_gather(8, 8, 0.004, dx, 1, velocity_range=(velocity, velocity), seed=3)
        assert np.any(patch.data[:, 0]) and not np.any(patch.data[:, 1:])

    def test_wavelet_half_width_bounded_by_trace_length(self):
        # 2/(f0*dt) samples: 510 fits 64 x 8, 515 does not
        patch = sd.synth_gather(8, 8, 0.004, 25.0, 1, seed=1, f0_range=(0.98, 0.98))
        assert np.all(np.isfinite(patch.data))
        for f0, dt in ((0.97, 0.004), (1e-12, 0.004), (1e-200, 1e-200)):
            with pytest.raises(ValueError, match="wavelet half-width"):
                sd.synth_gather(8, 8, dt, 25.0, 1, seed=1, f0_range=(f0, f0))


class TestConvolution:
    """The real-FFT convolution against scipy's fftconvolve, the reference, bit for bit."""

    def test_matches_fftconvolve_bitwise(self):
        signal = pytest.importorskip("scipy.signal")
        rng = np.random.default_rng(0)
        wavelets = [sd.ricker(f0, dt, 2.0 / f0) for f0 in (7.0, 15.0, 30.0, 45.0)
                    for dt in (0.002, 0.004, 0.016)]
        for t in range(8, 161):
            for wavelet in wavelets:
                # one spike per trace as synth_gather places them; a row >= t misses the trace
                rows = rng.integers(0, t + t // 2, size=8)
                inside = rows < t
                spikes = np.zeros((t, 8))
                spikes[rows[inside], np.nonzero(inside)[0]] = rng.uniform(0.3, 1.0, inside.sum())
                got = sd._convolve_time(spikes, wavelet)
                want = signal.fftconvolve(spikes, wavelet[:, None], mode="same")
                assert got.shape == want.shape == (t, 8)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (t, len(wavelet))

    def test_smooth_len_matches_next_fast_len(self):
        fft = pytest.importorskip("scipy.fft")
        assert [sd._smooth_len(n) for n in range(1, 2001)] == \
            [fft.next_fast_len(n, real=True) for n in range(1, 2001)]


class TestMasks:
    @pytest.fixture
    def patch(self):
        return sd.synth_gather(32, 10, 0.004, 25.0, 2, seed=1)

    def test_lower_bound_count(self, patch):
        degraded, mask = sd.degrade_mask_random(patch, 0.3, seed=0)
        assert int((mask == 0).sum()) == 3

    def test_kept_traces_bit_equal(self, patch):
        degraded, mask = sd.degrade_mask_random(patch, 0.5, seed=1)
        kept = mask.astype(bool)
        assert np.array_equal(degraded.data[:, kept], patch.data[:, kept])
        assert np.all(degraded.data[:, ~kept] == 0)

    def test_mask_sum(self, patch):
        for fraction in (0.3, 0.5, 0.7):
            _, mask = sd.degrade_mask_random(patch, fraction, seed=2)
            assert int(mask.sum()) == 10 - round(fraction * 10)

    def test_fraction_outside_range_rejected(self, patch):
        with pytest.raises(ValueError):
            sd.degrade_mask_random(patch, 0.2, seed=0)

    @pytest.mark.parametrize("fractions", [(0.1, 0.2), (0.2, 0.5), (0.5, 0.8), (0.6, 0.4)])
    def test_spec_rejects_fractions_masking_rejects(self, fractions):
        with pytest.raises(ValueError, match="missing fractions"):
            sd.DegradationSpec(task="interpolation_random", missing_fraction_range=fractions)

    def test_spec_accepts_the_masking_bounds(self, tmp_path):
        spec = sd.DegradationSpec(task="interpolation_random", missing_fraction_range=(0.3, 0.7))
        sd.build_dataset(spec, 10, (16, 10), tmp_path)

    def test_regular_pattern(self):
        _, mask = sd.degrade_mask_regular(np.ones((8, 6)))
        assert np.array_equal(np.nonzero(mask == 0)[0], [2, 5])

    def test_regular_kept_fraction(self):
        patch = sd.SeismicPatch(np.ones((8, 10)), 0.004, 25.0)
        _, mask = sd.degrade_mask_regular(patch)
        assert int(mask.sum()) == 10 - len(range(2, 10, 3))

    def test_regular_idempotent(self):
        patch = sd.synth_gather(32, 12, 0.004, 25.0, 2, seed=3)
        once, mask1 = sd.degrade_mask_regular(patch)
        twice, mask2 = sd.degrade_mask_regular(once)
        assert np.array_equal(once.data, twice.data)
        assert np.array_equal(mask1, mask2)


class TestNoise:
    def test_statistics(self):
        patch = sd.SeismicPatch(np.zeros((224, 128)), 0.004, 25.0)
        noisy = sd.degrade_noise(patch, 0.1, seed=2)
        std = float((noisy.data - patch.data).std())
        assert abs(std - 0.1) < 0.005
        assert abs(float((noisy.data - patch.data).mean())) < 0.005

    def test_seeded(self):
        patch = sd.SeismicPatch(np.zeros((32, 16)), 0.004, 25.0)
        a = sd.degrade_noise(patch, 0.1, seed=5)
        b = sd.degrade_noise(patch, 0.1, seed=5)
        assert np.array_equal(a.data, b.data)

    def test_snr_reported_not_gated(self, tmp_path):
        spec = sd.DegradationSpec(task="denoise", seed=0)
        paths = sd.build_dataset(spec, 10, (64, 32), tmp_path)
        import json

        sidecar = json.loads(Path(paths["sidecar"]).read_text())
        assert "reported_snr_db" in sidecar


class TestBandpassSplit:
    def on_bin_tone(self, freq, n=250, dt=0.004, traces=8):
        t = np.arange(n) * dt
        return sd.SeismicPatch(np.tile(np.sin(2 * np.pi * freq * t)[:, None], (1, traces)), dt, 25.0)

    def test_seven_hz_survives_input_only(self):
        tone = self.on_bin_tone(7.0)
        band_in, band_lab = sd.bandpass_split(tone)
        total = np.sum(tone.data ** 2)
        assert np.sum(band_in.data ** 2) / total > 0.99
        assert np.sum(band_lab.data ** 2) / total < 0.01

    def test_two_hz_survives_label_only(self):
        tone = self.on_bin_tone(2.0)
        band_in, band_lab = sd.bandpass_split(tone)
        total = np.sum(tone.data ** 2)
        assert np.sum(band_lab.data ** 2) / total > 0.99
        assert np.sum(band_in.data ** 2) / total < 0.01

    def test_energy_inequality(self):
        patch = sd.synth_gather(128, 16, 0.008, 25.0, 3, seed=6, f0_range=(7.0, 7.0))
        band_in, band_lab = sd.bandpass_split(patch)
        assert (np.sum(band_in.data ** 2) + np.sum(band_lab.data ** 2)
                <= np.sum(patch.data ** 2) * (1 + 1e-9))

    def test_linearity(self):
        patch = sd.synth_gather(64, 16, 0.008, 25.0, 3, seed=7, f0_range=(7.0, 7.0))
        scaled = sd.SeismicPatch(2.5 * patch.data, patch.dt, patch.dx)
        a_in, a_lab = sd.bandpass_split(patch)
        b_in, b_lab = sd.bandpass_split(scaled)
        assert np.max(np.abs(b_in.data - 2.5 * a_in.data)) < 1e-6
        assert np.max(np.abs(b_lab.data - 2.5 * a_lab.data)) < 1e-6

    def test_band_beyond_nyquist_rejected(self):
        patch = sd.SeismicPatch(np.ones((32, 8)), 0.016, 25.0)  # Nyquist 31.25 Hz
        with pytest.raises(ValueError):
            sd.bandpass_split(patch, input_band=(5.0, 40.0))

    def test_outputs_real(self):
        patch = sd.synth_gather(64, 16, 0.016, 25.0, 2, seed=8, f0_range=(7.0, 7.0))
        band_in, band_lab = sd.bandpass_split(patch)
        assert band_in.data.dtype == np.float64 and band_lab.data.dtype == np.float64


class TestBuildDataset:
    def test_split_sizes(self, tmp_path):
        spec = sd.DegradationSpec(task="interpolation_random", seed=5)
        paths = sd.build_dataset(spec, 10, (32, 32), tmp_path)
        assert len(sd.load_seis(paths["train"])) == 8
        assert len(sd.load_seis(paths["val"])) == 1
        assert len(sd.load_seis(paths["test"])) == 1

    def test_byte_identical_rerun(self, tmp_path):
        spec = sd.DegradationSpec(task="denoise", seed=12)
        for sub in ("a", "b"):
            sd.build_dataset(spec, 12, (32, 16), tmp_path / sub)
        for name in ("train.seis", "val.seis", "test.seis", "dataset.json"):
            ha = hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()
            hb = hashlib.sha256((tmp_path / "b" / name).read_bytes()).hexdigest()
            assert ha == hb, name

    @pytest.mark.parametrize("task", ["interpolation_random", "interpolation_regular"])
    def test_mask_regenerates_degraded(self, tmp_path, task):
        spec = sd.DegradationSpec(task=task, seed=3)
        paths = sd.build_dataset(spec, 10, (32, 16), tmp_path / task)
        test = sd.load_seis(paths["test"])
        rebuilt = test.targets * test.masks[:, None, :].astype(np.float32)
        assert np.array_equal(test.degraded, rebuilt)

    def test_too_few_patches(self, tmp_path):
        with pytest.raises(ValueError):
            sd.build_dataset(sd.DegradationSpec(task="denoise"), 5, (32, 16), tmp_path)


class TestSeisFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = sd.SeismicDataset(
            targets=rng.normal(size=(3, 16, 12)).astype(np.float32),
            degraded=rng.normal(size=(3, 16, 12)).astype(np.float32),
            masks=rng.integers(0, 2, size=(3, 12)).astype(np.uint8),
            dt=0.004, dx=25.0, task="denoise",
        )
        path = tmp_path / "x.seis"
        sd.save_seis(path, ds)
        back = sd.load_seis(path)
        assert np.array_equal(back.targets, ds.targets)
        assert np.array_equal(back.degraded, ds.degraded)
        assert np.array_equal(back.masks, ds.masks)
        assert back.dt == ds.dt and back.dx == ds.dx and back.task == ds.task

    def test_failed_save_keeps_previous_file(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = sd.SeismicDataset(
            targets=rng.normal(size=(2, 8, 8)).astype(np.float32),
            degraded=rng.normal(size=(2, 8, 8)).astype(np.float32),
            masks=np.ones((2, 8), dtype=np.uint8),
            dt=0.004, dx=25.0, task="denoise",
        )
        path = tmp_path / "x.seis"
        sd.save_seis(path, ds)
        before = path.read_bytes()
        # the second patch cannot be cast to <f4, so the save fails after writing the first
        ds.degraded = np.array([ds.degraded[0], np.full((8, 8), "not a number")], dtype=object)
        with pytest.raises(ValueError):
            sd.save_seis(path, ds)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["x.seis"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.seis"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ValueError, match="magic"):
            sd.load_seis(path)

    def test_truncation_detected(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = sd.SeismicDataset(
            targets=rng.normal(size=(2, 8, 8)).astype(np.float32),
            degraded=rng.normal(size=(2, 8, 8)).astype(np.float32),
            masks=np.ones((2, 8), dtype=np.uint8),
            dt=0.004, dx=25.0, task="lfe",
        )
        path = tmp_path / "t.seis"
        sd.save_seis(path, ds)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(ValueError, match="truncated|expected"):
            sd.load_seis(path)


def set_value(offset, fmt, value):
    """An edit of raw .seis bytes that packs `value` at `offset` (a function of T, S)."""
    def edit(raw, t, s):
        raw = bytearray(raw)
        struct.pack_into(fmt, raw, offset(t, s), value)
        return bytes(raw)
    return edit


def flip_byte(index):
    def edit(raw, t, s):
        raw = bytearray(raw)
        raw[index] ^= 0x80
        return bytes(raw)
    return edit


HEADER = 41  # magic, version, n, T, S, dt at byte 24, dx at byte 32, task tag
BAD_VALUE_EDITS = {
    "dt_sign_flipped": flip_byte(31),
    "dx_sign_flipped": flip_byte(39),
    "dt_zero": set_value(lambda t, s: 24, "<d", 0.0),
    "dt_inf": set_value(lambda t, s: 24, "<d", float("inf")),
    "dx_nan": set_value(lambda t, s: 32, "<d", float("nan")),
    "target_nan": set_value(lambda t, s: HEADER + 4 * 5, "<f", float("nan")),
    "degraded_inf": set_value(lambda t, s: HEADER + 4 * t * s, "<f", float("-inf")),
    "mask_two": set_value(lambda t, s: HEADER + 8 * t * s + 3, "<B", 2),
}


class TestSeisValues:
    @staticmethod
    def small_dataset(**overrides):
        rng = np.random.default_rng(4)
        fields = dict(
            targets=rng.normal(size=(2, 8, 8)).astype(np.float32),
            degraded=rng.normal(size=(2, 8, 8)).astype(np.float32),
            masks=np.ones((2, 8), dtype=np.uint8),
            dt=0.004, dx=25.0, task="denoise",
        )
        fields.update(overrides)
        return sd.SeismicDataset(**fields)

    @pytest.mark.parametrize("name", sorted(BAD_VALUE_EDITS))
    def test_bad_value_rejected(self, tmp_path, name):
        path = tmp_path / "v.seis"
        sd.save_seis(path, self.small_dataset())
        sd.load_seis(path)
        path.write_bytes(BAD_VALUE_EDITS[name](path.read_bytes(), 8, 8))
        with pytest.raises(ValueError, match=str(path)):
            sd.load_seis(path)

    @pytest.mark.parametrize("field, value", [
        ("dt", -0.004), ("dx", 0.0), ("dx", float("inf")),
        ("targets", np.full((2, 8, 8), np.nan)),
        ("masks", np.full((2, 8), 255)),
    ])
    def test_constructor_rejects(self, field, value):
        with pytest.raises(ValueError):
            self.small_dataset(**{field: value})
