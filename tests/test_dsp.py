"""Logmel frontend: frame counts, filterbank geometry, shift/scale behavior."""

import numpy as np
import pytest

from melformer import dsp
from melformer.errors import ConfigError, DataError


def sine(freq, seconds=1.0, amp=0.5, sr=16000):
    t = np.arange(int(seconds * sr)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


class TestWaveform:
    def test_float32_and_float64_kept(self):
        for dtype in (np.float32, np.float64):
            samples = np.zeros(10, dtype=dtype)
            assert dsp.Waveform(samples).samples.dtype == dtype

    def test_other_input_cast_to_float64(self):
        assert dsp.Waveform(np.zeros(10, dtype=np.int16)).samples.dtype == np.float64
        assert dsp.Waveform([0.5, -0.5]).samples.dtype == np.float64


class TestFrameCount:
    def test_ten_seconds_gives_500_frames(self):
        wave = dsp.Waveform(np.zeros(160_000))
        spec = dsp.logmel(wave)
        assert spec.frames.shape == (500, 64)

    @pytest.mark.parametrize("n", [1, 5, 319, 320, 321, 1024, 4097])
    def test_frame_count_is_ceil_n_over_hop(self, n):
        spec = dsp.logmel(dsp.Waveform(np.zeros(n)))
        assert spec.frames.shape[0] == -(-n // 320)

    def test_empty_waveform_rejected(self):
        with pytest.raises(DataError):
            dsp.Waveform(np.array([]))


class TestSilenceAndScaling:
    def test_silence_hits_the_log_floor(self):
        spec = dsp.logmel(dsp.Waveform(np.zeros(3200)))
        np.testing.assert_allclose(spec.frames, np.log(1e-10))

    def test_amplitude_scaling_adds_2_log_c(self):
        rng = np.random.default_rng(0)
        x = rng.normal(scale=0.1, size=16000)
        a = dsp.logmel(dsp.Waveform(x)).frames
        b = dsp.logmel(dsp.Waveform(3.0 * x)).frames
        # Entries well above the floor shift by exactly 2*log(3).
        solid = a > np.log(1e-10) + 5.0
        np.testing.assert_allclose((b - a)[solid], 2.0 * np.log(3.0), atol=1e-6)


class TestShiftRobustness:
    def test_one_hop_shift_moves_one_frame(self):
        rng = np.random.default_rng(1)
        x = rng.normal(scale=0.1, size=16000)
        full = dsp.logmel(dsp.Waveform(x)).frames
        shifted = dsp.logmel(dsp.Waveform(x[320:])).frames
        # Frames clear of the left reflect-padded edge line up exactly; both
        # signals end on the same sample so the right edge agrees too.
        np.testing.assert_allclose(shifted[2:], full[3:], atol=1e-4)


class TestMelFilterbank:
    def test_every_row_has_positive_area(self):
        fb = dsp.mel_filterbank()
        assert fb.shape == (64, 513)
        assert np.all(fb.sum(axis=1) > 0)

    def test_interior_bins_are_covered(self):
        fb = dsp.mel_filterbank()
        centers = dsp.filterbank_center_frequencies()
        lo_bin = int(np.ceil(centers[0] / (16000 / 1024)))
        hi_bin = int(np.floor(centers[-1] / (16000 / 1024)))
        covered = fb.max(axis=0) > 0
        assert covered[lo_bin : hi_bin + 1].all()

    def test_center_bins_strictly_increase(self):
        centers_hz = dsp.filterbank_center_frequencies()
        assert np.all(np.diff(centers_hz) > 0)
        center_bins = np.round(centers_hz / (16000 / 1024)).astype(int)
        assert np.all(np.diff(center_bins) >= 1)
        # The filter peaks agree with the analytic centers.
        argmax_bins = dsp.mel_filterbank().argmax(axis=1)
        assert np.all(np.diff(argmax_bins) >= 1)

    def test_built_once_and_read_only(self):
        fb = dsp.mel_filterbank()
        assert dsp.mel_filterbank() is fb
        assert not fb.flags.writeable
        with pytest.raises(ValueError):
            fb[0, 0] = 1.0


class TestPureTone:
    def test_1khz_sine_peaks_in_nearest_band(self):
        spec = dsp.logmel(dsp.Waveform(sine(1000.0)))
        centers = dsp.filterbank_center_frequencies()
        expected_band = int(np.argmin(np.abs(centers - 1000.0)))
        interior = spec.frames[5:-5]
        assert np.all(interior.argmax(axis=1) == expected_band)

    def test_matches_single_frame_dft_oracle(self):
        """One interior frame recomputed with a direct DFT + filter application."""
        wave = sine(1000.0)
        spec = dsp.logmel(dsp.Waveform(wave))
        i = 10  # interior frame centered at i*320
        start = i * 320 - 512
        frame = wave[start : start + 1024]
        window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(1024) / 1024)
        power = np.abs(np.fft.rfft(frame * window)) ** 2
        oracle = np.log(dsp.mel_filterbank() @ power + 1e-10)
        np.testing.assert_allclose(spec.frames[i], oracle, atol=1e-9)


def gather_logmel(samples):
    """``logmel``'s formula with index-gather framing: the squared interleaved
    re/im spectrum summed through ``band_blocks()``."""
    pad = dsp.WINDOW_SAMPLES // 2
    n = samples.size
    padded = np.pad(samples.astype(np.float64), pad, mode="reflect" if n > pad else "constant")
    num_frames = -(-n // dsp.HOP_SAMPLES)
    starts = np.arange(num_frames) * dsp.HOP_SAMPLES
    frames = padded[starts[:, None] + np.arange(dsp.WINDOW_SAMPLES)] * dsp._HANN
    power = np.fft.rfft(frames, axis=1).view(np.float64) ** 2
    mel = np.concatenate([power[:, cols] @ w for _, cols, w in dsp.band_blocks()], axis=1)
    return np.log(mel + dsp.LOG_FLOOR)


def dense_logmel(samples):
    """The formula ``logmel`` used before its band blocks: ``np.pad`` in the
    samples' dtype, ``np.abs`` of the rfft squared, one dense filterbank product."""
    pad = dsp.WINDOW_SAMPLES // 2
    n = samples.size
    padded = np.pad(samples, pad, mode="reflect" if n > pad else "constant")
    num_frames = -(-n // dsp.HOP_SAMPLES)
    starts = np.arange(num_frames) * dsp.HOP_SAMPLES
    frames = padded[starts[:, None] + np.arange(dsp.WINDOW_SAMPLES)] * dsp._HANN
    power = np.abs(np.fft.rfft(frames, axis=1)) ** 2
    return np.log(power @ dsp.mel_filterbank().T + dsp.LOG_FLOOR)


def noise(n, dtype):
    return (np.random.default_rng(n).normal(scale=0.2, size=n)).astype(dtype)


class TestLogmelBytes:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 5, 319, 320, 321, 1024, 4097, 32000, 160000])
    def test_same_bytes_as_gather_formula(self, n, dtype):
        samples = (np.random.default_rng(n).normal(scale=0.2, size=n)).astype(dtype)
        got = dsp.logmel(dsp.Waveform(samples)).frames
        want = gather_logmel(samples)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestBandBlocks:
    def test_every_nonzero_weight_exactly_once(self):
        fb = dsp.mel_filterbank()
        re = np.zeros_like(fb)
        im = np.zeros_like(fb)
        covered = np.zeros(dsp.NUM_MEL_BANDS, dtype=int)
        total = 0.0
        for bands, cols, w in dsp.band_blocks():
            assert cols.start % 2 == 0 and cols.stop % 2 == 0
            assert w.shape == (cols.stop - cols.start, bands.stop - bands.start)
            bins = slice(cols.start // 2, cols.stop // 2)
            # Even rows weigh each bin's re^2, odd rows its im^2.
            re[bands, bins] += w[0::2].T
            im[bands, bins] += w[1::2].T
            covered[bands] += 1
            total += w.sum()
        assert np.all(covered == 1)
        np.testing.assert_array_equal(re, fb)
        np.testing.assert_array_equal(im, fb)
        np.testing.assert_allclose(total, 2.0 * fb.sum(), rtol=1e-14)

    def test_fewer_multiply_adds_than_the_dense_product(self):
        work = sum(w.size for _, _, w in dsp.band_blocks())
        assert work < dsp.mel_filterbank().size / 3

    def test_built_once_and_read_only(self):
        blocks = dsp.band_blocks()
        assert dsp.band_blocks() is blocks
        assert not any(w.flags.writeable for _, _, w in blocks)

    def test_product_matches_dense_filterbank_on_random_spectra(self):
        rng = np.random.default_rng(3)
        squares = rng.random((50, 2 * (dsp.WINDOW_SAMPLES // 2 + 1))) ** 4
        power = squares[:, 0::2] + squares[:, 1::2]
        got = np.concatenate([squares[:, c] @ w for _, c, w in dsp.band_blocks()], axis=1)
        want = power @ dsp.mel_filterbank().T
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestAgainstDenseFormula:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    # Zero padding below 513 samples, reflection from 513 on.
    @pytest.mark.parametrize("n", [1, 5, 319, 320, 321, 512, 513, 1024, 4097, 32000, 160000])
    def test_within_1e_12_of_the_dense_formula(self, n, dtype):
        samples = noise(n, dtype)
        got = dsp.logmel(dsp.Waveform(samples)).frames
        want = dense_logmel(samples)
        assert got.shape == want.shape == (-(-n // 320), 64)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestFilterbankArgument:
    def test_cached_filterbank_gives_the_same_bytes(self):
        wave = dsp.Waveform(noise(4097, np.float32))
        got = dsp.logmel(wave, dsp.mel_filterbank()).frames
        assert got.tobytes() == dsp.logmel(wave).frames.tobytes()

    @pytest.mark.parametrize("make", [np.copy, lambda fb: 2.0 * fb, np.zeros_like])
    def test_foreign_filterbank_rejected(self, make):
        wave = dsp.Waveform(noise(4097, np.float32))
        with pytest.raises(ConfigError):
            dsp.logmel(wave, make(dsp.mel_filterbank()))
