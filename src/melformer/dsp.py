"""Logmel spectrogram frontend.

Converts 16 kHz mono waveforms into 64-band log mel-filterbank energies with
a 64 ms Hann window and a 20 ms hop. Conventions: FFT size equals the window
length (1024 samples), frames are centered via reflection padding, the mel
scale is 2595*log10(1 + f/700), energies are floored at 1e-10 before the
natural log. All functions here are pure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DataError

SAMPLE_RATE = 16_000
WINDOW_SAMPLES = 1024  # 64 ms at 16 kHz
HOP_SAMPLES = 320  # 20 ms
NUM_MEL_BANDS = 64
LOG_FLOOR = 1e-10


@dataclass
class Waveform:
    """Mono audio samples in [-1, 1] at 16 kHz.

    float32 and float64 samples are kept as given; any other input is cast
    to float64.
    """

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples).reshape(-1)
        if samples.dtype != np.float32 and samples.dtype != np.float64:
            samples = samples.astype(np.float64)
        self.samples = samples
        if self.samples.size == 0:
            raise DataError("empty waveform")


@dataclass
class LogmelSpectrogram:
    """T x 64 matrix of log mel energies."""

    frames: np.ndarray


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


# Band edges equally spaced on the mel scale from 0 Hz to Nyquist; band m
# rises from edge m to its center, edge m + 1, and falls to edge m + 2.
_BAND_EDGES_HZ = mel_to_hz(np.linspace(0.0, hz_to_mel(SAMPLE_RATE / 2.0), NUM_MEL_BANDS + 2))


@functools.cache
def mel_filterbank() -> np.ndarray:
    """Triangular filters over rfft bins, (64, 513).

    Built once and shared, so the returned array is read-only.
    """
    num_bins = WINDOW_SAMPLES // 2 + 1
    bin_hz = np.arange(num_bins) * SAMPLE_RATE / WINDOW_SAMPLES
    fbank = np.zeros((NUM_MEL_BANDS, num_bins))
    for m in range(NUM_MEL_BANDS):
        lo, center, hi = _BAND_EDGES_HZ[m : m + 3]
        rising = (bin_hz - lo) / (center - lo)
        falling = (hi - bin_hz) / (hi - center)
        fbank[m] = np.maximum(0.0, np.minimum(rising, falling))
    fbank.flags.writeable = False
    return fbank


def filterbank_center_frequencies() -> np.ndarray:
    """Center frequency in Hz of each triangular filter."""
    return _BAND_EDGES_HZ[1:-1].copy()


_HANN = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(WINDOW_SAMPLES) / WINDOW_SAMPLES)


def _windowed_frames(samples: np.ndarray, num_frames: int) -> np.ndarray:
    """Centered Hann-windowed frames of length WINDOW_SAMPLES, one per hop."""
    pad = WINDOW_SAMPLES // 2
    # Reflection needs at least pad+1 samples; fall back to zeros for stubs.
    mode = "reflect" if samples.size > pad else "constant"
    padded = np.pad(samples, pad, mode=mode)
    windows = np.lib.stride_tricks.sliding_window_view(padded, WINDOW_SAMPLES)
    return windows[::HOP_SAMPLES][:num_frames] * _HANN


def frame_count(num_samples: int) -> int:
    """Logmel frames of a waveform: ceil(num_samples / 320)."""
    return -(-num_samples // HOP_SAMPLES)


def logmel(waveform: Waveform, filterbank: np.ndarray | None = None) -> LogmelSpectrogram:
    """Log mel-filterbank energies of a 16 kHz waveform.

    Output has ceil(num_samples / 320) frames of 64 natural-log energies,
    floored at log(1e-10).
    """
    if filterbank is None:
        filterbank = mel_filterbank()
    num_frames = frame_count(waveform.samples.size)
    power = np.abs(np.fft.rfft(_windowed_frames(waveform.samples, num_frames), axis=1))
    np.square(power, out=power)
    # One matmul over all frames: a row-blocked product rounds differently.
    mel_energy = power @ filterbank.T
    mel_energy += LOG_FLOOR
    return LogmelSpectrogram(frames=np.log(mel_energy, out=mel_energy))
