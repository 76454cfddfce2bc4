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

from .errors import ConfigError, DataError

SAMPLE_RATE = 16_000
WINDOW_SAMPLES = 1024  # 64 ms at 16 kHz
HOP_SAMPLES = 320  # 20 ms
NUM_MEL_BANDS = 64
LOG_FLOOR = 1e-10


@dataclass
class Waveform:
    """Mono audio samples in [-1, 1] at a fixed sample rate.

    float32 and float64 samples are kept as given; any other input is cast
    to float64.
    """

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        samples = np.asarray(self.samples).reshape(-1)
        if samples.dtype != np.float32 and samples.dtype != np.float64:
            samples = samples.astype(np.float64)
        self.samples = samples
        if self.samples.size == 0:
            raise DataError("empty waveform")
        if self.sample_rate <= 0:
            raise DataError(f"invalid sample rate {self.sample_rate}")

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass
class LogmelSpectrogram:
    """T x 64 matrix of log mel energies."""

    frames: np.ndarray
    hop_seconds: float = HOP_SAMPLES / SAMPLE_RATE
    window_seconds: float = WINDOW_SAMPLES / SAMPLE_RATE

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache
def mel_filterbank(
    num_bands: int = NUM_MEL_BANDS,
    sample_rate: int = SAMPLE_RATE,
    fft_size: int = WINDOW_SAMPLES,
) -> np.ndarray:
    """Triangular filters over rfft bins, (num_bands, fft_size//2 + 1).

    Band centers are equally spaced on the mel scale between 0 Hz and
    Nyquist; every filter has positive area. Built once per argument set and
    shared, so the returned array is read-only.
    """
    if num_bands < 1:
        raise ConfigError(f"num_bands must be >= 1, got {num_bands}")
    num_bins = fft_size // 2 + 1
    if num_bands > num_bins - 2:
        raise ConfigError(f"{num_bands} mel bands exceed the {num_bins} usable DFT bins")
    edges_hz = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2.0), num_bands + 2))
    bin_hz = np.arange(num_bins) * sample_rate / fft_size
    fbank = np.zeros((num_bands, num_bins))
    for m in range(num_bands):
        lo, center, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        rising = (bin_hz - lo) / (center - lo)
        falling = (hi - bin_hz) / (hi - center)
        fbank[m] = np.maximum(0.0, np.minimum(rising, falling))
    if np.any(fbank.sum(axis=1) <= 0.0):
        raise ConfigError("mel filterbank has an empty band; fft_size too small")
    fbank.flags.writeable = False
    return fbank


def filterbank_center_frequencies(
    num_bands: int = NUM_MEL_BANDS, sample_rate: int = SAMPLE_RATE
) -> np.ndarray:
    """Center frequency in Hz of each triangular filter."""
    edges = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2.0), num_bands + 2))
    return edges[1:-1]


_HANN = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(WINDOW_SAMPLES) / WINDOW_SAMPLES)


def _windowed_frames(samples: np.ndarray, num_frames: int) -> np.ndarray:
    """Centered Hann-windowed frames of length WINDOW_SAMPLES, one per hop."""
    pad = WINDOW_SAMPLES // 2
    # Reflection needs at least pad+1 samples; fall back to zeros for stubs.
    mode = "reflect" if samples.size > pad else "constant"
    padded = np.pad(samples, pad, mode=mode)
    windows = np.lib.stride_tricks.sliding_window_view(padded, WINDOW_SAMPLES)
    return windows[::HOP_SAMPLES][:num_frames] * _HANN


def logmel(waveform: Waveform, filterbank: np.ndarray | None = None) -> LogmelSpectrogram:
    """Log mel-filterbank energies of a 16 kHz waveform.

    Output has ceil(num_samples / 320) frames of 64 natural-log energies,
    floored at log(1e-10).
    """
    if waveform.sample_rate != SAMPLE_RATE:
        raise DataError(
            f"expected {SAMPLE_RATE} Hz input, got {waveform.sample_rate} Hz (no resampling)"
        )
    if filterbank is None:
        filterbank = mel_filterbank()
    num_frames = -(-waveform.samples.size // HOP_SAMPLES)
    power = np.abs(np.fft.rfft(_windowed_frames(waveform.samples, num_frames), axis=1))
    np.square(power, out=power)
    # One matmul over all frames: a row-blocked product rounds differently.
    mel_energy = power @ filterbank.T
    mel_energy += LOG_FLOOR
    return LogmelSpectrogram(frames=np.log(mel_energy, out=mel_energy))
