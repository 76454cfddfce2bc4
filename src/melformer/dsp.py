"""Logmel spectrogram frontend.

Converts 16 kHz mono waveforms into 64-band log mel-filterbank energies with
a 64 ms Hann window and a 20 ms hop. Conventions: FFT size equals the window
length (1024 samples), frames are centered via reflection padding, the mel
scale is 2595*log10(1 + f/700), energies are floored at 1e-10 before the
natural log. The math is float64 throughout: numpy's rfft, then the
triangular filters applied as a few dense blocks of adjacent bands, each
over only the rfft bins its bands touch. All functions here are pure.
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
_BANDS_PER_BLOCK = 8


@functools.cache
def band_blocks() -> tuple[tuple[slice, slice, np.ndarray], ...]:
    """``mel_filterbank()`` as dense blocks of adjacent bands, built once.

    Each block is ``(bands, columns, weights)``. ``columns`` slices the rfft
    output viewed as float64 (re and im of bin k at columns 2k and 2k + 1)
    down to the bins its bands touch; ``weights`` is (columns, bands), each
    filter weight on both the re and the im row of its bin. Summed over a
    squared spectrum, the two rows give the bin's power.
    """
    fbank = mel_filterbank()
    blocks = []
    for first in range(0, NUM_MEL_BANDS, _BANDS_PER_BLOCK):
        bands = slice(first, first + _BANDS_PER_BLOCK)
        touched = np.flatnonzero(fbank[bands].any(axis=0))
        lo, hi = touched[0], touched[-1] + 1
        weights = np.repeat(fbank[bands, lo:hi].T, 2, axis=0)
        weights.flags.writeable = False
        blocks.append((bands, slice(2 * lo, 2 * hi), weights))
    return tuple(blocks)


def _padded(samples: np.ndarray) -> np.ndarray:
    """The samples in float64 with WINDOW_SAMPLES // 2 reflected samples on
    each side, or zeros when there are too few samples to reflect."""
    pad = WINDOW_SAMPLES // 2
    n = samples.size
    if n <= pad:
        return np.pad(samples.astype(np.float64), pad)
    padded = np.empty(n + 2 * pad)
    padded[pad:-pad] = samples
    padded[:pad] = samples[pad:0:-1]
    padded[-pad:] = samples[-2 : -pad - 2 : -1]
    return padded


def frame_count(num_samples: int) -> int:
    """Logmel frames of a waveform: ceil(num_samples / 320)."""
    return -(-num_samples // HOP_SAMPLES)


def logmel(waveform: Waveform, filterbank: np.ndarray | None = None) -> LogmelSpectrogram:
    """Log mel-filterbank energies of a 16 kHz waveform.

    Output has ceil(num_samples / 320) frames of 64 natural-log energies,
    floored at log(1e-10). ``filterbank`` may only be ``mel_filterbank()``
    itself; any other array raises ConfigError.
    """
    if filterbank is not None and filterbank is not mel_filterbank():
        raise ConfigError("logmel takes filterbank=mel_filterbank() or None, no other array")
    num_frames = frame_count(waveform.samples.size)
    padded = _padded(waveform.samples)
    step = padded.itemsize
    frames = np.lib.stride_tricks.as_strided(
        padded, (num_frames, WINDOW_SAMPLES), (HOP_SAMPLES * step, step), writeable=False
    )
    # Centered frames, one per hop; squaring the spectrum viewed as float64
    # leaves re^2 and im^2 side by side for band_blocks() to sum.
    power = np.fft.rfft(frames * _HANN, axis=1).view(np.float64)
    np.square(power, out=power)
    mel_energy = np.empty((num_frames, NUM_MEL_BANDS))
    for bands, columns, weights in band_blocks():
        np.matmul(power[:, columns], weights, out=mel_energy[:, bands])
    mel_energy += LOG_FLOOR
    return LogmelSpectrogram(frames=np.log(mel_energy, out=mel_energy))
