"""Logmel frontend walk-through.

Builds the 64-band mel filterbank, extracts logmel spectrograms from pure
tones and noise, and demonstrates the frame-count, scaling, and
shift-robustness properties the frontend guarantees.
"""

import numpy as np

from melformer import Waveform, logmel, mel_filterbank
from melformer import dsp

rng = np.random.default_rng(0)

# A 10-second 1 kHz tone at 16 kHz: ceil(160000 / 320) = 500 frames.
t = np.arange(160_000) / 16_000
tone = 0.5 * np.sin(2 * np.pi * 1000.0 * t)
spec = logmel(Waveform(tone))
print(f"10 s tone -> {spec.frames.shape[0]} frames x {spec.frames.shape[1]} mel bands")
print(
    f"hop {dsp.HOP_SAMPLES / dsp.SAMPLE_RATE * 1000:.0f} ms,"
    f" window {dsp.WINDOW_SAMPLES / dsp.SAMPLE_RATE * 1000:.0f} ms"
)

# The energy concentrates in the band whose center is nearest 1 kHz.
centers = dsp.filterbank_center_frequencies()
peak_band = int(np.bincount(spec.frames[5:-5].argmax(axis=1)).argmax())
print(f"peak band {peak_band} centered at {centers[peak_band]:.0f} Hz")

# Silence sits exactly on the log floor.
silence = logmel(Waveform(np.zeros(16_000)))
print(f"silence fills every bin with log(1e-10) = {silence.frames.min():.4f}")

# Scaling the waveform by c adds 2*log(c) to every well-energized bin.
noise = rng.normal(scale=0.1, size=16_000)
a = logmel(Waveform(noise)).frames
b = logmel(Waveform(3.0 * noise)).frames
solid = a > a.min() + 5.0
print(f"3x louder -> logmel shifts by {np.mean((b - a)[solid]):.4f} (2 ln 3 = {2 * np.log(3):.4f})")

# Shifting the waveform by exactly one hop shifts the frames by one slot.
full = logmel(Waveform(noise)).frames
shifted = logmel(Waveform(noise[320:])).frames
print(f"one-hop shift alignment error: {np.abs(shifted[2:] - full[3:]).max():.2e}")

# The filterbank itself: triangular rows, positive area, increasing centers.
fb = mel_filterbank()
print(f"filterbank {fb.shape}: row areas in [{fb.sum(1).min():.2f}, {fb.sum(1).max():.2f}], "
      f"centers {centers[0]:.0f} Hz ... {centers[-1]:.0f} Hz")
