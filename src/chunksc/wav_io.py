"""Mono WAV reading and writing.

Accepts 16-bit PCM and 32-bit float RIFF files; anything multi-channel is
rejected. The writer always emits 32-bit float.
"""

from __future__ import annotations

import numpy as np
from scipy.io import wavfile

from .signal_core import Waveform


def read_wav(path: str) -> Waveform:
    """Load a mono WAV file as a float64 Waveform.

    16-bit PCM is scaled to [-1, 1); float input is passed through.
    """
    rate, data = wavfile.read(path)
    if data.ndim != 1:
        raise ValueError(f"{path}: expected mono audio, got {data.shape[1]} channels")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise ValueError(f"{path}: unsupported sample format {data.dtype}")
    try:
        return Waveform(samples, int(rate))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_wav(path: str, w: Waveform) -> None:
    """Write a Waveform as 32-bit float WAV."""
    wavfile.write(path, w.sample_rate, w.samples.astype(np.float32))
