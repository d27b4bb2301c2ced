"""WAV input/output at SAMPLE_RATE, the toolkit's only rate. All toolkit
artifacts are mono 32-bit float RIFF, which avoids quantization interacting
with the metric floors; common PCM inputs are accepted and scaled to [-1, 1]
on read, and then multichannel inputs are averaged to mono. read_wav is the
one place that checks a rate."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .dsp import SAMPLE_RATE, TimeSignal

# scale and offset that map each PCM sample type to [-1, 1]
_PCM = {
    np.dtype(np.int16): (32768.0, 0.0),
    np.dtype(np.int32): (2147483648.0, 0.0),
    np.dtype(np.uint8): (128.0, 128.0),
}


def read_wav(path) -> TimeSignal:
    """The file's samples; a file that scipy cannot parse (a truncated header
    raises struct.error there) or that is not at SAMPLE_RATE raises a one-line
    ValueError that names it."""
    try:
        rate, data = wavfile.read(path)
    except (ValueError, struct.error) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if rate != SAMPLE_RATE:
        raise ValueError(f"{path}: expected {SAMPLE_RATE} Hz, got {rate}")
    scale, offset = _PCM.get(data.dtype, (1.0, 0.0))
    data = (data.astype(np.float64) - offset) / scale
    if data.ndim == 2:
        data = data.mean(axis=1)
    return TimeSignal(data)


def write_wav(path, sig: TimeSignal) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    wavfile.write(path, SAMPLE_RATE, sig.samples.astype(np.float32))
