"""WAV input/output. All toolkit artifacts are 16 kHz mono 32-bit float RIFF,
which avoids quantization interacting with the metric floors; common PCM
inputs are accepted and scaled to [-1, 1] on read, and then multichannel
inputs are averaged to mono."""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .dsp import TimeSignal

# scale and offset that map each PCM sample type to [-1, 1]
_PCM = {
    np.dtype(np.int16): (32768.0, 0.0),
    np.dtype(np.int32): (2147483648.0, 0.0),
    np.dtype(np.uint8): (128.0, 128.0),
}


def read_wav(path) -> TimeSignal:
    rate, data = wavfile.read(path)
    scale, offset = _PCM.get(data.dtype, (1.0, 0.0))
    data = (data.astype(np.float64) - offset) / scale
    if data.ndim == 2:
        data = data.mean(axis=1)
    return TimeSignal(data, int(rate))


def write_wav(path, sig: TimeSignal) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    wavfile.write(path, sig.sample_rate, sig.samples.astype(np.float32))
