"""WAV input: PCM scaling and channel averaging."""

import numpy as np
import pytest
from scipy.io import wavfile

from refaec.wavio import read_wav

SAMPLES = {
    np.int16: [0, 16384, -32768, 32767, -1],
    np.int32: [0, 1 << 30, -(1 << 31), (1 << 31) - 1, -1],
    np.uint8: [0, 128, 192, 255, 1],
    np.float32: [0.0, 0.5, -1.0, 0.25, -0.125],
}


@pytest.mark.parametrize("dtype", list(SAMPLES), ids=lambda d: d.__name__)
def test_stereo_with_equal_channels_reads_like_mono(tmp_path, dtype):
    mono = np.array(SAMPLES[dtype], dtype=dtype)
    wavfile.write(tmp_path / "mono.wav", 16000, mono)
    wavfile.write(tmp_path / "stereo.wav", 16000, np.stack([mono, mono], axis=1))
    a = read_wav(tmp_path / "mono.wav")
    b = read_wav(tmp_path / "stereo.wav")
    assert a.samples.dtype == b.samples.dtype == np.float64
    assert np.array_equal(a.samples, b.samples)
    assert a.sample_rate == b.sample_rate == 16000


def test_pcm_is_scaled_then_averaged(tmp_path):
    wavfile.write(tmp_path / "mono.wav", 16000, np.array([16384, -16384], dtype=np.int16))
    assert read_wav(tmp_path / "mono.wav").samples.tolist() == [0.5, -0.5]
    stereo = np.array([[16384, 0], [-32768, 16384]], dtype=np.int16)
    wavfile.write(tmp_path / "stereo.wav", 16000, stereo)
    assert read_wav(tmp_path / "stereo.wav").samples.tolist() == [0.25, -0.25]
    wavfile.write(tmp_path / "u8.wav", 16000, np.array([[192, 192], [0, 128]], dtype=np.uint8))
    assert read_wav(tmp_path / "u8.wav").samples.tolist() == [0.5, -0.5]
