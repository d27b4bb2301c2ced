"""WAV input: PCM scaling, channel averaging and the 16 kHz gate."""

import re

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
    assert len(a) == len(mono)


def test_pcm_is_scaled_then_averaged(tmp_path):
    wavfile.write(tmp_path / "mono.wav", 16000, np.array([16384, -16384], dtype=np.int16))
    assert read_wav(tmp_path / "mono.wav").samples.tolist() == [0.5, -0.5]
    stereo = np.array([[16384, 0], [-32768, 16384]], dtype=np.int16)
    wavfile.write(tmp_path / "stereo.wav", 16000, stereo)
    assert read_wav(tmp_path / "stereo.wav").samples.tolist() == [0.25, -0.25]
    wavfile.write(tmp_path / "u8.wav", 16000, np.array([[192, 192], [0, 128]], dtype=np.uint8))
    assert read_wav(tmp_path / "u8.wav").samples.tolist() == [0.5, -0.5]


# 16 kHz is the toolkit's only rate, and read_wav is where it is checked
@pytest.mark.parametrize("rate", [8000, 44100])
def test_other_rates_are_refused_with_the_file_named(tmp_path, rate):
    path = tmp_path / "clip.wav"
    wavfile.write(path, rate, np.zeros(rate, dtype=np.float32))
    message = f"{path}: expected 16000 Hz, got {rate}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_wav(path)


@pytest.mark.parametrize("cut", [0, 14, 20], ids=["empty", "short_riff", "short_fmt"])
def test_unparseable_files_are_named_on_one_line(tmp_path, cut):
    whole = tmp_path / "whole.wav"
    wavfile.write(whole, 16000, np.zeros(100, dtype=np.float32))
    path = tmp_path / "cut.wav"
    path.write_bytes(whole.read_bytes()[:cut])
    with pytest.raises(ValueError) as err:
        read_wav(path)
    assert str(err.value).startswith(f"{path}: ")
    assert "\n" not in str(err.value)
