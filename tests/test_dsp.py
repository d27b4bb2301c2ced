import dataclasses
import inspect
import re

import numpy as np
import pytest
from helpers import frame_loop_istft, speech_like

import refaec
from refaec import Spectrogram, StftConfig, TimeSignal, stft_forward, stft_inverse


def test_zero_signal_gives_zero_spectrogram():
    spec = stft_forward(TimeSignal(np.zeros(16000)))
    assert np.all(spec.data == 0)


def test_frame_and_bin_counts_at_defaults():
    spec = stft_forward(TimeSignal(np.zeros(96000)))  # 6 s at 16 kHz
    assert spec.n_frames == 599
    assert spec.n_bins == 161


def test_no_implicit_padding():
    cfg = StftConfig()
    # one extra hop worth of samples minus one: frame count must not change
    spec = stft_forward(TimeSignal(np.zeros(320 + 160 - 1)), cfg)
    assert spec.n_frames == 1
    spec = stft_forward(TimeSignal(np.zeros(320 + 160)), cfg)
    assert spec.n_frames == 2


def test_signal_shorter_than_window_raises():
    with pytest.raises(ValueError):
        stft_forward(TimeSignal(np.zeros(100)))


def test_bin_centered_sinusoid_concentration(rng):
    cfg = StftConfig()
    fs = 16000
    k0 = 20  # exact bin center: k0 * fs / window_len = 1000 Hz
    n = np.arange(fs)
    sig = TimeSignal(np.cos(2 * np.pi * k0 * n / cfg.window_len))
    spec = stft_forward(sig, cfg)

    # oracle: direct DFT of one hand-windowed frame
    frame = sig.samples[: cfg.window_len] * cfg.analysis_window()
    oracle_row = np.array(
        [np.sum(frame * np.exp(-2j * np.pi * k * np.arange(cfg.window_len) / cfg.window_len))
         for k in range(cfg.n_bins)]
    )
    assert np.linalg.norm(spec.data[0] - oracle_row) / np.linalg.norm(oracle_row) < 1e-10

    energy = np.abs(spec.data) ** 2
    per_frame = energy.sum(axis=1)
    center_frac = energy[:, k0] / per_frame
    lobe_frac = energy[:, k0 - 1 : k0 + 2].sum(axis=1) / per_frame
    # the Hamming window puts 73.4% of the energy in the center bin and
    # essentially all of it within the 3-bin main lobe (oracle-computed)
    assert np.all(np.abs(center_frac - 0.73377) < 2e-3)
    assert np.all(lobe_frac > 0.999)


def test_round_trip_white_noise_interior(rng):
    cfg = StftConfig()
    sig = TimeSignal(rng.standard_normal(96000))
    back = stft_inverse(stft_forward(sig, cfg))
    n_frames = cfg.n_frames(len(sig))
    lo, hi = cfg.window_len - cfg.hop, n_frames * cfg.hop
    err = np.linalg.norm(back.samples[lo:hi] - sig.samples[lo:hi])
    assert err / np.linalg.norm(sig.samples[lo:hi]) <= 1e-6


def test_round_trip_speech_shaped_half_window_hop(rng):
    cfg = StftConfig(window_len=320, hop=160)
    sig = speech_like(rng, 32000)
    back = stft_inverse(stft_forward(sig, cfg))
    lo, hi = cfg.window_len - cfg.hop, cfg.n_frames(len(sig)) * cfg.hop
    err = np.linalg.norm(back.samples[lo:hi] - sig.samples[lo:hi])
    assert err / np.linalg.norm(sig.samples[lo:hi]) <= 1e-6


def test_round_trip_quarter_window_hop(rng):
    cfg = StftConfig(window_len=320, hop=80)
    sig = TimeSignal(rng.standard_normal(20000))
    back = stft_inverse(stft_forward(sig, cfg))
    lo, hi = cfg.window_len - cfg.hop, cfg.n_frames(len(sig)) * cfg.hop
    err = np.linalg.norm(back.samples[lo:hi] - sig.samples[lo:hi])
    assert err / np.linalg.norm(sig.samples[lo:hi]) <= 1e-6


@pytest.mark.parametrize("window_len,hop", [(320, 160), (320, 80), (28, 14), (320, 100), (30, 7)])
def test_inverse_matches_frame_loop_overlap_add(rng, window_len, hop):
    cfg = StftConfig(window_len=window_len, hop=hop)
    n_frames = 37
    data = rng.standard_normal((n_frames, cfg.n_bins)) + 1j * rng.standard_normal(
        (n_frames, cfg.n_bins)
    )
    spec = Spectrogram(data, cfg)
    assert np.array_equal(stft_inverse(spec).samples, frame_loop_istft(spec))


def test_zero_spectrogram_inverts_to_zero():
    cfg = StftConfig()
    spec = Spectrogram(np.zeros((10, cfg.n_bins), dtype=complex), cfg)
    assert np.all(stft_inverse(spec).samples == 0)


def test_inconsistent_spectrogram_shape_raises():
    cfg = StftConfig()
    with pytest.raises(ValueError):
        Spectrogram(np.zeros((10, cfg.n_bins + 1), dtype=complex), cfg)


@pytest.mark.parametrize(
    "settings, message",
    [
        pytest.param({"window_len": 321}, "window_len must be a positive even", id="odd_window"),
        pytest.param({"hop": 0}, "hop must satisfy 0 < hop <= window_len", id="zero_hop"),
        pytest.param({"hop": 400}, "hop must satisfy 0 < hop <= window_len", id="hop_over_window"),
        # sizes are whole numbers: a float fails here, not deep in the STFT
        pytest.param({"window_len": 320.0}, "window_len must be an integer", id="float_window"),
        pytest.param({"hop": 160.0}, "hop must be an integer, got 160.0", id="float_hop"),
    ],
)
def test_config_validation(settings, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}") as err:
        StftConfig(**settings)
    assert "\n" not in str(err.value)


# 16 kHz is the toolkit's only rate: read_wav checks it, and nothing else
# takes or carries one
def test_no_public_name_takes_a_sample_rate():
    for name in refaec.__all__:
        obj = getattr(refaec, name)
        methods = list(vars(obj).values()) if inspect.isclass(obj) else []
        for fn in [obj, *methods]:
            if inspect.isfunction(fn) or inspect.isclass(fn):
                assert "sample_rate" not in inspect.signature(fn).parameters, (name, fn)
    for container in (TimeSignal, Spectrogram):
        assert "sample_rate" not in {f.name for f in dataclasses.fields(container)}
    with pytest.raises(TypeError):
        TimeSignal(np.zeros(320), 16000)
    with pytest.raises(TypeError):
        Spectrogram(np.zeros((1, 161)), StftConfig(), 16000)


def test_config_accepts_numpy_integers():
    cfg = StftConfig(window_len=np.int64(320), hop=np.int32(160))
    assert (cfg.window_len, cfg.hop, cfg.n_bins) == (320, 160, 161)


def test_zero_frame_spectrogram_raises():
    cfg = StftConfig()
    with pytest.raises(ValueError, match="with frames"):
        Spectrogram(np.zeros((0, cfg.n_bins), dtype=complex), cfg)


def test_linearity(rng):
    cfg = StftConfig()
    x = TimeSignal(rng.standard_normal(8000))
    y = TimeSignal(rng.standard_normal(8000))
    a, b = 1.7, -0.4
    combined = stft_forward(TimeSignal(a * x.samples + b * y.samples), cfg)
    separate = a * stft_forward(x, cfg).data + b * stft_forward(y, cfg).data
    err = np.linalg.norm(combined.data - separate) / np.linalg.norm(separate)
    assert err < 1e-10


def test_parseval_per_frame(rng):
    cfg = StftConfig()
    sig = TimeSignal(rng.standard_normal(8000))
    spec = stft_forward(sig, cfg)
    win = cfg.analysis_window()
    n = cfg.window_len
    for t in (0, 3, spec.n_frames - 1):
        frame = sig.samples[t * cfg.hop : t * cfg.hop + n] * win
        time_energy = np.sum(frame**2)
        row = np.abs(spec.data[t]) ** 2
        freq_energy = (row[0] + 2 * row[1:-1].sum() + row[-1]) / n
        assert abs(time_energy - freq_energy) / time_energy < 1e-8


def test_round_trip_property_random_lengths(rng):
    cfg = StftConfig()
    for _ in range(10):
        n = int(rng.integers(cfg.window_len, 12000))
        sig = TimeSignal(rng.standard_normal(n))
        back = stft_inverse(stft_forward(sig, cfg))
        n_frames = cfg.n_frames(n)
        lo, hi = cfg.window_len - cfg.hop, n_frames * cfg.hop
        if hi <= lo:
            continue
        err = np.linalg.norm(back.samples[lo:hi] - sig.samples[lo:hi])
        assert err / max(np.linalg.norm(sig.samples[lo:hi]), 1e-30) <= 1e-6
