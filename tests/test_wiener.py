import threading
from dataclasses import replace

import numpy as np
import pytest
from helpers import dense_normal_equations, lstsq_weighted, random_spectrogram

from refaec import Spectrogram, StftConfig, WienerConfig, solve_frame, wstws_cancel
from refaec import wiener
from refaec.wiener import lambda_weight, lambda_weights, stws_config


def _rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30)


def test_lambda_unit_modulus_window():
    cfg = StftConfig()
    data = np.ones((30, cfg.n_bins), dtype=complex)
    Y = Spectrogram(data, cfg)
    assert lambda_weight(Y, 20, 5, 10, 0.001) == pytest.approx(1.001, abs=1e-15)


def test_lambda_zero_current_unit():
    cfg = StftConfig()
    data = np.zeros((10, cfg.n_bins), dtype=complex)
    data[3, 7] = 2.0  # window max power 4
    Y = Spectrogram(data, cfg)
    assert lambda_weight(Y, 8, 7, 8, 0.001) == pytest.approx(0.004, abs=1e-15)


def test_lambda_all_zero_window_floor():
    cfg = StftConfig()
    Y = Spectrogram(np.zeros((10, cfg.n_bins), dtype=complex), cfg)
    assert lambda_weight(Y, 5, 0, 5, 0.001) == 1e-12


def test_lambda_weights_bulk_matches_single(rng):
    Y = random_spectrogram(rng, 40)
    Y.data[5:12, 3] = 0.0
    lam = lambda_weights(Y, 7, 0.001)
    for t in (0, 3, 8, 15, 39):
        for f in (0, 3, 100):
            assert lam[t, f] == pytest.approx(lambda_weight(Y, t, f, 7, 0.001), rel=1e-12)


def test_zero_excitation_returns_zero_filter_and_input_residual(rng):
    Y = random_spectrogram(rng, 25)
    X = Spectrogram(np.zeros_like(Y.data), Y.config)
    cfg = WienerConfig(taps=3, window_frames=8)
    h = solve_frame(Y, X, 10, 5, cfg)
    assert np.all(h == 0)
    residual, bank = wstws_cancel(Y, X, cfg)
    assert np.array_equal(residual.data, Y.data)
    assert bank.degenerate.all()


def test_single_tap_recovers_conjugate_scale(rng):
    X = random_spectrogram(rng, 40)
    c = 0.8 - 0.3j
    Y = X.like(c * X.data)
    # closed-form solution check, so regularization is switched off
    cfg = WienerConfig(taps=1, window_frames=16, diag_load=0.0)
    h = solve_frame(Y, X, 30, 50, cfg)
    assert abs(h[0] - np.conj(c)) / abs(c) < 1e-8


def test_solve_frame_matches_lstsq_oracle(rng):
    cfg = WienerConfig(taps=4, window_frames=16)
    Y = random_spectrogram(rng, 30)
    X = random_spectrogram(rng, 30)
    for t, f in [(0, 10), (7, 3), (20, 100), (29, 160)]:
        ours = solve_frame(Y, X, t, f, cfg)
        oracle = lstsq_weighted(Y, X, t, f, cfg)
        assert _rel_err(ours, oracle) < 1e-6


@pytest.mark.parametrize("taps", [1, 2, 4, 8, 20])
@pytest.mark.parametrize("window_mult", [1, 4])
def test_oracle_equivalence_property(rng, taps, window_mult):
    window = taps * window_mult
    for trial in range(6):
        n_frames = int(rng.integers(window + 2, 3 * window + 10))
        Y = random_spectrogram(rng, n_frames)
        X = random_spectrogram(rng, n_frames)
        cfg = WienerConfig(taps=taps, window_frames=window, weighted=bool(trial % 2))
        _, bank = wstws_cancel(Y, X, cfg)
        for _ in range(3):
            t = int(rng.integers(0, n_frames))
            f = int(rng.integers(0, Y.n_bins))
            oracle = dense_normal_equations(Y, X, t, f, cfg)
            assert _rel_err(bank.taps[t, f], oracle) < 1e-6
            assert _rel_err(solve_frame(Y, X, t, f, cfg), oracle) < 1e-6


def test_unloaded_solve_flags_exactly_the_rank_deficient_frames(rng):
    # without loading, frame t sees only t + 1 non-zero delays, so A is
    # singular for t < taps - 1 and (on random data) positive definite after
    taps, n_frames = 4, 60
    Y = random_spectrogram(rng, n_frames)
    X = random_spectrogram(rng, n_frames)
    cfg = WienerConfig(taps=taps, window_frames=16, diag_load=0.0)
    _, bank = wstws_cancel(Y, X, cfg)
    assert bank.degenerate[: taps - 1].all()
    assert not bank.degenerate[taps - 1 :].any()
    assert np.all(bank.taps[: taps - 1] == 0)
    for _ in range(12):
        t = int(rng.integers(2 * taps, n_frames))
        f = int(rng.integers(0, Y.n_bins))
        oracle = dense_normal_equations(Y, X, t, f, cfg)
        assert _rel_err(bank.taps[t, f], oracle) < 1e-6


def test_identity_path_cancellation(rng):
    X = random_spectrogram(rng, 60)
    cfg = WienerConfig(taps=2, window_frames=12)
    residual, _ = wstws_cancel(X, X, cfg)
    w = cfg.window_frames
    ratio = np.sum(np.abs(residual.data[w:]) ** 2) / np.sum(np.abs(X.data[w:]) ** 2)
    assert ratio <= 1e-10


def test_in_model_subband_echo_cancellation(rng):
    taps = 4
    n_frames = 120
    X = random_spectrogram(rng, n_frames)
    gains = rng.standard_normal((taps, X.n_bins)) + 1j * rng.standard_normal((taps, X.n_bins))
    data = np.zeros_like(X.data)
    for k in range(taps):
        shifted = np.zeros_like(X.data)
        shifted[k:] = X.data[: n_frames - k]
        data += gains[k] * shifted
    Y = X.like(data)
    cfg = WienerConfig(taps=taps, window_frames=24)
    residual, _ = wstws_cancel(Y, X, cfg)
    w = cfg.window_frames
    ratio = np.sum(np.abs(residual.data[w:]) ** 2) / np.sum(np.abs(Y.data[w:]) ** 2)
    assert ratio <= 1e-8


def test_causality_bit_identical_prefix(rng):
    n_frames = 30
    Y = random_spectrogram(rng, n_frames)
    X = random_spectrogram(rng, n_frames)
    cfg = WienerConfig(taps=3, window_frames=8)
    res_a, bank_a = wstws_cancel(Y, X, cfg)

    t_perturb = 20
    Y2 = Y.like(Y.data.copy())
    X2 = X.like(X.data.copy())
    Y2.data[t_perturb:] += 1.5 + 0.5j
    X2.data[t_perturb:] -= 0.7j
    res_b, bank_b = wstws_cancel(Y2, X2, cfg)

    assert np.array_equal(res_a.data[:t_perturb], res_b.data[:t_perturb])
    assert np.array_equal(bank_a.taps[:t_perturb], bank_b.taps[:t_perturb])


def _split_work(monkeypatch, chunk_bytes, workers):
    """Set the chunk budget (and with it the frame-bin floor) and the worker
    count; returns the ids of the threads that build window sums (one call per
    chunk)."""
    monkeypatch.setattr(wiener, "_CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(wiener, "_CHUNK_UNITS", chunk_bytes)
    monkeypatch.setattr(wiener, "_n_workers", lambda: workers)
    real = wiener._windowed_sums
    threads = []

    def recorded(cum, window_frames):
        threads.append(threading.get_ident())
        return real(cum, window_frames)

    monkeypatch.setattr(wiener, "_windowed_sums", recorded)
    return threads


def _zero_band_no_load(Y, X, cfg):
    # all-zero bins are flagged by the trace test; every other bin has a
    # non-positive pivot at its first frames
    X.data[:, 40:60] = 0.0
    return replace(cfg, diag_load=0.0)


@pytest.mark.parametrize(
    "variant",
    [
        lambda Y, X, cfg: cfg,
        lambda Y, X, cfg: stws_config(cfg),
        lambda Y, X, cfg: replace(cfg, lambda_mode="frozen"),
        _zero_band_no_load,
    ],
    ids=["weighted", "stws", "frozen", "zero_band_no_load"],
)
def test_outputs_independent_of_chunks_and_workers(rng, monkeypatch, variant):
    Y = random_spectrogram(rng, 40)
    X = random_spectrogram(rng, 40)
    cfg = variant(Y, X, WienerConfig(taps=3, window_frames=8))

    with monkeypatch.context() as m:
        threads = _split_work(m, 1 << 62, 1)
        res_a, bank_a = wstws_cancel(Y, X, cfg)
        assert len(threads) == 1
    with monkeypatch.context() as m:
        threads = _split_work(m, 1, 4)
        res_b, bank_b = wstws_cancel(Y, X, cfg)
        assert len(threads) == Y.n_bins
        assert len(set(threads)) > 1

    assert np.array_equal(res_a.data, res_b.data)
    assert np.array_equal(bank_a.taps, bank_b.taps)
    assert np.array_equal(bank_a.degenerate, bank_b.degenerate)
    if cfg.diag_load == 0.0:
        assert bank_b.degenerate[:, 40:60].all()
        assert bank_b.degenerate[:, :40].any() and not bank_b.degenerate[:, :40].all()


def test_causality_prefix_with_split_chunks(rng, monkeypatch):
    threads = _split_work(monkeypatch, 1, 3)
    test_causality_bit_identical_prefix(rng)
    assert len(threads) == 2 * StftConfig().n_bins


def test_weighted_equals_unweighted_for_constant_modulus(rng):
    n_frames = 40
    cfg_stft = StftConfig()
    phases = rng.uniform(0, 2 * np.pi, size=(n_frames, cfg_stft.n_bins))
    Y = Spectrogram(3.0 * np.exp(1j * phases), cfg_stft)
    X = random_spectrogram(rng, n_frames)
    weighted = WienerConfig(taps=3, window_frames=10, weighted=True)
    _, bank_w = wstws_cancel(Y, X, weighted)
    _, bank_u = wstws_cancel(Y, X, stws_config(weighted))
    denom = np.linalg.norm(bank_u.taps)
    assert np.linalg.norm(bank_w.taps - bank_u.taps) / denom < 1e-8


def test_frozen_lambda_mode_matches_direct_solve(rng):
    Y = random_spectrogram(rng, 25)
    X = random_spectrogram(rng, 25)
    cfg = WienerConfig(taps=2, window_frames=6, lambda_mode="frozen")
    _, bank = wstws_cancel(Y, X, cfg)
    for t, f in [(0, 4), (10, 50), (24, 160)]:
        assert _rel_err(bank.taps[t, f], solve_frame(Y, X, t, f, cfg)) < 1e-9


def test_residual_energy_monotone_in_taps(rng):
    true_taps = 4
    n_frames = 200
    X = random_spectrogram(rng, n_frames)
    gains = rng.standard_normal((true_taps, X.n_bins)) + 1j * rng.standard_normal(
        (true_taps, X.n_bins)
    )
    data = np.zeros_like(X.data)
    for k in range(true_taps):
        shifted = np.zeros_like(X.data)
        shifted[k:] = X.data[: n_frames - k]
        data += gains[k] * shifted
    Y = X.like(data)
    energies = []
    for taps in (1, 2, 4):
        cfg = WienerConfig(taps=taps, window_frames=32)
        residual, _ = wstws_cancel(Y, X, cfg)
        energies.append(np.sum(np.abs(residual.data[32:]) ** 2))
    assert energies[0] >= energies[1] >= energies[2]


def test_config_validation():
    with pytest.raises(ValueError):
        WienerConfig(taps=0)
    with pytest.raises(ValueError):
        WienerConfig(floor=0.0)
    with pytest.raises(ValueError):
        WienerConfig(diag_load=-1e-9)
    with pytest.raises(ValueError):
        WienerConfig(lambda_mode="sometimes")


def test_shape_mismatch_raises(rng):
    Y = random_spectrogram(rng, 10)
    X = random_spectrogram(rng, 12)
    with pytest.raises(ValueError):
        wstws_cancel(Y, X, WienerConfig(taps=1, window_frames=4))
