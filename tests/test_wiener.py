import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    delay_stack,
    dense_normal_equations,
    lambda_weight,
    lstsq_weighted,
    numpy_chunk_stack,
    numpy_windowed_sums,
    random_spectrogram,
)

from refaec import Spectrogram, StftConfig, WienerConfig, wstws_cancel
from refaec import wiener
from refaec.wiener import lambda_weights, stws_config


def _rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30)


def test_lambda_unit_modulus_window():
    cfg = StftConfig()
    data = np.ones((30, cfg.n_bins), dtype=complex)
    Y = Spectrogram(data, cfg)
    assert lambda_weights(Y.data.T, 10)[5, 20] == pytest.approx(1.001, abs=1e-15)


def test_lambda_zero_current_unit():
    cfg = StftConfig()
    data = np.zeros((10, cfg.n_bins), dtype=complex)
    data[3, 7] = 2.0  # window max power 4
    Y = Spectrogram(data, cfg)
    assert lambda_weights(Y.data.T, 8)[7, 8] == pytest.approx(0.004, abs=1e-15)


def test_lambda_all_zero_window_floor():
    cfg = StftConfig()
    Y = Spectrogram(np.zeros((10, cfg.n_bins), dtype=complex), cfg)
    assert lambda_weights(Y.data.T, 5)[0, 5] == 1e-12


def test_lambda_weights_bulk_matches_single(rng):
    Y = random_spectrogram(rng, 40)
    Y.data[5:12, 3] = 0.0
    lam = lambda_weights(Y.data.T, 7)
    for t in (0, 3, 8, 15, 39):
        for f in (0, 3, 100):
            assert lam[f, t] == pytest.approx(lambda_weight(Y, t, f, 7, 0.001), rel=1e-12)


def test_zero_excitation_returns_zero_filter_and_input_residual(rng):
    Y = random_spectrogram(rng, 25)
    X = Spectrogram(np.zeros_like(Y.data), Y.config)
    cfg = WienerConfig(taps=3, window_frames=8)
    residual, bank = wstws_cancel(Y, X, cfg)
    assert np.all(bank.taps[10, 5] == 0)
    assert np.array_equal(residual.data, Y.data)
    assert bank.degenerate.all()


def test_single_tap_recovers_conjugate_scale(rng):
    X = random_spectrogram(rng, 40)
    c = 0.8 - 0.3j
    Y = X.like(c * X.data)
    # closed-form solution check, so regularization is switched off
    cfg = WienerConfig(taps=1, window_frames=16, diag_load=0.0)
    _, bank = wstws_cancel(Y, X, cfg)
    h = bank.taps[30, 50]
    assert abs(h[0] - np.conj(c)) / abs(c) < 1e-8


def test_solve_frame_matches_lstsq_oracle(rng):
    cfg = WienerConfig(taps=4, window_frames=16)
    Y = random_spectrogram(rng, 30)
    X = random_spectrogram(rng, 30)
    _, bank = wstws_cancel(Y, X, cfg)
    # t = 0 sees a window truncated to one frame
    for t, f in [(0, 10), (7, 3), (20, 100), (29, 160)]:
        ours = bank.taps[t, f]
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


@pytest.mark.parametrize("weighted", [True, False])
def test_one_frame_one_tap_matches_dense_oracle(rng, weighted):
    # one frame and one tap: the bin slice of the (read-only) delay embedding
    # is already contiguous, and the solver must not conjugate it in place
    Y = random_spectrogram(rng, 1)
    X = random_spectrogram(rng, 1)
    x_before = X.data.copy()
    cfg = WienerConfig(taps=1, weighted=weighted)
    residual, bank = wstws_cancel(Y, X, cfg)
    assert np.array_equal(X.data, x_before)
    for f in range(Y.n_bins):
        oracle = dense_normal_equations(Y, X, 0, f, cfg)
        assert _rel_err(bank.taps[0, f], oracle) < 1e-12
    expected = Y.data - bank.taps[..., 0].conj() * X.data
    assert np.allclose(residual.data, expected, rtol=0, atol=1e-12)


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


def _record_build_sums(monkeypatch):
    """Returns the ids of the threads that build window sums (one call per
    chunk)."""
    real = wiener._build_sums
    threads = []

    def recorded(*args):
        threads.append(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(wiener, "_build_sums", recorded)
    return threads


def _split_work(monkeypatch, chunk_bytes, workers):
    """Set the chunk budget and the worker count; returns the ids of the
    threads that build window sums."""
    monkeypatch.setattr(wiener, "_CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(wiener, "_n_workers", lambda: workers)
    return _record_build_sums(monkeypatch)


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
        _zero_band_no_load,
    ],
    ids=["weighted", "stws", "zero_band_no_load"],
)
def test_outputs_independent_of_chunks_and_workers(rng, monkeypatch, variant):
    Y = random_spectrogram(rng, 40)
    X = random_spectrogram(rng, 40)
    cfg = variant(Y, X, WienerConfig(taps=3, window_frames=8))

    with monkeypatch.context() as m:
        threads = _split_work(m, 1 << 62, 1)
        res_a, bank_a = wstws_cancel(Y, X, cfg)
        assert len(threads) == 1
    # one-bin chunks on 4 workers
    with monkeypatch.context() as m:
        threads = _split_work(m, 1, 4)
        res_b, bank_b = wstws_cancel(Y, X, cfg)
        assert len(threads) == Y.n_bins
        assert len(set(threads)) > 1
    # uneven chunks on 3 workers: 16 chunks of 10 bins and one of 1
    bin_bytes = 16 * (cfg.taps * (cfg.taps + 3) // 2) * Y.n_frames
    with monkeypatch.context() as m:
        threads = _split_work(m, 10 * bin_bytes + bin_bytes // 2, 3)
        res_c, bank_c = wstws_cancel(Y, X, cfg)
        assert len(threads) == 17
        assert len(set(threads)) > 1

    # the taps are solved on first read, on a plan of the read's own: here the
    # whole band on one worker, not the call's one-bin chunks on 4
    with monkeypatch.context() as m:
        threads = _split_work(m, 1 << 62, 1)
        taps_b = bank_b.taps
        assert len(threads) == 1
    assert taps_b.shape == (Y.n_frames, Y.n_bins, cfg.taps)
    for res, bank in ((res_b, bank_b), (res_c, bank_c)):
        assert np.array_equal(res_a.data, res.data)
        assert np.array_equal(bank_a.taps, bank.taps)
        assert np.array_equal(bank_a.degenerate, bank.degenerate)
    if cfg.diag_load == 0.0:
        assert bank_b.degenerate[:, 40:60].all()
        assert bank_b.degenerate[:, :40].any() and not bank_b.degenerate[:, :40].all()


def test_weights_are_worked_out_once_per_call_on_the_calling_thread(rng, monkeypatch):
    Y = random_spectrogram(rng, 40)
    X = random_spectrogram(rng, 40)
    cfg = WienerConfig(taps=3, window_frames=8)
    real = wiener.lambda_weights
    weight_threads = []

    def recorded(*args):
        weight_threads.append(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(wiener, "lambda_weights", recorded)
    # one-bin chunks on 2 workers
    chunk_threads = _split_work(monkeypatch, 1, 2)
    wstws_cancel(Y, X, cfg)
    assert len(chunk_threads) == Y.n_bins and threading.get_ident() not in chunk_threads
    assert weight_threads == [threading.get_ident()]
    weight_threads.clear()
    wstws_cancel(Y, X, stws_config(cfg))
    assert weight_threads == []


def test_zero_frames_stop_before_the_solver(rng):
    Y = random_spectrogram(rng, 3)
    with pytest.raises(ValueError, match="with frames"):
        wstws_cancel(Y.like(Y.data[:0]), Y.like(Y.data[:0]), WienerConfig())


# the window reaches past the stream, a one-frame window, lengths that are
# and are not whole numbers of window_frames + 1
@pytest.mark.parametrize("n_frames, window", [(10, 12), (10, 9), (17, 1), (23, 4), (30, 5)])
def test_windowed_sums_are_sliding_window_sums(rng, n_frames, window):
    shape = (3, 5, n_frames)
    G = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    buf = G.copy()
    out = numpy_windowed_sums(buf, window)
    assert out is buf
    direct = np.stack(
        [G[..., max(0, t - window) : t + 1].sum(axis=-1) for t in range(n_frames)], axis=-1
    )
    assert np.allclose(out, direct, rtol=0, atol=1e-12)
    # frames t <= window see the whole stream so far: the running sums, bit for bit
    assert np.array_equal(out[..., : window + 1], np.cumsum(G, axis=-1)[..., : window + 1])


# bins per chunk on 161 bins and 2 CPUs
@pytest.mark.parametrize(
    "taps, n_frames, bins",
    [
        (1, 249, 81),
        (1, 599, 81),
        (6, 599, 12),
        (8, 249, 17),
        (20, 99, 8),
        (20, 599, 1),
        (20, 6000, 1),
    ],
)
def test_chunk_plan(taps, n_frames, bins):
    slices = wiener._chunk_slices(taps, n_frames, 161, 2)
    sizes = [s.stop - s.start for s in slices]
    assert sizes[0] == bins and max(sizes) == bins and min(sizes) > 0
    # the slices tile 0 ... n_bins in order
    assert [s.start for s in slices] + [161] == [0] + [s.stop for s in slices]
    # no chunk takes more than the budget, unless one bin alone does
    bin_bytes = 16 * (taps * (taps + 3) // 2) * n_frames
    assert bins * bin_bytes <= wiener._CHUNK_BYTES or bins == 1
    # two or more workers always get two or more chunks, down to the
    # smallest grid's 2 bins, so _solve needs no one-chunk case
    for workers in (2, 3, 4):
        for n_bins in (2, 3, 5, 161):
            assert len(wiener._chunk_slices(taps, n_frames, n_bins, workers)) >= 2


@pytest.mark.parametrize(
    "sl", [pytest.param(slice(79, 83), id="bins_79_82"), pytest.param(slice(None), id="all_bins")]
)
def test_chunk_stack_matches_delay_stack(rng, sl):
    n_frames, taps = 20, 5
    Y = random_spectrogram(rng, n_frames)
    X = random_spectrogram(rng, n_frames)
    bins = range(X.n_bins)[sl]
    xa, y = numpy_chunk_stack(X.data.T, Y.data.T, sl, taps)
    assert xa.shape == (taps + 1, len(bins), n_frames)
    for t in range(n_frames):
        for j, f in enumerate(bins):
            # X[t - k, f] at lag k, zero before frame 0
            assert np.array_equal(xa[:taps, j, t], delay_stack(X, t, f, taps))
    assert np.all(xa[1:taps, :, 0] == 0)
    assert np.array_equal(xa[taps], Y.data[:, sl].T)
    assert np.array_equal(y, Y.data[:, sl].T)
    # one tap is X itself
    xa1, _ = numpy_chunk_stack(X.data.T, Y.data.T, sl, 1)
    assert np.array_equal(xa1[0], X.data[:, sl].T)
    # more taps than frames: the late lags are all zero
    xa_short, _ = numpy_chunk_stack(X.data[:2].T, Y.data[:2].T, sl, taps)
    assert np.array_equal(xa_short[0], X.data[:2, sl].T)
    assert np.array_equal(xa_short[1, :, 1], X.data[0, sl])
    assert np.all(xa_short[1, :, 0] == 0) and np.all(xa_short[2:taps] == 0)


def test_causality_prefix_with_split_chunks(rng, monkeypatch):
    threads = _split_work(monkeypatch, 1, 3)
    test_causality_bit_identical_prefix(rng)
    # two calls, and a second solve for each bank's taps
    assert len(threads) == 4 * StftConfig().n_bins
    assert len(set(threads)) > 1


# one frame: X.data.T is already contiguous, so the call must copy it
@pytest.mark.parametrize("n_frames", [1, 30])
def test_taps_read_after_the_inputs_change_are_those_of_the_call(rng, n_frames):
    Y = random_spectrogram(rng, n_frames)
    X = random_spectrogram(rng, n_frames)
    cfg = WienerConfig(taps=3, window_frames=8)
    _, fresh = wstws_cancel(Y.like(Y.data.copy()), X.like(X.data.copy()), cfg)
    _, bank = wstws_cancel(Y, X, cfg)
    Y.data[:] = 1.0 - 2.0j
    X.data[:] = 0.0
    assert np.array_equal(bank.taps, fresh.taps)


def test_taps_are_solved_once(rng, monkeypatch):
    Y = random_spectrogram(rng, 20)
    X = random_spectrogram(rng, 20)
    _, bank = wstws_cancel(Y, X, WienerConfig(taps=2, window_frames=4))
    threads = _record_build_sums(monkeypatch)
    first = bank.taps
    calls = len(threads)
    assert calls > 0
    assert bank.taps is first
    assert len(threads) == calls


def test_call_builds_no_tap_tensor(rng, monkeypatch):
    # the [599, 161, 20] complex tap tensor alone is 30.9 MB
    monkeypatch.setattr(wiener, "_n_workers", lambda: 1)
    Y = random_spectrogram(rng, 599)
    X = random_spectrogram(rng, 599)
    tracemalloc.start()
    try:
        _, bank = wstws_cancel(Y, X, WienerConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6
    assert bank.taps.shape == (599, Y.n_bins, 20)


def test_weighted_bank_holds_no_more_than_unweighted(rng, monkeypatch):
    # a [bin, frame] float64 weight array held by the bank would be
    # 200 * 161 * 8 = 257.6 kB; the call works the weights out and drops them.
    # The interpreter's own small objects move either figure by some 100 B.
    monkeypatch.setattr(wiener, "_n_workers", lambda: 1)
    Y = random_spectrogram(rng, 200)
    X = random_spectrogram(rng, 200)
    weighted = WienerConfig(taps=2, window_frames=20)
    held = {}
    for cfg in (weighted, stws_config(weighted)):
        wstws_cancel(Y, X, cfg)  # warm-up: caches and first-call allocations
        tracemalloc.start()
        try:
            out = wstws_cancel(Y, X, cfg)
            held[cfg.weighted] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del out
    assert held[True] <= held[False] + 4096


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="window sums subtract running sums, and the 1e12 weights of a silent "
    "mic prefix swamp the frames after it (worst error 1.9e-3)",
)
def test_silent_mic_prefix_matches_dense_oracle(rng):
    stft = StftConfig(window_len=28, hop=14)  # 15 bins
    Y = random_spectrogram(rng, 120, stft)
    X = random_spectrogram(rng, 120, stft)
    Y.data[:40] = 0.0
    cfg = WienerConfig(taps=4, window_frames=20)
    _, bank = wstws_cancel(Y, X, cfg)
    worst = max(
        _rel_err(bank.taps[t, f], dense_normal_equations(Y, X, t, f, cfg))
        for t in range(Y.n_frames)
        for f in range(Y.n_bins)
    )
    assert worst <= 1e-8


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: window sums subtract running sums from frame 0, and the "
    "far end's first 30 s leave round-off that swamps the 120 dB quieter windows",
)
def test_quiet_far_end_after_a_long_stream_matches_dense_oracle(rng):
    # the unweighted route, so no weight of a silent unit is involved
    stft = StftConfig(window_len=28, hop=14)  # 15 bins
    n_frames, late = 6000, 30  # 60 s of 10 ms frames
    Y = random_spectrogram(rng, n_frames, stft)
    X = random_spectrogram(rng, n_frames, stft)
    X.data[n_frames // 2 :] *= 1e-6
    cfg = WienerConfig(taps=4, window_frames=200, weighted=False)
    _, bank = wstws_cancel(Y, X, cfg)
    worst = max(
        _rel_err(bank.taps[t, f], dense_normal_equations(Y, X, t, f, cfg))
        for t in range(n_frames - late, n_frames)
        for f in range(Y.n_bins)
    )
    assert worst <= 1e-6


# ROADMAP item 7: scaling by a power of two is exact in floating point, so
# wstws_cancel(alpha Y, beta X) returns alpha times the residual and the taps
# times alpha / beta, bit for bit, unless a unit's whole window is silent
@pytest.mark.parametrize(
    "alpha, beta, silent, weighted",
    [
        *(
            pytest.param(alpha, beta, 0, weighted, id=f"{name}-{route}")
            for name, alpha, beta in (
                ("alpha_4^5", 4.0**5, 1.0),
                ("beta_4^-7", 1.0, 4.0**-7),
                ("alpha_4^-20_beta_4^12", 4.0**-20, 4.0**12),
                ("alpha_2", 2.0, 1.0),
            )
            for route, weighted in (("weighted", True), ("unweighted", False))
        ),
        pytest.param(2.0, 1.0, 40, False, id="silent_mic-unweighted"),
        pytest.param(
            2.0, 1.0, 40, True, id="silent_mic-weighted",
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="ROADMAP item 7: a unit whose whole window is silent gets the "
                "absolute weight 1 / WEIGHT_FLOOR, which does not scale with the mic",
            ),
        ),
    ],
)
def test_power_of_two_scaling_is_exact(rng, alpha, beta, silent, weighted):
    Y = random_spectrogram(rng, 120)
    X = random_spectrogram(rng, 120)
    Y.data[:silent] = 0.0
    cfg = WienerConfig(taps=4, window_frames=16, weighted=weighted)
    residual, bank = wstws_cancel(Y, X, cfg)
    scaled, scaled_bank = wstws_cancel(Y.like(alpha * Y.data), X.like(beta * X.data), cfg)
    assert np.array_equal(scaled.data, alpha * residual.data)
    assert np.array_equal(scaled_bank.taps, alpha / beta * bank.taps)
    assert np.array_equal(scaled_bank.degenerate, bank.degenerate)


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
        WienerConfig(diag_load=-1e-9)


# sizes are whole numbers: a float or a bool fails here, not deep in the solver
@pytest.mark.parametrize(
    "field, value",
    [("taps", 2.5), ("window_frames", 7.5), ("taps", True)],
)
def test_config_rejects_non_integer_sizes(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value}$"):
        WienerConfig(**{field: value})


def test_config_accepts_numpy_integers():
    cfg = WienerConfig(taps=np.int64(4), window_frames=np.int32(24))
    assert (cfg.taps, cfg.window_frames) == (4, 24)


@pytest.mark.parametrize(
    "field, value",
    [("diag_load", float("nan")), ("diag_load", float("inf"))],
)
def test_config_rejects_non_finite_settings(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite and >= 0, got {value}$"):
        WienerConfig(**{field: value})


def test_shape_mismatch_raises(rng):
    Y = random_spectrogram(rng, 10)
    X = random_spectrogram(rng, 12)
    cfg = WienerConfig(taps=1, window_frames=4)
    with pytest.raises(ValueError, match="^spectrograms disagree on shape or grid: .* vs .*$"):
        wstws_cancel(Y, X, cfg)
    # the same shape on another grid: half the hop
    other = Spectrogram(random_spectrogram(rng, 10).data, StftConfig(hop=80))
    with pytest.raises(ValueError, match="^spectrograms disagree on shape or grid: .* vs .*$"):
        wstws_cancel(Y, other, cfg)
