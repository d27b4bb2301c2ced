"""The solver kernel's two entries against their numpy statements in
helpers: solve_bins, which makes the window sums of the augmented products,
the factor-and-solve and the residual of each bin a tile of frames at a time,
against the composition of the statements of those phases; and factor_solve,
the factor-and-solve alone, on hand-built augmented buffers."""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    dense_normal_equations,
    numpy_chunk_stack,
    numpy_complex_multiply_is_fused,
    numpy_factor_solve,
    numpy_products,
    numpy_residual,
    numpy_windowed_sums,
    random_spectrogram,
    window_normal_equations,
)

from refaec import Spectrogram, StftConfig, WienerConfig, _factor, wstws_cancel
from refaec.wiener import lambda_weights, stws_config

SRC = Path(__file__).resolve().parent.parent / "src"


def _rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30)


def _pack(A, b):
    """One unit's augmented buffer: row i is A[i, i:] followed by b[i]."""
    return np.concatenate([np.append(A[i, i:], b[i]) for i in range(len(b))])


def _unpack(g, taps):
    """One unit's Hermitian A and b from its augmented buffer."""
    A = np.zeros((taps, taps), dtype=complex)
    b = np.zeros(taps, dtype=complex)
    start = 0
    for i in range(taps):
        A[i, i:] = g[start : start + taps - i]
        b[i] = g[start + taps - i]
        start += taps + 1 - i
    return np.triu(A) + np.triu(A, 1).conj().T, b


def _solve_units(G, taps, diag_load):
    """The taps [taps, unit...] and the degenerate mask [unit...] of the
    kernel's factor_solve on G, [entry, unit...]; G is read, not written."""
    rows = taps * (taps + 3) // 2
    if len(G) != rows:
        raise ValueError(f"{taps} taps take {rows} entries per unit, got {len(G)}")
    h = np.empty(G.shape[1:] + (taps,), dtype=np.complex128)
    bad = np.empty(G.shape[1:], dtype=bool)
    _factor.kernel().factor_solve(G, diag_load, h, bad, taps, bad.size)
    return np.moveaxis(h, -1, 0), bad


def _random_units(rng, taps, n_units):
    """Random Hermitian positive definite systems, stacked as [entry, unit]."""
    systems = []
    for _ in range(n_units):
        M = rng.standard_normal((2 * taps, taps)) + 1j * rng.standard_normal((2 * taps, taps))
        b = rng.standard_normal(taps) + 1j * rng.standard_normal(taps)
        systems.append((M.conj().T @ M, b))
    return systems, np.stack([_pack(A, b) for A, b in systems], axis=1)


@pytest.mark.parametrize("taps", [1, 4, 20])
@pytest.mark.parametrize("weighted", [True, False])
def test_factor_solve_matches_dense_oracle(rng, taps, weighted):
    stft = StftConfig(window_len=28, hop=14)  # 15 bins
    n_frames = 3 * taps + 10
    Y = random_spectrogram(rng, n_frames, stft)
    X = random_spectrogram(rng, n_frames, stft)
    cfg = WienerConfig(taps=taps, window_frames=2 * taps, weighted=weighted)
    # t = 0 and t = 1 see truncated windows
    units = [(0, 3), (1, 14), (taps, 0), (2 * taps + 3, 7), (n_frames - 1, 11)]
    G = np.stack([_pack(*window_normal_equations(Y, X, t, f, cfg)) for t, f in units], axis=1)
    h, degenerate = _solve_units(G, taps, cfg.diag_load)
    assert h.shape == (taps, len(units))
    assert not degenerate.any()
    for u, (t, f) in enumerate(units):
        assert _rel_err(h[:, u], dense_normal_equations(Y, X, t, f, cfg)) < 1e-6


def test_factor_solve_is_the_same_on_any_unit_shape(rng):
    # [entry, bin, frame] and its [entry, unit] reshape give the same bits
    taps = 3
    _, G = _random_units(rng, taps, 12)
    flat = _solve_units(G.copy(), taps, 1e-6)
    cube = _solve_units(G.reshape(len(G), 3, 4).copy(), taps, 1e-6)
    for a, b in zip(flat, cube):
        assert np.array_equal(a, b.reshape(a.shape))


def _zero_trace(A, b):
    return np.zeros_like(A), b


def _negative_first_pivot(A, b):
    A = A.copy()
    A[0, :] = A[:, 0] = 0.0
    A[0, 0] = -1.0
    return A, b


def _negative_later_pivot(A, b):
    # positive trace and first pivot; the second pivot is 1 - 4 = -3
    A = np.eye(len(b), dtype=complex)
    A[0, 1] = A[1, 0] = 2.0
    return A, b


def _nan_entry(A, b):
    A = A.copy()
    A[0, 2] = np.nan
    A[2, 0] = np.nan
    return A, b


def _inf_rhs(A, b):
    b = b.copy()
    b[1] = np.inf
    return A, b


def _imaginary_tap_overflow(A, b):
    # finite and positive throughout the elimination, but tap 0's last step,
    # 1e160j * 1e150, overflows in its imaginary part alone
    return 1e-300 * np.eye(len(b), dtype=complex), np.array([1e10j] + [1.0] * (len(b) - 1))


@pytest.mark.parametrize(
    "spoil",
    [_zero_trace, _negative_first_pivot, _negative_later_pivot, _nan_entry, _inf_rhs,
     _imaginary_tap_overflow],
    ids=["zero_trace", "negative_first_pivot", "negative_later_pivot", "nan_entry", "inf_rhs",
         "imaginary_tap_overflow"],
)
def test_factor_solve_flags_and_zeroes_a_degenerate_unit(rng, spoil):
    taps = 3
    systems, _ = _random_units(rng, taps, 3)
    systems[1] = spoil(*systems[1])
    G = np.stack([_pack(A, b) for A, b in systems], axis=1)
    h, degenerate = _solve_units(G, taps, 1e-6)
    assert degenerate.tolist() == [False, True, False]
    assert np.all(h[:, 1] == 0)
    for u in (0, 2):
        A, b = systems[u]
        loaded = A + 1e-6 * A.trace().real / taps * np.eye(taps)
        assert _rel_err(h[:, u], np.linalg.solve(loaded, b)) < 1e-10


def _window_sums(rng, taps):
    """Weighted window sums of random spectrograms, [entry, unit], by their
    numpy statement: 3 bins of taps + 45 frames over a taps + 10 frame window,
    so more than two tiles of units, truncated windows and frames of rank
    below taps."""
    n_bins, n_frames, window = 3, taps + 45, taps + 10
    xt, yt = (rng.standard_normal((n_bins, n_frames, 2)).view(complex)[..., 0] for _ in range(2))
    xa, _ = numpy_chunk_stack(xt, yt, slice(None), taps)
    G = numpy_windowed_sums(numpy_products(xa, 1.0 / lambda_weights(yt, window)), window)
    return G.reshape(len(G), -1)


def _assert_matches_numpy_statement(got, expected):
    """The kernel's output against its numpy statement: the same bits where
    numpy rounds complex products as the kernel does, and within criterion
    1's bound where it does not."""
    if numpy_complex_multiply_is_fused():
        assert got.tobytes() == expected.tobytes()
    else:
        assert _rel_err(got, expected) < 1e-6


def _assert_kernel_matches_numpy(G, taps, diag_load):
    kernel = _solve_units(G.copy(), taps, diag_load)
    oracle = numpy_factor_solve(G.copy(), taps, diag_load)
    h, bad = kernel
    if numpy_complex_multiply_is_fused():
        for got, expected in zip(kernel, oracle):
            assert got.tobytes() == expected.tobytes()
    elif diag_load:
        # Another rounding moves the taps of ill-conditioned units by far more
        # than 1e-12, and at diag_load 0 it decides the sign of pivots that
        # are round-off, so only the flags of loaded systems must agree.
        assert np.array_equal(bad, oracle[1])
    # on any host, each solved unit meets its loaded equations
    for u in np.flatnonzero(~bad):
        A, b = _unpack(G[:, u], taps)
        A += diag_load * A.trace().real / taps * np.eye(taps)
        scale = np.linalg.norm(A) * np.linalg.norm(h[:, u]) + np.linalg.norm(b)
        assert np.linalg.norm(A @ h[:, u] - b) <= 1e-12 * scale


@pytest.mark.parametrize("diag_load", [0.0, 1e-6])
@pytest.mark.parametrize("taps", [1, 2, 8, 20, 64])
def test_kernel_matches_the_numpy_elimination(rng, taps, diag_load):
    G = _window_sums(rng, taps)
    _assert_kernel_matches_numpy(G, taps, diag_load)


@pytest.mark.parametrize(
    "spoil",
    [_zero_trace, _negative_first_pivot, _negative_later_pivot, _nan_entry, _inf_rhs,
     _imaginary_tap_overflow],
    ids=["zero_trace", "negative_first_pivot", "negative_later_pivot", "nan_entry", "inf_rhs",
         "imaginary_tap_overflow"],
)
def test_kernel_matches_the_numpy_elimination_on_a_degenerate_unit(rng, spoil):
    taps = 3
    systems, _ = _random_units(rng, taps, 3)
    systems[1] = spoil(*systems[1])
    G = np.stack([_pack(A, b) for A, b in systems], axis=1)
    _assert_kernel_matches_numpy(G, taps, 1e-6)


# the stws route of a 20-tap canceller
DISPATCH_CFG = WienerConfig(taps=20, window_frames=40, weighted=False)


def _dispatch_digest(G, Y, X, taps):
    """One digest of factor_solve's outputs on G, at diag_load 0 and 1e-6,
    and of the residual, taps and flags of wstws_cancel(Y, X, DISPATCH_CFG)."""
    digest = hashlib.sha256()
    for load in (0.0, 1e-6):
        for out in _solve_units(G, taps, load):
            digest.update(out.tobytes())
    residual, bank = wstws_cancel(Y, X, DISPATCH_CFG)
    for out in (residual.data, bank.taps, bank.degenerate):
        digest.update(out.tobytes())
    return digest.hexdigest()


@pytest.mark.skipif(platform.machine() != "x86_64", reason="the features disabled are x86's")
def test_kernel_bits_do_not_follow_numpy_dispatch(rng, tmp_path):
    # numpy's complex multiply without AVX-512 or AVX2/FMA rounds otherwise;
    # the window sums and spectrograms are saved so that both processes take
    # the same bits. X's silent bins are flagged.
    taps = 20
    stft = StftConfig(window_len=28, hop=14)  # 15 bins
    Y, X = (random_spectrogram(rng, 120, stft) for _ in range(2))
    X.data[:, 5:7] = 0.0
    np.save(tmp_path / "G.npy", _window_sums(rng, taps))
    np.save(tmp_path / "Y.npy", Y.data)
    np.save(tmp_path / "X.npy", X.data)
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from test_solver_phases import _dispatch_digest\n"
        "from refaec import Spectrogram, StftConfig\n"
        "Y, X = (Spectrogram(np.load(f'{sys.argv[1]}/{n}.npy'), StftConfig(window_len=28, hop=14))\n"
        "        for n in 'YX')\n"
        "print(_dispatch_digest(np.load(f'{sys.argv[1]}/G.npy'), Y, X, int(sys.argv[2])))\n"
    )
    tests = Path(__file__).resolve().parent
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(SRC), str(tests), os.environ.get("PYTHONPATH", "")]),
        "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR X86_V3",
    }
    there = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path), str(taps)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert there.returncode == 0, there.stderr
    here = _dispatch_digest(np.load(tmp_path / "G.npy"), Y, X, taps)
    assert there.stdout.strip() == here


def test_products_match_a_direct_loop(rng):
    taps, shape = 4, (3, 7)  # 3 bins, 7 frames
    xa = rng.standard_normal((taps + 1,) + shape) + 1j * rng.standard_normal((taps + 1,) + shape)
    w = rng.uniform(0.1, 2.0, shape)
    original = xa.copy()
    G = numpy_products(xa, w)
    assert np.array_equal(xa, original.conj())  # conjugated in place
    rows = []
    for i in range(taps):
        for j in range(i, taps + 1):  # j = taps is y, the entry of b[i]
            rows.append((w * original[i]) * np.conj(original[j]))
    assert np.array_equal(G, np.stack(rows))


def _solve_bins(xt, yt, weights, taps, window, diag_load):
    """The residual and the degenerate mask [bin, frame] and the taps
    [taps, bin, frame] of one solve_bins call on X, Y and the weights,
    [bin, frame]."""
    n_bins, n_frames = xt.shape
    res = np.empty((n_frames, n_bins), dtype=np.complex128)
    bad = np.empty(res.shape, dtype=bool)
    h = np.empty(res.shape + (taps,), dtype=np.complex128)
    _factor.kernel().solve_bins(xt, yt, weights, diag_load, res, bad, h, taps, window,
                                n_bins, n_frames, n_bins)
    return res.T, bad.T, h.transpose(2, 1, 0)


def _numpy_solve_bins(xt, yt, weights, taps, window, diag_load):
    """_solve_bins' outputs by the composition of the numpy statements of its
    phases: the delay stack, the products, the window sums, the load and
    elimination, and the residual."""
    xa, y = numpy_chunk_stack(xt, yt, slice(None), taps)
    G = numpy_windowed_sums(numpy_products(xa, weights), window)
    h, bad = numpy_factor_solve(G, taps, diag_load)
    # numpy_products left xa conjugated: the stack that numpy_residual takes
    return numpy_residual(h, xa[:taps], y), bad, h


def _assert_bins_match_the_oracles(xt, yt, cfg, got, numpy_weights):
    """solve_bins' outputs got: the bits of the numpy composition on a host
    where numpy rounds complex products as the kernel does, and on any host
    taps within criterion 1's bound of the dense oracle, zero taps and y
    passed through on flagged units, and the residual of the taps."""
    res, bad, h = got
    if numpy_complex_multiply_is_fused():
        expected = _numpy_solve_bins(xt, yt, numpy_weights, cfg.taps, cfg.window_frames,
                                     cfg.diag_load)
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()
    n_bins, n_frames = xt.shape
    stft = StftConfig(window_len=2 * n_bins - 2, hop=1)
    Y, X = Spectrogram(yt.T, stft), Spectrogram(xt.T, stft)
    for f in range(n_bins):
        for t in range(n_frames):
            if bad[f, t]:
                assert np.all(h[:, f, t] == 0) and res[f, t] == yt[f, t]
            else:
                assert _rel_err(h[:, f, t], dense_normal_equations(Y, X, t, f, cfg)) < 1e-6
    expected = yt.copy()
    for k in range(min(cfg.taps, n_frames)):  # lags past the stream read zeros
        expected[:, k:] -= h[k, :, k:].conj() * xt[:, : n_frames - k]
    assert np.allclose(res, expected, rtol=1e-13, atol=1e-13)


# the window reaches past the stream, a one-frame window, lengths that are
# and are not whole numbers of window_frames + 1; one tap, and more taps
# than frames. The name is that of the test of the window sums alone, which
# solve_bins now makes inside each tile: they are checked through its outputs.
@pytest.mark.parametrize(
    "taps, n_frames, window", [(2, 10, 12), (3, 10, 9), (1, 17, 1), (4, 23, 4), (2, 30, 5), (12, 9, 3)]
)
@pytest.mark.parametrize("weighted", [True, False])
def test_build_sums_match_the_numpy_statement(rng, taps, n_frames, window, weighted):
    n_bins = 3
    xt, yt = (rng.standard_normal((n_bins, n_frames, 2)).view(complex)[..., 0] for _ in range(2))
    xt[1, :4] = 0.0  # zero frames, and a delay stack that reads them
    cfg = WienerConfig(taps=taps, window_frames=window, weighted=weighted)
    weights = 1.0 / lambda_weights(yt, window) if weighted else np.ones(yt.shape)
    got = _solve_bins(xt, yt, weights, taps, window, cfg.diag_load)
    assert got[1][1, 0]  # bin 1's first frame sums to zero
    # the unweighted route's numpy statement multiplies by the scalar 1.0
    _assert_bins_match_the_oracles(xt, yt, cfg, got, weights if weighted else 1.0)


def test_residual_subtracts_the_prediction(rng):
    taps, n_bins, n_frames = 3, 2, 40
    x, y = (rng.standard_normal((n_bins, n_frames, 2)).view(complex)[..., 0] for _ in range(2))
    x[1, :5] = 0.0  # flagged: the first frames of bin 1 sum to zero
    y[1, 2] = complex(-0.0, -0.0)
    res, bad, h = _solve_bins(x, y, np.ones(x.shape), taps, 8, 1e-6)
    assert bad[1, :5].all() and not bad[:, 5:].any()
    expected = y.copy()
    for k in range(taps):
        expected[:, k:] -= h[k, :, k:].conj() * x[:, : n_frames - k]
    assert np.allclose(res, expected, rtol=1e-13, atol=1e-13)
    # a zero filter passes y through, bit for bit
    assert np.array_equal(res[1, :5], y[1, :5])
    assert np.array_equal(np.signbit(res[1, 2:3].view(float)), np.signbit(y[1, 2:3].view(float)))
    xa, _ = numpy_chunk_stack(x, y, slice(None), taps)
    _assert_matches_numpy_statement(res, numpy_residual(h, xa[:taps].conj(), y))


@pytest.mark.parametrize("weighted", [True, False])
def test_purely_imaginary_taps_cancel(rng, weighted):
    # Y = jX with a real X: the one tap is h = -j, with no real part
    stft = StftConfig(window_len=28, hop=14)  # 15 bins
    X = Spectrogram(rng.standard_normal((60, stft.n_bins)) + 0j, stft)
    Y = X.like(1j * X.data)
    residual, bank = wstws_cancel(Y, X, WienerConfig(taps=1, window_frames=10, weighted=weighted))
    assert not bank.degenerate.any()
    assert np.allclose(bank.taps, -1j, rtol=0, atol=1e-5)
    assert np.max(np.abs(residual.data) / np.abs(Y.data)) < 1e-5


def test_an_overflowing_trace_flags_as_the_numpy_statement(rng):
    # |x|^2 near 1e308: window sums overflow to inf, and some traces with them
    taps, window = 20, 40
    stft = StftConfig(window_len=28, hop=14)  # 15 bins
    Y = random_spectrogram(rng, 150, stft)
    X = random_spectrogram(rng, 150, stft, scale=1e154)
    cfg = stws_config(WienerConfig(taps=taps, window_frames=window))
    _, bank = wstws_cancel(Y, X, cfg)
    assert 0 < bank.degenerate.sum() < bank.degenerate.size
    if numpy_complex_multiply_is_fused():  # the same units as numpy flags, so as many
        with np.errstate(over="ignore", invalid="ignore"):
            _, bad, _ = _numpy_solve_bins(X.data.T, Y.data.T, 1.0, taps, window, cfg.diag_load)
        assert np.array_equal(bank.degenerate, bad.T)
