"""The phases of the Wiener solver, each called on its own: the window sums
of the augmented products, factor-and-solve and the residual, on hand-built
buffers, against their numpy statements in helpers."""

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

from refaec import StftConfig, WienerConfig, wstws_cancel
from refaec.wiener import _apply_taps, _build_sums, _factor_solve, lambda_weights

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
    h, degenerate, root = _factor_solve(G, taps, cfg.diag_load)
    assert h.shape == (taps, len(units)) and root.shape == (taps, len(units))
    assert not degenerate.any()
    assert np.all(root > 0)
    for u, (t, f) in enumerate(units):
        assert _rel_err(h[:, u], dense_normal_equations(Y, X, t, f, cfg)) < 1e-6


def test_factor_solve_returns_the_cholesky_diagonal(rng):
    taps, load = 5, 1e-3
    systems, G = _random_units(rng, taps, 4)
    _, _, root = _factor_solve(G, taps, load)
    for u, (A, _) in enumerate(systems):
        loaded = A + load * A.trace().real / taps * np.eye(taps)
        expected = np.diag(np.linalg.cholesky(loaded)).real
        assert np.allclose(root[:, u], expected, rtol=1e-12, atol=0)


def test_factor_solve_is_the_same_on_any_unit_shape(rng):
    # [entry, bin, frame] and its [entry, unit] reshape give the same bits
    taps = 3
    _, G = _random_units(rng, taps, 12)
    flat = _factor_solve(G.copy(), taps, 1e-6)
    cube = _factor_solve(G.reshape(len(G), 3, 4).copy(), taps, 1e-6)
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


@pytest.mark.parametrize(
    "spoil",
    [_zero_trace, _negative_first_pivot, _negative_later_pivot, _nan_entry, _inf_rhs],
    ids=["zero_trace", "negative_first_pivot", "negative_later_pivot", "nan_entry", "inf_rhs"],
)
def test_factor_solve_flags_and_zeroes_a_degenerate_unit(rng, spoil):
    taps = 3
    systems, _ = _random_units(rng, taps, 3)
    systems[1] = spoil(*systems[1])
    G = np.stack([_pack(A, b) for A, b in systems], axis=1)
    h, degenerate, _ = _factor_solve(G, taps, 1e-6)
    assert degenerate.tolist() == [False, True, False]
    assert np.all(h[:, 1] == 0)
    for u in (0, 2):
        A, b = systems[u]
        loaded = A + 1e-6 * A.trace().real / taps * np.eye(taps)
        assert _rel_err(h[:, u], np.linalg.solve(loaded, b)) < 1e-10


def _window_sums(rng, taps):
    """Weighted window sums of random spectrograms, [entry, unit]: 3 bins of
    taps + 45 frames over a taps + 10 frame window, so more than two tiles of
    units, truncated windows and frames of rank below taps."""
    n_bins, n_frames, window = 3, taps + 45, taps + 10
    xt, yt = (rng.standard_normal((n_bins, n_frames, 2)).view(complex)[..., 0] for _ in range(2))
    G = _build_sums(xt, yt, 1.0 / lambda_weights(yt, window), taps, window)
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
    kernel = _factor_solve(G.copy(), taps, diag_load)
    oracle = numpy_factor_solve(G.copy(), taps, diag_load)
    h, bad, _ = kernel
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
    [_zero_trace, _negative_first_pivot, _negative_later_pivot, _nan_entry, _inf_rhs],
    ids=["zero_trace", "negative_first_pivot", "negative_later_pivot", "nan_entry", "inf_rhs"],
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
    """One digest of _factor_solve's outputs on G, at diag_load 0 and 1e-6,
    and of the residual, taps and flags of wstws_cancel(Y, X, DISPATCH_CFG)."""
    digest = hashlib.sha256()
    for load in (0.0, 1e-6):
        for out in _factor_solve(G, taps, load):
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


def _direct_window_sums(P, window):
    n_frames = P.shape[-1]
    return np.stack(
        [P[..., max(0, t - window) : t + 1].sum(axis=-1) for t in range(n_frames)], axis=-1
    )


# the window reaches past the stream, a one-frame window, lengths that are
# and are not whole numbers of window_frames + 1; one tap, and more taps
# than frames
@pytest.mark.parametrize(
    "taps, n_frames, window", [(2, 10, 12), (3, 10, 9), (1, 17, 1), (4, 23, 4), (2, 30, 5), (12, 9, 3)]
)
@pytest.mark.parametrize("weighted", [True, False])
def test_build_sums_match_the_numpy_statement(rng, taps, n_frames, window, weighted):
    n_bins = 3
    xt, yt = (rng.standard_normal((n_bins, n_frames, 2)).view(complex)[..., 0] for _ in range(2))
    xt[1, :4] = 0.0  # zero frames, and a delay stack that reads them
    weights = 1.0 / lambda_weights(yt, window) if weighted else np.ones(yt.shape)
    G = _build_sums(xt, yt, weights, taps, window)
    assert G.shape == (taps * (taps + 3) // 2, n_bins, n_frames)
    # the unweighted route's numpy statement multiplies by the scalar 1.0
    xa, _ = numpy_chunk_stack(xt, yt, slice(None), taps)
    P = numpy_products(xa, weights if weighted else 1.0)
    _assert_matches_numpy_statement(G, numpy_windowed_sums(P.copy(), window))
    # on any host: the sliding sums over [t - window, t] of the products
    assert np.allclose(G, _direct_window_sums(P, window), rtol=0, atol=1e-12)


def test_residual_subtracts_the_prediction(rng):
    taps, n_bins, n_frames = 3, 2, 5
    shape = (taps, n_bins, n_frames)
    x = rng.standard_normal((n_bins, n_frames)) + 1j * rng.standard_normal((n_bins, n_frames))
    h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    y = rng.standard_normal((n_bins, n_frames)) + 1j * rng.standard_normal((n_bins, n_frames))
    h[:, 1, 2] = 0.0
    y[1, 2] = complex(-0.0, -0.0)
    res = _apply_taps(h, x, y)
    expected = y.copy()
    for k in range(taps):
        expected[:, k:] -= h[k, :, k:].conj() * x[:, : n_frames - k]
    assert np.allclose(res, expected, rtol=1e-13, atol=1e-13)
    # a zero filter passes y through, bit for bit
    assert res[1, 2] == y[1, 2]
    assert np.array_equal(np.signbit(res[1, 2:3].view(float)), np.signbit(y[1, 2:3].view(float)))
    xa, _ = numpy_chunk_stack(x, y, slice(None), taps)
    _assert_matches_numpy_statement(res, numpy_residual(h, xa[:taps].conj(), y))
