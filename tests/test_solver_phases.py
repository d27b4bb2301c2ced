"""The phases of the Wiener solver, each called on its own: the augmented
products, factor-and-solve and the residual, on hand-built buffers."""

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
    numpy_complex_multiply_is_fused,
    numpy_factor_solve,
    random_spectrogram,
    window_normal_equations,
)

from refaec import StftConfig, WienerConfig
from refaec.wiener import (
    _chunk_stack,
    _factor_solve,
    _products,
    _residual,
    _windowed_sums,
    lambda_weights,
)

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
    xa, y = _chunk_stack(xt, yt, slice(None), taps)
    G = _windowed_sums(_products(xa, 1.0 / lambda_weights(y, window)), window)
    return G.reshape(len(G), -1)


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


@pytest.mark.skipif(platform.machine() != "x86_64", reason="the features disabled are x86's")
def test_kernel_bits_do_not_follow_numpy_dispatch(rng, tmp_path):
    # numpy's complex multiply without AVX-512 or AVX2/FMA rounds otherwise;
    # the window sums are saved so that both processes solve the same bits
    taps = 20
    np.save(tmp_path / "G.npy", _window_sums(rng, taps))
    script = (
        "import hashlib, sys\n"
        "import numpy as np\n"
        "from refaec.wiener import _factor_solve\n"
        "digest = hashlib.sha256()\n"
        "for load in (0.0, 1e-6):\n"
        "    for out in _factor_solve(np.load(sys.argv[1]), int(sys.argv[2]), load):\n"
        "        digest.update(out.tobytes())\n"
        "print(digest.hexdigest())\n"
    )
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]),
        "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR X86_V3",
    }
    there = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "G.npy"), str(taps)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert there.returncode == 0, there.stderr
    digest = hashlib.sha256()
    for load in (0.0, 1e-6):
        for out in _factor_solve(np.load(tmp_path / "G.npy"), taps, load):
            digest.update(out.tobytes())
    assert there.stdout.strip() == digest.hexdigest()


def test_products_match_a_direct_loop(rng):
    taps, shape = 4, (3, 7)  # 3 bins, 7 frames
    xa = rng.standard_normal((taps + 1,) + shape) + 1j * rng.standard_normal((taps + 1,) + shape)
    w = rng.uniform(0.1, 2.0, shape)
    original = xa.copy()
    G = _products(xa, w)
    assert np.array_equal(xa, original.conj())  # conjugated in place
    rows = []
    for i in range(taps):
        for j in range(i, taps + 1):  # j = taps is y, the entry of b[i]
            rows.append((w * original[i]) * np.conj(original[j]))
    assert np.array_equal(G, np.stack(rows))


def test_residual_subtracts_the_prediction(rng):
    taps, n_units = 3, 6
    shape = (taps, n_units)
    xc = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    y = rng.standard_normal(n_units) + 1j * rng.standard_normal(n_units)
    h[:, 2] = 0.0
    res = _residual(h, xc, y)
    expected = y - np.sum(h.conj() * xc.conj(), axis=0)
    assert np.allclose(res, expected, rtol=1e-13, atol=1e-13)
    # a zero filter passes y through, bit for bit
    assert res[2] == y[2]
    assert np.array_equal(np.signbit(res[2:3].view(float)), np.signbit(y[2:3].view(float)))
