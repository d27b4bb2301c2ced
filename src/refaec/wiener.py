"""Frame-online per-frequency multi-tap echo-path estimation and cancellation.

Two solver flavours share one machinery: the plain short-time Wiener solution
(every window frame contributes equally) and the weighted variant, which
divides each frame's squared error by an energy-tracking weight so that
low-energy units do not dominate the fit.

wstws_cancel solves every unit's normal equations A h = b at once, in _solve.
It works out the weights of every unit once, from lambda_weights (the
unweighted route weights every frame by one), then solves a chunk of bins at
a time, as _chunk_slices plans them. A chunk is three calls into the compiled
kernel of _factor.c, over an [entry, bin, frame] buffer that holds the
Hermitian A as its packed upper triangle with b[i] at the end of row i:
_build_sums forms the per-frame products, reading X and Y at each
tap's delay, and sums them over each sliding window; _factor_solve loads A
and solves by a Cholesky factorisation A = R^H R over tiles of units; and
_apply_taps applies the taps. A unit whose loaded A is not numerically
positive definite gets the zero filter. The call keeps only each chunk's
residual and degenerate flags; the [frame, bin, tap] tensor of
FilterBank.taps is built when first read, by _solve run again on the call's
inputs. The per-unit oracles that the tests check it against, and the numpy
statement of each phase that the kernel makes operation for operation, live
in tests/helpers.py.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np
from scipy.ndimage import maximum_filter1d

from . import _factor
from .dsp import Spectrogram, require_int, require_one_grid

WEIGHT_FLOOR = 1e-12

# Bins are solved in chunks. A chunk's buffer holds, per bin and frame, the
# packed upper triangle of the tap covariance and the cross-correlation
# vector, 16 * rows * frames * bins bytes (rows from _rows), and stays within
# _CHUNK_BYTES: at least one bin per chunk, at least one chunk per worker.
# Every bin's arithmetic is the same whatever the chunking, so outputs do not
# depend on the budget or the worker count.
_CHUNK_BYTES = 3 * 1024 * 1024


def _n_workers() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


@dataclass(frozen=True)
class WienerConfig:
    """Solver parameters.

    window_frames counts the past frames added to the current one, so each
    solve sees window_frames + 1 frames (fewer near the start of the signal,
    where the window is truncated at frame 0). floor, the share of the
    window's peak power in every lambda weight, is fixed.
    """

    floor: ClassVar[float] = 1e-3
    taps: int = 20
    window_frames: int = 200
    diag_load: float = 1e-6
    weighted: bool = True

    def __post_init__(self):
        require_int("taps", self.taps)
        require_int("window_frames", self.window_frames)
        if self.taps < 1:
            raise ValueError("taps must be >= 1")
        if self.window_frames < 1:
            raise ValueError("window_frames must be >= 1")
        # written so that NaN fails too
        if not 0 <= self.diag_load < math.inf:
            raise ValueError(f"diag_load must be finite and >= 0, got {self.diag_load}")


@dataclass(eq=False)
class FilterBank:
    """Per-unit tap estimates of one wstws_cancel call.

    taps, shape [n_frames, n_bins, taps]: taps[t] is the filter estimated at
    frame t and depends only on frames <= t. It is solved when first read,
    bit for bit as the call solved it (outputs do not depend on the chunk
    plan), from the call's own copies of X and Y transposed to [bin, frame]
    and its config, and then kept; a caller that only wants the residual
    never pays for the tensor. degenerate, shape [n_frames, n_bins], marks
    units whose loaded normal equations were not numerically positive
    definite (or gave non-finite taps); those units carry a zero filter
    instead of aborting the run.
    """

    degenerate: np.ndarray
    _inputs: tuple = field(repr=False)

    @functools.cached_property
    def taps(self) -> np.ndarray:
        xt, yt, cfg = self._inputs
        n_bins, n_frames = xt.shape
        h_all = np.empty((n_frames, n_bins, cfg.taps), dtype=np.complex128)

        def keep(sl, h, bad) -> None:
            h_all[:, sl, :] = h.transpose(2, 1, 0)

        _solve(xt, yt, cfg, keep)
        return h_all


def lambda_weights(y: np.ndarray, window_frames: int) -> np.ndarray:
    """Energy weight of every unit of y, frames on the last axis: WienerConfig.floor
    times the peak power over [t - window_frames, t] plus the unit's own power.
    Units whose whole window is silent get WEIGHT_FLOOR so quotients stay defined."""
    power = np.abs(y) ** 2
    size = window_frames + 1
    peak = maximum_filter1d(
        power, size=size, axis=-1, mode="constant", cval=0.0, origin=(size - 1) // 2
    )
    lam = WienerConfig.floor * peak + power
    lam[lam == 0.0] = WEIGHT_FLOOR
    return lam


def _chunk_slices(taps: int, n_frames: int, n_bins: int, workers: int) -> list[slice]:
    """The bins of each chunk, under the budget described above."""
    bins = max(1, min(_CHUNK_BYTES // (16 * _rows(taps) * n_frames), -(-n_bins // workers)))
    return [slice(lo, min(n_bins, lo + bins)) for lo in range(0, n_bins, bins)]


def _rows(taps: int) -> int:
    """Entries per unit of the augmented packed buffer: row i holds A[i, i:]
    then b[i], taps + 1 - i entries."""
    return taps * (taps + 3) // 2


def _build_sums(
    x: np.ndarray, y: np.ndarray, weights: np.ndarray, taps: int, window_frames: int
) -> np.ndarray:
    """Window sums of every unit's normal equations, [entry, bin, frame], from
    a chunk's X, Y and weights, [bin, frame], in the kernel's window_sums.

    Row i of the buffer holds the sums over [t - window_frames, t] of
    w x_i conj(x_j) for A[i, i:] (j >= i), then of w x_i conj(y) for b[i],
    where x_k is X delayed by k frames, zero before frame 0.
    """
    n_bins, n_frames = x.shape
    G = np.empty((_rows(taps), n_bins, n_frames), dtype=np.complex128)
    _factor.kernel().window_sums(x, y, weights, G, taps, window_frames, n_bins, n_frames)
    return G


def _factor_solve(
    G: np.ndarray, taps: int, diag_load: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve every unit's loaded normal equations from their window sums G,
    [entry, unit...], C-contiguous, in the kernel's factor_solve; G is read,
    not written.

    Returns the taps [taps, unit...], the degenerate mask [unit...] and the
    Cholesky diagonal R[i, i] = sqrt(pivot) [taps, unit...]. A unit whose
    trace or a pivot is not positive, or whose taps are not finite, is
    flagged and gets the zero filter.
    """
    rows = _rows(taps)
    if len(G) != rows:
        raise ValueError(f"{taps} taps take {rows} entries per unit, got {len(G)}")
    h = np.empty((taps,) + G.shape[1:], dtype=np.complex128)
    root = np.empty(h.shape)
    bad = np.empty(G.shape[1:], dtype=bool)
    _factor.kernel().factor_solve(G, diag_load, h, root, bad, taps, bad.size)
    return h, bad, root


def _apply_taps(h: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y minus the prediction sum_k conj(h_k) x_k of a chunk, [bin, frame],
    in the kernel's apply_taps. Zero-filter units pass y through untouched,
    bit for bit."""
    res = np.empty_like(y)
    _factor.kernel().apply_taps(x, y, h, res, len(h), *y.shape)
    return res


def _solve(xt: np.ndarray, yt: np.ndarray, cfg: WienerConfig, keep: Callable[..., None]) -> None:
    """Solve every unit of X and Y transposed to [bin, frame], a chunk of bins
    at a time; keep(sl, h, bad) takes each chunk's taps [taps, bin, frame] and
    degenerate mask."""
    taps = cfg.taps
    # a child process, such as a scene worker, solves on one thread: the
    # scene pool already runs one worker per CPU
    workers = 1 if multiprocessing.parent_process() else _n_workers()
    n_bins, n_frames = xt.shape
    slices = _chunk_slices(taps, n_frames, n_bins, workers)
    weights = 1.0 / lambda_weights(yt, cfg.window_frames) if cfg.weighted else np.ones(yt.shape)

    def solve_chunk(sl: slice) -> None:
        G = _build_sums(xt[sl], yt[sl], weights[sl], taps, cfg.window_frames)
        h, bad, _ = _factor_solve(G, taps, cfg.diag_load)
        del G
        keep(sl, h, bad)

    if workers == 1:
        for sl in slices:
            solve_chunk(sl)
    else:
        # the solver kernel releases the GIL for each call, numpy inside its
        # loops; each chunk writes only its own bins
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(solve_chunk, slices))


def wstws_cancel(
    Y: Spectrogram, X: Spectrogram, cfg: WienerConfig
) -> tuple[Spectrogram, FilterBank]:
    """Cancel the X-predictable component of Y, frame-online.

    For each frame t and bin f a taps-long filter is fit over the sliding
    window [t - window_frames, t] (truncated at 0) and applied to the current
    delay stack; the returned residual is Y minus that prediction. Units whose
    loaded normal equations are not numerically positive definite fall back to
    a zero filter and are flagged in the filter bank.
    """
    require_one_grid(Y, X)
    n_frames, n_bins = Y.data.shape

    # frames innermost: [bin, frame]; copies, so that the filter bank's later
    # solve does not see the caller change X or Y
    xt = np.array(X.data.T, order="C")
    yt = np.array(Y.data.T, order="C")

    degenerate = np.empty((n_frames, n_bins), dtype=bool)
    residual = np.empty_like(Y.data)

    def keep(sl, h, bad) -> None:
        residual[:, sl] = _apply_taps(h, xt[sl], yt[sl]).T
        degenerate[:, sl] = bad.T

    _solve(xt, yt, cfg, keep)
    return Y.like(residual), FilterBank(degenerate, (xt, yt, cfg))


def stws_config(cfg: WienerConfig) -> WienerConfig:
    """The unweighted counterpart of a solver config."""
    return replace(cfg, weighted=False)
