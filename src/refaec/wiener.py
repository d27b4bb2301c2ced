"""Frame-online per-frequency multi-tap echo-path estimation and cancellation.

Two solver flavours share one machinery: the plain short-time Wiener solution
(every window frame contributes equally) and the weighted variant, which
divides each frame's squared error by an energy-tracking weight so that
low-energy units do not dominate the fit.

wstws_cancel solves every unit's normal equations A h = b at once, a chunk of
bins at a time, in _solve. _chunk_slices plans the chunks and _chunk_stack
lays out each chunk's delay stack and y, frames innermost. Four phases follow
over an [entry, bin, frame] buffer that holds the Hermitian A as its packed
upper triangle with b[i] at the end of row i:
_products builds the per-frame terms, _windowed_sums sums them over each
sliding window, _factor_solve loads A and solves by a Cholesky factorisation
A = R^H R written as elementwise passes over all units, and _residual applies
the taps. A unit whose loaded A is not numerically positive definite gets the
zero filter. The call keeps only each chunk's residual and degenerate flags;
the [frame, bin, tap] tensor of FilterBank.taps is built when first read, by
_solve run again on the call's inputs. The per-unit oracles that the tests
check it against live in tests/helpers.py.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.ndimage import maximum_filter1d

from .dsp import Spectrogram, require_int, require_one_grid

WEIGHT_FLOOR = 1e-12

# Bins are solved in chunks. A chunk's buffer holds, per bin and frame, the
# packed upper triangle of the tap covariance and the cross-correlation
# vector, 16 * rows * frames * bins bytes (rows from _layout); it stays near
# _CHUNK_BYTES so each worker's passes over it run from cache, but spans at
# least _CHUNK_UNITS frame-bins so every numpy call has enough elements to
# amortise its interpreter overhead. At least one bin per chunk, at least one
# chunk per worker. Every bin's arithmetic is the same whatever the chunking,
# so outputs do not depend on the budget, the floor or the worker count.
_CHUNK_BYTES = 3 * 1024 * 1024
_CHUNK_UNITS = 2048


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
    where the window is truncated at frame 0).
    """

    taps: int = 20
    window_frames: int = 200
    floor: float = 1e-3
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
        if not 0 < self.floor < math.inf:
            raise ValueError(f"floor must be finite and > 0, got {self.floor}")
        if not 0 <= self.diag_load < math.inf:
            raise ValueError(f"diag_load must be finite and >= 0, got {self.diag_load}")


@dataclass(eq=False)
class FilterBank:
    """Per-unit tap estimates of one wstws_cancel call.

    taps, shape [n_frames, n_bins, taps]: taps[t] is the filter estimated at
    frame t and depends only on frames <= t. It is solved when first read,
    bit for bit as the call solved it (outputs do not depend on the chunk
    plan), from the call's own copies of X, Y and the weights transposed to
    [bin, frame] and its config, and then kept; a caller that only wants the
    residual never pays for the tensor. degenerate, shape [n_frames, n_bins],
    marks units whose loaded normal equations were not numerically positive
    definite (or gave non-finite taps); those units carry a zero filter
    instead of aborting the run.
    """

    degenerate: np.ndarray
    _inputs: tuple = field(repr=False)

    @functools.cached_property
    def taps(self) -> np.ndarray:
        xt, yt, wt, cfg = self._inputs
        n_bins, n_frames = xt.shape
        h_all = np.empty((n_frames, n_bins, cfg.taps), dtype=np.complex128)

        def keep(sl, h, bad, xc, y) -> None:
            h_all[:, sl, :] = h.transpose(2, 1, 0)

        _solve(xt, yt, wt, cfg, keep)
        return h_all


def lambda_weights(Y: Spectrogram, window_frames: int, floor: float) -> np.ndarray:
    """Energy weight of every unit, shape [n_frames, n_bins]: floor times the
    peak power over [t - window_frames, t] plus the unit's own power. Units
    whose whole window is silent get WEIGHT_FLOOR so quotients stay defined."""
    power = np.abs(Y.data) ** 2
    size = window_frames + 1
    peak = maximum_filter1d(
        power, size=size, axis=0, mode="constant", cval=0.0, origin=(size - 1) // 2
    )
    lam = floor * peak + power
    lam[lam == 0.0] = WEIGHT_FLOOR
    return lam


def _windowed_sums(G: np.ndarray, window_frames: int) -> np.ndarray:
    """Sliding sums over [t - window_frames, t] of the per-frame terms G along
    the last axis, formed in place and returned: G is summed cumulatively,
    then blocks of at most window_frames + 1 frames are taken from the end, so
    each block subtracts frames that are still cumulative sums."""
    np.cumsum(G, axis=-1, out=G)
    n = G.shape[-1]
    span = window_frames + 1
    for hi in range(n, span, -span):
        lo = max(span, hi - span)
        G[..., lo:hi] -= G[..., lo - span : hi - span]
    return G


def _chunk_slices(taps: int, n_frames: int, n_bins: int, workers: int) -> list[slice]:
    """The bins of each chunk, under the budget and floor described above."""
    bin_bytes = 16 * _layout(taps)[0] * n_frames
    bins = max(_CHUNK_BYTES // bin_bytes, -(-_CHUNK_UNITS // n_frames))
    bins = max(1, min(bins, -(-n_bins // workers)))
    return [slice(lo, min(n_bins, lo + bins)) for lo in range(0, n_bins, bins)]


def _chunk_stack(
    xt: np.ndarray, yt: np.ndarray, sl: slice, taps: int
) -> tuple[np.ndarray, np.ndarray]:
    """The augmented stack xa [entry, bin, frame] of the bins sl, and their y.

    xt and yt are X and Y transposed to [bin, frame]. xa[k, f, t] = X[t - k, f]
    for k < taps, zero before frame 0, and xa[taps] = y: the
    [x_0, ..., x_{taps-1}, y] that _products takes. y is returned apart from
    xa, which _products conjugates in place.
    """
    x, y = xt[sl], yt[sl]
    n = x.shape[1]
    xa = np.zeros((taps + 1,) + x.shape, dtype=np.complex128)
    for k in range(taps):
        xa[k, :, k:] = x[:, : max(n - k, 0)]
    xa[taps] = y
    return xa, y


@functools.cache
def _layout(taps: int) -> tuple[int, list[int], np.ndarray, np.ndarray, list[np.ndarray]]:
    """Index plan of the augmented packed buffer for `taps` taps.

    The buffer has `rows` entries; row i holds A[i, i:] then b[i] from
    starts[i]. Also returns the entries of A's diagonal, those of b, and for
    each i the entries A[:i, i], where the factorization leaves R[:i, i].
    """
    starts = [i * (taps + 1) - i * (i - 1) // 2 for i in range(taps)]
    rows = taps * (taps + 3) // 2
    diag = np.array(starts, dtype=np.intp)
    rhs = np.array([s + taps - i for i, s in enumerate(starts)], dtype=np.intp)
    above = [np.array([starts[k] + i - k for k in range(i)], dtype=np.intp) for i in range(taps)]
    return rows, starts, diag, rhs, above


def _products(xa: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-frame terms of every unit's normal equations, [entry, unit...].

    xa stacks the delay stack and y, [x_0, ..., x_{taps-1}, y], over units
    [unit...]; it is conjugated in place. Row i of the result is
    w x_i * conj(xa[i:]): the products w x_i conj(x_j) of A[i, i:] (j >= i)
    followed by the product w x_i conj(y) of b[i].
    """
    taps = len(xa) - 1
    rows, starts = _layout(taps)[:2]
    wx = xa[:taps] * weights
    np.conjugate(xa, out=xa)
    G = np.empty((rows,) + xa.shape[1:], dtype=np.complex128)
    for i, s in enumerate(starts):
        np.multiply(wx[i], xa[i:], out=G[s : s + taps + 1 - i])
    return G


def _factor_solve(
    G: np.ndarray, taps: int, diag_load: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve every unit's loaded normal equations from their window sums G,
    [entry, unit...], overwriting G.

    Returns the taps [taps, unit...], the degenerate mask [unit...] and the
    Cholesky diagonal R[i, i] = sqrt(pivot) [taps, unit...]. A unit whose
    trace or a pivot is not positive, or whose taps are not finite, is
    flagged and gets the zero filter.
    """
    _, starts, diag_at, rhs_at, above = _layout(taps)
    real = G.real
    diag = real[diag_at]
    trace = diag.sum(axis=0)
    bad = ~np.isfinite(trace) | (trace <= 0.0)
    diag += diag_load * trace / taps
    real[diag_at] = diag
    del diag

    # A = R^H R, right-looking and in place: row i becomes R[i, i:]
    # followed by z[i], the forward solution of R^H z = b, because b[i] ends
    # the row that the pivot scales and b[k] ends each trailing row it
    # updates. 1 / R[i, i] goes to inv[i]. A non-positive pivot turns its
    # unit to inf/nan here; the unit is zeroed below.
    inv = np.empty((taps,) + G.shape[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, s in enumerate(starts):
            np.divide(1.0, np.sqrt(real[s], out=real[s]), out=inv[i])
            r = G[s + 1 : s + taps + 1 - i]
            r *= inv[i]
            rc = r[:-1].conj()
            for j, k in enumerate(range(i + 1, taps)):
                G[starts[k] : starts[k] + taps + 1 - k] -= rc[j] * r[j:]
        # back substitution R h = z, one column of R at a time
        h = G[rhs_at]
        for i in range(taps - 1, -1, -1):
            h[i] *= inv[i]
            if i:
                column = G[above[i]]
                column *= h[i]
                h[:i] -= column
    root = real[diag_at]
    bad |= ~(root > 0.0).all(axis=0)
    bad |= ~np.isfinite(h).all(axis=0)
    h[:, bad] = 0.0
    return h, bad, root


def _residual(h: np.ndarray, xc: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y minus the prediction sum_k conj(h_k) x_k, from the conjugated delay
    stack xc [taps, unit...]. Zero-filter units pass y through untouched, bit
    for bit."""
    # conj(sum h_k conj(x_k)) is sum conj(h_k) x_k, bit for bit
    prediction = np.multiply(h, xc).sum(axis=0)
    res = y - np.conjugate(prediction, out=prediction)
    np.copyto(res, y, where=~(h != 0).any(axis=0))
    return res


def _solve(
    xt: np.ndarray, yt: np.ndarray, wt: np.ndarray, cfg: WienerConfig, keep: Callable[..., None]
) -> None:
    """Solve every unit of X, Y and the weights transposed to [bin, frame], a
    chunk of bins at a time; keep(sl, h, bad, xc, y) takes each chunk's taps
    [taps, bin, frame], degenerate mask, conjugated delay stack and y."""
    taps = cfg.taps
    # a child process, such as a scene worker, solves on one thread: the
    # scene pool already runs one worker per CPU
    workers = 1 if multiprocessing.parent_process() else _n_workers()
    n_bins, n_frames = xt.shape
    slices = _chunk_slices(taps, n_frames, n_bins, workers)

    def solve_chunk(sl: slice) -> None:
        xa, y = _chunk_stack(xt, yt, sl, taps)
        G = _windowed_sums(_products(xa, wt[sl]), cfg.window_frames)
        h, bad, _ = _factor_solve(G, taps, cfg.diag_load)
        del G
        keep(sl, h, bad, xa[:taps], y)

    if workers == 1:
        for sl in slices:
            solve_chunk(sl)
    else:
        # numpy's kernels release the GIL; each chunk writes only its own bins
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
    if cfg.weighted:
        wt = np.ascontiguousarray((1.0 / lambda_weights(Y, cfg.window_frames, cfg.floor)).T)
    else:
        wt = np.broadcast_to(1.0, (n_bins, n_frames))
    xt = np.array(X.data.T, order="C")
    yt = np.array(Y.data.T, order="C")

    degenerate = np.empty((n_frames, n_bins), dtype=bool)
    residual = np.empty_like(Y.data)

    def keep(sl, h, bad, xc, y) -> None:
        residual[:, sl] = _residual(h, xc, y).T
        degenerate[:, sl] = bad.T

    _solve(xt, yt, wt, cfg, keep)
    return Y.like(residual), FilterBank(degenerate, (xt, yt, wt, cfg))


def stws_config(cfg: WienerConfig) -> WienerConfig:
    """The unweighted counterpart of a solver config."""
    return replace(cfg, weighted=False)
