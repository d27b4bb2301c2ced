"""Frame-online per-frequency multi-tap echo-path estimation and cancellation.

Two solver flavours share one machinery: the plain short-time Wiener solution
(every window frame contributes equally) and the weighted variant, which
divides each frame's squared error by an energy-tracking weight so that
low-energy units do not dominate the fit.

wstws_cancel solves every unit's normal equations A h = b at once, in _solve.
It works out the weights of every unit once, from lambda_weights (the
unweighted route weights every frame by one), then splits the bins evenly
over the workers, one call into the compiled kernel of _factor.c per worker.
For each bin the kernel walks the frames a tile at a time: it forms each
frame's products, reading X and Y at each tap's delay, sums them over the
sliding window into the tile's packed Hermitian A with b[i] at the end of row
i, loads A and solves by a Cholesky factorisation A = R^H R, and applies the
taps to the tile's frames. A unit whose loaded A is not numerically positive
definite gets the zero filter. The call keeps only the residual and the
degenerate flags; the [frame, bin, tap] tensor of FilterBank.taps is built
when first read, by _solve run again on the call's inputs. The per-unit
oracles that the tests check it against, and the numpy statement of each
phase that the kernel makes operation for operation, live in tests/helpers.py.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np
from scipy.ndimage import maximum_filter1d

from . import _factor
from .dsp import Spectrogram, require_int, require_one_grid

WEIGHT_FLOOR = 1e-12


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
    bit for bit as the call solved it (outputs do not depend on the worker
    count), from the call's own copies of X and Y transposed to [bin, frame]
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
        shape = yt.shape[::-1]
        h = np.empty(shape + (cfg.taps,), dtype=np.complex128)
        _solve(xt, yt, cfg, np.empty(shape, dtype=np.complex128), np.empty(shape, dtype=bool), h)
        return h


def lambda_weights(y: np.ndarray, window_frames: int) -> np.ndarray:
    """Energy weight of every unit of y, frames on the last axis: WienerConfig.floor
    times the peak power over [t - window_frames, t] plus the unit's own power.
    Units whose whole window is silent get WEIGHT_FLOOR so quotients stay defined."""
    power = np.abs(y) ** 2
    # a window that reaches frame 0 from the last frame spans the whole
    # stream; scipy's filter gives zeros for sizes far past its input
    size = min(window_frames, max(y.shape[-1] - 1, 0)) + 1
    peak = maximum_filter1d(
        power, size=size, axis=-1, mode="constant", cval=0.0, origin=(size - 1) // 2
    )
    lam = WienerConfig.floor * peak + power
    lam[lam == 0.0] = WEIGHT_FLOOR
    return lam


def _solve(
    xt: np.ndarray,
    yt: np.ndarray,
    cfg: WienerConfig,
    res: np.ndarray,
    bad: np.ndarray,
    h: np.ndarray | None = None,
) -> None:
    """Solve every unit of X and Y transposed to [bin, frame]: the residual
    into res and the degenerate mask into bad, [frame, bin], and the taps into
    h, [frame, bin, tap], if given. The bins are split evenly over the
    workers, one kernel call each: the calling thread and a pool."""
    # a child process, such as a scene worker, solves on one thread: the
    # scene pool already runs one worker per CPU
    n_bins, n_frames = xt.shape
    workers = min(n_bins, 1 if multiprocessing.parent_process() else _n_workers())
    weights = 1.0 / lambda_weights(yt, cfg.window_frames) if cfg.weighted else np.ones(yt.shape)
    solve_bins = _factor.kernel().solve_bins

    def solve(k: int) -> None:
        sl = slice(n_bins * k // workers, n_bins * (k + 1) // workers)
        solve_bins(xt[sl], yt[sl], weights[sl], cfg.diag_load, res[:, sl], bad[:, sl],
                   None if h is None else h[:, sl], cfg.taps, cfg.window_frames,
                   sl.stop - sl.start, n_frames, n_bins)

    if workers == 1:
        solve(0)
    else:
        # the kernel releases the GIL for the call; each worker writes only
        # its own bins. The calling thread takes the first share once the
        # pool's threads have started: a thread started while every CPU is
        # busy waits for one (about 3 ms on two CPUs), which an even split
        # cannot make up.
        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            rest = [pool.submit(solve, k) for k in range(1, workers)]
            solve(0)
            for done in rest:
                done.result()


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

    # frames innermost: [bin, frame]; copies, so that the filter bank's later
    # solve does not see the caller change X or Y
    xt = np.array(X.data.T, order="C")
    yt = np.array(Y.data.T, order="C")

    residual = np.empty(Y.data.shape, dtype=np.complex128)  # C order, as the kernel writes
    degenerate = np.empty(Y.data.shape, dtype=bool)
    _solve(xt, yt, cfg, residual, degenerate)
    return Y.like(residual), FilterBank(degenerate, (xt, yt, cfg))


def stws_config(cfg: WienerConfig) -> WienerConfig:
    """The unweighted counterpart of a solver config."""
    return replace(cfg, weighted=False)
