"""Frame-online per-frequency multi-tap echo-path estimation and cancellation.

Two solver flavours share one machinery: the plain short-time Wiener solution
(every window frame contributes equally) and the weighted variant, which
divides each frame's squared error by an energy-tracking weight so that
low-energy units do not dominate the fit.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import maximum_filter1d

from .dsp import Spectrogram, delay_embed, delay_stack

WEIGHT_FLOOR = 1e-12

# Bins are solved in chunks whose tap-covariance tensor (16 * frames * chunk *
# taps**2 bytes) stays near this budget, so each worker's passes over it run
# from cache; at least one bin per chunk, at least one chunk per worker. Every
# bin's arithmetic is the same whatever the chunking, so outputs do not depend
# on the budget or the worker count.
_CHUNK_BYTES = 2 * 1024 * 1024


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
    lambda_mode: str = "per_summand"  # or "frozen": weight fixed at the solve frame

    def __post_init__(self):
        if self.taps < 1:
            raise ValueError("taps must be >= 1")
        if self.window_frames < 1:
            raise ValueError("window_frames must be >= 1")
        if self.floor <= 0:
            raise ValueError("floor must be > 0")
        if self.diag_load < 0:
            raise ValueError("diag_load must be >= 0")
        if self.lambda_mode not in ("per_summand", "frozen"):
            raise ValueError("lambda_mode must be 'per_summand' or 'frozen'")


@dataclass(eq=False)
class FilterBank:
    """Per-unit tap estimates, shape [n_frames, n_bins, taps].

    taps[t] is the filter estimated at frame t and depends only on frames <= t.
    degenerate marks units whose normal equations were singular even after
    loading; those units carry a zero filter instead of aborting the run.
    """

    taps: np.ndarray
    degenerate: np.ndarray

    @property
    def n_taps(self) -> int:
        return self.taps.shape[2]


def _check_same_grid(a: Spectrogram, b: Spectrogram) -> None:
    if a.data.shape != b.data.shape:
        raise ValueError(f"spectrogram shapes differ: {a.data.shape} vs {b.data.shape}")


def lambda_weight(Y: Spectrogram, t: int, f: int, window_frames: int, floor: float) -> float:
    """Energy weight for one unit: floor times the windowed peak power plus the
    unit's own power. Returns a tiny positive value when the whole window is
    silent so quotients stay defined."""
    if floor <= 0:
        raise ValueError("floor must be > 0")
    power = np.abs(Y.data[max(0, t - window_frames) : t + 1, f]) ** 2
    lam = floor * power.max() + power[-1]
    return float(lam) if lam > 0 else WEIGHT_FLOOR


def lambda_weights(Y: Spectrogram, window_frames: int, floor: float) -> np.ndarray:
    """lambda_weight evaluated for every unit, shape [n_frames, n_bins]."""
    power = np.abs(Y.data) ** 2
    size = window_frames + 1
    peak = maximum_filter1d(
        power, size=size, axis=0, mode="constant", cval=0.0, origin=(size - 1) // 2
    )
    lam = floor * peak + power
    lam[lam == 0.0] = WEIGHT_FLOOR
    return lam


def _summand_weight(Y: Spectrogram, t_solve: int, t_prime: int, f: int, cfg: WienerConfig) -> float:
    if not cfg.weighted:
        return 1.0
    t_ref = t_solve if cfg.lambda_mode == "frozen" else t_prime
    return 1.0 / lambda_weight(Y, t_ref, f, cfg.window_frames, cfg.floor)


def solve_frame(Y: Spectrogram, X: Spectrogram, t: int, f: int, cfg: WienerConfig) -> np.ndarray:
    """Tap estimate for a single unit by direct windowed normal equations.

    Reference implementation of what wstws_cancel computes for every unit;
    returns a zero vector when the loaded system is still singular.
    """
    _check_same_grid(Y, X)
    taps = cfg.taps
    A = np.zeros((taps, taps), dtype=np.complex128)
    b = np.zeros(taps, dtype=np.complex128)
    for tp in range(max(0, t - cfg.window_frames), t + 1):
        w = _summand_weight(Y, t, tp, f, cfg)
        xv = delay_stack(X, tp, f, taps)
        A += w * np.outer(xv, xv.conj())
        b += w * xv * np.conj(Y.data[tp, f])
    trace = A.trace().real
    if not np.isfinite(trace) or trace <= 0.0:
        return np.zeros(taps, dtype=np.complex128)
    A[np.diag_indices(taps)] += cfg.diag_load * trace / taps
    try:
        h = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        return np.zeros(taps, dtype=np.complex128)
    if not np.all(np.isfinite(h)):
        return np.zeros(taps, dtype=np.complex128)
    return h


def _windowed_sums(cum: np.ndarray, window_frames: int) -> np.ndarray:
    """Sliding sums over [t - window_frames, t] from cumulative sums along axis 0."""
    n = cum.shape[0]
    span = window_frames + 1
    if n <= span:
        return cum
    out = np.empty_like(cum)
    out[:span] = cum[:span]
    np.subtract(cum[span:], cum[: n - span], out=out[span:])
    return out


def wstws_cancel(
    Y: Spectrogram, X: Spectrogram, cfg: WienerConfig
) -> tuple[Spectrogram, FilterBank]:
    """Cancel the X-predictable component of Y, frame-online.

    For each frame t and bin f a taps-long filter is fit over the sliding
    window [t - window_frames, t] (truncated at 0) and applied to the current
    delay stack; the returned residual is Y minus that prediction. Singular
    units fall back to a zero filter and are flagged in the filter bank.
    """
    _check_same_grid(Y, X)
    n_frames, n_bins = Y.data.shape
    taps, window = cfg.taps, cfg.window_frames

    if cfg.weighted and cfg.lambda_mode == "per_summand":
        weights = 1.0 / lambda_weights(Y, window, cfg.floor)
    else:
        weights = np.ones((n_frames, n_bins))
    if cfg.weighted and cfg.lambda_mode == "frozen":
        # one weight per solve: scales A and b jointly, applied after windowing
        frozen_scale = 1.0 / lambda_weights(Y, window, cfg.floor)
    else:
        frozen_scale = None

    embedded = delay_embed(X.data, taps)
    h_all = np.empty((n_frames, n_bins, taps), dtype=np.complex128)
    degenerate = np.zeros((n_frames, n_bins), dtype=bool)

    eye = np.eye(taps)

    def solve_chunk(sl: slice) -> None:
        Xe = np.ascontiguousarray(embedded[:, sl, :])
        w = weights[:, sl]
        wXe = w[:, :, None] * Xe
        A = _windowed_sums(
            np.cumsum(np.einsum("tfk,tfl->tfkl", wXe, Xe.conj()), axis=0), window
        )
        b = _windowed_sums(
            np.cumsum(wXe * np.conj(Y.data[:, sl])[:, :, None], axis=0), window
        )
        if frozen_scale is not None:
            A *= frozen_scale[:, sl, None, None]
            b *= frozen_scale[:, sl, None]

        trace = np.einsum("tfkk->tf", A).real
        bad = ~np.isfinite(trace) | (trace <= 0.0)
        A += (cfg.diag_load * trace / taps)[:, :, None, None] * eye
        if bad.any():
            A[bad] = eye
            b[bad] = 0.0
        try:
            h = np.linalg.solve(A, b[..., None])[..., 0]
        except np.linalg.LinAlgError:
            h = np.zeros_like(b)
            flat_A = A.reshape(-1, taps, taps)
            flat_b = b.reshape(-1, taps)
            flat_h = h.reshape(-1, taps)
            flat_bad = bad.reshape(-1)
            for i in range(flat_A.shape[0]):
                try:
                    flat_h[i] = np.linalg.solve(flat_A[i], flat_b[i])
                except np.linalg.LinAlgError:
                    flat_bad[i] = True
        nonfinite = ~np.all(np.isfinite(h), axis=2)
        if nonfinite.any():
            h[nonfinite] = 0.0
            bad |= nonfinite
        h[bad] = 0.0
        h_all[:, sl, :] = h
        degenerate[:, sl] = bad

    workers = _n_workers()
    chunk = max(
        1,
        min(n_bins, _CHUNK_BYTES // (16 * n_frames * taps * taps), -(-n_bins // workers)),
    )
    slices = [slice(lo, min(n_bins, lo + chunk)) for lo in range(0, n_bins, chunk)]
    if len(slices) == 1 or workers == 1:
        for sl in slices:
            solve_chunk(sl)
    else:
        # numpy's kernels release the GIL; each chunk writes only its own bins
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(solve_chunk, slices))

    prediction = np.einsum("tfk,tfk->tf", h_all.conj(), embedded)
    residual = Y.data - prediction
    # zero-filter units pass Y through untouched, bit for bit
    zero_filter = ~np.any(h_all != 0, axis=2)
    residual[zero_filter] = Y.data[zero_filter]
    return Y.like(residual), FilterBank(h_all, degenerate)


def stws_config(cfg: WienerConfig) -> WienerConfig:
    """The unweighted counterpart of a solver config."""
    return replace(cfg, weighted=False)
