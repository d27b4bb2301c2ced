"""Frame-online per-frequency multi-tap echo-path estimation and cancellation.

Two solver flavours share one machinery: the plain short-time Wiener solution
(every window frame contributes equally) and the weighted variant, which
divides each frame's squared error by an energy-tracking weight so that
low-energy units do not dominate the fit.

wstws_cancel solves every unit's normal equations A h = b at once: the
Hermitian A is kept as its packed upper triangle, its sliding-window sums come
from one cumulative sum along frames, and each unit is solved by a Cholesky
factorisation A = R^H R written as elementwise passes over all units of a
chunk of bins. A unit whose loaded A is not numerically positive definite gets
the zero filter. solve_frame is the per-unit reference.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import maximum_filter1d

from .dsp import Spectrogram, delay_embed, delay_stack

WEIGHT_FLOOR = 1e-12

# Bins are solved in chunks. A chunk's buffer holds, per bin and frame, the
# packed upper triangle of the tap covariance and the cross-correlation
# vector, 16 * (taps * (taps + 3) / 2) * frames * bins bytes; it stays near
# _CHUNK_BYTES so each worker's passes over it run from cache, but spans at
# least _CHUNK_UNITS frame-bins so every numpy call has enough elements to
# amortise its interpreter overhead. At least one bin per chunk, at least one
# chunk per worker. Every bin's arithmetic is the same whatever the chunking,
# so outputs do not depend on the budget, the floor or the worker count.
_CHUNK_BYTES = 2 * 1024 * 1024
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
    degenerate marks units whose loaded normal equations were not numerically
    positive definite (or gave non-finite taps); those units carry a zero
    filter instead of aborting the run.
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
    """Sliding sums over [t - window_frames, t] from cumulative sums along the
    last axis, formed in place and returned.

    Blocks of at most window_frames + 1 frames are taken from the end, so each
    block subtracts frames that are still cumulative sums.
    """
    n = cum.shape[-1]
    span = window_frames + 1
    for hi in range(n, span, -span):
        lo = max(span, hi - span)
        cum[..., lo:hi] -= cum[..., lo - span : hi - span]
    return cum


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
    degenerate = np.empty((n_frames, n_bins), dtype=bool)
    residual = np.empty_like(Y.data)

    # Row i of the packed upper triangle holds A[i, i:] and starts at
    # row_start[i]; b follows the triangle. above[i] indexes R[:i, i].
    n_tri = taps * (taps + 1) // 2
    entries = n_tri + taps
    row_start = [i * taps - i * (i - 1) // 2 for i in range(taps)]
    above = [np.array([row_start[k] + i - k for k in range(i)], dtype=np.intp) for i in range(taps)]

    def solve_chunk(sl: slice) -> None:
        # frame-innermost layout [entry, bin, frame]: x[k, f, t] = X[t - k, f]
        x = np.ascontiguousarray(embedded[:, sl, :].transpose(2, 1, 0))
        y = np.ascontiguousarray(Y.data[:, sl].T)
        wx = x * weights[:, sl].T
        G = np.empty((entries,) + y.shape, dtype=np.complex128)
        xc = x.conj()
        for i in range(taps):
            np.multiply(wx[i], xc[i:], out=G[row_start[i] : row_start[i] + taps - i])
        np.multiply(wx, y.conj(), out=G[n_tri:])
        G = _windowed_sums(np.cumsum(G, axis=2, out=G), window)
        if frozen_scale is not None:
            G *= frozen_scale[:, sl].T

        diag = [G[s] for s in row_start]
        trace = sum(d.real for d in diag)
        bad = ~np.isfinite(trace) | (trace <= 0.0)
        load = cfg.diag_load * trace / taps
        for d in diag:
            d += load

        # A = R^H R, right-looking and in place: row i of the triangle becomes
        # R[i, i + 1:], and 1 / R[i, i] goes to inv[i]. b rides along as an
        # extra column, so it leaves the loop as the forward solution z of
        # R^H z = b. Units with a non-positive pivot turn to inf/nan here and
        # are zeroed below.
        b = G[n_tri:]
        inv = np.empty((taps,) + y.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(taps):
                row = G[row_start[i] : row_start[i] + taps - i]
                pivot = row[0].real
                bad |= ~(pivot > 0.0)
                inv[i] = 1.0 / np.sqrt(pivot)
                b[i] *= inv[i]
                r = row[1:]
                r *= inv[i]
                rc = r.conj()
                b[i + 1 :] -= rc * b[i]
                for j, k in enumerate(range(i + 1, taps)):
                    G[row_start[k] : row_start[k] + taps - k] -= rc[j] * r[j:]
            # back substitution R h = z, one column of R at a time
            for i in range(taps - 1, -1, -1):
                b[i] *= inv[i]
                if i:
                    b[:i] -= G[above[i]] * b[i]
        h = b
        bad |= ~np.isfinite(h).all(axis=0)
        h[:, bad] = 0.0

        prediction = h[0].conj() * x[0]
        for k in range(1, taps):
            prediction += h[k].conj() * x[k]
        res = y - prediction
        # zero-filter units pass Y through untouched, bit for bit
        np.copyto(res, y, where=~(h != 0).any(axis=0))
        h_all[:, sl, :] = h.transpose(2, 1, 0)
        degenerate[:, sl] = bad.T
        residual[:, sl] = res.T

    workers = _n_workers()
    chunk = max(
        1,
        min(
            n_bins,
            -(-n_bins // workers),
            max(_CHUNK_BYTES // (16 * entries * n_frames), -(-_CHUNK_UNITS // n_frames)),
        ),
    )
    slices = [slice(lo, min(n_bins, lo + chunk)) for lo in range(0, n_bins, chunk)]
    if len(slices) == 1 or workers == 1:
        for sl in slices:
            solve_chunk(sl)
    else:
        # numpy's kernels release the GIL; each chunk writes only its own bins
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(solve_chunk, slices))

    return Y.like(residual), FilterBank(h_all, degenerate)


def stws_config(cfg: WienerConfig) -> WienerConfig:
    """The unweighted counterpart of a solver config."""
    return replace(cfg, weighted=False)
