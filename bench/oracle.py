"""Independent reference computations for the benchmark's output checks.

Everything here is re-derived from the method's definition with plain numpy,
without calling the library, so that the checks survive refactors of it:
the STFT pair, one (frame, bin) unit of the windowed Wiener solve by dense
normal equations, the reference mask, and the SDR / ERLE formulas.
"""

from __future__ import annotations

import numpy as np

WINDOW_LEN = 320
HOP = 160
WEIGHT_FLOOR = 1e-12
ENERGY_FLOOR = 1e-12
DB_CAP = 100.0

# relative deviation allowed against the oracle: the library's own
# acceptance bound for float64 outputs, and a float32-storage bound for
# values read back from exported feature files
TOL_F64 = 1e-6
TOL_F32 = 1e-5


def hamming(n: int = WINDOW_LEN) -> np.ndarray:
    """Periodic Hamming window."""
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft(samples: np.ndarray) -> np.ndarray:
    """One-sided STFT, frames at multiples of the hop, partial tail dropped."""
    n_frames = 1 + (len(samples) - WINDOW_LEN) // HOP
    idx = np.arange(n_frames)[:, None] * HOP + np.arange(WINDOW_LEN)[None, :]
    return np.fft.rfft(samples[idx] * hamming(), axis=1)


def istft(spec: np.ndarray) -> np.ndarray:
    """Least-squares overlap-add synthesis."""
    win = hamming()
    frames = np.fft.irfft(spec, n=WINDOW_LEN, axis=1) * win
    out_len = (spec.shape[0] - 1) * HOP + WINDOW_LEN
    num = np.zeros(out_len)
    den = np.zeros(out_len)
    for t in range(spec.shape[0]):
        num[t * HOP : t * HOP + WINDOW_LEN] += frames[t]
        den[t * HOP : t * HOP + WINDOW_LEN] += win * win
    return num / np.maximum(den, 1e-12)


def inverse_weights(y_col: np.ndarray, cfg) -> np.ndarray:
    """Per-frame summand weights of one bin: 1 / (floor * windowed peak
    power + own power) when weighted, else 1."""
    if not cfg.weighted:
        return np.ones(len(y_col))
    power = np.abs(y_col) ** 2
    lam = np.array(
        [cfg.floor * power[max(0, t - cfg.window_frames) : t + 1].max() + power[t]
         for t in range(len(y_col))]
    )
    lam[lam == 0.0] = WEIGHT_FLOOR
    return 1.0 / lam


def wiener_unit(y_col, x_col, w_col, t: int, cfg) -> np.ndarray:
    """Tap vector for frame t of one bin by dense windowed normal equations:
    A = sum w x x^H and b = sum w x conj(y) over frames [t - window, t]
    (truncated at 0), x the delay stack with zeros before frame 0, and the
    diagonal loaded by diag_load * trace / taps."""
    taps = cfg.taps
    frames = np.arange(max(0, t - cfg.window_frames), t + 1)
    lags = frames[:, None] - np.arange(taps)[None, :]
    M = np.where(lags >= 0, x_col[np.maximum(lags, 0)], 0.0)
    w = w_col[frames]
    A = M.T @ (w[:, None] * M.conj())
    b = M.T @ (w * np.conj(y_col[frames]))
    trace = np.trace(A).real
    if not np.isfinite(trace) or trace <= 0.0:
        return np.zeros(taps, dtype=complex)
    A = A + cfg.diag_load * trace / taps * np.eye(taps)
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        return np.zeros(taps, dtype=complex)


def prediction(y_col, x_col, w_col, t: int, cfg) -> complex:
    """What the canceller subtracts from y at frame t: h^H times the delay stack."""
    h = wiener_unit(y_col, x_col, w_col, t, cfg)
    stack = np.array([x_col[t - k] if t - k >= 0 else 0.0 for k in range(cfg.taps)])
    return complex(np.vdot(h, stack))


def masked_reference_column(r_col, x_col, ref_cfg, compression: float) -> np.ndarray:
    """The purified reference for every frame of one bin: a cancellation of
    x from r splits r into far (predicted) and near (residual) parts, and r
    is scaled by (|far| / (|far| + |near|)) ** compression."""
    w_col = inverse_weights(r_col, ref_cfg)
    far = np.array([prediction(r_col, x_col, w_col, t, ref_cfg) for t in range(len(r_col))])
    near = r_col - far
    total = np.abs(far) + np.abs(near)
    mask = np.zeros(len(r_col))
    np.divide(np.abs(far), total, out=mask, where=total > 0)
    return np.clip(mask, 0.0, 1.0) ** compression * r_col


def sample_units(rng, n_frames: int, n_bins: int, window: int, n: int) -> list[tuple[int, int]]:
    """n uniformly drawn (frame, bin) units, half of them from the frames
    whose window is truncated at the signal start."""
    early = rng.integers(0, min(window, n_frames - 1) + 1, size=n // 2)
    anywhere = rng.integers(0, n_frames, size=n - n // 2)
    bins = rng.integers(0, n_bins, size=n)
    return [(int(t), int(f)) for t, f in zip(np.concatenate([early, anywhere]), bins)]


def deviation(ours: complex, oracle: complex, scale: float) -> float:
    """|ours - oracle| relative to the magnitude scale of the unit."""
    return abs(ours - oracle) / max(scale, 1e-30)


def log_ratio_db(num: float, den: float) -> float:
    return float(min(10.0 * np.log10((num + ENERGY_FLOOR) / (den + ENERGY_FLOOR)), DB_CAP))


def sdr_db(target: np.ndarray, estimate: np.ndarray) -> float:
    err = target - estimate
    return log_ratio_db(float(target @ target), float(err @ err))


def erle_db(y: np.ndarray, e: np.ndarray) -> float:
    return log_ratio_db(float(y @ y), float(e @ e))


def worst_deviation(Y, X, R, outputs: dict, routes: dict, ref_cfg, compression, rng,
                    n_units: int) -> float:
    """Largest relative deviation of the library's outputs from the oracle.

    Y, X, R are the oracle's own STFTs of the mic, far-end and reference
    signals. outputs maps bundle names to the library's arrays: any of
    "mic", "far", "ref" are compared whole, "ref_masked" and each residual
    on n_units sampled units. routes maps a residual name to the name of
    the signal it cancels against ("far", "ref" or "ref_masked") and the
    solver config. Non-finite outputs count as an infinite deviation.
    """
    if not all(np.all(np.isfinite(a)) for a in outputs.values()):
        return float("inf")
    worst = 0.0
    for name, own in (("mic", Y), ("far", X), ("ref", R)):
        if name in outputs:
            worst = max(worst, np.abs(outputs[name] - own).max() / np.abs(own).max())

    n_frames, n_bins = Y.shape
    windows = [ref_cfg.window_frames] + [cfg.window_frames for _, cfg in routes.values()]
    # one unit sample shared by every canceller keeps the oracle columns few
    units = sample_units(rng, n_frames, n_bins, max(windows), n_units)
    masked = {}

    def masked_col(f):
        if f not in masked:
            masked[f] = masked_reference_column(R[:, f], X[:, f], ref_cfg, compression)
        return masked[f]

    columns = {"far": lambda f: X[:, f], "ref": lambda f: R[:, f], "ref_masked": masked_col}
    for t, f in units:
        worst = max(worst, deviation(outputs["ref_masked"][t, f], masked_col(f)[t], abs(R[t, f])))
        for resid_name, (ref_name, cfg) in routes.items():
            y_col = Y[:, f]
            pred = prediction(y_col, columns[ref_name](f), inverse_weights(y_col, cfg), t, cfg)
            ours = Y[t, f] - outputs[resid_name][t, f]
            worst = max(worst, deviation(ours, pred, abs(Y[t, f]) + abs(pred)))
    return float(worst)
