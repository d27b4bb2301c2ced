"""Shared test utilities: signal generators and independent oracles.

The oracles here deliberately re-derive quantities through routes different
from the library (dense loops, lstsq, direct DFTs) so the tests stay
meaningful.
"""

import contextlib
import functools
import io
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.io import wavfile
from scipy.signal import lfilter

from refaec import (
    NonlinearityKind,
    RoomSpec,
    SceneGeometry,
    Spectrogram,
    StftConfig,
    TimeSignal,
    WienerConfig,
    pipeline,
    synthesize_scene,
)
from refaec.cli import main as cli_main
from refaec.wavio import write_wav


def speech_like(rng, n, fs=16000, peak=0.95):
    """Syllabically modulated colored noise: broad spectrum, speech-ish
    envelope, peak-normalized so clipping stages engage."""
    white = rng.standard_normal(n)
    sig = lfilter([1.0], [1.0, -0.93], white)
    for _ in range(3):
        f0 = rng.uniform(300.0, 3200.0)
        bw = rng.uniform(80.0, 300.0)
        r = np.exp(-np.pi * bw / fs)
        theta = 2 * np.pi * f0 / fs
        sig = lfilter([1.0], [1.0, -2 * r * np.cos(theta), r * r], sig) * (1 - r)
    env = lfilter([1.0], [1.0, -0.999], np.abs(rng.standard_normal(n)))
    env /= np.abs(env).max() + 1e-12
    sig = sig * (0.15 + 0.85 * env)
    return TimeSignal(sig * (peak / np.abs(sig).max()))


def write_wav_at(path, rate, samples):
    """A mono float32 WAV file at any rate, written with scipy directly, since
    the library writes 16 kHz only."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    wavfile.write(path, rate, np.asarray(samples, dtype=np.float32))


def random_spectrogram(rng, n_frames, cfg=None, scale=1.0):
    cfg = cfg or StftConfig()
    shape = (n_frames, cfg.n_bins)
    data = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return Spectrogram(data, cfg)


def small_scene(v, x, kind=None, ser=0.0, duration=1.0):
    """A scene in a fixed 5 x 4 x 3 m room at t60 0.15 s, with one hand-placed
    geometry that meets the placement rule; identity loudspeaker by default."""
    room = RoomSpec(5.0, 4.0, 3.0, t60=0.15)
    geom = SceneGeometry((2.0, 2.0, 1.5), (3.5, 3.0, 1.5), (1.2, 1.1, 1.2), (2.1, 2.0, 1.5))
    kind = kind or NonlinearityKind("identity")
    return synthesize_scene(room, geom, v, x, kind, ser, seed=3, duration=duration)


def criterion_10_tree(workdir, root, workers=None):
    """Acceptance criterion 10's command-line sequence: synth 2 scenes (seed
    12), run them with feature export at the 6-tap desk config, and eval,
    all under `root`, on `workers` scene workers if given. The corpus, two
    2 s clips per side (seed 1010), and the config are written to `workdir`.
    Returns the path of the report."""
    rng = np.random.default_rng(1010)
    for name in ("near", "far"):
        (workdir / name).mkdir(parents=True, exist_ok=True)
        for i in range(2):
            write_wav(workdir / name / f"clip_{i}.wav", speech_like(rng, 2 * 16000))
    config = workdir / "desk.cfg"
    config.write_text("wiener_main.taps = 6\nwiener_main.window_frames = 60\n")
    manifest, est, report = root / "data" / "manifest.jsonl", root / "est", root / "report.jsonl"
    commands = (
        ["synth", "--count", "2", "--corpus-near", str(workdir / "near"),
         "--corpus-far", str(workdir / "far"), "--out", str(manifest.parent), "--seed", "12"],
        ["run", "--manifest", str(manifest), "--config", str(config), "--export-features",
         "--out", str(est)],
        ["eval", "--manifest", str(manifest), "--estimates", str(est), "--report", str(report)],
    )
    n_workers = pipeline._n_workers
    if workers is not None:
        pipeline._n_workers = lambda: workers
    try:
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):  # synth prints the manifest path
                code = cli_main(argv)
            assert code == 0, f"refaec {argv[0]} exited {code}"
    finally:
        pipeline._n_workers = n_workers
    return report


def ecf_bytes(bundle) -> bytes:
    """The .ecf file of a feature bundle, packed value by value with struct:
    the 28-byte header, then each signal frame by frame, each unit as its
    real and imaginary parts in little-endian float32."""
    n_frames, n_bins = bundle.mic.data.shape
    cfg = bundle.config
    parts = [struct.pack("<4sIIIIII", b"ECF1", 1, n_frames, n_bins, 7, cfg.window_len, cfg.hop)]
    for spec in bundle.signals():
        for value in spec.data.ravel():
            parts.append(struct.pack("<ff", value.real, value.imag))
    return b"".join(parts)


def frame_loop_istft(spec):
    """Least-squares overlap-add synthesis, one frame at a time: each
    irfft frame, weighted by the window, is added at its hop offset and the
    sum is divided by the summed squared window."""
    cfg = spec.config
    win = cfg.analysis_window()
    frames = np.fft.irfft(spec.data, n=cfg.window_len, axis=1)
    out_len = (spec.n_frames - 1) * cfg.hop + cfg.window_len
    num = np.zeros(out_len)
    den = np.zeros(out_len)
    for t in range(spec.n_frames):
        start = t * cfg.hop
        num[start : start + cfg.window_len] += frames[t] * win
        den[start : start + cfg.window_len] += win * win
    return num / np.maximum(den, 1e-12)


def lambda_weight(Y: Spectrogram, t, f, window_frames, floor):
    """Energy weight of one unit: floor times the peak power over the window
    [t - window_frames, t] plus the unit's own power, or 1e-12 when the whole
    window is silent."""
    power = [abs(Y.data[tp, f]) ** 2 for tp in range(max(0, t - window_frames), t + 1)]
    lam = floor * max(power) + power[-1]
    return lam if lam > 0 else 1e-12


def delay_stack(spec: Spectrogram, t, f, taps):
    """[S(t, f), S(t-1, f), ..., S(t-taps+1, f)], frames before 0 reading as zero."""
    return np.array([spec.data[t - k, f] if k <= t else 0.0 for k in range(taps)], dtype=complex)


def window_normal_equations(Y, X, t, f, cfg: WienerConfig):
    """Unloaded weighted normal equations (A, b) of one unit, summed over its
    window with plain python loops."""
    taps = cfg.taps
    A = np.zeros((taps, taps), dtype=complex)
    b = np.zeros(taps, dtype=complex)
    for tp in range(max(0, t - cfg.window_frames), t + 1):
        w = 1.0 / lambda_weight(Y, tp, f, cfg.window_frames, cfg.floor) if cfg.weighted else 1.0
        xv = delay_stack(X, tp, f, taps)
        for i in range(taps):
            b[i] += w * xv[i] * np.conj(Y.data[tp, f])
            for j in range(taps):
                A[i, j] += w * xv[i] * np.conj(xv[j])
    return A, b


def dense_normal_equations(Y, X, t, f, cfg: WienerConfig):
    """Dense weighted normal-equations solve for one unit, built with plain
    python loops and a generic linear solve."""
    taps = cfg.taps
    A, b = window_normal_equations(Y, X, t, f, cfg)
    trace = A.trace().real
    if trace <= 0:
        return np.zeros(taps, dtype=complex)
    for i in range(taps):
        A[i, i] += cfg.diag_load * trace / taps
    return np.linalg.solve(A, b)


def lstsq_weighted(Y, X, t, f, cfg: WienerConfig):
    """Same optimum through an SVD route: loading-augmented weighted least
    squares on the stacked design matrix."""
    taps = cfg.taps
    rows_m, rows_y, weights = [], [], []
    for tp in range(max(0, t - cfg.window_frames), t + 1):
        w = 1.0 / lambda_weight(Y, tp, f, cfg.window_frames, cfg.floor) if cfg.weighted else 1.0
        rows_m.append(delay_stack(X, tp, f, taps))
        rows_y.append(Y.data[tp, f])
        weights.append(w)
    M = np.array(rows_m)
    yv = np.array(rows_y)
    sw = np.sqrt(np.array(weights))
    gram_trace = float(np.sum((sw[:, None] * np.abs(M)) ** 2))
    ridge = np.sqrt(cfg.diag_load * gram_trace / taps) * np.eye(taps)
    M_aug = np.vstack([sw[:, None] * M, ridge])
    y_aug = np.concatenate([sw * yv, np.zeros(taps)])
    g, *_ = np.linalg.lstsq(M_aug, y_aug, rcond=None)
    return np.conj(g)


def numpy_factor_solve(G, taps, diag_load):
    """wiener._factor_solve as elementwise numpy passes over all units of G,
    [entry, unit...], overwriting G: the load and the elimination that the
    kernel's factor_solve makes operation for operation, with the same
    returns."""
    starts = [i * (taps + 1) - i * (i - 1) // 2 for i in range(taps)]
    diag_at = np.array(starts, dtype=np.intp)
    rhs_at = np.array([s + taps - i for i, s in enumerate(starts)], dtype=np.intp)
    above = [np.array([starts[k] + i - k for k in range(i)], dtype=np.intp) for i in range(taps)]
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


def numpy_chunk_stack(xt, yt, sl, taps):
    """The augmented stack xa [entry, bin, frame] of the bins sl, and their y.

    xt and yt are X and Y transposed to [bin, frame]. xa[k, f, t] = X[t - k, f]
    for k < taps, zero before frame 0, and xa[taps] = y: the
    [x_0, ..., x_{taps-1}, y] that numpy_products takes. y is returned apart
    from xa, which numpy_products conjugates in place.
    """
    x, y = xt[sl], yt[sl]
    n = x.shape[1]
    xa = np.zeros((taps + 1,) + x.shape, dtype=np.complex128)
    for k in range(taps):
        xa[k, :, k:] = x[:, : max(n - k, 0)]
    xa[taps] = y
    return xa, y


def numpy_products(xa, weights):
    """Per-frame terms of every unit's normal equations, [entry, unit...], as
    numpy passes: the products that the kernel's window_sums makes.

    xa stacks the delay stack and y, [x_0, ..., x_{taps-1}, y], over units
    [unit...]; it is conjugated in place. Row i of the result is
    w x_i * conj(xa[i:]): the products w x_i conj(x_j) of A[i, i:] (j >= i)
    followed by the product w x_i conj(y) of b[i].
    """
    taps = len(xa) - 1
    starts = [i * (taps + 1) - i * (i - 1) // 2 for i in range(taps)]
    wx = xa[:taps] * weights
    np.conjugate(xa, out=xa)
    G = np.empty((taps * (taps + 3) // 2,) + xa.shape[1:], dtype=np.complex128)
    for i, s in enumerate(starts):
        np.multiply(wx[i], xa[i:], out=G[s : s + taps + 1 - i])
    return G


def numpy_windowed_sums(G, window_frames):
    """Sliding sums over [t - window_frames, t] of the per-frame terms G along
    the last axis, formed in place and returned, as the kernel's window_sums
    forms them: G is summed cumulatively, then blocks of at most
    window_frames + 1 frames are taken from the end, so each block subtracts
    frames that are still cumulative sums."""
    np.cumsum(G, axis=-1, out=G)
    n = G.shape[-1]
    span = window_frames + 1
    for hi in range(n, span, -span):
        lo = max(span, hi - span)
        G[..., lo:hi] -= G[..., lo - span : hi - span]
    return G


def numpy_residual(h, xc, y):
    """y minus the prediction sum_k conj(h_k) x_k, from the conjugated delay
    stack xc [taps, unit...], as numpy passes: what the kernel's apply_taps
    makes. Zero-filter units pass y through untouched, bit for bit."""
    # conj(sum h_k conj(x_k)) is sum conj(h_k) x_k, bit for bit
    prediction = np.multiply(h, xc).sum(axis=0)
    res = y - np.conjugate(prediction, out=prediction)
    np.copyto(res, y, where=~(h != 0).any(axis=0))
    return res


def _fma(a, b, c):
    """a * b + c rounded once, from exact rationals."""
    return float(Fraction(a) * Fraction(b) + Fraction(c))


@functools.cache
def numpy_complex_multiply_is_fused():
    """Whether numpy's complex multiply rounds as the solver kernel does on
    this host: re = fma(ar, br, -(ai bi)) and im = fma(ar, bi, ai br), each
    with one rounding. Probed on 67 random products, enough to reach both the
    vector loop and its tail, in the plain and the in-place form."""
    rng = np.random.default_rng(0)
    a, b = (rng.standard_normal((67, 2)).view(complex)[:, 0] for _ in range(2))
    in_place = a.copy()
    in_place *= b
    fused = [complex(_fma(x.real, y.real, -(x.imag * y.imag)), _fma(x.real, y.imag, x.imag * y.real))
             for x, y in zip(a.tolist(), b.tolist())]
    return np.array_equal(a * b, fused) and np.array_equal(in_place, fused)


def schroeder_t60(rir, fs, drop_lo=5.0, drop_hi=25.0):
    """Decay time from backward energy integration, fitted over the
    [-drop_lo, -drop_hi] dB span and extrapolated to -60 dB."""
    energy = np.asarray(rir, dtype=float) ** 2
    edc = np.cumsum(energy[::-1])[::-1]
    edc = edc / edc[0]
    db = 10.0 * np.log10(np.maximum(edc, 1e-300))
    i_lo = int(np.searchsorted(-db, drop_lo))
    i_hi = int(np.searchsorted(-db, drop_hi))
    if i_hi - i_lo < 8:
        return float("nan")
    t = np.arange(len(energy)) / fs
    slope, _ = np.polyfit(t[i_lo:i_hi], db[i_lo:i_hi], 1)
    return float(-60.0 / slope)


def image_source_rir(room, src, mic, fs, beta):
    """Mirror-image response accumulated image by image at reflectivity beta,
    each image's gain raised to its own reflection count: the per-trial
    computation that the library's lattice replay must reproduce bit for bit."""
    src, mic, dims = np.asarray(src, float), np.asarray(mic, float), room.dims
    c = 343.0
    direct = float(np.linalg.norm(src - mic))
    n_samples = max(int(np.ceil(1.2 * room.t60 * fs)), int(round(direct / c * fs)) + 1)
    reach = n_samples / fs * c
    grids = [np.arange(-m, m + 1) for m in np.ceil(reach / (2.0 * dims)).astype(int)]
    h = np.zeros(n_samples)
    for p in np.ndindex(2, 2, 2):
        coords = [(1 - 2 * p[d]) * src[d] + 2.0 * grids[d] * dims[d] for d in range(3)]
        orders = [np.abs(grids[d] - p[d]) + np.abs(grids[d]) for d in range(3)]
        order = orders[0][:, None, None] + orders[1][None, :, None] + orders[2][None, None, :]
        dist = np.sqrt(
            ((coords[0] - mic[0]) ** 2)[:, None, None]
            + ((coords[1] - mic[1]) ** 2)[None, :, None]
            + ((coords[2] - mic[2]) ** 2)[None, None, :]
        )
        keep = dist < reach
        amp = beta ** order[keep] / (4.0 * np.pi * dist[keep])
        idx = np.round(dist[keep] / c * fs).astype(np.int64)
        valid = idx < n_samples
        h += np.bincount(idx[valid], weights=amp[valid], minlength=n_samples)
    return h


def harmonic_distortion(nonlinearity, fs=16000, f0=500.0, amplitude=1.0, n=16000):
    """Total harmonic distortion of a pure tone pushed through a sample-wise
    nonlinearity, from the FFT magnitudes at integer harmonics."""
    t = np.arange(n)
    cycles = round(f0 * n / fs)
    x = amplitude * np.sin(2 * np.pi * cycles * t / n)
    spec = np.abs(np.fft.rfft(nonlinearity(x)))
    fund = spec[cycles]
    harmonics = [spec[k * cycles] for k in range(2, 8) if k * cycles < len(spec)]
    return float(np.sqrt(np.sum(np.square(harmonics))) / fund)
