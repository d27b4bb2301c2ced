"""STFT analysis/synthesis and the time/frequency containers shared by all stages."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal.windows import hamming

# The toolkit's only sample rate, in Hz: wavio.read_wav refuses a file at any
# other rate, so no container carries one.
SAMPLE_RATE = 16000

_OLA_FLOOR = 1e-12


def pairwise_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of a * b by numpy's pairwise summation.

    A BLAS dot product splits long sums across its threads, so its last bits
    follow the thread count, and the OpenBLAS thread it wakes keeps spinning
    for about 0.1 s after the call returns, taking a core from other work.
    """
    return float(np.sum(a * b))


def require_int(name: str, value) -> None:
    """Raise a one-line ValueError unless value is an integer (numpy integers
    included, bools not)."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _as_mono_float(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a mono 1-D signal, got shape {arr.shape}")
    return arr


@dataclass(eq=False)
class TimeSignal:
    """Mono waveform at SAMPLE_RATE; amplitudes are dimensionless, nominally in [-1, 1]."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = _as_mono_float(self.samples)
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("signal contains non-finite samples")

    def __len__(self) -> int:
        return len(self.samples)

    def energy(self) -> float:
        return pairwise_dot(self.samples, self.samples)


@dataclass(frozen=True)
class StftConfig:
    """Analysis/synthesis parameters. Defaults are 20 ms windows with 10 ms hop at 16 kHz.
    Frames are weighted by the periodic Hamming window."""

    window_len: int = 320
    hop: int = 160

    def __post_init__(self):
        require_int("window_len", self.window_len)
        require_int("hop", self.hop)
        if self.window_len <= 0 or self.window_len % 2 != 0:
            raise ValueError("window_len must be a positive even sample count")
        if not 0 < self.hop <= self.window_len:
            raise ValueError("hop must satisfy 0 < hop <= window_len")

    @property
    def n_bins(self) -> int:
        return self.window_len // 2 + 1

    def n_frames(self, n_samples: int) -> int:
        if n_samples < self.window_len:
            raise ValueError(
                f"signal of {n_samples} samples is shorter than one {self.window_len}-sample window"
            )
        return 1 + (n_samples - self.window_len) // self.hop

    def analysis_window(self) -> np.ndarray:
        return hamming(self.window_len, sym=False)


@dataclass(eq=False)
class Spectrogram:
    """One-sided complex T-F matrix, frames along axis 0 and bins along axis 1."""

    data: np.ndarray
    config: StftConfig

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 2 or len(self.data) == 0:
            raise ValueError(f"spectrogram must be 2-D with frames, got shape {self.data.shape}")
        if self.data.shape[1] != self.config.n_bins:
            raise ValueError(
                f"spectrogram has {self.data.shape[1]} bins, config expects {self.config.n_bins}"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("spectrogram contains non-finite entries")

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def n_bins(self) -> int:
        return self.data.shape[1]

    def like(self, data: np.ndarray) -> "Spectrogram":
        """New spectrogram sharing this one's config."""
        return Spectrogram(data, self.config)


def require_one_grid(*specs: Spectrogram) -> None:
    """Raise a one-line ValueError naming every grid unless all the
    spectrograms share one shape and STFT config."""
    grids = [(s.data.shape, s.config) for s in specs]
    if len(set(grids)) > 1:
        named = " vs ".join(f"{shape} {cfg}" for shape, cfg in grids)
        raise ValueError(f"spectrograms disagree on shape or grid: {named}")


def require_one_length(*signals: TimeSignal) -> None:
    """Raise a one-line ValueError naming every signal's sample count unless
    all the signals share one length."""
    lengths = [len(s) for s in signals]
    if len(set(lengths)) > 1:
        named = " vs ".join(f"{n} samples" for n in lengths)
        raise ValueError(f"signals differ in length: {named}")


def stft_forward(sig: TimeSignal, cfg: StftConfig | None = None) -> Spectrogram:
    """Windowed one-sided STFT.

    Frames start at multiples of the hop; trailing samples that do not fill a
    window are dropped. Callers that need them must pad explicitly, which keeps
    frame counts deterministic across the toolkit.
    """
    cfg = cfg or StftConfig()
    n_frames = cfg.n_frames(len(sig))
    frames = sliding_window_view(sig.samples, cfg.window_len)[:: cfg.hop][:n_frames]
    spec = np.fft.rfft(frames * cfg.analysis_window(), axis=1)
    return Spectrogram(spec, cfg)


def stft_inverse(spec: Spectrogram) -> TimeSignal:
    """Overlap-add synthesis with the least-squares compensation window.

    Each analysis-windowed frame is weighted by the analysis window again and
    the overlap-added result is normalized by the summed squared window, which
    reconstructs the input exactly wherever at least one frame covers it.
    """
    cfg = spec.config
    win = cfg.analysis_window()
    frames = np.fft.irfft(spec.data, n=cfg.window_len, axis=1)
    n_frames, hop = spec.n_frames, cfg.hop
    out_len = (n_frames - 1) * hop + cfg.window_len
    n_pieces = -(-cfg.window_len // hop)
    # output in hop-long blocks: piece j of frame t lands in block t + j
    num = np.zeros((n_frames + n_pieces - 1, hop))
    den = np.zeros_like(num)
    weighted = frames * win
    win_sq = win * win
    # last piece first, so every sample sums its frames in frame order, as a
    # frame-by-frame overlap-add does
    for j in reversed(range(n_pieces)):
        lo = j * hop
        width = min(hop, cfg.window_len - lo)
        num[j : j + n_frames, :width] += weighted[:, lo : lo + width]
        den[j : j + n_frames, :width] += win_sq[lo : lo + width]
    num = num.reshape(-1)[:out_len]
    den = den.reshape(-1)[:out_len]
    return TimeSignal(num / np.maximum(den, _OLA_FLOOR))

