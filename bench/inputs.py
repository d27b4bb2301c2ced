"""Seeded input generation. Kept inside the benchmark so that refactors of
the library or its tests cannot change what the benchmark feeds in."""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter

FS = 16000


def workload_rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    """Independent generator per (seed, stream, index): adding scenes or
    streams never shifts the draws of the others."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream, index)))


def speech_like(rng: np.random.Generator, n: int, fs: int = FS, peak: float = 0.95) -> np.ndarray:
    """Syllabically modulated coloured noise: broad spectrum, speech-ish
    envelope that never falls silent, peak-normalised so the clipping
    distortion stages engage."""
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
    return sig * (peak / np.abs(sig).max())
