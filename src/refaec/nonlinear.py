"""Loudspeaker distortion models and the training-time parameter sampler.

Three parametric families (saturating, exponential, polynomial) describe the
mild distortion regime; two composite models chain a clipping stage into a
sigmoid amplitude response to emulate harsher, unseen hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import TimeSignal

MATCHED_FAMILIES = ("saturating", "exponential", "polynomial")
MISMATCHED_FAMILIES = ("hard_clip_sigmoid", "soft_clip_sigmoid")

CLIP_THRESHOLD = 0.7
SIGMOID_GAIN = 2.0

_B_RANGE = (2.0, 5.0)


@dataclass(frozen=True)
class NonlinearityKind:
    """A distortion family plus its shape parameter where the family takes one."""

    family: str
    b: float | None = None

    def __post_init__(self):
        if self.family not in _MODELS:
            raise ValueError(f"unknown nonlinearity family: {self.family}")
        if self.family not in MATCHED_FAMILIES:
            if self.b is not None:
                raise ValueError(f"{self.family} takes no parameter")
        elif self.b is None:
            raise ValueError(f"{self.family} requires parameter b")
        elif not _B_RANGE[0] <= self.b <= _B_RANGE[1]:
            raise ValueError(f"b={self.b} outside [{_B_RANGE[0]}, {_B_RANGE[1]}]")


def _limiter(x, a: float):
    """Smooth amplitude limiter a*x/sqrt(a^2 + x^2); odd, |out| < a."""
    x = np.asarray(x, dtype=np.float64)
    return a * x / np.sqrt(a * a + x * x)


def saturating(x, b: float):
    """Smooth amplitude limiter with a = 5/b (see _limiter); odd, |out| < a."""
    return _limiter(x, 5.0 / b)


def exponential(x, b: float):
    """Asymmetric response 1 - exp(-a*x) with a = b/10; strictly increasing."""
    a = b / 10.0
    x = np.asarray(x, dtype=np.float64)
    return 1.0 - np.exp(-a * x)


def _polynomial_raw(x, a: float):
    x = np.asarray(x, dtype=np.float64)
    return 2.0 * a * x + a * x * x + x**3


def polynomial(x, b: float):
    """Cubic response 2a*x + a*x^2 + x^3 with a = ln(b/10) + 0.1."""
    return _polynomial_raw(x, np.log(b / 10.0) + 0.1)


def hard_clip(x):
    """Clamp to [-CLIP_THRESHOLD, CLIP_THRESHOLD]."""
    return np.clip(np.asarray(x, dtype=np.float64), -CLIP_THRESHOLD, CLIP_THRESHOLD)


def soft_clip(x):
    """Gradual limiter x*c/sqrt(c^2 + x^2) with c = CLIP_THRESHOLD; odd, |out| < c."""
    return _limiter(x, CLIP_THRESHOLD)


def sigmoid_stage(x):
    """Sigmoid amplitude response with slope 4 above zero and 0.5 below.

    z = 1.5x - 0.3x^2 feeds a gain-2 sigmoid centered at zero, so the output
    stays inside (-1, 1) and is deliberately asymmetric.
    """
    x = np.asarray(x, dtype=np.float64)
    z = 1.5 * x - 0.3 * x * x
    nu = np.where(z > 0, 4.0, 0.5)
    with np.errstate(over="ignore"):  # exp overflow saturates the sigmoid, by design
        return SIGMOID_GAIN * (1.0 / (1.0 + np.exp(-nu * z)) - 0.5)


# every family's response to raw samples, called as model(x, b); only the
# matched families take the shape parameter b, the others get None
_MODELS = {
    "identity": lambda x, _: np.asarray(x, dtype=np.float64),
    "saturating": saturating,
    "exponential": exponential,
    "polynomial": polynomial,
    "hard_clip_sigmoid": lambda x, _: sigmoid_stage(hard_clip(x)),
    "soft_clip_sigmoid": lambda x, _: sigmoid_stage(soft_clip(x)),
}


def distort(x, kind: NonlinearityKind):
    """Apply one distortion model to raw samples."""
    return _MODELS[kind.family](x, kind.b)


def apply_nonlinearity(sig: TimeSignal, kind: NonlinearityKind) -> TimeSignal:
    """Sample-wise distortion of a waveform; identity passes bits through."""
    return TimeSignal(distort(sig.samples, kind))


def sample_kind(rng: np.random.Generator, matched: bool = True) -> NonlinearityKind:
    """Draw a distortion model: one of the three parametric families with
    b ~ Uniform[2, 5] when matched, else one of the two composite models."""
    if matched:
        family = MATCHED_FAMILIES[rng.integers(len(MATCHED_FAMILIES))]
        return NonlinearityKind(family, b=float(rng.uniform(*_B_RANGE)))
    family = MISMATCHED_FAMILIES[rng.integers(len(MISMATCHED_FAMILIES))]
    return NonlinearityKind(family)
