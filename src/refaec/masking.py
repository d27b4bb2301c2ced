"""Reference-signal purification.

The auxiliary microphone sits next to the loudspeaker, so its signal is
dominated by the (possibly distorted) far-end sound but still picks up the
near-end talker. A single-tap Wiener cancellation of the far-end signal
leaves a near-end estimate; a compressed ratio mask built from the two
component estimates then suppresses the near-end contribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import Spectrogram
from .wiener import WienerConfig, wstws_cancel


@dataclass(frozen=True)
class MaskConfig:
    compression: float = 1.0 / 6.0

    def __post_init__(self):
        if not 0.0 <= self.compression <= 1.0:
            raise ValueError("compression must lie in [0, 1]")


def mask_from_estimates(far_mag: np.ndarray, near_mag: np.ndarray) -> np.ndarray:
    """|far| / (|far| + |near|), with silent units (0/0) mapped to 0. With
    |near| >= 0 the rounded sum is at least |far|, so no quotient exceeds 1."""
    total = far_mag + near_mag
    out = np.zeros_like(total)
    np.divide(far_mag, total, out=out, where=total > 0)
    return out


def compute_mask(
    R: Spectrogram, X: Spectrogram, cfg: MaskConfig, wiener_cfg: WienerConfig
) -> np.ndarray:
    """Gains in [0, 1], one per T-F unit of R, that keep its far-end-explained part.

    The cancellation residual of R against X estimates the near-end
    contamination; what the filter removed estimates the far-end component.
    wiener_cfg alone sets that cancellation, taps included; cfg only carries
    the compression that apply_mask uses.
    """
    near, _ = wstws_cancel(R, X, wiener_cfg)
    far = R.data - near.data
    return mask_from_estimates(np.abs(far), np.abs(near.data))


def apply_mask(R: Spectrogram, mask: np.ndarray, compression: float) -> Spectrogram:
    """Pointwise product of R with the mask raised to the compression exponent.

    compression = 0 is the identity (0**0 reads as 1); compression = 1 applies
    the raw mask.
    """
    if not 0.0 <= compression <= 1.0:
        raise ValueError("compression must lie in [0, 1]")
    if mask.shape != R.data.shape:
        raise ValueError(f"mask shape {mask.shape} differs from spectrogram shape {R.data.shape}")
    if not np.all((mask >= 0) & (mask <= 1)):
        raise ValueError("mask values must lie in [0, 1]")
    return R.like(mask**compression * R.data)

