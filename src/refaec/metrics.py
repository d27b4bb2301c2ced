"""Evaluation metrics: echo reduction, signal-to-distortion ratio, stretched
scale-invariant SNR and a compressed complex-spectrum distance.

All log-ratio metrics share a 1e-12 energy floor and a 100 dB cap so reports
stay finite for perfect or degenerate estimates. Sums of products go through
`dsp.pairwise_dot` rather than BLAS, so reports are the same bits on any
number of CPUs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dsp import Spectrogram, TimeSignal, pairwise_dot, stft_forward
from .dsp import require_one_grid, require_one_length

ENERGY_FLOOR = 1e-12
DB_CAP = 100.0
RI_MAG_POWER = 0.5

SCENARIOS = ("DT", "ST_NE", "ST_FE")


@dataclass
class MetricReport:
    """Per-scene scores; fields are None where the scenario does not define them."""

    scenario: str
    erle_db: float | None = None
    sdr_db: float | None = None
    s_sisnr_db: float | None = None
    ri_mag_loss: float | None = None


def _log_ratio_db(num: float, den: float) -> float:
    return float(min(10.0 * np.log10((num + ENERGY_FLOOR) / (den + ENERGY_FLOOR)), DB_CAP))


def erle(y: TimeSignal, e: TimeSignal) -> float:
    """Echo reduction in dB: pre-cancellation mic signal y against residual e."""
    require_one_length(y, e)
    return _log_ratio_db(y.energy(), e.energy())


def sdr(target: TimeSignal, estimate: TimeSignal) -> float:
    """Plain signal-to-distortion ratio in dB, no scaling projection or
    distortion filter."""
    require_one_length(target, estimate)
    err = target.samples - estimate.samples
    return _log_ratio_db(target.energy(), pairwise_dot(err, err))


def s_sisnr(target: TimeSignal, estimate: TimeSignal) -> float:
    """Stretched scale-invariant SNR: 10*log10((1+cos)/(1-cos)) of the
    zero-mean cosine similarity, clamped to [-100, 100] dB.

    Positive scaling of either argument leaves the value unchanged.
    """
    require_one_length(target, estimate)
    t = target.samples - np.mean(target.samples)
    e = estimate.samples - np.mean(estimate.samples)
    nt = np.sqrt(pairwise_dot(t, t))
    ne = np.sqrt(pairwise_dot(e, e))
    if nt == 0.0 or ne == 0.0:
        raise ValueError("s_sisnr needs nonzero (non-constant) signals")
    cos = float(np.clip(pairwise_dot(t, e) / (nt * ne), -1.0, 1.0))
    with np.errstate(divide="ignore"):
        value = 10.0 * np.log10((1.0 + cos) / (1.0 - cos)) if cos < 1.0 else np.inf
    return float(np.clip(value, -DB_CAP, DB_CAP))


def _compress(data: np.ndarray, p: float) -> np.ndarray:
    mag = np.abs(data)
    scale = np.zeros_like(mag)
    np.power(mag, p - 1.0, out=scale, where=mag > 0)
    return data * scale


def ri_mag_loss(S: Spectrogram, S_hat: Spectrogram) -> float:
    """Power-law-compressed complex difference plus compressed magnitude
    difference, summed over all T-F units, at power RI_MAG_POWER. Both
    spectrograms must share one shape and STFT config."""
    require_one_grid(S, S_hat)
    p = RI_MAG_POWER
    comp = _compress(S.data, p)
    comp_hat = _compress(S_hat.data, p)
    l_ri = float(np.sum(np.abs(comp - comp_hat) ** 2))
    l_mag = float(np.sum((np.abs(S.data) ** p - np.abs(S_hat.data) ** p) ** 2))
    return l_ri + l_mag


def evaluate_estimate(
    scenario: str,
    y: TimeSignal,
    s_direct: TimeSignal,
    estimate: TimeSignal,
) -> MetricReport:
    """Scores for one estimate given the scenario and the reference signals.

    Far-end single talk reports echo reduction only; the other scenarios score
    the estimate against the direct-path near-end target.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    if scenario == "ST_FE":
        return MetricReport(scenario=scenario, erle_db=erle(y, estimate))
    return MetricReport(
        scenario=scenario,
        sdr_db=sdr(s_direct, estimate),
        s_sisnr_db=s_sisnr(s_direct, estimate),
        ri_mag_loss=ri_mag_loss(stft_forward(s_direct), stft_forward(estimate)),
    )


def report_record(report: MetricReport, scene_id: str) -> dict:
    """Flat serializable record for one scene: its id, MetricReport's fields
    in their order, and the PESQ placeholder."""
    return {"scene_id": scene_id, **asdict(report), "pesq": "unavailable"}
