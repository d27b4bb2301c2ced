import re

import numpy as np
import pytest
from helpers import random_spectrogram
from hypothesis import given, settings
from hypothesis import strategies as st

from refaec import (
    MaskConfig,
    Spectrogram,
    StftConfig,
    WienerConfig,
    apply_mask,
    compute_mask,
    wstws_cancel,
)
from refaec.masking import mask_from_estimates

REF_WIENER = WienerConfig(taps=1, window_frames=16)


def test_mask_is_one_when_near_estimate_vanishes(rng):
    far = np.abs(rng.standard_normal((4, 5))) + 0.1
    mask = mask_from_estimates(far, np.zeros_like(far))
    assert np.all(mask == 1.0)


def test_mask_is_zero_when_far_estimate_vanishes(rng):
    near = np.abs(rng.standard_normal((4, 5))) + 0.1
    mask = mask_from_estimates(np.zeros_like(near), near)
    assert np.all(mask == 0.0)


def test_mask_half_for_equal_estimates(rng):
    mags = np.abs(rng.standard_normal((4, 5))) + 0.1
    mask = mask_from_estimates(mags, mags)
    assert np.allclose(mask, 0.5, atol=1e-15)


def test_mask_silent_units_are_zero():
    mask = mask_from_estimates(np.zeros((3, 3)), np.zeros((3, 3)))
    assert np.all(mask == 0.0)


def test_apply_mask_zero_exponent_is_identity(rng):
    R = random_spectrogram(rng, 12)
    values = rng.uniform(0, 1, size=R.data.shape)
    values[0, 0] = 0.0  # exercise the 0**0 = 1 convention
    out = apply_mask(R, values, 0.0)
    assert np.array_equal(out.data, R.data)


def test_apply_mask_unit_exponent_pointwise():
    cfg = StftConfig(window_len=4, hop=2)
    R = Spectrogram(np.full((1, 3), 2.0 + 0.0j), cfg)
    values = np.full((1, 3), 0.25)
    out = apply_mask(R, values, 1.0)
    assert np.allclose(out.data, 0.5 + 0.0j, atol=1e-15)


def test_apply_mask_sixth_root_gain():
    cfg = StftConfig(window_len=4, hop=2)
    R = Spectrogram(np.ones((1, 3), dtype=complex), cfg)
    out = apply_mask(R, np.full((1, 3), 0.5), 1.0 / 6.0)
    # 0.5 ** (1/6), hand-computed
    assert np.allclose(out.data.real, 0.8908987181403393, atol=1e-12)


def test_purify_keeps_in_model_far_end_reference(rng):
    n_frames = 80
    X = random_spectrogram(rng, n_frames)
    gains = rng.standard_normal(X.n_bins) + 1j * rng.standard_normal(X.n_bins)
    R = X.like(gains * X.data)
    cfg = MaskConfig()
    out = apply_mask(R, compute_mask(R, X, cfg, REF_WIENER), cfg.compression)
    w = REF_WIENER.window_frames
    kept = np.sum(np.abs(out.data[w:]) ** 2) / np.sum(np.abs(R.data[w:]) ** 2)
    assert kept >= 0.99


def test_purify_kills_near_end_only_reference(rng):
    R = random_spectrogram(rng, 30)
    X = Spectrogram(np.zeros_like(R.data), R.config)
    cfg = MaskConfig()
    mask = compute_mask(R, X, cfg, REF_WIENER)
    assert np.all(mask == 0.0)
    out = apply_mask(R, mask, cfg.compression)
    assert np.all(out.data == 0.0)


def test_purify_mixed_reference_suppresses_near_end(rng):
    n_frames = 120
    X = random_spectrogram(rng, n_frames)
    gains = rng.standard_normal(X.n_bins) + 1j * rng.standard_normal(X.n_bins)
    r_far = gains * X.data
    # bursty near-end: loud where active (as talkers are), 20 dB down overall
    active = rng.uniform(size=X.data.shape) < 0.05
    burst = rng.standard_normal(X.data.shape) + 1j * rng.standard_normal(X.data.shape)
    r_near = np.where(active, burst, 0.0)
    target = np.sum(np.abs(r_far) ** 2) / 100.0
    r_near *= np.sqrt(target / np.sum(np.abs(r_near) ** 2))
    R = X.like(r_far + r_near)
    cfg = MaskConfig()
    mask = compute_mask(R, X, cfg, REF_WIENER)
    out = apply_mask(R, mask, cfg.compression)
    assert out.data.shape == R.data.shape

    w = REF_WIENER.window_frames
    gains_applied = mask**cfg.compression
    far_kept = np.sum(np.abs(gains_applied[w:] * r_far[w:]) ** 2) / np.sum(
        np.abs(r_far[w:]) ** 2
    )
    near_kept = np.sum(np.abs(gains_applied[w:] * r_near[w:]) ** 2) / np.sum(
        np.abs(r_near[w:]) ** 2
    )
    assert 10 * np.log10(far_kept) > -1.0
    assert near_kept < far_kept
    assert 10 * np.log10(near_kept) < -0.5


def test_mask_bounds_and_attenuation_properties(rng):
    for _ in range(25):
        n_frames = int(rng.integers(4, 30))
        R = random_spectrogram(rng, n_frames, scale=float(rng.uniform(0.1, 10)))
        X = random_spectrogram(rng, n_frames, scale=float(rng.uniform(0.1, 10)))
        cfg = MaskConfig()
        mask = compute_mask(R, X, cfg, REF_WIENER)
        assert np.all(mask >= 0.0) and np.all(mask <= 1.0)
        out = apply_mask(R, mask, cfg.compression)
        assert np.all(np.abs(out.data) <= np.abs(R.data) + 1e-12)
        # phase preserved wherever output is nonzero
        nz = np.abs(out.data) > 0
        assert np.allclose(
            np.angle(out.data[nz]), np.angle(R.data[nz]), atol=1e-12
        )


def test_attenuation_monotone_in_compression(rng):
    R = random_spectrogram(rng, 10)
    mask = rng.uniform(0, 1, size=R.data.shape)
    m_weak = np.abs(apply_mask(R, mask, 0.1).data)
    m_strong = np.abs(apply_mask(R, mask, 0.9).data)
    assert np.all(m_weak >= m_strong - 1e-15)


@settings(max_examples=100, deadline=None)
@given(
    far=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    near=st.floats(min_value=0, max_value=1e6, allow_nan=False),
)
def test_mask_formula_stays_in_unit_interval(far, near):
    value = mask_from_estimates(np.array([[far]]), np.array([[near]]))[0, 0]
    assert 0.0 <= value <= 1.0


def test_mask_uses_the_taps_of_its_wiener_config(rng):
    R = random_spectrogram(rng, 40)
    X = random_spectrogram(rng, 40)
    cfg = WienerConfig(taps=4, window_frames=16)
    mask = compute_mask(R, X, MaskConfig(), cfg)
    assert type(mask) is np.ndarray and mask.dtype == np.float64
    assert not np.array_equal(mask, compute_mask(R, X, MaskConfig(), REF_WIENER))
    near = wstws_cancel(R, X, cfg)[0].data
    far = R.data - near
    assert np.array_equal(mask, np.abs(far) / (np.abs(far) + np.abs(near)))


def test_mask_config_validation():
    with pytest.raises(ValueError):
        MaskConfig(compression=1.5)


@pytest.mark.parametrize(
    "mask, message",
    [
        (np.array([[0.5, 1.2, 0.5]]), "mask values must lie in [0, 1]"),
        (np.array([[0.5, -0.1, 0.5]]), "mask values must lie in [0, 1]"),
        (np.array([[0.5, np.nan, 0.5]]), "mask values must lie in [0, 1]"),
        (np.full((2, 3), 0.5), "mask shape (2, 3) differs from spectrogram shape (1, 3)"),
    ],
    ids=["above_one", "below_zero", "nan", "shape"],
)
def test_apply_mask_rejects_a_bad_mask(mask, message):
    R = Spectrogram(np.ones((1, 3), dtype=complex), StftConfig(window_len=4, hop=2))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        apply_mask(R, mask, 1.0 / 6.0)
