"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its measured margin when it completes.

Run with `pytest tests/test_acceptance.py -v -s`. The directional echo study
(criterion 3) synthesizes 200 scenes per condition on the scene pool and is
the slowest criterion by far.
"""

import time
from functools import partial

import numpy as np
import pytest
from helpers import criterion_10_tree, dense_normal_equations, schroeder_t60, speech_like

from refaec import (
    MaskConfig,
    RunConfig,
    Spectrogram,
    StftConfig,
    TimeSignal,
    WienerConfig,
    apply_mask,
    compute_mask,
    erle,
    image_method_rir,
    ri_mag_loss,
    s_sisnr,
    sample_geometry,
    sample_kind,
    sample_room,
    sdr,
    stft_forward,
    stft_inverse,
    synthesize_scene,
    wstws_cancel,
)
from refaec import pipeline, roomsim
from refaec.nonlinear import exponential, hard_clip, saturating, sigmoid_stage, soft_clip
from refaec.wiener import stws_config

FS = 16000


def _report(n, name, detail):
    print(f"\nACCEPTANCE {n} ({name}): PASS [{detail}]")


# -- criterion 1 -----------------------------------------------------------


def test_criterion_1_wiener_oracle_equivalence():
    rng = np.random.default_rng(101)
    cfg_stft = StftConfig(window_len=28, hop=14)  # 15 bins keeps instances small
    start = time.time()
    worst = 0.0
    n_instances = 1000
    for i in range(n_instances):
        taps = int(rng.integers(1, 9))
        window = int(rng.integers(taps, 33))
        n_frames = int(rng.integers(window + 2, window + 24))
        shape = (n_frames, cfg_stft.n_bins)
        Y = Spectrogram(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), cfg_stft)
        X = Spectrogram(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), cfg_stft)
        cfg = WienerConfig(taps=taps, window_frames=window, weighted=bool(i % 2))
        t = int(rng.integers(0, n_frames))
        f = int(rng.integers(0, cfg_stft.n_bins))
        oracle = dense_normal_equations(Y, X, t, f, cfg)
        ours = wstws_cancel(Y, X, cfg)[1].taps[t, f]
        err = np.linalg.norm(ours - oracle) / max(np.linalg.norm(oracle), 1e-30)
        worst = max(worst, err)
        assert err < 1e-6
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(1, "wiener oracle equivalence", f"{n_instances} instances, worst {worst:.2e}, {elapsed:.1f}s")


# -- criterion 2 -----------------------------------------------------------


def test_criterion_2_in_model_cancellation():
    rng = np.random.default_rng(202)
    taps = 6
    n_frames = 200
    cfg_stft = StftConfig()
    shape = (n_frames, cfg_stft.n_bins)
    X = Spectrogram(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), cfg_stft)
    gains = rng.standard_normal((taps, cfg_stft.n_bins)) + 1j * rng.standard_normal(
        (taps, cfg_stft.n_bins)
    )
    data = np.zeros(shape, dtype=complex)
    for k in range(taps):
        data[k:] += gains[k] * X.data[: n_frames - k]
    Y = X.like(data)
    cfg = WienerConfig(taps=taps, window_frames=24)
    residual, _ = wstws_cancel(Y, X, cfg)
    w = cfg.window_frames
    ratio_db = 10 * np.log10(
        np.sum(np.abs(residual.data[w:]) ** 2) / np.sum(np.abs(Y.data[w:]) ** 2)
    )
    assert ratio_db <= -80.0
    _report(2, "in-model cancellation", f"residual {ratio_db:.1f} dB")


# -- criterion 3 -----------------------------------------------------------


def _erle_study_scene(key, cfg):
    """ERLE of the three routes on one far-end single-talk scene; key is
    (index, matched), which also seeds the scene."""
    index, matched = key
    rng = np.random.default_rng(30_000 + 10_000 * int(matched) + index)
    duration = 2.5
    n = int(duration * FS)
    room = sample_room(rng, t60_range=(0.1, 0.4))
    geom = sample_geometry(room, rng)
    kind = sample_kind(rng, matched=matched)
    x = speech_like(rng, n)
    silent = TimeSignal(np.zeros(n))
    scene = synthesize_scene(room, geom, silent, x, kind, None, seed=index, duration=duration)

    Y = stft_forward(scene.y, cfg.stft)
    X = stft_forward(scene.x, cfg.stft)
    R = stft_forward(scene.r, cfg.stft)
    mask = compute_mask(R, X, cfg.mask, cfg.wiener_ref)
    Rm = apply_mask(R, mask, cfg.mask.compression)

    out = {}
    res, _ = wstws_cancel(Y, X, cfg.wiener_main)
    out["wstws_yx"] = erle(scene.y, stft_inverse(res))
    res, _ = wstws_cancel(Y, Rm, cfg.wiener_main)
    out["wstws_yrm"] = erle(scene.y, stft_inverse(res))
    res, _ = wstws_cancel(Y, Rm, stws_config(cfg.wiener_main))
    out["stws_yrm"] = erle(scene.y, stft_inverse(res))
    return out


def _bootstrap_means(rng, values, n_boot=2000):
    values = np.asarray(values)
    idx = rng.integers(0, len(values), size=(n_boot, len(values)))
    return values[idx].mean(axis=1)


@pytest.mark.slow
def test_criterion_3_directional_echo_study():
    n_scenes = 200
    cfg = RunConfig(
        wiener_main=WienerConfig(taps=8, window_frames=80),
        wiener_ref=WienerConfig(taps=1, window_frames=80),
    )
    start = time.time()
    # the scenes are independent, so they run on the scene pool
    conditions = (False, True)
    keys = [(i, matched) for matched in conditions for i in range(n_scenes)]
    scores = pipeline._map_scenes(partial(_erle_study_scene, cfg=cfg), keys)
    results = {}
    for c, matched in enumerate(conditions):
        rows = scores[c * n_scenes : (c + 1) * n_scenes]
        results[matched] = {key: np.array([row[key] for row in rows]) for key in rows[0]}
    elapsed = time.time() - start

    boot_rng = np.random.default_rng(99)
    mis = results[False]
    mat = results[True]

    # (a) masked-reference route beats the far-end route by >= 3 dB under
    #     mismatched distortion, with 90% bootstrap confidence
    gap_mis = _bootstrap_means(boot_rng, mis["wstws_yrm"]) - _bootstrap_means(
        boot_rng, mis["wstws_yx"]
    )
    gap_mis_q10 = np.quantile(gap_mis, 0.10)
    assert gap_mis_q10 >= 3.0

    # (b) the matched-condition gap is smaller than the mismatched-condition gap
    gap_mat = _bootstrap_means(boot_rng, mat["wstws_yrm"]) - _bootstrap_means(
        boot_rng, mat["wstws_yx"]
    )
    assert np.mean(gap_mis - gap_mat > 0) >= 0.9
    assert mat["wstws_yrm"].mean() - mat["wstws_yx"].mean() < mis["wstws_yrm"].mean() - mis[
        "wstws_yx"
    ].mean()

    # (c) unweighted masked-reference route beats the weighted far-end route
    #     under mismatch
    adv = _bootstrap_means(boot_rng, mis["stws_yrm"]) - _bootstrap_means(
        boot_rng, mis["wstws_yx"]
    )
    assert np.mean(adv > 0) >= 0.9

    assert elapsed < 600.0
    detail = (
        f"mismatched ERLE yx {mis['wstws_yx'].mean():.1f} / yrm {mis['wstws_yrm'].mean():.1f}"
        f" / stws-yrm {mis['stws_yrm'].mean():.1f} dB; matched yx {mat['wstws_yx'].mean():.1f}"
        f" / yrm {mat['wstws_yrm'].mean():.1f} dB; gap q10 {gap_mis_q10:.1f} dB; {elapsed:.0f}s"
    )
    _report(3, "directional echo study", detail)


# -- criterion 4 -----------------------------------------------------------


def test_criterion_4_stft_perfect_reconstruction():
    rng = np.random.default_rng(404)
    cfg = StftConfig()
    worst = 0.0
    for _ in range(100):
        sig = TimeSignal(rng.standard_normal(96000))
        back = stft_inverse(stft_forward(sig, cfg))
        lo, hi = cfg.window_len - cfg.hop, cfg.n_frames(len(sig)) * cfg.hop
        err = np.linalg.norm(back.samples[lo:hi] - sig.samples[lo:hi]) / np.linalg.norm(
            sig.samples[lo:hi]
        )
        worst = max(worst, err)
        assert err <= 1e-6
    _report(4, "stft perfect reconstruction", f"100 signals, worst {worst:.2e}")


# -- criterion 5 -----------------------------------------------------------


def test_criterion_5_rir_validity():
    rng = np.random.default_rng(505)
    n_rooms = 100
    within = 0
    delay_ok = 0
    for i in range(n_rooms):
        room = sample_room(rng)
        geom = sample_geometry(room, rng)
        h = image_method_rir(room, geom.talker, geom.main_mic, FS)
        estimate = schroeder_t60(h, FS)
        if np.isfinite(estimate) and abs(estimate - room.t60) / room.t60 <= 0.25:
            within += 1
        d = np.linalg.norm(np.subtract(geom.talker, geom.main_mic))
        if abs(np.flatnonzero(h)[0] - round(FS * d / 343.0)) <= 1:
            delay_ok += 1
    assert within >= 90
    assert delay_ok == n_rooms
    _report(5, "rir validity", f"t60 within 25%: {within}/100, delay exact: {delay_ok}/100")


# -- criterion 6 -----------------------------------------------------------


def test_criterion_6_nonlinearity_analytic_suite():
    grid = np.linspace(-1.0, 1.0, 100_000)
    for b in (2.0, 3.5, 5.0):
        assert saturating(0.0, b) == 0.0
        assert exponential(0.0, b) == 0.0
        assert np.all(np.abs(saturating(grid, b)) < 5.0 / b)
        assert np.all(np.diff(exponential(grid, b)) > 0)
    from refaec.nonlinear import polynomial

    assert polynomial(0.0, 3.0) == 0.0
    assert hard_clip(0.0) == 0.0 and sigmoid_stage(0.0) == 0.0 and soft_clip(0.0) == 0.0
    assert np.all(np.abs(soft_clip(grid * 1e6)) < 0.7)
    assert np.all(np.abs(sigmoid_stage(grid)) < 1.0)
    clipped = hard_clip(grid * 3)
    assert np.array_equal(hard_clip(clipped), clipped)
    _report(6, "nonlinearity analytic suite", "zero maps, bounds, idempotence, monotonicity on 1e5 grids")


# -- criterion 7 -----------------------------------------------------------


def test_criterion_7_mask_properties():
    rng = np.random.default_rng(707)
    cfg_stft = StftConfig(window_len=28, hop=14)
    wiener_ref = WienerConfig(taps=1, window_frames=8)
    mask_cfg = MaskConfig()
    for case in range(1000):
        n_frames = int(rng.integers(3, 18))
        shape = (n_frames, cfg_stft.n_bins)
        scale = float(rng.uniform(0.05, 20.0))
        R = Spectrogram(
            scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)), cfg_stft
        )
        X = Spectrogram(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), cfg_stft)
        mask = compute_mask(R, X, mask_cfg, wiener_ref)
        assert np.all(mask.values >= 0.0) and np.all(mask.values <= 1.0)
        identity = apply_mask(R, mask, 0.0)
        assert np.array_equal(identity.data, R.data)
        masked = apply_mask(R, mask, mask_cfg.compression)
        assert np.all(np.abs(masked.data) <= np.abs(R.data) + 1e-12)
        nz = np.abs(masked.data) > 0
        assert np.allclose(np.angle(masked.data[nz]), np.angle(R.data[nz]), atol=1e-12)
    _report(7, "mask and purifier properties", "1000 random cases")


# -- criterion 8 -----------------------------------------------------------


def test_criterion_8_metric_fixed_points():
    rng = np.random.default_rng(808)
    y = speech_like(rng, 8000)
    assert erle(y, y) == pytest.approx(0.0, abs=1e-12)
    assert sdr(y, y) == 100.0
    est = speech_like(rng, 8000)
    assert s_sisnr(y, est) == s_sisnr(y, TimeSignal(2.0 * est.samples))
    cfg = StftConfig(window_len=4, hop=2)
    S = Spectrogram(np.array([[1.0 + 0j, 0j, 0j]]), cfg)
    Z = Spectrogram(np.zeros((1, 3), dtype=complex), cfg)
    assert ri_mag_loss(S, S) == 0.0
    assert abs(ri_mag_loss(S, Z) - 2.0) <= 1e-12
    _report(8, "metric fixed points", "erle/sdr caps, exact scale invariance, unit loss = 2")


# -- criterion 9 -----------------------------------------------------------


def test_criterion_9_reference_proximity():
    rng = np.random.default_rng(909)
    n_scenes = 100
    hits = 0
    for _ in range(n_scenes):
        room = sample_room(rng)
        geom = sample_geometry(room, rng)
        h1, h2, h3, h4 = roomsim._scene_rirs(room, geom, FS)
        ratio_ref = np.dot(h4, h4) / np.dot(h3, h3)
        ratio_main = np.dot(h2, h2) / np.dot(h1, h1)
        hits += ratio_ref > ratio_main
    assert hits >= 95
    _report(9, "reference proximity", f"{hits}/100 scenes")


# -- criterion 10 ----------------------------------------------------------


def test_criterion_10_end_to_end_determinism(tmp_path):
    def execute(root, workers=None):
        criterion_10_tree(tmp_path, root, workers)
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    tree_a = execute(tmp_path / "exec_a")
    tree_b = execute(tmp_path / "exec_b")
    assert tree_a.keys() == tree_b.keys()
    for key in tree_a:
        assert tree_a[key] == tree_b[key], f"byte mismatch in {key}"
    _report(10, "end-to-end determinism", f"{len(tree_a)} files byte-identical across executions")

    # the same tree whether the scenes run inline or on two worker processes
    for workers in (1, 2):
        tree = execute(tmp_path / f"exec_{workers}_workers", workers)
        assert tree.keys() == tree_a.keys()
        for key in tree_a:
            assert tree[key] == tree_a[key], f"byte mismatch in {key} with {workers} workers"
