import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers import random_spectrogram, speech_like

from refaec import (
    NonlinearityKind,
    RoomSpec,
    SceneGeometry,
    Spectrogram,
    StftConfig,
    TimeSignal,
    erle,
    ri_mag_loss,
    s_sisnr,
    sdr,
    synthesize_scene,
)
from refaec.metrics import evaluate_estimate, report_record

FS = 16000


def test_erle_fixed_points(rng):
    y = speech_like(rng, 8000)
    assert erle(y, y) == pytest.approx(0.0, abs=1e-12)
    assert erle(y, TimeSignal(np.zeros(8000))) == 100.0
    half = TimeSignal(y.samples / np.sqrt(2.0))
    assert erle(y, half) == pytest.approx(10 * np.log10(2.0), abs=1e-9)


def test_erle_length_mismatch():
    with pytest.raises(ValueError):
        erle(TimeSignal(np.zeros(10)), TimeSignal(np.zeros(11)))


# a metric compares two signals on one time axis: one length, one sample rate
@pytest.mark.parametrize("metric", [erle, sdr, s_sisnr])
def test_metrics_reject_signals_at_different_sample_rates(rng, metric):
    a = speech_like(rng, 1600)
    b = TimeSignal(speech_like(rng, 1600).samples, 8000)
    message = (
        "signals differ in length or sample rate: "
        "1600 samples at 16000 Hz vs 1600 samples at 8000 Hz"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        metric(a, b)
    with pytest.raises(ValueError, match=re.escape(message)):
        evaluate_estimate("ST_FE", a, a, b)


def test_sdr_fixed_points(rng):
    t = speech_like(rng, 8000)
    assert sdr(t, t) == 100.0
    assert sdr(t, TimeSignal(np.zeros(8000))) == pytest.approx(0.0, abs=1e-12)


def test_sdr_orthogonal_noise_level(rng):
    t = speech_like(rng, 8000)
    noise = rng.standard_normal(8000)
    noise -= (np.dot(noise, t.samples) / t.energy()) * t.samples  # orthogonalize
    noise *= np.sqrt(t.energy() / np.dot(noise, noise) / 100.0)  # -20 dB
    est = TimeSignal(t.samples + noise)
    assert sdr(t, est) == pytest.approx(20.0, abs=1e-6)


def test_s_sisnr_scale_invariance_and_clamps(rng):
    t = speech_like(rng, 8000)
    doubled = TimeSignal(2.0 * t.samples)
    assert s_sisnr(t, doubled) == 100.0
    flipped = TimeSignal(-t.samples)
    assert s_sisnr(t, flipped) == -100.0
    # exact invariance under power-of-two scaling of the estimate
    est = speech_like(rng, 8000)
    assert s_sisnr(t, est) == s_sisnr(t, TimeSignal(4.0 * est.samples))


def test_s_sisnr_orthogonal_is_zero(rng):
    t = TimeSignal(np.sin(2 * np.pi * 200 * np.arange(FS) / FS))
    e = TimeSignal(np.cos(2 * np.pi * 200 * np.arange(FS) / FS))
    assert s_sisnr(t, e) == pytest.approx(0.0, abs=1e-6)


def test_s_sisnr_rejects_silent_input():
    with pytest.raises(ValueError):
        s_sisnr(TimeSignal(np.zeros(100)), TimeSignal(np.ones(100)))


def test_ri_mag_loss_fixed_points(rng):
    S = random_spectrogram(rng, 6)
    assert ri_mag_loss(S, S) == 0.0
    cfg = StftConfig(window_len=4, hop=2)
    one = Spectrogram(np.array([[1.0 + 0j, 0j, 0j]]), cfg)
    zero = Spectrogram(np.zeros((1, 3), dtype=complex), cfg)
    # single unit, power 0.5: compressed difference 1 plus magnitude difference 1
    assert ri_mag_loss(one, zero) == pytest.approx(2.0, abs=1e-12)


def test_ri_mag_loss_symmetry_and_nonnegativity(rng):
    A = random_spectrogram(rng, 5)
    B = random_spectrogram(rng, 5)
    assert ri_mag_loss(A, B) == pytest.approx(ri_mag_loss(B, A), rel=1e-12)
    for _ in range(20):
        A = random_spectrogram(rng, 3)
        B = random_spectrogram(rng, 3)
        assert ri_mag_loss(A, B) >= 0.0


# a loss between spectrograms is defined only on one shared grid
@pytest.mark.parametrize(
    "odd",
    [
        pytest.param({"config": StftConfig(hop=80)}, id="hop_80"),
        pytest.param({"sample_rate": 8000}, id="at_8000_hz"),
        pytest.param({"data": np.zeros((4, 161), dtype=complex)}, id="four_frames"),
    ],
)
def test_ri_mag_loss_rejects_spectrograms_on_different_grids(rng, odd):
    S = random_spectrogram(rng, 3)
    with pytest.raises(ValueError, match="disagree on shape or grid") as err:
        ri_mag_loss(S, replace(S, **odd))
    assert "\n" not in str(err.value)


def _scene(rng, v, x, ser=0.0):
    room = RoomSpec(5.0, 4.0, 3.0, t60=0.15)
    geom = SceneGeometry((2.0, 2.0, 1.5), (3.5, 3.0, 1.5), (1.2, 1.1, 1.2), (2.1, 2.0, 1.5))
    return synthesize_scene(room, geom, v, x, NonlinearityKind("identity"), ser, duration=1.0)


def test_evaluate_scene_scenarios(rng):
    v = speech_like(rng, FS)
    x = speech_like(rng, FS)
    silent = TimeSignal(np.zeros(FS))

    st_fe = _scene(rng, silent, x)
    report = evaluate_estimate("ST_FE", st_fe.y, st_fe.s_direct, TimeSignal(np.zeros(FS)))
    assert report.erle_db == 100.0
    assert report.sdr_db is None

    dt = _scene(rng, v, x)
    report = evaluate_estimate("DT", dt.y, dt.s_direct, dt.s_direct)
    assert report.sdr_db == 100.0
    assert report.ri_mag_loss == pytest.approx(0.0, abs=1e-9)

    st_ne = _scene(rng, v, silent)
    report = evaluate_estimate("ST_NE", st_ne.y, st_ne.s_direct, st_ne.y)
    assert report.sdr_db == pytest.approx(sdr(st_ne.s_direct, st_ne.s), rel=1e-12)

    with pytest.raises(ValueError):
        evaluate_estimate("weird", st_fe.y, st_fe.s_direct, st_fe.y)


def test_report_record_fields(rng):
    v = speech_like(rng, FS)
    x = speech_like(rng, FS)
    scene = _scene(rng, v, x)
    report = evaluate_estimate("DT", scene.y, scene.s_direct, scene.y)
    record = report_record(report, "scene_000003")
    assert list(record.keys()) == [
        "scene_id",
        "scenario",
        "erle_db",
        "sdr_db",
        "s_sisnr_db",
        "ri_mag_loss",
        "pesq",
    ]
    assert record["scenario"] == "DT"
    assert record["erle_db"] is None
    assert record["pesq"] == "unavailable"


def test_metric_scaling_invariance(rng):
    y = speech_like(rng, 4000)
    e = speech_like(rng, 4000)
    assert erle(y, e) == pytest.approx(
        erle(TimeSignal(2 * y.samples), TimeSignal(2 * e.samples)), abs=1e-9
    )
    assert sdr(y, e) == pytest.approx(
        sdr(TimeSignal(2 * y.samples), TimeSignal(2 * e.samples)), abs=1e-9
    )


_METRICS_SCRIPT = """
import numpy as np
from refaec import TimeSignal, erle, s_sisnr, sdr
rng = np.random.default_rng(5)
a = TimeSignal(rng.standard_normal(96000))
b = TimeSignal(0.1 * a.samples + rng.standard_normal(96000))
print(repr((erle(a, b), sdr(a, b), s_sisnr(a, b))))
"""


def test_metrics_do_not_depend_on_the_blas_thread_count():
    # BLAS splits a dot product across its threads, which changes the
    # summation order; on one CPU both runs use one thread and agree anyway
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _METRICS_SCRIPT],
            env=run_env, capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        for run_env in (env, dict(env, OPENBLAS_NUM_THREADS="1"))
    ]
    assert outputs[0] == outputs[1]
