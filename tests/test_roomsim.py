import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import image_source_rir, schroeder_t60, small_scene, speech_like
from scipy.signal import fftconvolve

from refaec import (
    NonlinearityKind,
    RoomSpec,
    SceneGeometry,
    TimeSignal,
    image_method_rir,
    sample_geometry,
    sample_room,
    split_direct,
    synthesize_scene,
)
from refaec import dsp, roomsim
from refaec.roomsim import (
    GeometryError,
    REF_SHELL_RADII,
    WALL_MARGIN,
    _calibration_path,
    calibrated_reflectivity,
    measured_decay_time,
    validate_geometry,
)

FS = 16000
TESTS = Path(__file__).resolve().parent


def test_direct_path_is_first_tap_with_spherical_spreading():
    room = RoomSpec(5.0, 4.0, 3.0, t60=0.3)
    src, mic = (1.0, 1.0, 1.5), (3.0, 2.0, 1.5)
    h = image_method_rir(room, src, mic)
    d = float(np.linalg.norm(np.subtract(src, mic)))
    first = np.flatnonzero(h)[0]
    assert first == round(FS * d / 343.0)
    assert h[first] == pytest.approx(1.0 / (4.0 * np.pi * d), rel=1e-12)


def test_rir_decay_matches_target_t60():
    room = RoomSpec(6.0, 5.0, 3.5, t60=0.3)
    h = image_method_rir(room, (1.5, 1.2, 1.6), (4.2, 3.3, 1.4))
    estimate = schroeder_t60(h, FS)
    assert 0.225 <= estimate <= 0.375


def test_rir_reciprocity():
    room = RoomSpec(5.0, 4.0, 3.0, t60=0.25)
    src, mic = (1.0, 1.3, 1.5), (3.5, 2.2, 1.8)
    h_ab = image_method_rir(room, src, mic)
    h_ba = image_method_rir(room, mic, src)
    assert np.allclose(h_ab, h_ba, atol=1e-12 * np.max(np.abs(h_ab)))


def test_calibration_and_rir_match_per_image_accumulation(rng):
    # calibration replays one image lattice for each trial reflectivity; every
    # trial, and so the result, must equal an image-by-image rebuild
    for _ in range(3):
        room = sample_room(rng, t60_range=(0.1, 0.5))
        src, mic = _calibration_path(room)
        beta = room.eyring_reflectivity()
        for _trial in range(4):
            measured = measured_decay_time(image_source_rir(room, src, mic, FS, beta))
            if not np.isfinite(measured) or abs(measured / room.t60 - 1.0) < 0.03:
                break
            beta = min(max(float(np.exp(np.log(max(beta, 1e-6)) * measured / room.t60)), 0.0),
                       0.999)
        assert calibrated_reflectivity(room) == beta
        geom = sample_geometry(room, rng)
        h = image_method_rir(room, geom.talker, geom.main_mic)
        assert np.array_equal(h, image_source_rir(room, geom.talker, geom.main_mic, FS, beta))


def test_scene_rirs_equal_image_method_rirs(rng):
    room = sample_room(rng, t60_range=(0.1, 0.3))
    geom = sample_geometry(room, rng)
    paths = [
        (geom.talker, geom.main_mic),
        (geom.loudspeaker, geom.main_mic),
        (geom.talker, geom.ref_mic),
        (geom.loudspeaker, geom.ref_mic),
    ]
    rirs = roomsim._scene_rirs(room, geom)
    assert len(rirs) == len(paths)
    for h, (src, mic) in zip(rirs, paths):
        assert np.array_equal(h, image_method_rir(room, src, mic))


@pytest.fixture
def calibrations(monkeypatch):
    """The room of each calibrated_reflectivity call that roomsim makes
    during the test."""
    calls = []

    def counted(room):
        calls.append(room)
        return calibrated_reflectivity(room)

    monkeypatch.setattr(roomsim, "calibrated_reflectivity", counted)
    return calls


def test_scene_calibrates_its_room_once(rng, calibrations):
    scene = small_scene(speech_like(rng, FS), speech_like(rng, FS))
    assert calibrations == [scene.room]


def test_rir_geometry_errors(calibrations):
    room = RoomSpec(5.0, 4.0, 3.0, t60=0.3)
    cases = [
        ((1.0, 1.0, 1.0), (1.0, 1.0, 1.005), "^source and microphone are 0.0050 m apart"),
        ((1.0, 1.0, 1.0), (1.0, 1.0, 1.03), "^source and microphone are 0.0300 m apart"),
        ((-1.0, 1.0, 1.0), (3.0, 2.0, 1.5), "^source at .* is not strictly inside the room$"),
        ((1.0, 1.0, 1.0), (3.0, float("nan"), 1.5), "^microphone at .* is not finite$"),
    ]
    for src, mic, message in cases:
        with pytest.raises(GeometryError, match=message) as err:
            image_method_rir(room, src, mic)
        assert "\n" not in str(err.value)
    assert calibrations == []


def test_rir_direct_delay_across_random_rooms(rng):
    for i in range(5):
        room = sample_room(rng, t60_range=(0.1, 0.3))
        geom = sample_geometry(room, rng)
        h = image_method_rir(room, geom.talker, geom.main_mic)
        d = np.linalg.norm(np.subtract(geom.talker, geom.main_mic))
        assert abs(np.flatnonzero(h)[0] - round(FS * d / 343.0)) <= 1


def test_validate_geometry_rules():
    room = RoomSpec(5.0, 4.0, 3.0, t60=0.3)
    good = SceneGeometry((2.0, 2.0, 1.5), (3.5, 3.0, 1.5), (1.0, 1.0, 1.2), (2.1, 2.0, 1.5))
    validate_geometry(room, good)
    with pytest.raises(GeometryError):  # wall margin
        validate_geometry(
            room,
            SceneGeometry((0.05, 2.0, 1.5), (3.5, 3.0, 1.5), (1.0, 1.0, 1.2), (0.15, 2.0, 1.5)),
        )
    with pytest.raises(GeometryError):  # reference shell too wide
        validate_geometry(
            room,
            SceneGeometry((2.0, 2.0, 1.5), (3.5, 3.0, 1.5), (1.0, 1.0, 1.2), (2.5, 2.0, 1.5)),
        )
    with pytest.raises(GeometryError, match="^talker and main_mic are 0.0300 m apart"):
        validate_geometry(
            room,
            SceneGeometry((2.0, 2.0, 1.5), (1.0, 1.0, 1.23), (1.0, 1.0, 1.2), (2.1, 2.0, 1.5)),
        )
    for bad in (float("nan"), float("inf")):
        with pytest.raises(GeometryError, match=r"^loudspeaker at \[.*\] is not finite$"):
            validate_geometry(
                room,
                SceneGeometry((bad, 2.0, 1.5), (3.5, 3.0, 1.5), (1.0, 1.0, 1.2), (2.1, 2.0, 1.5)),
            )


def test_sampled_geometry_respects_invariants(rng):
    for _ in range(30):
        room = sample_room(rng)
        geom = sample_geometry(room, rng)
        validate_geometry(room, geom)
        radius = np.linalg.norm(np.subtract(geom.ref_mic, geom.loudspeaker))
        assert REF_SHELL_RADII[0] <= radius <= REF_SHELL_RADII[1]
        mic = np.asarray(geom.main_mic)
        assert room.length / 10 <= mic[0] <= room.length - room.length / 10
        assert room.width / 10 <= mic[1] <= room.width - room.width / 10
        assert max(1.0, WALL_MARGIN) <= mic[2] <= min(room.height - 1.0, 3.0)


def test_split_direct_anechoic_has_no_late_part(rng):
    v = speech_like(rng, 8000)
    h = np.zeros(400)
    h[37] = 0.21
    s_direct, s_reverb = split_direct(v, h)
    assert np.all(s_reverb.samples == 0)
    assert np.allclose(s_direct.samples, 0.21 * np.r_[np.zeros(37), v.samples[:-37]], atol=1e-12)


def test_split_direct_additivity(rng):
    from scipy.signal import fftconvolve

    v = speech_like(rng, 8000)
    room = RoomSpec(5.0, 4.0, 3.0, t60=0.25)
    h = image_method_rir(room, (1.0, 1.3, 1.5), (3.5, 2.2, 1.8))
    s_direct, s_reverb = split_direct(v, h)
    full = fftconvolve(v.samples, h)[: len(v)]
    err = np.max(np.abs(s_direct.samples + s_reverb.samples - full))
    assert err <= 1e-12 * max(1.0, np.max(np.abs(full)))
    assert np.any(s_reverb.samples != 0)


def test_split_direct_zero_split_keeps_only_direct_tap(rng):
    v = speech_like(rng, 4000)
    h = np.zeros(1000)
    h[25] = 0.5  # direct tap (onset oracle: first nonzero sample)
    h[25 + 801] = 0.2  # first tap past the 50 ms (800-sample) split
    s_direct, s_reverb = split_direct(v, h)
    only_direct = np.r_[np.zeros(25), 0.5 * v.samples[:-25]]
    assert np.allclose(s_direct.samples, only_direct, atol=1e-12)
    assert np.any(s_reverb.samples != 0)


def test_scene_far_end_single_talk(rng):
    x = speech_like(rng, FS)
    silent = TimeSignal(np.zeros(FS))
    scene = small_scene(silent, x)
    assert scene.echo_gain == 1.0
    assert scene.ser_db is None
    assert np.array_equal(scene.y.samples, scene.d.samples)
    assert np.all(scene.r_near.samples == 0)
    assert np.array_equal(scene.r.samples, scene.r_far.samples)


def test_scene_near_end_single_talk(rng):
    v = speech_like(rng, FS)
    silent = TimeSignal(np.zeros(FS))
    scene = small_scene(v, silent)
    assert np.array_equal(scene.y.samples, scene.s.samples)
    assert np.array_equal(scene.r.samples, scene.r_near.samples)
    assert np.all(scene.d.samples == 0)


def test_scene_zero_energy_source_keeps_unit_gain(rng):
    # A requested SER needs energy in both sources; with either one silent the
    # mixing is skipped: unit gain, no SER recorded, same signals as no request.
    speech = speech_like(rng, FS)
    silent = TimeSignal(np.zeros(FS))
    for v, x in ((silent, speech), (speech, silent)):
        plain = small_scene(v, x, ser=None)
        for ser in (0.0, 10.0):
            scene = small_scene(v, x, ser=ser)
            assert scene.echo_gain == 1.0
            assert scene.ser_db is None
            for name in ("d", "y", "r_far", "r"):
                assert np.array_equal(getattr(scene, name).samples, getattr(plain, name).samples)


def test_ser_gain_energies(rng):
    es = speech_like(rng, 8000).energy()
    ed = speech_like(rng, 8000).energy()
    g0 = roomsim._ser_gain(es, ed, 0.0)
    assert es / (g0**2 * ed) == pytest.approx(1.0, rel=1e-9)
    g10 = roomsim._ser_gain(es, ed, 10.0)
    assert es / (g10**2 * ed) == pytest.approx(10.0, rel=1e-9)
    g_neg = roomsim._ser_gain(es, ed, -10.0)
    assert g_neg / g10 == pytest.approx(10.0, rel=1e-9)


def test_double_talk_scene_mixes_the_scaled_echo(rng):
    v = speech_like(rng, FS)
    x = speech_like(rng, FS)
    unit = small_scene(TimeSignal(np.zeros(FS)), x)  # single talk keeps unit gain
    scene = small_scene(v, x, ser=0.0)
    g0 = scene.echo_gain
    assert scene.s.energy() / (g0**2 * unit.d.energy()) == pytest.approx(1.0, rel=1e-9)
    assert np.array_equal(scene.d.samples, g0 * unit.d.samples)
    assert np.array_equal(scene.y.samples, scene.s.samples + g0 * unit.d.samples)
    g10 = small_scene(v, x, ser=10.0).echo_gain
    assert scene.s.energy() / (g10**2 * unit.d.energy()) == pytest.approx(10.0, rel=1e-9)
    assert small_scene(v, x, ser=-10.0).echo_gain / g10 == pytest.approx(10.0, rel=1e-9)


_SCENE_SIGNALS = ("x", "x_nl", "v", "s", "s_direct", "s_reverb", "d", "y", "r", "r_far", "r_near")


@pytest.mark.parametrize("silent_side, convolutions", [("near", 2), ("far", 3)])
def test_single_talk_skips_silent_convolutions_bit_for_bit(
    rng, monkeypatch, silent_side, convolutions
):
    # a silent source is not convolved, and the scene still matches the one
    # that convolves every source, sign bits of zeros included
    calls = []

    def counted(*args):
        calls.append(1)
        return fftconvolve(*args)

    for _ in range(3):
        room = sample_room(rng)
        geom = sample_geometry(room, rng)
        talk = speech_like(rng, FS)
        silent = TimeSignal(np.zeros(FS))
        v, x = (silent, talk) if silent_side == "near" else (talk, silent)
        kind = NonlinearityKind("hard_clip_sigmoid")
        with monkeypatch.context() as m:
            m.setattr(roomsim, "fftconvolve", counted)
            fast = synthesize_scene(room, geom, v, x, kind, None, duration=1.0)
        assert len(calls) == convolutions
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(roomsim, "_convolve", lambda a, h, n: fftconvolve(a, h)[:n])
            full = synthesize_scene(room, geom, v, x, kind, None, duration=1.0)
        for name in _SCENE_SIGNALS:
            a, b = getattr(fast, name).samples, getattr(full, name).samples
            assert np.array_equal(a, b), name
            assert np.array_equal(np.signbit(a), np.signbit(b)), name


def test_scene_additivity_and_ser(rng):
    v = speech_like(rng, FS)
    x = speech_like(rng, FS)
    scene = small_scene(v, x, ser=-4.0)
    assert np.array_equal(scene.y.samples, scene.s.samples + scene.d.samples)
    assert np.array_equal(scene.r.samples, scene.r_near.samples + scene.r_far.samples)
    assert np.array_equal(scene.s.samples, scene.s_direct.samples + scene.s_reverb.samples)
    realized = 10 * np.log10(scene.s.energy() / scene.d.energy())
    assert realized == pytest.approx(-4.0, abs=1e-9)


def test_scene_determinism(rng):
    v = speech_like(rng, FS)
    x = speech_like(rng, FS)
    a = small_scene(v, x, ser=2.0)
    b = small_scene(v, x, ser=2.0)
    assert np.array_equal(a.y.samples, b.y.samples)
    assert np.array_equal(a.r.samples, b.r.samples)
    assert np.array_equal(a.rir_speaker_ref, b.rir_speaker_ref)


def test_scene_nonlinearity_is_applied(rng):
    x = speech_like(rng, FS)
    silent = TimeSignal(np.zeros(FS))
    scene = small_scene(silent, x, kind=NonlinearityKind("hard_clip_sigmoid"))
    assert not np.array_equal(scene.x_nl.samples, scene.x.samples)
    assert np.max(np.abs(scene.x_nl.samples)) < 1.0


def test_reference_mic_sees_stronger_far_to_near_ratio(rng):
    # close reference mic, talker over a meter away from it
    room = RoomSpec(6.0, 5.0, 3.5, t60=0.2)
    geom = SceneGeometry(
        loudspeaker=(1.5, 1.5, 1.5),
        talker=(4.5, 3.5, 1.6),
        main_mic=(3.0, 2.5, 1.4),
        ref_mic=(1.55, 1.5, 1.5),
    )
    h1, h2, h3, h4 = roomsim._scene_rirs(room, geom)
    ratio_ref = np.dot(h4, h4) / np.dot(h3, h3)
    ratio_main = np.dot(h2, h2) / np.dot(h1, h1)
    assert ratio_ref > ratio_main


def test_geometry_error_raised_before_synthesis(rng, calibrations):
    v = speech_like(rng, FS)
    x = speech_like(rng, FS)
    room = RoomSpec(5.0, 4.0, 3.0, t60=0.2)
    speaker, main_mic = (2.0, 2.0, 1.5), (1.2, 1.1, 1.2)
    wide_shell = SceneGeometry(speaker, (3.5, 3.0, 1.5), main_mic, (2.9, 2.0, 1.5))
    close_talker = SceneGeometry(speaker, (1.2, 1.1, 1.23), main_mic, (2.1, 2.0, 1.5))  # 3 cm
    for bad in (wide_shell, close_talker):
        with pytest.raises(GeometryError):
            synthesize_scene(room, bad, v, x, NonlinearityKind("identity"), 0.0)
    assert calibrations == []


@pytest.mark.parametrize(
    "ser, duration, message",
    [
        (float("nan"), 1.0, "ser_db must be finite, got nan"),
        (float("inf"), 1.0, "ser_db must be finite, got inf"),
        (0.0, 0.0, "duration 0.0 s must give at least one sample at 16000 Hz"),
        (0.0, -1.0, "duration -1.0 s must give at least one sample at 16000 Hz"),
        (0.0, 1e-5, "duration 1e-05 s must give at least one sample at 16000 Hz"),
        (0.0, float("nan"), "duration nan s must give at least one sample at 16000 Hz"),
    ],
    ids=["nan_ser", "inf_ser", "zero_duration", "negative_duration", "sub_sample", "nan_duration"],
)
def test_scene_rejects_scalars_before_synthesis(rng, calibrations, ser, duration, message):
    v = speech_like(rng, FS)
    x = speech_like(rng, FS)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        small_scene(v, x, ser=ser, duration=duration)
    assert calibrations == []


def test_room_spec_validation():
    with pytest.raises(ValueError):
        RoomSpec(3.0, 4.0, 3.0, t60=0.3)  # length below supported range
    with pytest.raises(ValueError):
        RoomSpec(5.0, 4.0, 3.0, t60=0.0)
    for t60 in (float("nan"), float("inf"), 0.09, 0.81):
        with pytest.raises(ValueError, match=r"outside \(0\.1, 0\.8\)"):
            RoomSpec(5.0, 4.0, 3.0, t60=t60)


_DT_SCENE = """
import numpy as np
from helpers import speech_like
from refaec import sample_geometry, sample_kind, sample_room, synthesize_scene

def dt_scene(seed):
    rng = np.random.default_rng(seed)
    room = sample_room(rng)
    geom = sample_geometry(room, rng)
    kind = sample_kind(rng, matched=bool(rng.integers(2)))
    ser_db = float(rng.integers(-10, 11))
    v, x = speech_like(rng, 96000), speech_like(rng, 96000)
    return synthesize_scene(room, geom, v, x, kind, ser_db, seed=seed)
"""


def _run_script(script: str, **env_vars) -> str:
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    env["PYTHONPATH"] = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
    env.update(env_vars)
    return subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout


def test_scenes_do_not_depend_on_the_blas_thread_count():
    # a BLAS dot product splits its sum across threads, so an echo gain taken
    # from one would change in its last bit with the thread count
    script = _DT_SCENE + """
import hashlib
for seed in (0, 1, 2):
    scene = dt_scene(seed)
    print(repr(scene.echo_gain),
          *(hashlib.sha256(sig.samples.tobytes()).hexdigest() for sig in (scene.y, scene.r, scene.d)))
"""
    assert _run_script(script) == _run_script(script, OPENBLAS_NUM_THREADS="1")


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs for a BLAS thread")
def test_synthesis_leaves_no_blas_thread_spinning():
    # an OpenBLAS thread woken by a long dot product spins on its CPU for about
    # 0.1 s after the call, which a concurrent scene worker would need
    script = _DT_SCENE + """
import resource, time
dt_scene(0)
before = resource.getrusage(resource.RUSAGE_SELF)
time.sleep(0.3)
after = resource.getrusage(resource.RUSAGE_SELF)
print(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
"""
    assert float(_run_script(script, OPENBLAS_NUM_THREADS="2")) < 0.03


def test_single_talk_synthesis_takes_no_energies(rng, monkeypatch):
    def refuse(a, b):
        raise AssertionError("single-talk synthesis computed an energy")

    monkeypatch.setattr(roomsim, "pairwise_dot", refuse)
    monkeypatch.setattr(dsp, "pairwise_dot", refuse)
    scene = small_scene(speech_like(rng, FS), speech_like(rng, FS), ser=None)
    assert scene.echo_gain == 1.0
