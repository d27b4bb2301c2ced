import json
import os
import re
import struct
import threading
from dataclasses import replace

import numpy as np
import pytest
from helpers import delay_stack, dense_normal_equations, ecf_bytes, random_spectrogram, speech_like
from scipy.signal import lfilter, windows

import refaec
from refaec import (
    FeatureBundle,
    NonlinearityKind,
    RoomSpec,
    RunConfig,
    SceneGeometry,
    Spectrogram,
    StftConfig,
    TimeSignal,
    WienerConfig,
    export_features,
    read_features,
    run_linear_stage,
    synth_dataset,
    synthesize_scene,
)
from refaec import pipeline, roomsim, wiener
from refaec.masking import apply_mask, compute_mask
from refaec.pipeline import (
    FeatureFormatError,
    eval_dataset,
    parse_config_file,
    read_manifest,
    run_dataset,
)
from refaec.wavio import read_wav, write_wav
from refaec.wiener import wstws_cancel

FS = 16000

SMALL = RunConfig(
    wiener_main=WienerConfig(taps=4, window_frames=24),
    wiener_ref=WienerConfig(taps=1, window_frames=24),
)


def _write_corpus(rng, directory, count, n=FS):
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(count):
        write_wav(directory / f"clip_{i}.wav", speech_like(rng, n))


def test_one_frame_signals_run(rng):
    # the shortest input the stage takes: one STFT window, one frame
    n = RunConfig().stft.window_len
    y, x, r = (speech_like(rng, n) for _ in range(3))
    bundle = run_linear_stage(y, x, r)
    assert bundle.mic.data.shape[0] == 1
    assert np.isfinite(bundle.resid_ref_masked.data).all()


def test_zero_far_end_chain(rng):
    y = speech_like(rng, FS)
    x = TimeSignal(np.zeros(FS))
    r = speech_like(rng, FS)  # pure near-end pickup
    bundle = run_linear_stage(y, x, r, SMALL)
    # no excitation: the mic residual is the mic signal, bit for bit
    assert np.array_equal(bundle.resid_far.data, bundle.mic.data)
    # the mask kills the reference, and cancelling against silence passes y through
    assert np.all(bundle.ref_masked.data == 0)
    assert np.array_equal(bundle.resid_ref_masked.data, bundle.mic.data)


def test_bundle_shapes_and_determinism(rng):
    y = speech_like(rng, FS)
    x = speech_like(rng, FS)
    r = speech_like(rng, FS)
    a = run_linear_stage(y, x, r, SMALL)
    b = run_linear_stage(y, x, r, SMALL)
    shapes = {s.data.shape for s in a.signals()}
    assert len(shapes) == 1
    for sa, sb in zip(a.signals(), b.signals()):
        assert np.array_equal(sa.data, sb.data)


def test_length_and_rate_validation(rng):
    y = speech_like(rng, FS)
    x = speech_like(rng, FS // 2)
    with pytest.raises(ValueError):
        run_linear_stage(y, x, y, SMALL)
    z = TimeSignal(speech_like(rng, FS).samples, sample_rate=8000)
    with pytest.raises(ValueError):
        run_linear_stage(y, speech_like(rng, FS), z, SMALL)


def test_other_sample_rates_raise(rng):
    # the STFT's 20 ms / 10 ms timing is set in samples at 16 kHz
    y, x, r = (TimeSignal(speech_like(rng, FS).samples, sample_rate=8000) for _ in range(3))
    with pytest.raises(ValueError, match="runs at 16000 Hz, got 8000 Hz"):
        run_linear_stage(y, x, r, SMALL)


def test_in_model_masked_reference_matches_far_end_route(rng):
    room = RoomSpec(5.0, 4.0, 3.0, t60=0.12)
    geom = SceneGeometry((2.0, 2.0, 1.5), (3.5, 3.0, 1.5), (1.2, 1.1, 1.2), (2.08, 2.0, 1.5))
    x = speech_like(rng, FS)
    silent = TimeSignal(np.zeros(FS))
    scene = synthesize_scene(
        room, geom, silent, x, NonlinearityKind("identity"), None, duration=1.0
    )
    bundle = run_linear_stage(scene.y, scene.x, scene.r, SMALL)
    w = SMALL.wiener_main.window_frames
    e_far = np.sum(np.abs(bundle.resid_far.data[w:]) ** 2)
    e_masked = np.sum(np.abs(bundle.resid_ref_masked.data[w:]) ** 2)
    # both routes are in the model class here; allow 1 dB of slack
    assert 10 * np.log10(e_masked / e_far) <= 1.0


# ROADMAP item 1's input families: n samples, a silent mic prefix of `silent`
# samples, the far end 80 dB down from sample `drop` on, and the main routes'
# diag_load; without loading, units before 2 * taps frames are skipped
@pytest.mark.parametrize(
    "n, silent, drop, diag_load",
    [
        pytest.param(FS, 0, None, 1e-6, id="clean"),
        pytest.param(FS, FS // 4, None, 1e-6, id="silent_mic_prefix"),
        pytest.param(FS, 0, FS // 2, 1e-6, id="far_drops_80_db"),
        pytest.param(FS + 77, 0, None, 1e-6, id="odd_length"),
        pytest.param(FS, 0, None, 0.0, id="no_diag_load"),
        pytest.param(60 * FS, 0, None, 1e-6, id="clean_60_s"),
        pytest.param(
            60 * FS, 30 * FS, None, 1e-6, id="silent_mic_30_s",
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="ROADMAP item 2: the weights of 1e12 on the silent frames stay in"
                " the running window sums and swamp the live frames' normal equations",
            ),
        ),
        pytest.param(60 * FS, 0, 30 * FS, 1e-6, id="far_drops_80_db_at_30_s"),
    ],
)
def test_stage_matches_dense_oracle_on_double_talk(rng, n, silent, drop, diag_load):
    far, near = speech_like(rng, n).samples, speech_like(rng, n).samples
    if drop is not None:
        far[drop:] *= 1e-4
    y = lfilter([0.6, 0.3, -0.2], [1.0], far) + 0.5 * near
    y[:silent] = 0.0
    r = TimeSignal(lfilter([0.9, 0.2], [1.0], far) + 0.1 * near)
    cfg = replace(SMALL, wiener_main=replace(SMALL.wiener_main, diag_load=diag_load))
    bundle = run_linear_stage(TimeSignal(y), TimeSignal(far), r, cfg)
    assert all(np.isfinite(spec.data).all() for spec in bundle.signals())

    Y, X, R = bundle.mic, bundle.far, bundle.ref
    ref_cfg, main_cfg = cfg.wiener_ref, cfg.wiener_main
    n_frames, n_bins = Y.data.shape
    t_min = 0 if diag_load else 2 * main_cfg.taps
    # half of the units see a window truncated at frame 0
    frames = np.concatenate(
        [rng.integers(t_min, main_cfg.window_frames, 4), rng.integers(t_min, n_frames, 4)]
    )
    units = list(zip(frames, rng.integers(0, n_bins, 8)))

    # the masked reference from one-tap dense solves, on the units that the
    # sampled units' main-route windows read: frames t - window - taps + 1 ... t
    reach = main_cfg.window_frames + main_cfg.taps - 1
    masked = np.zeros_like(R.data)
    for t, f in {(tp, f) for t, f in units for tp in range(max(0, t - reach), t + 1)}:
        far_part = np.conj(dense_normal_equations(R, X, t, f, ref_cfg)[0]) * X.data[t, f]
        far_mag, near_mag = abs(far_part), abs(R.data[t, f] - far_part)
        gain = far_mag / (far_mag + near_mag) if far_mag + near_mag > 0 else 0.0
        masked[t, f] = gain**cfg.mask.compression * R.data[t, f]
    R_m = R.like(masked)

    # the bench's rule: deviation relative to the unit's magnitude scale
    deviations = []
    routes = ((bundle.resid_far, X), (bundle.resid_ref, R), (bundle.resid_ref_masked, R_m))
    for t, f in units:
        ours = bundle.ref_masked.data[t, f]
        deviations.append(abs(ours - masked[t, f]) / max(abs(R.data[t, f]), 1e-30))
        for resid, ref in routes:
            h = dense_normal_equations(Y, ref, t, f, main_cfg)
            pred = np.vdot(h, delay_stack(ref, t, f, main_cfg.taps))
            ours = Y.data[t, f] - resid.data[t, f]
            scale = abs(Y.data[t, f]) + abs(pred)
            deviations.append(abs(ours - pred) / max(scale, 1e-30))
    # np.max, not max, so that a NaN deviation fails
    assert np.max(deviations) <= 1e-6


def test_export_header_and_size_roundtrip(rng, tmp_path):
    y = speech_like(rng, FS)
    bundle = run_linear_stage(y, speech_like(rng, FS), speech_like(rng, FS), SMALL)
    path = tmp_path / "bundle.ecf"
    export_features(bundle, path)
    n_frames, n_bins = bundle.mic.data.shape
    assert path.stat().st_size == 28 + 7 * n_frames * n_bins * 8
    header, signals = read_features(path)
    assert header == {
        "version": 1,
        "n_frames": n_frames,
        "n_bins": n_bins,
        "n_signals": 7,
        "window_len": 320,
        "hop": 160,
    }
    for spec, loaded in zip(bundle.signals(), signals):
        assert np.allclose(loaded, spec.data.astype(np.complex64), atol=0.0)
    assert path.read_bytes() == ecf_bytes(bundle)


def test_export_roundtrips_every_bit_signed_zeros_included(rng, tmp_path):
    cfg = RunConfig().stft
    specs = []
    for _ in range(7):
        data = rng.standard_normal((3, cfg.n_bins)) + 1j * rng.standard_normal((3, cfg.n_bins))
        data[0, :4] = [complex(1.0, -0.0), complex(-0.0, 2.0), complex(-0.0, -0.0), 0.0]
        specs.append(Spectrogram(data, cfg))
    bundle = FeatureBundle(*specs)
    path = tmp_path / "signed.ecf"
    export_features(bundle, path)
    assert path.read_bytes() == ecf_bytes(bundle)
    _, signals = read_features(path)
    assert len(signals) == 7
    for spec, loaded in zip(specs, signals):
        assert loaded.dtype == np.complex64 and loaded.flags.writeable
        assert loaded.tobytes() == spec.data.astype(np.complex64).tobytes()
        assert np.signbit(loaded[0, 0].imag) and np.signbit(loaded[0, 1].real)


def test_export_rejects_corrupted_magic(rng, tmp_path):
    y = speech_like(rng, FS)
    bundle = run_linear_stage(y, speech_like(rng, FS), speech_like(rng, FS), SMALL)
    path = tmp_path / "bundle.ecf"
    export_features(bundle, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(FeatureFormatError):
        read_features(path)
    with pytest.raises(FeatureFormatError):
        read_features(__file__)  # arbitrary non-feature file


# size-consistent files whose header disagrees with the format:
# (n_frames, n_bins, n_signals, window_len, hop)
@pytest.mark.parametrize(
    "header, message",
    [
        ((3, 161, 6, 320, 160), "n_signals is 6, expected 7"),
        ((3, 7, 7, 320, 160), "n_bins is 7, expected 161 for window_len 320"),
        ((0, 161, 7, 320, 160), "no frames"),
        ((3, 161, 7, 320, 0), "hop must satisfy 0 < hop <= window_len"),
        ((3, 161, 7, 320, 400), "hop must satisfy 0 < hop <= window_len"),
        ((3, 161, 7, 321, 160), "window_len must be a positive even sample count"),
    ],
    ids=["six_signals", "bins_off_the_window", "no_frames", "zero_hop", "hop_over_window",
         "odd_window"],
)
def test_read_rejects_header_that_disagrees_with_format(tmp_path, header, message):
    n_frames, n_bins, n_signals, window_len, hop = header
    path = tmp_path / "bad.ecf"
    path.write_bytes(
        struct.pack("<4sIIIIII", b"ECF1", 1, n_frames, n_bins, n_signals, window_len, hop)
        + bytes(n_signals * n_frames * n_bins * 8)
    )
    with pytest.raises(FeatureFormatError, match=message) as err:
        read_features(path)
    assert "\n" not in str(err.value)


# a bundle's header describes every signal, so one signal on another STFT
# config or sample rate than the rest is refused
@pytest.mark.parametrize(
    "odd",
    [
        pytest.param({"config": StftConfig(hop=80)}, id="hop_80"),
        pytest.param({"sample_rate": 8000}, id="at_8000_hz"),
    ],
)
def test_bundle_rejects_a_signal_on_another_grid(rng, odd):
    specs = [random_spectrogram(rng, 3) for _ in range(7)]
    specs[2] = replace(specs[2], **odd)  # the reference
    with pytest.raises(ValueError, match="disagree on shape or grid") as err:
        FeatureBundle(*specs)
    assert "\n" not in str(err.value)


def test_bundle_rederivable_from_exported_inputs(rng, tmp_path):
    y = speech_like(rng, FS)
    x = speech_like(rng, FS)
    r = speech_like(rng, FS)
    bundle = run_linear_stage(y, x, r, SMALL)
    path = tmp_path / "bundle.ecf"
    export_features(bundle, path)
    _, signals = read_features(path)

    cfg = SMALL
    X = bundle.far.like(signals[0].astype(np.complex128))
    Y = bundle.mic.like(signals[1].astype(np.complex128))
    R = bundle.ref.like(signals[2].astype(np.complex128))
    mask = compute_mask(R, X, cfg.mask, cfg.wiener_ref)
    rm = apply_mask(R, mask, cfg.mask.compression)
    rederived = [
        rm.data,
        wstws_cancel(Y, X, cfg.wiener_main)[0].data,
        wstws_cancel(Y, R, cfg.wiener_main)[0].data,
        wstws_cancel(Y, rm, cfg.wiener_main)[0].data,
    ]
    exported = [signals[3], signals[4], signals[5], signals[6]]
    for re_d, ex_d in zip(rederived, exported):
        scale = np.max(np.abs(ex_d))
        assert np.max(np.abs(re_d - ex_d)) <= 1e-3 * scale


def test_synth_dataset_deterministic_and_complete(rng, tmp_path):
    _write_corpus(rng, tmp_path / "near", 3)
    _write_corpus(rng, tmp_path / "far", 3)

    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        synth_dataset(
            count=3,
            matched=True,
            out_dir=out,
            seed=11,
            corpus_near=tmp_path / "near",
            corpus_far=tmp_path / "far",
            duration=1.0,
        )
    assert (out_a / "manifest.jsonl").read_bytes() == (out_b / "manifest.jsonl").read_bytes()
    records = read_manifest(out_a / "manifest.jsonl")
    assert len(records) == 3
    for rec in records:
        for rel in rec["files"].values():
            assert (out_a / rel).exists()
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()
        assert -10 <= rec["ser_db"] <= 10
        assert rec["scenario"] == "DT"
        # the blocks keep the key order of earlier manifests
        assert list(rec["room"]) == ["length", "width", "height", "t60"]
        assert list(rec["geometry"]) == ["loudspeaker", "talker", "main_mic", "ref_mic"]
        assert all(len(p) == 3 for p in rec["geometry"].values())
        assert list(rec["nonlinearity"]) == ["family", "b"]


def test_synth_dataset_six_second_default_length(rng, tmp_path):
    _write_corpus(rng, tmp_path / "near", 1, n=2 * FS)
    _write_corpus(rng, tmp_path / "far", 1, n=2 * FS)
    synth_dataset(
        count=1,
        matched=True,
        out_dir=tmp_path / "out",
        seed=0,
        corpus_near=tmp_path / "near",
        corpus_far=tmp_path / "far",
    )
    rec = read_manifest(tmp_path / "out" / "manifest.jsonl")[0]
    sig = read_wav(tmp_path / "out" / rec["files"]["y"])
    assert len(sig) == 96000


def test_synth_dataset_mismatched_nonlinearities(rng, tmp_path):
    _write_corpus(rng, tmp_path / "near", 2)
    _write_corpus(rng, tmp_path / "far", 2)
    synth_dataset(
        count=4,
        matched=False,
        out_dir=tmp_path / "out",
        seed=5,
        corpus_near=tmp_path / "near",
        corpus_far=tmp_path / "far",
        duration=1.0,
    )
    for rec in read_manifest(tmp_path / "out" / "manifest.jsonl"):
        assert rec["nonlinearity"]["family"] in ("hard_clip_sigmoid", "soft_clip_sigmoid")
        assert rec["nonlinearity"]["b"] is None


def test_synth_dataset_empty_corpus_errors(tmp_path):
    (tmp_path / "near").mkdir()
    (tmp_path / "far").mkdir()
    with pytest.raises(ValueError):
        synth_dataset(1, True, tmp_path / "out", 0, tmp_path / "near", tmp_path / "far")


def test_synth_dataset_rejects_counts_below_one(rng, tmp_path):
    _write_corpus(rng, tmp_path / "near", 1)
    _write_corpus(rng, tmp_path / "far", 1)
    for count in (0, -3):
        with pytest.raises(ValueError, match=f"count must be >= 1, got {count}"):
            synth_dataset(count, True, tmp_path / "out", 0, tmp_path / "near", tmp_path / "far")
    assert not (tmp_path / "out").exists()


def test_synth_dataset_rejects_corpus_clips_not_at_16_khz(rng, tmp_path):
    _write_corpus(rng, tmp_path / "near", 1)
    (tmp_path / "far").mkdir()
    write_wav(tmp_path / "far" / "clip_0.wav", TimeSignal(speech_like(rng, 8000).samples, 8000))
    with pytest.raises(ValueError, match="expected 16000 Hz, got 8000"):
        synth_dataset(
            1, True, tmp_path / "out", 0, tmp_path / "near", tmp_path / "far", duration=1.0
        )


def test_run_and_eval_dataset(rng, tmp_path):
    _write_corpus(rng, tmp_path / "near", 2)
    _write_corpus(rng, tmp_path / "far", 2)
    out = tmp_path / "data"
    manifest = synth_dataset(
        count=2,
        matched=True,
        out_dir=out,
        seed=3,
        corpus_near=tmp_path / "near",
        corpus_far=tmp_path / "far",
        duration=1.0,
    )
    est_dir = tmp_path / "est"
    written = run_dataset(manifest, est_dir, SMALL, export=True)
    assert len(written) == 2
    assert (est_dir / "scene_000000.ecf").exists()

    report_path = tmp_path / "report.jsonl"
    rows = eval_dataset(manifest, est_dir, report_path)
    assert len(rows) == 2
    lines = report_path.read_text().strip().split("\n")
    assert len(lines) == 2
    row = json.loads(lines[0])
    assert row["scene_id"] == "scene_000000"
    assert row["scenario"] == "DT"
    assert row["sdr_db"] is not None
    assert row["pesq"] == "unavailable"

    with pytest.raises(FileNotFoundError):
        eval_dataset(manifest, tmp_path / "missing", tmp_path / "r2.jsonl")


def test_inline_synth_calibrates_each_room_once(rng, tmp_path, monkeypatch):
    _write_corpus(rng, tmp_path / "near", 2)
    _write_corpus(rng, tmp_path / "far", 2)
    monkeypatch.setattr(pipeline, "_n_workers", lambda: 1)
    calibrate = roomsim.calibrated_reflectivity
    rooms = []

    def counted(room, *args):
        rooms.append(room)
        return calibrate(room, *args)

    monkeypatch.setattr(roomsim, "calibrated_reflectivity", counted)
    manifest = synth_dataset(3, True, tmp_path / "out", 4, tmp_path / "near", tmp_path / "far",
                             duration=1.0)
    assert [RoomSpec(**rec["room"]) for rec in read_manifest(manifest)] == rooms


def test_worker_exception_reaches_the_caller(rng, tmp_path, monkeypatch):
    _write_corpus(rng, tmp_path / "near", 2)
    _write_corpus(rng, tmp_path / "far", 2)
    manifest = synth_dataset(2, True, tmp_path / "data", 3, tmp_path / "near", tmp_path / "far",
                             duration=1.0)
    (tmp_path / "data" / "scene_000001" / "x.wav").unlink()
    monkeypatch.setattr(pipeline, "_n_workers", lambda: 2)
    with pytest.raises(FileNotFoundError, match="scene_000001"):
        run_dataset(manifest, tmp_path / "est", SMALL)


def _pid(_item):
    return os.getpid()


def test_scenes_fork_only_while_no_other_thread_runs(monkeypatch):
    monkeypatch.setattr(pipeline, "_n_workers", lambda: 2)
    assert os.getpid() not in pipeline._map_scenes(_pid, [0, 1])
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert pipeline._map_scenes(_pid, [0, 1]) == [os.getpid()] * 2
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def _cancel_scene(seed):
    rng = np.random.default_rng(seed)
    Y, X = (random_spectrogram(rng, 30) for _ in range(2))
    return wstws_cancel(Y, X, WienerConfig(taps=4, window_frames=16))[0].data


def test_scene_workers_solve_on_one_thread(monkeypatch):
    expected = [_cancel_scene(seed) for seed in (0, 1)]
    monkeypatch.setattr(pipeline, "_n_workers", lambda: 2)
    monkeypatch.setattr(wiener, "_n_workers", lambda: 2)

    def no_pool(*args, **kwargs):
        raise AssertionError("a scene worker started a solver thread pool")

    monkeypatch.setattr(wiener, "ThreadPoolExecutor", no_pool)
    results = pipeline._map_scenes(_cancel_scene, [0, 1])
    assert all(np.array_equal(got, want) for got, want in zip(results, expected, strict=True))


def test_config_file_parsing(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        """
        # desk-scale overrides
        stft.window_len = 256
        stft.hop = 128
        wiener_main.taps = 8
        wiener_main.weighted = false
        wiener_ref.window_frames = 50
        mask.compression = 0.25
        """
    )
    cfg = parse_config_file(cfg_path)
    assert cfg.stft.window_len == 256 and cfg.stft.hop == 128
    assert cfg.wiener_main.taps == 8 and cfg.wiener_main.weighted is False
    assert cfg.wiener_ref.window_frames == 50
    assert cfg.mask.compression == 0.25
    # untouched defaults survive
    assert cfg.wiener_main.window_frames == 200
    assert cfg.wiener_ref.taps == 1


def test_config_file_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("wiener_main.order = 3\n")
    with pytest.raises(ValueError):
        parse_config_file(bad)
    bad.write_text("no_equals_here\n")
    with pytest.raises(ValueError):
        parse_config_file(bad)
    # removed settings fail like any other unknown key
    for line in (
        "seed = 7",
        "wiener_main.lambda_mode = frozen",
        "mask.ref_taps = 2",
        "stft.window = hann",
    ):
        bad.write_text(line + "\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file(bad)


def test_config_file_errors_name_their_line_and_section(tmp_path):
    bad = tmp_path / "bad.cfg"
    cases = [
        ("wiener_main.taps = 8.0",
         f"{bad}:2: wiener_main.taps: invalid literal for int() with base 10: '8.0'"),
        ("wiener_main.weighted = maybe", f"{bad}:2: wiener_main.weighted: not a boolean: 'maybe'"),
        ("mask.compression = high",
         f"{bad}:2: mask.compression: could not convert string to float: 'high'"),
        ("wiener_ref.taps = 0", f"{bad}: wiener_ref: taps must be >= 1"),
        ("wiener_main.diag_load = nan",
         f"{bad}: wiener_main: diag_load must be finite and >= 0, got nan"),
        ("wiener_ref.floor = inf", f"{bad}: wiener_ref: floor must be finite and > 0, got inf"),
        ("wiener_main.floor = -inf",
         f"{bad}: wiener_main: floor must be finite and > 0, got -inf"),
    ]
    for line, message in cases:
        bad.write_text(f"# one bad line\n{line}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_config_file(bad)


def test_config_file_ref_taps_reach_the_mask(rng, tmp_path):
    y, x, r = (speech_like(rng, FS) for _ in range(3))
    cfg_path = tmp_path / "ref.cfg"
    # SMALL's settings, with 4 reference taps instead of 1
    cfg_path.write_text(
        f"wiener_main.taps = {SMALL.wiener_main.taps}\n"
        f"wiener_main.window_frames = {SMALL.wiener_main.window_frames}\n"
        f"wiener_ref.window_frames = {SMALL.wiener_ref.window_frames}\n"
        "wiener_ref.taps = 4\n"
    )
    cfg = parse_config_file(cfg_path)
    assert cfg == replace(SMALL, wiener_ref=replace(SMALL.wiener_ref, taps=4))
    base = run_linear_stage(y, x, r, SMALL).ref_masked.data
    assert not np.array_equal(run_linear_stage(y, x, r, cfg).ref_masked.data, base)


def test_public_names_resolve_and_are_unique():
    assert len(set(refaec.__all__)) == len(refaec.__all__)
    for name in refaec.__all__:
        assert hasattr(refaec, name), name


def test_default_run_config_matches_tuned_operating_point():
    cfg = RunConfig()
    assert cfg.stft.window_len == 320 and cfg.stft.hop == 160
    assert np.array_equal(cfg.stft.analysis_window(), windows.hamming(320, sym=False))
    assert cfg.wiener_main.taps == 20
    assert cfg.wiener_main.window_frames == 200
    assert cfg.wiener_main.floor == pytest.approx(1e-3)
    assert cfg.wiener_ref.taps == 1
    assert cfg.mask.compression == pytest.approx(1.0 / 6.0)
