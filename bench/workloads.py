"""The three workloads. Each builds its inputs in set-up and runs timed
passes; a pass returns its timing, its outputs' fingerprint and, when asked
to, the result of the output checks.

Every workload holds two input sets and alternates between them pass by
pass: set 0 is generated from seed 0 in every run, set 1 from the run's
--seed. The timing covers both. The quality metrics come from set 0 only:
per-scene quality swings by several dB with the speech content, far more
than any bound could absorb, so comparing quality across runs needs the
same scenes in every run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
import struct
import time
from pathlib import Path

import numpy as np
from scipy.io import wavfile

import refaec
import refaec.cli
import refaec.wiener
import oracle
from inputs import FS, speech_like, workload_rng

PANEL_SEED = 0

# independent random streams of one seed
STREAM_STAGE, STREAM_ECHO, STREAM_NEAR, STREAM_FAR, STREAM_UNITS = range(5)


@dataclasses.dataclass
class Pass:
    wall: float  # timed seconds
    audio: float  # seconds of audio processed
    ops: int  # scenes attempted
    failed: int = 0
    rooms: int = 0  # distinct rooms synthesized in the timed section
    fingerprint: str = ""
    quality: dict = dataclasses.field(default_factory=dict)
    worst_dev: float = 0.0
    errors: list = dataclasses.field(default_factory=list)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def _read_wav(path) -> np.ndarray:
    return wavfile.read(path)[1].astype(np.float64)


def _timed(tracer, fn, *args):
    ctx = tracer if tracer is not None else contextlib.nullcontext()
    with ctx:
        start = time.perf_counter()
        out = fn(*args)
        return out, time.perf_counter() - start


def scene_quality(y, target, residuals: dict, single_talk: bool) -> dict:
    """Quality of one scene's outputs, from time-domain residuals per route.

    erle_<route>_db is the mic-to-residual energy ratio, the library's ERLE;
    with a silent near end it is the echo reduction proper. sdr_db scores
    the primary (masked-reference) route against the near-end direct path;
    with a silent near end there is no such target, so it scores the echo
    estimate (mic minus residual) against the true echo instead.
    """
    n = min(len(y), len(target), *(len(e) for e in residuals.values()))
    q = {f"erle_{route}_db": oracle.erle_db(y[:n], e[:n]) for route, e in residuals.items()}
    primary = residuals["yrm"][:n]
    estimate = y[:n] - primary if single_talk else primary
    q["sdr_db"] = oracle.sdr_db(target[:n], estimate)
    return q


def _stws_residual(Y, R_m, main_cfg) -> np.ndarray:
    """The unweighted masked-reference route, for workloads whose timed
    program does not run it."""
    cfg = refaec.StftConfig()
    res, _ = refaec.wstws_cancel(refaec.Spectrogram(Y, cfg), refaec.Spectrogram(R_m, cfg),
                                 refaec.wiener.stws_config(main_cfg))
    return res.data


def _dt_scene(seed: int, duration: float) -> refaec.Scene:
    """A double-talk scene drawn the way `refaec synth` draws one."""
    rng = workload_rng(seed, STREAM_STAGE)
    n = int(round(duration * FS))
    room = refaec.sample_room(rng)
    geom = refaec.sample_geometry(room, rng)
    kind = refaec.sample_kind(rng, matched=bool(rng.integers(2)))
    ser_db = float(rng.integers(-10, 11))
    v = refaec.TimeSignal(speech_like(rng, n))
    x = refaec.TimeSignal(speech_like(rng, n))
    return refaec.synthesize_scene(room, geom, v, x, kind, ser_db, seed=0, duration=duration)


class StageDefault:
    """run_linear_stage on 6 s double-talk scenes at the default RunConfig."""

    name = "stage_default_6s"
    duration = 6.0
    n_units = 16

    def __init__(self, seed: int, workdir: Path):
        self.seeds = (PANEL_SEED, seed)
        self.cfg = refaec.RunConfig()

    def build(self) -> str:
        self.scenes = [_dt_scene(s, self.duration) for s in self.seeds]
        first = self.scenes[0]
        refaec.run_linear_stage(  # warm-up on one second
            *(refaec.TimeSignal(sig.samples[:FS]) for sig in (first.y, first.x, first.r)), self.cfg)
        return _digest(sig.samples for sc in self.scenes for sig in (sc.y, sc.x, sc.r, sc.s_direct))

    def _replay(self, y, x, r):
        """run_linear_stage rebuilt from its public calls, in its order."""
        cfg = self.cfg
        Y = refaec.stft_forward(y, cfg.stft)
        X = refaec.stft_forward(x, cfg.stft)
        R = refaec.stft_forward(r, cfg.stft)
        mask = refaec.compute_mask(R, X, cfg.mask, cfg.wiener_ref)
        R_m = refaec.apply_mask(R, mask, cfg.mask.compression)
        resid = [refaec.wstws_cancel(Y, ref, cfg.wiener_main)[0] for ref in (X, R, R_m)]
        return [X, Y, R, R_m, *resid]

    def run_pass(self, k: int, tracer, check: bool) -> Pass:
        j = k % 2
        sc = self.scenes[j]
        p = Pass(wall=0.0, audio=self.duration, ops=1)
        try:
            if tracer is None:
                bundle, p.wall = _timed(None, refaec.run_linear_stage, sc.y, sc.x, sc.r, self.cfg)
                signals = bundle.signals()
            else:
                signals, p.wall = _timed(tracer, self._replay, sc.y, sc.x, sc.r)
            arrays = [s.data for s in signals]
            p.fingerprint = _digest(arrays)
            if check:
                self._check(j, sc, arrays, p)
                p.quality = {name: [value] for name, value in self._quality(sc, arrays).items()}
        except Exception as exc:  # noqa: BLE001 - a failed operation, counted
            p.failed, p.errors = 1, [f"{self.name} scene {j}: {exc!r}"]
        return p

    def _check(self, j, sc, arrays, p: Pass) -> None:
        names = ["far", "mic", "ref", "ref_masked", "resid_far", "resid_ref", "resid_ref_masked"]
        out = dict(zip(names, arrays))
        main = self.cfg.wiener_main
        routes = {"resid_far": ("far", main), "resid_ref": ("ref", main),
                  "resid_ref_masked": ("ref_masked", main)}
        Y, X, R = (oracle.stft(s.samples) for s in (sc.y, sc.x, sc.r))
        rng = workload_rng(self.seeds[j], STREAM_UNITS)
        p.worst_dev = oracle.worst_deviation(Y, X, R, out, routes, self.cfg.wiener_ref,
                                             self.cfg.mask.compression, rng, self.n_units)
        if not p.worst_dev <= oracle.TOL_F64:
            p.failed = 1
            p.errors.append(f"{self.name} scene {j}: oracle deviation {p.worst_dev:.3g}")

    def _quality(self, sc, arrays) -> dict:
        _, Y, _, R_m, resid_far, _, resid_ref_masked = arrays
        residuals = {
            "yx": oracle.istft(resid_far),
            "yrm": oracle.istft(resid_ref_masked),
            "stws_yrm": oracle.istft(_stws_residual(Y, R_m, self.cfg.wiener_main)),
        }
        return scene_quality(sc.y.samples, sc.s_direct.samples, residuals, single_talk=False)


class BatchCliDesk:
    """The command-line user path: synth, run with exported features, eval."""

    name = "batch_cli_desk"
    n_scenes = 8
    scene_s = 6.0  # refaec synth's scene length
    n_clips = 4
    clip_s = 8.0
    n_units = 8
    desk_config = "wiener_main.taps = 6\nwiener_main.window_frames = 60\n"

    def __init__(self, seed: int, workdir: Path):
        self.seeds = (PANEL_SEED, seed)
        self.root = workdir

    def _set_dir(self, j: int) -> Path:
        return self.root / f"set{j}"

    def build(self) -> str:
        h = hashlib.sha256()
        for j, seed in enumerate(self.seeds):
            for side, stream in (("near", STREAM_NEAR), ("far", STREAM_FAR)):
                d = self._set_dir(j) / "corpus" / side
                d.mkdir(parents=True, exist_ok=True)
                for i in range(self.n_clips):
                    clip = speech_like(workload_rng(seed, stream, i), int(self.clip_s * FS))
                    wavfile.write(d / f"clip_{i}.wav", FS, clip.astype(np.float32))
            (self._set_dir(j) / "desk.cfg").write_text(self.desk_config)
            h.update(_tree_digest(self._set_dir(j) / "corpus").encode())
        self.cfg = refaec.pipeline.parse_config_file(self._set_dir(0) / "desk.cfg")
        clip = refaec.TimeSignal(speech_like(workload_rng(PANEL_SEED, STREAM_NEAR), FS))
        refaec.run_linear_stage(clip, clip, clip, self.cfg)  # warm-up
        return h.hexdigest()

    def _cli(self, j: int) -> list[str]:
        base = self._set_dir(j)
        data, est = base / "data", base / "est"
        commands = [
            ["synth", "--count", str(self.n_scenes), "--mismatched",
             "--corpus-near", str(base / "corpus" / "near"),
             "--corpus-far", str(base / "corpus" / "far"),
             "--out", str(data), "--seed", str(self.seeds[j])],
            ["run", "--manifest", str(data / "manifest.jsonl"), "--config", str(base / "desk.cfg"),
             "--export-features", "--out", str(est)],
            ["eval", "--manifest", str(data / "manifest.jsonl"), "--estimates", str(est),
             "--report", str(base / "report.jsonl")],
        ]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            for argv in commands:
                code = refaec.cli.main(argv)
                if code != 0:
                    return [f"refaec {argv[0]} exited {code}: {err.getvalue().strip()}"]
        return []

    def run_pass(self, k: int, tracer, check: bool) -> Pass:
        j = k % 2
        base = self._set_dir(j)
        for stale in ("data", "est", "report.jsonl"):
            path = base / stale
            if path.is_dir():
                shutil.rmtree(path)
            elif path.exists():
                path.unlink()
        p = Pass(wall=0.0, audio=self.n_scenes * self.scene_s, ops=self.n_scenes)
        errors, p.wall = _timed(tracer, self._cli, j)
        if errors:
            p.failed, p.errors = self.n_scenes, errors
            return p
        records = _jsonl(base / "data" / "manifest.jsonl")
        p.rooms = len({json.dumps(r["room"], sort_keys=True) for r in records})
        p.fingerprint = _tree_digest(base)
        if check:
            self._check(j, records, p)
        return p

    def _check(self, j, records, p: Pass) -> None:
        base = self._set_dir(j)
        report = {row["scene_id"]: row for row in _jsonl(base / "report.jsonl")}
        rng = workload_rng(self.seeds[j], STREAM_UNITS)
        main = self.cfg.wiener_main
        routes = {"resid_far": ("far", main), "resid_ref": ("ref", main),
                  "resid_ref_masked": ("ref_masked", main)}
        quality = []
        for rec in records:
            sid = rec["scene_id"]
            try:
                y, x, r, sd = (_read_wav(base / "data" / rec["files"][name])
                               for name in ("y", "x", "r", "sd"))
                out = read_ecf(base / "est" / f"{sid}.ecf")
                Y, X, R = (oracle.stft(s) for s in (y, x, r))
                dev = oracle.worst_deviation(Y, X, R, out, routes, self.cfg.wiener_ref,
                                             self.cfg.mask.compression, rng, self.n_units)
                estimate = _read_wav(base / "est" / f"{sid}.wav")
                own = oracle.istft(out["resid_ref_masked"])
                n = min(len(estimate), len(own))
                dev = max(dev, np.abs(estimate[:n] - own[:n]).max() / np.abs(own[:n]).max())
                residuals = {
                    "yx": oracle.istft(out["resid_far"]),
                    "yrm": estimate,
                    "stws_yrm": oracle.istft(_stws_residual(out["mic"], out["ref_masked"], main)),
                }
                q = scene_quality(y, sd, residuals, single_talk=False)
                if abs(q["sdr_db"] - report[sid]["sdr_db"]) > 1e-6:
                    raise ValueError(f"report sdr_db {report[sid]['sdr_db']} != {q['sdr_db']}")
                if not dev <= oracle.TOL_F32:
                    raise ValueError(f"oracle deviation {dev:.3g}")
                p.worst_dev = max(p.worst_dev, dev)
                quality.append(q)
            except Exception as exc:  # noqa: BLE001 - a failed scene, counted
                p.failed += 1
                p.errors.append(f"{self.name} {sid}: {exc!r}")
        p.quality = {name: [q[name] for q in quality] for name in quality[0]} if quality else {}


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


_ECF_HEADER = struct.Struct("<4sIIIIII")
_ECF_NAMES = ["far", "mic", "ref", "ref_masked", "resid_far", "resid_ref", "resid_ref_masked"]


def read_ecf(path) -> dict:
    """Parse a feature file by its documented layout, checking the header."""
    raw = Path(path).read_bytes()
    magic, version, n_frames, n_bins, n_signals, window_len, hop = _ECF_HEADER.unpack_from(raw)
    expected = _ECF_HEADER.size + n_signals * n_frames * n_bins * 8
    fixed = (magic, version, n_signals, window_len, hop)
    if fixed != (b"ECF1", 1, 7, oracle.WINDOW_LEN, oracle.HOP):
        raise ValueError(f"unexpected feature header {fixed}")
    if len(raw) != expected:
        raise ValueError(f"feature file is {len(raw)} bytes, expected {expected}")
    data = np.frombuffer(raw, dtype="<f4", offset=_ECF_HEADER.size)
    data = data.reshape(n_signals, n_frames, n_bins, 2)
    return {name: data[i, ..., 0].astype(np.float64) + 1j * data[i, ..., 1]
            for i, name in enumerate(_ECF_NAMES)}


class EchoStudy:
    """Far-end single talk through the mask and three cancellation routes,
    shaped like the directional echo study."""

    name = "echo_study_st_fe"
    n_scenes = 12
    duration = 2.5
    t60_range = (0.1, 0.4)
    n_units = 8

    def __init__(self, seed: int, workdir: Path):
        self.seeds = (PANEL_SEED, seed)
        self.cfg = refaec.RunConfig(
            wiener_main=refaec.WienerConfig(taps=8, window_frames=80),
            wiener_ref=refaec.WienerConfig(taps=1, window_frames=80),
        )
        self.stws = refaec.wiener.stws_config(self.cfg.wiener_main)

    def build(self) -> str:
        n = int(self.duration * FS)
        self.inputs = []
        for seed in self.seeds:
            scenes = []
            for i in range(self.n_scenes):
                rng = workload_rng(seed, STREAM_ECHO, i)
                room = refaec.sample_room(rng, t60_range=self.t60_range)
                geom = refaec.sample_geometry(room, rng)
                # both distortion conditions of the study, alternating
                kind = refaec.sample_kind(rng, matched=bool(i % 2))
                x = refaec.TimeSignal(speech_like(rng, n))
                scenes.append((room, geom, kind, x))
            self.inputs.append(scenes)
        x = self.inputs[0][0][3]
        X = refaec.stft_forward(x, self.cfg.stft)
        refaec.wstws_cancel(X, X, self.cfg.wiener_main)  # warm-up
        return _digest(sc[3].samples for scenes in self.inputs for sc in scenes)

    def _scene(self, i, room, geom, kind, x):
        cfg = self.cfg
        silent = refaec.TimeSignal(np.zeros(len(x)))
        scene = refaec.synthesize_scene(room, geom, silent, x, kind, None, seed=i,
                                        duration=self.duration)
        Y = refaec.stft_forward(scene.y, cfg.stft)
        X = refaec.stft_forward(scene.x, cfg.stft)
        R = refaec.stft_forward(scene.r, cfg.stft)
        mask = refaec.compute_mask(R, X, cfg.mask, cfg.wiener_ref)
        R_m = refaec.apply_mask(R, mask, cfg.mask.compression)
        resid, erle = {}, {}
        for route, ref, wcfg in (("yx", X, cfg.wiener_main), ("yrm", R_m, cfg.wiener_main),
                                 ("stws_yrm", R_m, self.stws)):
            res, _ = refaec.wstws_cancel(Y, ref, wcfg)
            e = refaec.stft_inverse(res)
            resid[route] = (res.data, e.samples)
            erle[route] = refaec.erle(scene.y, e)
        return scene, R_m.data, resid, erle

    def run_pass(self, k: int, tracer, check: bool) -> Pass:
        j = k % 2
        p = Pass(wall=0.0, audio=self.n_scenes * self.duration, ops=self.n_scenes,
                 rooms=self.n_scenes)
        quality = []
        digests = []
        for i, (room, geom, kind, x) in enumerate(self.inputs[j]):
            try:
                (scene, rm, resid, erle), wall = _timed(tracer, self._scene, i, room, geom, kind, x)
                p.wall += wall
                digests.append(_digest([rm] + [a for pair in resid.values() for a in pair]))
                if check:
                    self._check(j, i, scene, rm, resid, erle, p)
                    residuals = {route: samples for route, (_, samples) in resid.items()}
                    quality.append(scene_quality(scene.y.samples, scene.d.samples, residuals,
                                                 single_talk=True))
            except Exception as exc:  # noqa: BLE001 - a failed scene, counted
                p.failed += 1
                p.errors.append(f"{self.name} scene {i}: {exc!r}")
        p.fingerprint = _digest(np.frombuffer(d.encode(), dtype=np.uint8) for d in digests)
        if quality:
            p.quality = {name: [q[name] for q in quality] for name in quality[0]}
        return p

    def _check(self, j, i, scene, rm, resid, erle, p: Pass) -> None:
        Y, X, R = (oracle.stft(s.samples) for s in (scene.y, scene.x, scene.r))
        out = {"ref_masked": rm, "resid_yx": resid["yx"][0], "resid_yrm": resid["yrm"][0],
               "resid_stws_yrm": resid["stws_yrm"][0]}
        routes = {"resid_yx": ("far", self.cfg.wiener_main),
                  "resid_yrm": ("ref_masked", self.cfg.wiener_main),
                  "resid_stws_yrm": ("ref_masked", self.stws)}
        rng = workload_rng(self.seeds[j], STREAM_UNITS, i)
        dev = oracle.worst_deviation(Y, X, R, out, routes, self.cfg.wiener_ref,
                                     self.cfg.mask.compression, rng, self.n_units)
        for route, (spec, samples) in resid.items():
            own = oracle.istft(spec)
            dev = max(dev, np.abs(own - samples).max() / np.abs(own).max())
            n = min(len(samples), len(scene.y))
            own_erle = oracle.erle_db(scene.y.samples[:n], samples[:n])
            if abs(own_erle - erle[route]) > 1e-6:
                raise ValueError(f"{route}: erle {erle[route]} != {own_erle}")
        if not dev <= oracle.TOL_F64:
            raise ValueError(f"oracle deviation {dev:.3g}")
        p.worst_dev = max(p.worst_dev, dev)


WORKLOADS = {w.name: w for w in (StageDefault, BatchCliDesk, EchoStudy)}
