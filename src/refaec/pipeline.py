"""Orchestration: the linear cancellation stage producing the seven-signal
feature bundle, dataset synthesis, batch evaluation, and run configuration."""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import struct
import threading
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .dsp import (
    DEFAULT_SAMPLE_RATE,
    Spectrogram,
    StftConfig,
    TimeSignal,
    require_one_grid,
    stft_forward,
    stft_inverse,
)
from .masking import MaskConfig, apply_mask, compute_mask
from .metrics import evaluate_estimate, report_record
from .nonlinear import sample_kind
from .roomsim import (
    DEFAULT_DURATION,
    SER_GRID_DB,
    sample_geometry,
    sample_room,
    synthesize_scene,
)
from .wavio import read_wav, write_wav
from .wiener import WienerConfig, _n_workers, wstws_cancel

FEATURE_MAGIC = b"ECF1"
FEATURE_VERSION = 1
_HEADER = struct.Struct("<4sIIIIII")

MANIFEST_NAME = "manifest.jsonl"
CORPUS_PEAK = 0.95


class FeatureFormatError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Linear-stage configuration; defaults are the tuned operating point
    (20-tap main solves over 200 frames, single-tap reference solve,
    1/6 mask compression)."""

    stft: StftConfig = field(default_factory=StftConfig)
    wiener_main: WienerConfig = field(default_factory=WienerConfig)
    wiener_ref: WienerConfig = field(default_factory=lambda: WienerConfig(taps=1))
    mask: MaskConfig = field(default_factory=MaskConfig)


@dataclass(eq=False)
class FeatureBundle:
    """The seven aligned spectrograms consumed by a downstream model:
    far-end, mic, reference, masked reference, and the three cancellation
    residuals (mic vs far-end, mic vs reference, mic vs masked reference).
    The fields are exactly these seven signals, in the order of an exported
    file, and they share one shape, STFT config and sample rate."""

    far: Spectrogram
    mic: Spectrogram
    ref: Spectrogram
    ref_masked: Spectrogram
    resid_far: Spectrogram
    resid_ref: Spectrogram
    resid_ref_masked: Spectrogram

    def signals(self) -> list[Spectrogram]:
        return [getattr(self, f.name) for f in dataclasses.fields(self)]

    def __post_init__(self):
        require_one_grid(*self.signals())

    @property
    def config(self) -> StftConfig:
        return self.mic.config


N_BUNDLE_SIGNALS = len(dataclasses.fields(FeatureBundle))


def run_linear_stage(
    y: TimeSignal,
    x: TimeSignal,
    r: TimeSignal,
    cfg: RunConfig | None = None,
) -> FeatureBundle:
    """Purify the reference, then cancel the mic signal against the far-end, raw reference
    and purified reference, strictly frame-online; returns the seven-signal feature bundle."""
    cfg = cfg or RunConfig()
    if not (len(y) == len(x) == len(r)):
        raise ValueError("y, x, r must share a length")
    if not (y.sample_rate == x.sample_rate == r.sample_rate):
        raise ValueError("y, x, r must share a sample rate")
    if y.sample_rate != DEFAULT_SAMPLE_RATE:
        raise ValueError(
            f"the linear stage runs at {DEFAULT_SAMPLE_RATE} Hz, got {y.sample_rate} Hz"
        )

    Y = stft_forward(y, cfg.stft)
    X = stft_forward(x, cfg.stft)
    R = stft_forward(r, cfg.stft)

    mask = compute_mask(R, X, cfg.mask, cfg.wiener_ref)
    R_m = apply_mask(R, mask, cfg.mask.compression)

    resid_far = wstws_cancel(Y, X, cfg.wiener_main)[0]
    resid_ref = wstws_cancel(Y, R, cfg.wiener_main)[0]
    resid_ref_masked = wstws_cancel(Y, R_m, cfg.wiener_main)[0]

    return FeatureBundle(
        far=X,
        mic=Y,
        ref=R,
        ref_masked=R_m,
        resid_far=resid_far,
        resid_ref=resid_ref,
        resid_ref_masked=resid_ref_masked,
    )


def export_features(bundle: FeatureBundle, path) -> None:
    """Write the bundle as little-endian complex64, (real f32, imag f32) per
    unit, frame-major, behind a fixed 28-byte header. Bit-exact across
    platforms."""
    cfg = bundle.config
    n_frames, n_bins = bundle.mic.data.shape
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                FEATURE_MAGIC,
                FEATURE_VERSION,
                n_frames,
                n_bins,
                N_BUNDLE_SIGNALS,
                cfg.window_len,
                cfg.hop,
            )
        )
        for spec in bundle.signals():
            fh.write(spec.data.astype("<c8").tobytes())


def read_features(path) -> tuple[dict, list[np.ndarray]]:
    """Read a feature file back; returns the header fields and the seven
    writable complex64 matrices in bundle order, every bit as written."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FeatureFormatError("file shorter than the header")
    magic, version, n_frames, n_bins, n_signals, window_len, hop = _HEADER.unpack(
        raw[: _HEADER.size]
    )
    if magic != FEATURE_MAGIC:
        raise FeatureFormatError(f"bad magic {magic!r}")
    if version != FEATURE_VERSION:
        raise FeatureFormatError(f"unsupported version {version}")
    if n_signals != N_BUNDLE_SIGNALS:
        raise FeatureFormatError(f"n_signals is {n_signals}, expected {N_BUNDLE_SIGNALS}")
    try:
        cfg = StftConfig(window_len, hop)
    except ValueError as err:
        raise FeatureFormatError(f"window_len {window_len}, hop {hop}: {err}") from None
    if n_bins != cfg.n_bins:
        raise FeatureFormatError(
            f"n_bins is {n_bins}, expected {cfg.n_bins} for window_len {window_len}"
        )
    if n_frames == 0:
        raise FeatureFormatError("file has no frames")
    expected = _HEADER.size + n_signals * n_frames * n_bins * 8
    if len(raw) != expected:
        raise FeatureFormatError(f"file is {len(raw)} bytes, expected {expected}")
    header = {
        "version": version,
        "n_frames": n_frames,
        "n_bins": n_bins,
        "n_signals": n_signals,
        "window_len": window_len,
        "hop": hop,
    }
    data = np.frombuffer(raw, dtype="<c8", offset=_HEADER.size)
    return header, list(data.reshape(n_signals, n_frames, n_bins).astype(np.complex64))


def _map_scenes(fn, items: list) -> list:
    """fn applied to every item, the results in item order.

    Scenes are independent, so with several scenes and CPUs they run on a pool
    of forked worker processes, one per CPU in the affinity mask and at most
    one per scene. A scene's arithmetic is the same wherever it runs, so
    outputs do not depend on the worker count. A worker's exception is raised
    here, for the first failing item. The items run inline with one worker,
    where processes cannot fork, or while other threads run: a fork copies any
    lock another thread holds, and nothing in the child would release it.
    """
    workers = min(len(items), _n_workers())
    if (
        workers <= 1
        or threading.active_count() > 1
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        return [fn(item) for item in items]
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return list(pool.imap(fn, items))


def _scene_rng(base_seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=base_seed, spawn_key=(index,)))


def _load_corpus_clip(path, rng: np.random.Generator, n: int) -> TimeSignal:
    sig = read_wav(path)
    if sig.sample_rate != DEFAULT_SAMPLE_RATE:
        raise ValueError(f"{path}: expected {DEFAULT_SAMPLE_RATE} Hz, got {sig.sample_rate}")
    x = sig.samples
    if len(x) > n:
        offset = int(rng.integers(0, len(x) - n + 1))
        x = x[offset : offset + n]
    peak = np.max(np.abs(x))
    if peak > 0:
        x = x * (CORPUS_PEAK / peak)
    return TimeSignal(x, DEFAULT_SAMPLE_RATE)


def _list_corpus(directory) -> list[Path]:
    files = sorted(Path(directory).glob("*.wav"))
    if not files:
        raise ValueError(f"no .wav files in corpus directory {directory}")
    return files


def _synth_scene(index: int, *, seed, matched, out, near_files, far_files, duration) -> dict:
    """Synthesize and write scene `index`; returns its manifest record."""
    rng = _scene_rng(seed, index)
    scene_id = f"scene_{index:06d}"
    room = sample_room(rng)
    geom = sample_geometry(room, rng)
    kind = sample_kind(rng, matched=matched)
    ser_db = int(SER_GRID_DB[rng.integers(len(SER_GRID_DB))])
    near_path = near_files[rng.integers(len(near_files))]
    far_path = far_files[rng.integers(len(far_files))]
    n = int(round(duration * DEFAULT_SAMPLE_RATE))
    v = _load_corpus_clip(near_path, rng, n)
    x = _load_corpus_clip(far_path, rng, n)

    scene = synthesize_scene(room, geom, v, x, kind, ser_db, seed=index, duration=duration)

    files = {}
    for name, sig in (("y", scene.y), ("x", scene.x), ("r", scene.r), ("sd", scene.s_direct)):
        rel = f"{scene_id}/{name}.wav"
        write_wav(out / rel, sig)
        files[name] = rel

    return {
        "scene_id": scene_id,
        "index": index,
        "base_seed": seed,
        "files": files,
        "room": dataclasses.asdict(room),
        "geometry": dataclasses.asdict(geom),
        "nonlinearity": dataclasses.asdict(kind),
        "ser_db": scene.ser_db,
        "echo_gain": scene.echo_gain,
        "scenario": "DT",
        "duration": duration,
        "sample_rate": DEFAULT_SAMPLE_RATE,
        "corpus": {"near": near_path.name, "far": far_path.name},
    }


def synth_dataset(
    count: int,
    matched: bool,
    out_dir,
    seed: int,
    corpus_near,
    corpus_far,
    duration: float = DEFAULT_DURATION,
) -> Path:
    """Synthesize `count` double-talk scenes from corpus clips at
    DEFAULT_SAMPLE_RATE and write waveforms plus a manifest. Every scene is
    reproducible from the base seed and its index, so reruns are
    byte-identical."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    near_files = _list_corpus(corpus_near)
    far_files = _list_corpus(corpus_far)

    synth = partial(
        _synth_scene,
        seed=seed,
        matched=matched,
        out=out,
        near_files=near_files,
        far_files=far_files,
        duration=duration,
    )
    records = _map_scenes(synth, list(range(count)))

    manifest = out / MANIFEST_NAME
    with open(manifest, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return manifest


def read_manifest(path) -> list[dict]:
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    ids = [r["scene_id"] for r in records]
    if len(set(ids)) != len(ids):
        raise ValueError("manifest contains duplicate scene ids")
    return records


def _write_outputs(bundle: FeatureBundle, out: Path, scene_id: str, export: bool) -> Path:
    """Write the stage's estimate, the masked-reference residual, as
    `<scene_id>.wav` in out and, when export is set, the bundle as
    `<scene_id>.ecf`; returns the estimate's path."""
    est_path = out / f"{scene_id}.wav"
    write_wav(est_path, stft_inverse(bundle.resid_ref_masked))
    if export:
        export_features(bundle, out / f"{scene_id}.ecf")
    return est_path


def _run_scene(rec: dict, *, root: Path, out: Path, cfg: RunConfig, export: bool) -> Path:
    """Run the linear stage on one manifest scene and write its outputs;
    returns the estimate's path."""
    y, x, r = (read_wav(root / rec["files"][name]) for name in ("y", "x", "r"))
    return _write_outputs(run_linear_stage(y, x, r, cfg), out, rec["scene_id"], export)


def run_dataset(
    manifest_path,
    out_dir,
    cfg: RunConfig | None = None,
    export: bool = False,
) -> list[Path]:
    """Run the linear stage over every manifest scene. Writes the masked-
    reference residual as `<scene_id>.wav` (the stage's primary estimate)
    and, when export is set, the full feature bundle as `<scene_id>.ecf`."""
    cfg = cfg or RunConfig()
    manifest_path = Path(manifest_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run = partial(_run_scene, root=manifest_path.parent, out=out, cfg=cfg, export=export)
    return _map_scenes(run, read_manifest(manifest_path))


def eval_dataset(manifest_path, estimates_dir, report_path) -> list[dict]:
    """Score `<scene_id>.wav` estimates against the dataset ground truth and
    write one JSON record per scene."""
    manifest_path = Path(manifest_path)
    root = manifest_path.parent
    estimates = Path(estimates_dir)
    rows = []
    for rec in read_manifest(manifest_path):
        scene_id = rec["scene_id"]
        est_path = estimates / f"{scene_id}.wav"
        if not est_path.exists():
            raise FileNotFoundError(f"missing estimate {est_path}")
        y = read_wav(root / rec["files"]["y"])
        s_direct = read_wav(root / rec["files"]["sd"])
        estimate = read_wav(est_path)
        if estimate.sample_rate != y.sample_rate:
            raise ValueError(
                f"estimate {est_path} at {estimate.sample_rate} Hz, scene at {y.sample_rate} Hz"
            )
        n = min(len(y), len(estimate))
        report = evaluate_estimate(
            rec["scenario"],
            TimeSignal(y.samples[:n], y.sample_rate),
            TimeSignal(s_direct.samples[:n], s_direct.sample_rate),
            TimeSignal(estimate.samples[:n], estimate.sample_rate),
        )
        rows.append(report_record(report, scene_id))
    report_path = Path(report_path)
    report_path.parent.mkdir(parents=True, exist_ok=True)
    with open(report_path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return rows


def _coerce(value: str, target_type):
    if target_type is bool:
        lowered = value.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {value!r}")
    return target_type(value)


def parse_config_file(path) -> RunConfig:
    """The default RunConfig with the file's flat key-value overrides.

    Every key is a dotted `section.field` path (for example
    `wiener_main.taps = 8`); blank lines and `#` comments are ignored.
    """
    cfg = RunConfig()
    sections = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    overrides: dict[str, dict] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected `key = value`")
            key, value = (part.strip() for part in line.split("=", 1))
            section, _, fname = key.partition(".")
            sub = sections.get(section)
            if sub is None or fname not in {f.name for f in dataclasses.fields(sub)}:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                coerced = _coerce(value, type(getattr(sub, fname)))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from exc
            overrides.setdefault(section, {})[fname] = coerced
    replaced = {}
    for name, fields in overrides.items():
        try:
            replaced[name] = dataclasses.replace(sections[name], **fields)
        except ValueError as exc:
            raise ValueError(f"{path}: {name}: {exc}") from exc
    return dataclasses.replace(cfg, **replaced)
