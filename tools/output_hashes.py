"""Print one SHA-256 per artifact group of refaec's outputs on fixed inputs.

Usage: python3 tools/output_hashes.py

The library is imported from the src/ directory of the checkout that holds
this script, and the test helpers from its tests/ directory. Run the script on
two checkouts on the same host: equal lines mean the change moved no
output bit in that group. The groups are:

- the seven run_linear_stage spectrograms of a 6 s double-talk scene at the
  default configuration;
- the taps and degenerate flags of that scene's far-end canceller,
  wstws_cancel(Y, X, RunConfig().wiener_main);
- every signal, impulse response and echo gain of 4 far-end single-talk and
  of 4 double-talk scenes;
- the synth / run --export-features / eval file tree of acceptance
  criterion 10, with its scenes on 1 and on 2 worker processes. Its
  report.jsonl is hashed on a line of its own, after the rest of the tree;
- the output of `refaec run --y/--x/--r --config desk.cfg --export-features`
  on the first scene of that tree;
- the residual, taps and degenerate flags of the 6 s scene's unweighted
  canceller, wstws_cancel(Y, R_m, stws_config(RunConfig().wiener_main)), with
  the stage's masked reference R_m;
- image_method_rir on RIR_PATHS, fixed rooms from t60 0.1 to 0.8 s, and the
  WAV file that `refaec rir --seed 0` writes;
- the `<scene_id>.wav` files that `refaec run --manifest --config desk.cfg`
  writes without --export-features on the criterion-10 manifest.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import refaec  # noqa: E402
from helpers import criterion_10_tree, speech_like  # noqa: E402
from refaec import NonlinearityKind, TimeSignal  # noqa: E402
from refaec.cli import main as cli_main  # noqa: E402
from refaec.dsp import SAMPLE_RATE  # noqa: E402
from refaec.wiener import stws_config  # noqa: E402

SCENE_SIGNALS = (
    "x", "x_nl", "v", "s", "s_direct", "s_reverb", "d", "y", "r", "r_far", "r_near",
    "rir_talker_main", "rir_speaker_main", "rir_talker_ref", "rir_speaker_ref",
)
FAR_END_KINDS = (
    NonlinearityKind("saturating", b=2.0),
    NonlinearityKind("exponential", b=3.5),
    NonlinearityKind("polynomial", b=5.0),
    NonlinearityKind("hard_clip_sigmoid"),
)
DOUBLE_TALK_KINDS = (
    NonlinearityKind("soft_clip_sigmoid"),
    NonlinearityKind("polynomial", b=2.5),
    NonlinearityKind("identity"),
    NonlinearityKind("hard_clip_sigmoid"),
)
DOUBLE_TALK_SER_DB = (-10.0, -3.0, 0.0, 7.0)
# (room, source, microphone): a short path, one across the room, one grazing
# the walls, and one 6 cm long, just over the 5 cm that the placement rule asks
RIR_PATHS = (
    (refaec.RoomSpec(4.0, 3.0, 3.0, t60=0.1), (1.0, 1.2, 1.5), (1.6, 1.5, 1.4)),
    (refaec.RoomSpec(6.0, 5.0, 3.0, t60=0.3), (0.5, 0.6, 1.2), (5.3, 4.1, 1.8)),
    (refaec.RoomSpec(7.5, 6.5, 4.5, t60=0.55), (0.01, 6.49, 0.02), (7.49, 0.01, 4.48)),
    (refaec.RoomSpec(8.0, 7.0, 5.0, t60=0.8), (2.0, 2.0, 1.5), (2.0, 2.06, 1.5)),
)


def _digest(arrays) -> str:
    """SHA-256 over each array's dtype, shape and raw bytes, sign bits included."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _scene(seed: int, duration: float, kind: NonlinearityKind, ser_db: float | None):
    """A scene in a sampled room; ser_db None leaves the talker silent."""
    rng = np.random.default_rng(seed)
    room = refaec.sample_room(rng)
    geom = refaec.sample_geometry(room, rng)
    n = int(round(duration * SAMPLE_RATE))
    x = speech_like(rng, n)
    v = TimeSignal(np.zeros(n)) if ser_db is None else speech_like(rng, n)
    return refaec.synthesize_scene(room, geom, v, x, kind, ser_db, seed=seed, duration=duration)


def _scene_arrays(scene) -> list[np.ndarray]:
    arrays = []
    for name in SCENE_SIGNALS:
        value = getattr(scene, name)
        arrays.append(value.samples if isinstance(value, TimeSignal) else value)
    arrays.append(np.array([scene.echo_gain]))
    return arrays


def stage_hashes() -> tuple[str, str, str]:
    """The hashes of the stage's spectrograms, of its far-end filter bank and
    of its unweighted canceller's residual and filter bank."""
    scene = _scene(0, 6.0, NonlinearityKind("hard_clip_sigmoid"), 0.0)
    bundle = refaec.run_linear_stage(scene.y, scene.x, scene.r)
    cfg = refaec.RunConfig()
    Y, X = (refaec.stft_forward(signal, cfg.stft) for signal in (scene.y, scene.x))
    bank = refaec.wstws_cancel(Y, X, cfg.wiener_main)[1]
    residual, stws = refaec.wstws_cancel(Y, bundle.ref_masked, stws_config(cfg.wiener_main))
    return (
        _digest(spec.data for spec in bundle.signals()),
        _digest([bank.taps, bank.degenerate]),
        _digest([residual.data, stws.taps, stws.degenerate]),
    )


def scenes_hash(kinds, sers, first_seed: int) -> str:
    arrays = []
    for i, (kind, ser_db) in enumerate(zip(kinds, sers)):
        arrays += _scene_arrays(_scene(first_seed + i, 2.5, kind, ser_db))
    return _digest(arrays)


def _file_tree(root: Path, skip: str | None = None) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != skip:
            h.update(str(path.relative_to(root)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def tree_hashes(workdir: Path, workers: int) -> tuple[str, str]:
    """The criterion-10 synth/run/eval sequence with `workers` scene workers;
    returns the hashes of the tree without report.jsonl and of report.jsonl."""
    root = workdir / f"exec_{workers}"
    report = criterion_10_tree(workdir, root, workers)
    return _file_tree(root, skip=report.name), hashlib.sha256(report.read_bytes()).hexdigest()


def _run_hash(workdir: Path, out_name: str, *args: str) -> str:
    """The hash of the files that `refaec run *args --config desk.cfg` writes
    to workdir / out_name."""
    out = workdir / out_name
    code = cli_main(["run", *args, "--config", str(workdir / "desk.cfg"), "--out", str(out)])
    if code != 0:
        sys.exit(f"error: refaec run exited {code}")
    return _file_tree(out)


def triplet_hash(workdir: Path) -> str:
    """The hash of the files that a triplet run writes for the first scene of
    the criterion-10 tree that tree_hashes(workdir, 1) made."""
    scene = workdir / "exec_1" / "data" / "scene_000000"
    files = [arg for name in ("y", "x", "r") for arg in (f"--{name}", str(scene / f"{name}.wav"))]
    return _run_hash(workdir, "triplet", *files, "--export-features")


def plain_run_hash(workdir: Path) -> str:
    """The hash of the estimates that a manifest run without feature export
    writes for the criterion-10 tree that tree_hashes(workdir, 1) made."""
    manifest = workdir / "exec_1" / "data" / "manifest.jsonl"
    return _run_hash(workdir, "plain", "--manifest", str(manifest))


def rir_hash() -> str:
    """The hash of the responses on RIR_PATHS and of the bytes of the WAV file
    that `refaec rir` writes for a 6 x 5 x 3 m room at t60 0.3 s, seed 0."""
    arrays = [refaec.image_method_rir(room, src, mic) for room, src, mic in RIR_PATHS]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "rir.wav"
        room = ["--room", "6", "5", "3", "--t60", "0.3"]
        code = cli_main(["rir", *room, "--seed", "0", "--out", str(out)])
        if code != 0:
            sys.exit(f"error: refaec rir exited {code}")
        arrays.append(np.frombuffer(out.read_bytes(), dtype=np.uint8))
    return _digest(arrays)


def main() -> None:
    stage, bank, stws = stage_hashes()
    print(f"{stage}  run_linear_stage arrays, 6 s default scene")
    print(f"{bank}  far-end taps and degenerate flags, 6 s default scene")
    print(f"{scenes_hash(FAR_END_KINDS, [None] * 4, 100)}  4 far-end scenes")
    print(f"{scenes_hash(DOUBLE_TALK_KINDS, DOUBLE_TALK_SER_DB, 200)}  4 double-talk scenes")
    with tempfile.TemporaryDirectory() as tmp:
        for workers in (1, 2):
            tree, report = tree_hashes(Path(tmp), workers)
            print(f"{tree}  criterion-10 tree without report.jsonl, {workers} worker(s)")
            print(f"{report}  criterion-10 report.jsonl, {workers} worker(s)")
        print(f"{triplet_hash(Path(tmp))}  triplet run of the first criterion-10 scene")
        print(f"{stws}  unweighted masked-reference residual, taps and flags, 6 s default scene")
        print(f"{rir_hash()}  image_method_rir on 4 fixed paths and a `refaec rir` WAV")
        print(f"{plain_run_hash(Path(tmp))}  criterion-10 run without --export-features")


if __name__ == "__main__":
    main()
