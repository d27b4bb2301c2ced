"""Command-line entry points: dataset synthesis, linear-stage runs, batch
evaluation, and single impulse-response generation."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .dsp import TimeSignal
from .pipeline import (
    RunConfig,
    _run_scene,
    eval_dataset,
    parse_config_file,
    run_dataset,
    synth_dataset,
)
from .roomsim import RoomSpec, image_method_rir, sample_geometry
from .wavio import write_wav

USAGE_ERROR = 2


class CliError(Exception):
    """Bad invocation or missing input; reported on stderr with exit code 2."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refaec",
        description="Dual-microphone linear echo cancellation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize a scene dataset")
    p_synth.add_argument("--count", type=int, required=True)
    mode = p_synth.add_mutually_exclusive_group()
    mode.add_argument("--matched", dest="matched", action="store_true", default=True)
    mode.add_argument("--mismatched", dest="matched", action="store_false")
    p_synth.add_argument("--corpus-near", required=True)
    p_synth.add_argument("--corpus-far", required=True)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--seed", type=int, default=0)

    p_run = sub.add_parser("run", help="run the linear stage")
    p_run.add_argument("--manifest")
    p_run.add_argument("--y")
    p_run.add_argument("--x")
    p_run.add_argument("--r")
    p_run.add_argument("--config")
    p_run.add_argument("--export-features", action="store_true")
    p_run.add_argument("--out", required=True)

    p_eval = sub.add_parser("eval", help="score estimates against a dataset")
    p_eval.add_argument("--manifest", required=True)
    p_eval.add_argument("--estimates", required=True)
    p_eval.add_argument("--report", required=True)

    p_rir = sub.add_parser("rir", help="generate one room impulse response")
    p_rir.add_argument("--room", type=float, nargs=3, metavar=("L", "W", "H"), required=True)
    p_rir.add_argument("--t60", type=float, required=True)
    p_rir.add_argument("--src", type=float, nargs=3, metavar=("X", "Y", "Z"))
    p_rir.add_argument("--mic", type=float, nargs=3, metavar=("X", "Y", "Z"))
    p_rir.add_argument("--seed", type=int, default=0)
    p_rir.add_argument("--out", required=True)

    return parser


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise CliError(f"{what} not found: {p}")
    return p


def _cmd_synth(args) -> int:
    for label, d in (("near-end corpus", args.corpus_near), ("far-end corpus", args.corpus_far)):
        if not Path(d).is_dir():
            raise CliError(f"{label} directory not found: {d}")
    if args.count < 1:
        raise CliError(f"--count must be >= 1, got {args.count}")
    manifest = synth_dataset(
        count=args.count,
        matched=args.matched,
        out_dir=args.out,
        seed=args.seed,
        corpus_near=args.corpus_near,
        corpus_far=args.corpus_far,
    )
    print(manifest)
    return 0


def _cmd_run(args) -> int:
    if args.manifest and (args.y or args.x or args.r):
        raise CliError("run takes either --manifest or --y/--x/--r, not both")
    cfg = RunConfig()
    if args.config:
        cfg = parse_config_file(_require_file(args.config, "config file"))
    if args.manifest:
        run_dataset(
            _require_file(args.manifest, "manifest"),
            args.out,
            cfg,
            export=args.export_features,
        )
        return 0
    if not (args.y and args.x and args.r):
        raise CliError("run needs either --manifest or all of --y/--x/--r")
    labels = {"y": "mic signal", "x": "far-end signal", "r": "reference signal"}
    files = {name: _require_file(getattr(args, name), what) for name, what in labels.items()}
    rec = {"scene_id": "single", "files": files}
    _run_scene(rec, root=Path(), out=Path(args.out), cfg=cfg, export=args.export_features)
    return 0


def _cmd_eval(args) -> int:
    manifest = _require_file(args.manifest, "manifest")
    estimates = Path(args.estimates)
    if not estimates.is_dir():
        raise CliError(f"estimates directory not found: {estimates}")
    try:
        eval_dataset(manifest, estimates, args.report)
    except FileNotFoundError as exc:
        raise CliError(str(exc)) from exc
    return 0


def _cmd_rir(args) -> int:
    room = RoomSpec(*args.room, t60=args.t60)
    if args.src and args.mic:
        src, mic = args.src, args.mic
    else:
        rng = np.random.default_rng(args.seed)
        geom = sample_geometry(room, rng)
        src = args.src or geom.loudspeaker
        mic = args.mic or geom.main_mic
    write_wav(args.out, TimeSignal(image_method_rir(room, src, mic)))
    return 0


_COMMANDS = {"synth": _cmd_synth, "run": _cmd_run, "eval": _cmd_eval, "rir": _cmd_rir}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
