import json
import re
from pathlib import Path

import numpy as np
import pytest
from helpers import speech_like

from refaec import TimeSignal
from refaec.cli import main
from refaec.pipeline import eval_dataset
from refaec.wavio import read_wav, write_wav


@pytest.fixture
def corpora(rng, tmp_path):
    for name in ("near", "far"):
        d = tmp_path / name
        d.mkdir()
        for i in range(2):
            write_wav(d / f"clip_{i}.wav", speech_like(rng, 16000))
    return tmp_path


def _tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_unknown_flag_exits_2(capsys):
    assert main(["synth", "--frobnicate"]) == 2
    capsys.readouterr()


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_missing_manifest_exits_2(tmp_path, capsys):
    code = main(["run", "--manifest", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_run_requires_signals_or_manifest(tmp_path, capsys):
    assert main(["run", "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


def test_rir_generation(tmp_path, capsys):
    out = tmp_path / "h.wav"
    code = main(
        [
            "rir",
            "--room", "5.0", "4.0", "3.0",
            "--t60", "0.25",
            "--src", "1.0", "1.2", "1.5",
            "--mic", "3.0", "2.0", "1.4",
            "--out", str(out),
        ]
    )
    assert code == 0
    h = read_wav(out)
    d = np.linalg.norm([2.0, 0.8, 0.1])
    onset = np.flatnonzero(h.samples)[0]
    assert abs(onset - round(16000 * d / 343.0)) <= 1
    capsys.readouterr()


def test_rir_rejects_t60_outside_range(tmp_path, capsys):
    out = tmp_path / "h.wav"
    code = main(["rir", "--room", "5.0", "4.0", "3.0", "--t60", "nan", "--out", str(out)])
    assert code == 1
    assert "t60 nan outside (0.1, 0.8)" in capsys.readouterr().err
    assert not out.exists()


def test_rir_rejects_bad_geometry(tmp_path, capsys):
    code = main(
        [
            "rir",
            "--room", "5.0", "4.0", "3.0",
            "--t60", "0.25",
            "--src", "9.0", "1.0", "1.0",
            "--mic", "3.0", "2.0", "1.4",
            "--out", str(tmp_path / "h.wav"),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_synth_rejects_counts_below_one(corpora, tmp_path, capsys):
    code = main(
        [
            "synth",
            "--count", "-3",
            "--corpus-near", str(corpora / "near"),
            "--corpus-far", str(corpora / "far"),
            "--out", str(tmp_path / "data"),
        ]
    )
    assert code == 2
    assert "--count must be >= 1, got -3" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_synth_run_eval_workflow(corpora, tmp_path, capsys):
    data = tmp_path / "data"
    config = tmp_path / "desk.cfg"
    config.write_text("wiener_main.taps = 4\nwiener_main.window_frames = 24\n")

    code = main(
        [
            "synth",
            "--count", "1",
            "--matched",
            "--corpus-near", str(corpora / "near"),
            "--corpus-far", str(corpora / "far"),
            "--out", str(data),
            "--seed", "4",
        ]
    )
    assert code == 0
    assert (data / "manifest.jsonl").exists()

    est = tmp_path / "est"
    code = main(
        [
            "run",
            "--manifest", str(data / "manifest.jsonl"),
            "--config", str(config),
            "--export-features",
            "--out", str(est),
        ]
    )
    assert code == 0
    assert (est / "scene_000000.wav").exists()
    assert (est / "scene_000000.ecf").exists()

    report = tmp_path / "report.jsonl"
    code = main(
        [
            "eval",
            "--manifest", str(data / "manifest.jsonl"),
            "--estimates", str(est),
            "--report", str(report),
        ]
    )
    assert code == 0
    rows = [json.loads(line) for line in report.read_text().strip().split("\n")]
    assert len(rows) == 1 and rows[0]["scenario"] == "DT"
    capsys.readouterr()


def test_eval_rejects_estimate_at_another_sample_rate(corpora, tmp_path, capsys):
    data = tmp_path / "data"
    args = ["--corpus-near", str(corpora / "near"), "--corpus-far", str(corpora / "far")]
    assert main(["synth", "--count", "1", *args, "--out", str(data), "--seed", "2"]) == 0
    est = tmp_path / "est" / "scene_000000.wav"
    y = read_wav(data / "scene_000000" / "y.wav")
    write_wav(est, TimeSignal(y.samples[::2], 8000))
    manifest, report = data / "manifest.jsonl", tmp_path / "report.jsonl"
    message = f"estimate {est} at 8000 Hz, scene at 16000 Hz"
    with pytest.raises(ValueError, match=re.escape(message)):
        eval_dataset(manifest, est.parent, report)
    capsys.readouterr()
    args = ["--manifest", str(manifest), "--estimates", str(est.parent), "--report", str(report)]
    assert main(["eval", *args]) == 1
    assert "8000 Hz" in capsys.readouterr().err


def test_eval_rejects_direct_path_at_another_sample_rate(corpora, tmp_path):
    data = tmp_path / "data"
    args = ["--corpus-near", str(corpora / "near"), "--corpus-far", str(corpora / "far")]
    assert main(["synth", "--count", "1", *args, "--out", str(data), "--seed", "2"]) == 0
    scene = data / "scene_000000"
    write_wav(scene / "sd.wav", TimeSignal(read_wav(scene / "sd.wav").samples, 8000))
    est = tmp_path / "est" / "scene_000000.wav"
    write_wav(est, read_wav(scene / "y.wav"))
    with pytest.raises(ValueError, match="^signals differ .*at 8000 Hz vs .*at 16000 Hz$"):
        eval_dataset(data / "manifest.jsonl", est.parent, tmp_path / "report.jsonl")


def test_run_single_triplet(corpora, tmp_path, capsys):
    data = tmp_path / "d2"
    main(
        [
            "synth",
            "--count", "1",
            "--corpus-near", str(corpora / "near"),
            "--corpus-far", str(corpora / "far"),
            "--out", str(data),
            "--seed", "1",
        ]
    )
    config = tmp_path / "desk.cfg"
    config.write_text("wiener_main.taps = 4\nwiener_main.window_frames = 24\n")
    scene = data / "scene_000000"
    out = tmp_path / "single_out"
    code = main(
        [
            "run",
            "--y", str(scene / "y.wav"),
            "--x", str(scene / "x.wav"),
            "--r", str(scene / "r.wav"),
            "--config", str(config),
            "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "single.wav").exists()
    capsys.readouterr()


def test_run_defaults_need_no_config(rng, tmp_path, capsys):
    for name in ("y", "x", "r"):
        write_wav(tmp_path / f"{name}.wav", speech_like(rng, 16000))
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "--y", str(tmp_path / "y.wav"),
            "--x", str(tmp_path / "x.wav"),
            "--r", str(tmp_path / "r.wav"),
            "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "single.wav").exists()
    capsys.readouterr()


def test_synth_determinism_across_directories(corpora, tmp_path, capsys):
    args = [
        "synth",
        "--count", "2",
        "--mismatched",
        "--corpus-near", str(corpora / "near"),
        "--corpus-far", str(corpora / "far"),
        "--seed", "7",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert _tree_bytes(a) == _tree_bytes(b)
    capsys.readouterr()
