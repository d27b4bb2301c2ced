import json
import re
from pathlib import Path

import numpy as np
import pytest
from helpers import criterion_10_tree, speech_like, write_wav_at

from refaec import RoomSpec, TimeSignal, sample_geometry
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


@pytest.mark.parametrize("given", [("y",), ("y", "x", "r")], ids=["y", "triplet"])
def test_run_rejects_a_manifest_with_triplet_signals(tmp_path, capsys, given):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text("")
    signals = [arg for name in given for arg in (f"--{name}", str(tmp_path / f"{name}.wav"))]
    code = main(["run", "--manifest", str(manifest), *signals, "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == "error: run takes either --manifest or --y/--x/--r, not both\n"
    assert not (tmp_path / "o").exists()


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


def test_rir_samples_its_geometry_from_the_seed(tmp_path, capsys):
    room = ["--room", "5.0", "4.0", "3.0", "--t60", "0.25"]

    def rir_bytes(seed, name):
        assert main(["rir", *room, "--seed", str(seed), "--out", str(tmp_path / name)]) == 0
        return (tmp_path / name).read_bytes()

    first = rir_bytes(0, "a.wav")
    assert rir_bytes(0, "b.wav") == first
    assert rir_bytes(1, "c.wav") != first
    geom = sample_geometry(RoomSpec(5.0, 4.0, 3.0, t60=0.25), np.random.default_rng(0))
    d = np.linalg.norm(np.subtract(geom.loudspeaker, geom.main_mic))
    onset = np.flatnonzero(read_wav(tmp_path / "a.wav").samples)[0]
    assert abs(onset - round(16000 * d / 343.0)) <= 1
    capsys.readouterr()


def test_rir_rejects_t60_outside_range(tmp_path, capsys):
    out = tmp_path / "h.wav"
    code = main(["rir", "--room", "5.0", "4.0", "3.0", "--t60", "nan", "--out", str(out)])
    assert code == 1
    assert "t60 nan outside (0.1, 0.8)" in capsys.readouterr().err
    assert not out.exists()


def test_rir_has_no_sample_rate_flag(tmp_path, capsys):
    out = tmp_path / "h.wav"
    room = ["--room", "5.0", "4.0", "3.0", "--t60", "0.25"]
    assert main(["rir", *room, "--sample-rate", "16000", "--out", str(out)]) == 2
    assert "unrecognized arguments: --sample-rate 16000" in capsys.readouterr().err
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


def test_rir_rejects_points_closer_than_five_cm(tmp_path, capsys):
    out = tmp_path / "h.wav"
    room = ["--room", "5.0", "4.0", "3.0", "--t60", "0.25"]
    points = ["--src", "1.0", "1.0", "1.0", "--mic", "1.0", "1.0", "1.03"]
    assert main(["rir", *room, *points, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: source and microphone are 0.0300 m apart (< 0.05 m)\n"
    assert not out.exists()


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


# a silent clip leaves nothing to mix, so the scene is single talk: the
# near end silent (or both ends) gives far-end single talk, scored by ERLE only
@pytest.mark.parametrize("silent, scenario", [("near", "ST_FE"), ("far", "ST_NE")])
def test_scenes_with_a_silent_clip_record_their_single_talk(rng, tmp_path, capsys, silent,
                                                            scenario):
    for name in ("near", "far"):
        samples = np.zeros(16000) if name == silent else speech_like(rng, 16000).samples
        write_wav(tmp_path / name / "clip.wav", TimeSignal(samples))
    data, est, report = tmp_path / "data", tmp_path / "est", tmp_path / "report.jsonl"
    config = tmp_path / "desk.cfg"
    config.write_text("wiener_main.taps = 4\nwiener_main.window_frames = 24\n")
    corpora = ["--corpus-near", str(tmp_path / "near"), "--corpus-far", str(tmp_path / "far")]
    assert main(["synth", "--count", "1", *corpora, "--out", str(data)]) == 0
    manifest = str(data / "manifest.jsonl")
    assert main(["run", "--manifest", manifest, "--config", str(config), "--out", str(est)]) == 0
    assert main(["eval", "--manifest", manifest, "--estimates", str(est),
                 "--report", str(report)]) == 0
    (rec,) = (json.loads(line) for line in Path(manifest).read_text().splitlines())
    (row,) = (json.loads(line) for line in report.read_text().splitlines())
    assert rec["scenario"] == row["scenario"] == scenario and rec["ser_db"] is None
    assert (row["erle_db"] is not None) == (scenario == "ST_FE")
    capsys.readouterr()


def test_eval_rejects_estimate_at_another_sample_rate(corpora, tmp_path, capsys):
    data = tmp_path / "data"
    args = ["--corpus-near", str(corpora / "near"), "--corpus-far", str(corpora / "far")]
    assert main(["synth", "--count", "1", *args, "--out", str(data), "--seed", "2"]) == 0
    est = tmp_path / "est" / "scene_000000.wav"
    y = read_wav(data / "scene_000000" / "y.wav")
    write_wav_at(est, 8000, y.samples[::2])
    manifest, report = data / "manifest.jsonl", tmp_path / "report.jsonl"
    message = f"{est}: expected 16000 Hz, got 8000"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        eval_dataset(manifest, est.parent, report)
    capsys.readouterr()
    args = ["--manifest", str(manifest), "--estimates", str(est.parent), "--report", str(report)]
    assert main(["eval", *args]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_eval_rejects_direct_path_at_another_sample_rate(corpora, tmp_path):
    data = tmp_path / "data"
    args = ["--corpus-near", str(corpora / "near"), "--corpus-far", str(corpora / "far")]
    assert main(["synth", "--count", "1", *args, "--out", str(data), "--seed", "2"]) == 0
    scene = data / "scene_000000"
    write_wav_at(scene / "sd.wav", 8000, read_wav(scene / "sd.wav").samples)
    est = tmp_path / "est" / "scene_000000.wav"
    write_wav(est, read_wav(scene / "y.wav"))
    message = f"{scene / 'sd.wav'}: expected 16000 Hz, got 8000"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        eval_dataset(data / "manifest.jsonl", est.parent, tmp_path / "report.jsonl")


def _run_triplet(folder, *options):
    files = [arg for name in ("y", "x", "r") for arg in (f"--{name}", str(folder / f"{name}.wav"))]
    return main(["run", *files, *options])


def test_run_single_triplet(tmp_path, capsys):
    # a triplet runs as a one-scene record named `single`, so it writes what
    # the manifest run writes for the same scene
    root = tmp_path / "tree"
    criterion_10_tree(tmp_path, root)
    out = tmp_path / "single_out"
    config = tmp_path / "desk.cfg"
    args = ("--config", str(config), "--export-features", "--out", str(out))
    assert _run_triplet(root / "data" / "scene_000000", *args) == 0
    for ext in ("wav", "ecf"):
        manifest_run = root / "est" / f"scene_000000.{ext}"
        assert (out / f"single.{ext}").read_bytes() == manifest_run.read_bytes()
    capsys.readouterr()


def test_run_defaults_need_no_config(rng, tmp_path, monkeypatch, capsys):
    for name in ("y", "x", "r"):
        write_wav(tmp_path / f"{name}.wav", speech_like(rng, 16000))
    monkeypatch.chdir(tmp_path)  # the paths are relative to the working directory
    assert _run_triplet(Path(), "--out", "out") == 0
    assert (tmp_path / "out" / "single.wav").exists()
    capsys.readouterr()


def test_run_rejects_a_triplet_of_different_lengths(rng, tmp_path, capsys):
    for name, n in (("y", 16000), ("x", 16160), ("r", 16000)):
        write_wav(tmp_path / f"{name}.wav", speech_like(rng, n))
    assert _run_triplet(tmp_path, "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == (
        "error: signals differ in length: 16000 samples vs 16160 samples vs 16000 samples\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["unparseable", "at_8000_hz"])
def test_run_names_the_triplet_file_it_rejects(rng, tmp_path, capsys, case):
    for name in ("y", "x", "r"):
        write_wav(tmp_path / f"{name}.wav", speech_like(rng, 16000))
    bad = tmp_path / "y.wav"
    if case == "unparseable":
        bad.write_bytes(b"not a wav file")
        reason = "File format b'not ' not understood."
    else:
        write_wav_at(bad, 8000, speech_like(rng, 16000).samples)
        reason = "expected 16000 Hz, got 8000"
    assert _run_triplet(tmp_path, "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {reason}")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "out").exists()


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


# a record that each command can read: run reads y, x and r, eval reads y, sd
# and the scenario
GOOD_RECORD = {
    "run": {"scene_id": "a", "files": {"y": "y.wav", "x": "x.wav", "r": "r.wav"}},
    "eval": {"scene_id": "a", "scenario": "DT", "files": {"y": "y.wav", "sd": "sd.wav"}},
}


@pytest.mark.parametrize(
    "bad, reason",
    [
        ("not json", "invalid JSON: Expecting value"),
        ('["b"]', "expected an object with scene_id and files"),
        ('{"scene_id": "b"}', "expected an object with scene_id and files"),
        ('{"files": {}}', "expected an object with scene_id and files"),
        ('{"scene_id": "a", "files": {}}', "duplicate scene id 'a'"),
    ],
    ids=["invalid_json", "not_an_object", "no_files", "no_scene_id", "duplicate_id"],
)
def test_run_names_the_manifest_line_it_rejects(tmp_path, capsys, bad, reason):
    # the line number counts blank lines, as an editor does
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps(GOOD_RECORD["run"]) + "\n\n" + bad + "\n")
    assert main(["run", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {manifest}:3: {reason}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, bad, reason",
    [
        ("run", {"files": ["y.wav", "x.wav", "r.wav"]}, "files is not an object"),
        ("run", {"files": {"x": "x.wav", "r": "r.wav"}}, "missing files.y"),
        ("run", {"files": {"y": "y.wav"}}, "missing files.x, files.r"),
        ("eval", {"scenario": "DT", "files": "y.wav"}, "files is not an object"),
        ("eval", {"scenario": "DT", "files": {"sd": "sd.wav"}}, "missing files.y"),
        ("eval", {"scenario": "DT", "files": {"y": "y.wav"}}, "missing files.sd"),
        ("eval", {"files": {"y": "y.wav", "sd": "sd.wav"}}, "missing scenario"),
        ("run", {"files": {"y": 3, "x": "x.wav", "r": "r.wav"}}, "files.y is not a string"),
        ("eval", {"scenario": "DT", "files": {"y": "y.wav", "sd": None}},
         "files.sd is not a string"),
        ("eval", {"scenario": "XX", "files": {"y": "y.wav", "sd": "sd.wav"}},
         "unknown scenario 'XX'"),
        ("eval", {"scenario": ["DT"], "files": {"y": "y.wav", "sd": "sd.wav"}},
         "unknown scenario ['DT']"),
        # the scene id names the outputs in --out, so it must be a file name
        *(("run", {"scene_id": sid, "files": GOOD_RECORD["run"]["files"]},
           f"scene_id {sid!r} is not a file name")
          for sid in ("../escaped", "a/b", "/abs", "..", ".", "", 7)),
        ("eval", {"scene_id": "../a", "scenario": "DT", "files": {"y": "y.wav", "sd": "sd.wav"}},
         "scene_id '../a' is not a file name"),
    ],
    ids=["run_files_not_an_object", "run_no_y", "run_no_x_or_r", "eval_files_not_an_object",
         "eval_no_y", "eval_no_sd", "eval_no_scenario", "run_y_not_a_string",
         "eval_sd_not_a_string", "eval_unknown_scenario", "eval_scenario_not_a_string",
         "run_id_walks_up", "run_id_in_a_subdirectory", "run_id_absolute", "run_id_dot_dot",
         "run_id_dot", "run_id_empty", "run_id_a_number", "eval_id_walks_up"],
)
def test_commands_name_the_manifest_key_they_miss(tmp_path, capsys, command, bad, reason):
    # the rejection comes before any output: no --out tree, no report
    manifest = tmp_path / "manifest.jsonl"
    lines = (GOOD_RECORD[command], {"scene_id": "b", **bad})
    manifest.write_text("".join(json.dumps(line) + "\n" for line in lines))
    out = tmp_path / "o"
    outputs = {"run": ["--out", str(out)],
               "eval": ["--estimates", str(tmp_path), "--report", str(out / "report.jsonl")]}
    assert main([command, "--manifest", str(manifest), *outputs[command]]) == 1
    assert capsys.readouterr().err == f"error: {manifest}:2: {reason}\n"
    assert not out.exists()


def test_run_writes_the_same_estimate_with_and_without_feature_export(tmp_path, capsys):
    root = tmp_path / "tree"
    criterion_10_tree(tmp_path, root)  # runs its manifest with --export-features
    config = ("--config", str(tmp_path / "desk.cfg"))
    manifest = str(root / "data" / "manifest.jsonl")
    assert main(["run", "--manifest", manifest, *config, "--out", str(tmp_path / "plain")]) == 0
    exported = {name: data for name, data in _tree_bytes(root / "est").items()
                if name.endswith(".wav")}
    assert len(exported) == 2 and _tree_bytes(tmp_path / "plain") == exported

    scene = root / "data" / "scene_000000"
    for out, export in (("single_plain", ()), ("single_export", ("--export-features",))):
        assert _run_triplet(scene, *config, *export, "--out", str(tmp_path / out)) == 0
    plain = _tree_bytes(tmp_path / "single_plain")
    assert plain == {"single.wav": (tmp_path / "single_export" / "single.wav").read_bytes()}
    capsys.readouterr()
