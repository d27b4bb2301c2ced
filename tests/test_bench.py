"""The benchmark under bench/ imports against the current library, and its
tracer still counts and labels a stage run, so a library change that would
break a traced benchmark run fails here first. Nothing under bench/ is
changed."""

import dataclasses
import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import speech_like
from test_pipeline import SMALL

import refaec

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"


@pytest.fixture
def bench(monkeypatch):
    """The bench modules tracer and workloads, imported as bench/run.py does,
    from bench/ on a copy of sys.path; they leave sys.modules afterwards."""
    monkeypatch.setattr(sys, "path", [str(BENCH_DIR), *sys.path])
    yield importlib.import_module("tracer"), importlib.import_module("workloads")
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "").parent == BENCH_DIR:
            del sys.modules[name]


def test_workloads_are_the_declared_ones(bench):
    _, workloads = bench
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert set(workloads.WORKLOADS) == {w["name"] for w in declared}


def test_tracer_counts_and_labels_a_stage_run(bench):
    tracer, _ = bench
    rng = np.random.default_rng(5)
    y, x, r = (speech_like(rng, 8000) for _ in range(3))
    with tracer.Tracer() as trace:
        bundle = refaec.run_linear_stage(y, x, r, SMALL)
        label = trace._labels.get(id(bundle.ref_masked), ("",))[0]
    assert label == "ref_masked"
    # the mask's cancellation and the three routes each solve every unit once
    assert trace.counts["wiener.units"] == 4 * bundle.mic.data.size
    assert "wiener.degenerate_units" in trace.counts
    spans = {name for name, *_ in trace.spans}
    routes = {f"wiener.cancel_s.{route}" for route in ("mask", "far", "ref", "ref_masked")}
    assert routes | {"masking.compute_mask_s", "masking.apply_mask_s"} <= spans


def test_bench_ecf_parser_reads_what_read_features_reads(bench, tmp_path):
    # batch_cli_desk checks the exported files with its own parser, so the
    # writer must stay the layout that parser reads
    _, workloads = bench
    rng = np.random.default_rng(6)
    y, x, r = (speech_like(rng, 8000) for _ in range(3))
    path = tmp_path / "bundle.ecf"
    refaec.export_features(refaec.run_linear_stage(y, x, r, SMALL), path)
    parsed, loaded = workloads.read_ecf(path), refaec.read_features(path)
    assert list(parsed) == [f.name for f in dataclasses.fields(loaded)]
    for name, values in parsed.items():
        assert np.array_equal(values, getattr(loaded, name).data), name
