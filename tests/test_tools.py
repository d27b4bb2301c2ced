"""Every script under tools/ imports against the current library, so a
library name that a tool still uses cannot be deleted unnoticed."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from refaec import Spectrogram, StftConfig, WienerConfig

TOOLS_DIR = Path(__file__).resolve().parent.parent / "tools"
TOOLS = sorted(TOOLS_DIR.glob("*.py"))


def _load(path, monkeypatch):
    # the scripts put their checkout's directories on sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"tools_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tools_are_found():
    assert {p.name for p in TOOLS} >= {"output_hashes.py", "solver_phases.py"}


@pytest.mark.parametrize("path", TOOLS, ids=[p.stem for p in TOOLS])
def test_tool_imports_without_running(path, monkeypatch):
    assert callable(_load(path, monkeypatch).main)


def test_solver_phases_times_every_phase(monkeypatch):
    # the tool swaps module globals of wiener for timers, so a phase that the
    # solver reaches other than through those globals would go untimed
    tool = _load(TOOLS_DIR / "solver_phases.py", monkeypatch)
    spent = {name: [] for name in tool.PHASES}
    for name, fn in tool.PHASES.items():
        monkeypatch.setattr(tool.wiener, fn.__name__, tool._timed(fn, spent[name]))
    stft = StftConfig(window_len=8, hop=4)
    rng = np.random.default_rng(0)
    Y, X = (Spectrogram(rng.standard_normal((30, 2 * stft.n_bins)).view(complex), stft)
            for _ in range(2))
    tool._call(Y, X, WienerConfig(taps=3, window_frames=6), spent)
    assert all(spent.values()), {name: len(times) for name, times in spent.items()}
