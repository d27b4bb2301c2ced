"""Every script under tools/ imports against the current library, so a
library name that a tool still uses cannot be deleted unnoticed."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = sorted((Path(__file__).resolve().parent.parent / "tools").glob("*.py"))


def test_tools_are_found():
    assert {p.name for p in TOOLS} >= {"output_hashes.py", "solver_phases.py"}


@pytest.mark.parametrize("path", TOOLS, ids=[p.stem for p in TOOLS])
def test_tool_imports_without_running(path, monkeypatch):
    # the scripts put their checkout's directories on sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"tools_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
