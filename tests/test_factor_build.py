"""Building, caching and loading the compiled solver kernel (refaec._factor)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from refaec import _factor

SRC = Path(__file__).resolve().parent.parent / "src"

# Loads the kernel with its cache in argv[1], with subprocess.run logged, and
# solves A h = b for A = [[4, 1 + 1j], [1 - 1j, 3]] and b = [1, 2j]. Prints
# the taps, the compiler commands that were not a dry run (-###), and
# whether a child process is left.
LOAD = """
import json, os, subprocess, sys
from pathlib import Path
import numpy as np
from refaec import _factor

_factor.CACHE_DIR = Path(sys.argv[1])
commands = []
run = subprocess.run

def logged(argv, **kwargs):
    commands.append(argv)
    return run(argv, **kwargs)

subprocess.run = logged
factor_solve = _factor.load().factor_solve
g = np.array([[4], [1 + 1j], [1], [3], [2j]], dtype=complex)
h = np.empty((2, 1), dtype=complex)
factor_solve(g, 0.0, h, np.empty((2, 1)), np.empty(1, dtype=bool), 2, 1)
try:
    os.waitpid(-1, os.WNOHANG)
    children = True
except ChildProcessError:
    children = False
print(json.dumps({
    "h": [[z.real, z.imag] for z in h[:, 0]],
    "compiles": [a for a in commands if "-###" not in a],
    "children": children,
}))
"""


def _start(cache: Path) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    return subprocess.Popen([sys.executable, "-c", LOAD, str(cache)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _finish(proc: subprocess.Popen) -> dict:
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    report = json.loads(out)
    h = np.array(report["h"]) @ [1, 1j]
    A = np.array([[4, 1 + 1j], [1 - 1j, 3]])
    assert np.allclose(h, np.linalg.solve(A, [1, 2j]), rtol=1e-14, atol=0)
    assert not report["children"]
    return report


def _assert_one_whole_object(cache: Path) -> None:
    assert [p.suffix for p in cache.iterdir()] == [".so"]


def test_no_compiler_raises_one_line_naming_it(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path))
    monkeypatch.setattr(_factor, "CACHE_DIR", tmp_path / "cache")
    with pytest.raises(RuntimeError) as raised:
        _factor.load()
    message = str(raised.value)
    assert "\n" not in message and repr(_factor.COMPILER) in message


def test_a_second_process_loads_the_cached_object_without_compiling(tmp_path):
    first = _finish(_start(tmp_path))
    assert len(first["compiles"]) == 1 and "-march=native" in first["compiles"][0]
    _assert_one_whole_object(tmp_path)
    assert _finish(_start(tmp_path))["compiles"] == []


def test_processes_that_build_at_once_both_load_a_working_object(tmp_path):
    procs = [_start(tmp_path) for _ in range(2)]
    for proc in procs:
        _finish(proc)
    _assert_one_whole_object(tmp_path)


def test_an_unwritable_cache_builds_in_a_temporary_directory(tmp_path, monkeypatch):
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(_factor, "CACHE_DIR", tmp_path / "file" / "cache")
    factor_solve = _factor.load().factor_solve
    g = np.array([[4.0], [2.0]], dtype=complex)  # A = 4 (its root 2), b = 2
    h = np.empty((1, 1), dtype=complex)
    factor_solve(g, 0.0, h, np.empty((1, 1)), np.empty(1, dtype=bool), 1, 1)
    assert h[0, 0] == 0.5
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
