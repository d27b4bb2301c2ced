"""Print the median time of each phase of one wstws_cancel call.

Usage: python3 tools/solver_phases.py

The library is imported from the src/ directory of the checkout that holds
this script. wiener.wstws_cancel runs on random 161-bin spectrograms at three
operating points (taps / window frames / frames: the default 20 / 200 / 599,
the echo study's 8 / 80 / 249 and the desk's 6 / 60 / 599) with each phase
wrapped in a timer, first on one thread (wiener._n_workers set to return 1),
then on one thread per CPU. Each line gives the call's kernel calls, its
minor page faults (getrusage, the whole process) and the median over ROUNDS
calls, in ms, of each phase's time summed over its calls and threads, and of
the wall time:

- weights: the call's lambda weights, one call per wstws_cancel on the
  calling thread (wiener.lambda_weights);
- solve: the kernel's solve_bins, one call per worker, each over an even
  share of the bins: the per-frame products, read from X and Y at each tap's
  delay, their window sums, the load, the Cholesky and substitutions, the
  degenerate flags and the residual, a tile of frames at a time.

The kernel of _factor.c is loaded before the first timed call, and each
operating point's first call is not counted. On one thread, the wall time
minus the phases is the call's other work: the transposes of X and Y and the
weights' reciprocal or ones (the call builds no taps, and the tool does not
read them). On more threads, a phase's time above its one-thread figure is
time its threads lost to each other.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from refaec import Spectrogram, StftConfig, WienerConfig, _factor, wiener  # noqa: E402

OPERATING_POINTS = ((20, 200, 599), (8, 80, 249), (6, 60, 599))
ROUNDS = 7
PHASES = ("weights", "solve")


def _timed(fn, spent: list[float]):
    def timed(*args):
        t0 = time.perf_counter()
        out = fn(*args)
        spent.append(time.perf_counter() - t0)  # list.append is thread-safe
        return out

    return timed


def install(spent: dict, patch=setattr) -> None:
    """Wrap each phase in a timer that appends its seconds to spent[phase];
    patch sets the module attributes (a test passes monkeypatch.setattr)."""
    patch(wiener, "lambda_weights", _timed(wiener.lambda_weights, spent["weights"]))
    kernel = _factor.kernel()
    timed = kernel._replace(solve_bins=_timed(kernel.solve_bins, spent["solve"]))
    patch(_factor, "kernel", lambda: timed)


def _call(Y: Spectrogram, X: Spectrogram, cfg: WienerConfig, spent) -> list[float]:
    """The kernel calls, the minor faults, each phase's seconds summed over its
    calls and the wall time of one wstws_cancel call; spent collects the phase
    timers."""
    for times in spent.values():
        times.clear()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    wiener.wstws_cancel(Y, X, cfg)
    wall = time.perf_counter() - t0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return [len(spent["solve"]), faults] + [sum(spent[name]) for name in PHASES] + [wall]


def main() -> None:
    spent = {name: [] for name in PHASES}
    install(spent)
    workers = wiener._n_workers()
    modes = [(1, lambda: 1)] + ([(workers, wiener._n_workers)] if workers > 1 else [])
    stft = StftConfig()
    print(f"median ms of {ROUNDS} calls over {stft.n_bins} bins; {workers} thread(s)")
    print(f"{'taps/window/frames':>18}  {'threads':>7}  {'calls':>5}  {'faults':>6}  "
          + "  ".join(f"{c:>8}" for c in [*PHASES, "wall"]))
    rng = np.random.default_rng(0)
    for taps, window, n_frames in OPERATING_POINTS:
        cfg = WienerConfig(taps=taps, window_frames=window)
        Y, X = (Spectrogram(rng.standard_normal((n_frames, 2 * stft.n_bins)).view(complex), stft)
                for _ in range(2))
        for threads, n_workers in modes:
            wiener._n_workers = n_workers
            _call(Y, X, cfg, spent)  # warm-up
            calls = [_call(Y, X, cfg, spent) for _ in range(ROUNDS)]
            n_calls, faults, *ms = [statistics.median(col) for col in zip(*calls)]
            print(f"{f'{taps}/{window}/{n_frames}':>18}  {threads:>7}  {n_calls:>5.0f}  "
                  f"{faults:>6.0f}  "
                  + "  ".join(f"{1e3 * m:>8.1f}" for m in ms))


if __name__ == "__main__":
    main()
