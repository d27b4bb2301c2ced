"""Print the median time of each phase of one wstws_cancel call.

Usage: python3 tools/solver_phases.py

The library is imported from the src/ directory of the checkout that holds
this script. wiener.wstws_cancel runs on random 161-bin spectrograms at three
operating points (taps / window frames / frames: the default 20 / 200 / 599,
the echo study's 8 / 80 / 249 and the desk's 6 / 60 / 599) with each function
in PHASES wrapped in a timer, first on one thread (wiener._n_workers set to
return 1), then on its own pool of one thread per CPU. Each line gives the
call's chunk count and the median over ROUNDS calls, in ms, of each phase's
time summed over its calls and threads, and of the wall time:

- weights: the call's lambda weights, one call per wstws_cancel on the
  calling thread (lambda_weights);
- build+sums: the per-frame products of the augmented buffer, read from X
  and Y at each tap's delay, and their running and sliding sums along frames
  (_build_sums, the kernel's window_sums);
- factor+solve: the load, the Cholesky and substitutions and the degenerate
  flags (_factor_solve, the kernel's factor_solve);
- predict: the prediction and the residual (_apply_taps, the kernel's
  apply_taps).

The kernel of _factor.c is loaded before the first timed call. On one
thread, the wall time minus the phases is the call's other work: the
transposes of X and Y, the weights' reciprocal or ones and the copies of each
chunk's residual and degenerate flags (the call builds no taps, and the tool does
not read them). On the pool, a phase's time above its one-thread figure is
time its threads lost to each other.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from refaec import Spectrogram, StftConfig, WienerConfig, wiener  # noqa: E402

OPERATING_POINTS = ((20, 200, 599), (8, 80, 249), (6, 60, 599))
ROUNDS = 7
# read at import, so renaming a phase function breaks the import
PHASES = {
    "weights": wiener.lambda_weights,
    "build+sums": wiener._build_sums,
    "factor+solve": wiener._factor_solve,
    "predict": wiener._apply_taps,
}


def _timed(fn, spent: list[float]):
    def timed(*args):
        t0 = time.perf_counter()
        out = fn(*args)
        spent.append(time.perf_counter() - t0)  # list.append is thread-safe
        return out

    return timed


def _call(Y: Spectrogram, X: Spectrogram, cfg: WienerConfig, spent) -> list[float]:
    """The chunk count, each phase's seconds summed over its calls, and the
    wall time of one wstws_cancel call; spent collects the phase timers."""
    for times in spent.values():
        times.clear()
    t0 = time.perf_counter()
    wiener.wstws_cancel(Y, X, cfg)
    wall = time.perf_counter() - t0
    return [len(spent["build+sums"])] + [sum(spent[name]) for name in PHASES] + [wall]


def main() -> None:
    spent = {name: [] for name in PHASES}
    for name, fn in PHASES.items():
        setattr(wiener, fn.__name__, _timed(fn, spent[name]))
    workers = wiener._n_workers()
    modes = [(1, lambda: 1)] + ([(workers, wiener._n_workers)] if workers > 1 else [])
    stft = StftConfig()
    print(f"median ms of {ROUNDS} calls over {stft.n_bins} bins; pool of {workers} thread(s)")
    print(f"{'taps/window/frames':>18}  {'threads':>7}  {'chunks':>6}  "
          + "  ".join(f"{c:>12}" for c in [*PHASES, "wall"]))
    rng = np.random.default_rng(0)
    for taps, window, n_frames in OPERATING_POINTS:
        cfg = WienerConfig(taps=taps, window_frames=window)
        Y, X = (Spectrogram(rng.standard_normal((n_frames, 2 * stft.n_bins)).view(complex), stft)
                for _ in range(2))
        for threads, n_workers in modes:
            wiener._n_workers = n_workers
            _call(Y, X, cfg, spent)  # warm-up
            calls = [_call(Y, X, cfg, spent) for _ in range(ROUNDS)]
            chunks, *ms = [statistics.median(col) for col in zip(*calls)]
            print(f"{f'{taps}/{window}/{n_frames}':>18}  {threads:>7}  {chunks:>6}  "
                  + "  ".join(f"{1e3 * m:>12.1f}" for m in ms))


if __name__ == "__main__":
    main()
