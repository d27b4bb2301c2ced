"""Print the median time of each phase of the Wiener solver.

Usage: python3 tools/solver_phases.py

The library is imported from the src/ directory of the checkout that holds
this script. At three operating points (taps / window frames / frames: the
default 20 / 200 / 599, the echo study's 8 / 80 / 249 and the desk's
6 / 60 / 599), on random 161-bin spectrograms, the script runs the phases of
wstws_cancel over every chunk of its chunk plan (_chunk_slices), first on one
thread and then on a pool with one thread per CPU this process may run on, as
wstws_cancel runs them: each thread takes a chunk through all five phases.
Each line gives the median over the rounds, in ms, of the time each phase
took, summed over all chunks (on the pool, over all threads), and of the
round's wall time:

- stack: the chunk's delay stack and y (_chunk_stack);
- build: the per-frame products of the augmented buffer (_products);
- window sums: the cumulative sum along frames and _windowed_sums;
- factor+solve: load, Cholesky and substitutions (_factor_solve);
- predict: the prediction and the residual (_residual).

The per-call work outside the chunks (the lambda weights, the transposes of
X, Y and the weights, and the copies out of the chunk buffers) is not timed.
On the pool, a phase's summed time above its one-thread figure is time its
threads lost to each other.
"""

from __future__ import annotations

import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from refaec import StftConfig, WienerConfig, wiener  # noqa: E402

OPERATING_POINTS = ((20, 200, 599), (8, 80, 249), (6, 60, 599))
ROUNDS = 7
PHASES = ("stack", "build", "window sums", "factor+solve", "predict", "wall")


def _round(xt, yt, wt, slices, cfg: WienerConfig, run) -> list[float]:
    """Seconds of each phase summed over all chunks, then the wall time of
    the round; run(fn, items) maps fn over the chunk slices."""
    taps = cfg.taps

    def solve(sl: slice) -> list[float]:
        t0 = time.perf_counter()
        xa, y = wiener._chunk_stack(xt, yt, sl, taps)
        t1 = time.perf_counter()
        G = wiener._products(xa, wt[sl])
        t2 = time.perf_counter()
        G = wiener._windowed_sums(np.cumsum(G, axis=2, out=G), cfg.window_frames)
        t3 = time.perf_counter()
        h = wiener._factor_solve(G, taps, cfg.diag_load)[0]
        del G
        t4 = time.perf_counter()
        wiener._residual(h, xa[:taps], y)
        t5 = time.perf_counter()
        return [t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4]

    t0 = time.perf_counter()
    per_chunk = run(solve, slices)
    wall = time.perf_counter() - t0
    return [sum(col) for col in zip(*per_chunk)] + [wall]


def main() -> None:
    workers = wiener._n_workers()
    n_bins = StftConfig().n_bins
    print(f"median ms of {ROUNDS} rounds over {n_bins} bins; pool of {workers} thread(s)")
    print(f"{'taps/window/frames':>18}  {'chunk':>5}  {'threads':>7}  "
          + "  ".join(f"{p:>12}" for p in PHASES))
    rng = np.random.default_rng(0)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        modes = [(1, lambda fn, items: [fn(s) for s in items])]
        if workers > 1:
            modes.append((workers, lambda fn, items: list(pool.map(fn, items))))
        for taps, window, n_frames in OPERATING_POINTS:
            cfg = WienerConfig(taps=taps, window_frames=window)
            # X, Y and the weights, transposed to [bin, frame]
            shape = (n_bins, n_frames)
            xt = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            yt = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            wt = 1.0 / (1.0 + np.abs(yt) ** 2)
            slices = wiener._chunk_slices(taps, n_frames, n_bins, workers)
            chunk = slices[0].stop
            for threads, run in modes:
                _round(xt, yt, wt, slices, cfg, run)  # warm-up
                rounds = [_round(xt, yt, wt, slices, cfg, run) for _ in range(ROUNDS)]
                ms = [1e3 * statistics.median(col) for col in zip(*rounds)]
                print(f"{f'{taps}/{window}/{n_frames}':>18}  {chunk:>5}  {threads:>7}  "
                      + "  ".join(f"{m:>12.1f}" for m in ms))


if __name__ == "__main__":
    main()
