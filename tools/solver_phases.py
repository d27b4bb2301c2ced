"""Print the median time of each phase of the Wiener solver.

Usage: python3 tools/solver_phases.py

The library is imported from the src/ directory of the checkout that holds
this script. At three operating points (taps / window frames / frames: the
default 20 / 200 / 599, the echo study's 8 / 80 / 249 and the desk's
6 / 60 / 599), on random 161-bin spectrograms, the script runs the phases of
wstws_cancel over every chunk of its chunk plan, first on one thread and then
on a pool with one thread per CPU this process may run on, as wstws_cancel
runs them: each thread takes a chunk through all four phases. Each line gives
the median over the rounds, in ms, of the time each phase took, summed over
all chunks (on the pool, over all threads), and of the round's wall time:

- build: the per-frame products of the augmented buffer (_products);
- window sums: the cumulative sum along frames and _windowed_sums;
- factor+solve: load, Cholesky and substitutions (_factor_solve);
- predict: the prediction and the residual (_residual).

The per-call work outside the chunks (the lambda weights, the delay
embedding and the copies into and out of the chunk buffers) is not timed. On
the pool, a phase's summed time above its one-thread figure is time its
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
from refaec.dsp import delay_embed  # noqa: E402

OPERATING_POINTS = ((20, 200, 599), (8, 80, 249), (6, 60, 599))
ROUNDS = 7
PHASES = ("build", "window sums", "factor+solve", "predict", "wall")


def _chunk_inputs(taps: int, n_frames: int, chunk: int, rng) -> list[tuple]:
    """(xa, weights, y) of every chunk, laid out as wstws_cancel lays them out."""
    n_bins = StftConfig().n_bins
    shape = (n_frames, n_bins)
    X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    Y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    weights = 1.0 / (1.0 + np.abs(Y) ** 2)
    embedded = delay_embed(X, taps)
    chunks = []
    for lo in range(0, n_bins, chunk):
        sl = slice(lo, min(n_bins, lo + chunk))
        y = np.ascontiguousarray(Y[:, sl].T)
        xa = np.empty((taps + 1,) + y.shape, dtype=np.complex128)
        xa[:taps] = embedded[:, sl, :].transpose(2, 1, 0)
        xa[taps] = y
        chunks.append((xa, weights[:, sl].T, y))
    return chunks


def _round(chunks, cfg: WienerConfig, run) -> list[float]:
    """Seconds of each phase summed over all chunks, then the wall time of
    the round; run(fn, items) maps fn over the chunks."""
    taps = cfg.taps

    def solve(chunk) -> list[float]:
        xa, w, y = chunk
        xa = xa.copy()
        t0 = time.perf_counter()
        G = wiener._products(xa, w)
        t1 = time.perf_counter()
        G = wiener._windowed_sums(np.cumsum(G, axis=2, out=G), cfg.window_frames)
        t2 = time.perf_counter()
        h = wiener._factor_solve(G, taps, cfg.diag_load)[0]
        del G
        t3 = time.perf_counter()
        wiener._residual(h, xa[:taps], y)
        t4 = time.perf_counter()
        return [t1 - t0, t2 - t1, t3 - t2, t4 - t3]

    t0 = time.perf_counter()
    per_chunk = run(solve, chunks)
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
            chunk = wiener._chunk_bins(taps, n_frames, n_bins, workers)
            chunks = _chunk_inputs(taps, n_frames, chunk, rng)
            for threads, run in modes:
                _round(chunks, cfg, run)  # warm-up
                rounds = [_round(chunks, cfg, run) for _ in range(ROUNDS)]
                ms = [1e3 * statistics.median(col) for col in zip(*rounds)]
                print(f"{f'{taps}/{window}/{n_frames}':>18}  {chunk:>5}  {threads:>7}  "
                      + "  ".join(f"{m:>12.1f}" for m in ms))


if __name__ == "__main__":
    main()
