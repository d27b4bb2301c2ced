"""Benchmark of refaec's linear stage, batch command line and echo study.

Run from the root of a checkout:

    python3 bench/run.py --workload stage_default_6s --seed 1 --seconds 30 --trace 0

The library is imported from the checkout's src/ directory. Each run sets
up its workload three times (set-up time is the median), then runs timed
passes until --seconds have passed, and checks every output. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. The line before it records the machine and the
details of the run. See bench/METRICS.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

# at most one BLAS thread per core this process may run on; set before numpy loads
N_CPUS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(N_CPUS)

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def _import_library():
    src = ROOT / "src"
    if not (src / "refaec" / "__init__.py").is_file():
        sys.exit(f"error: no refaec sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import refaec

    if Path(refaec.__file__).resolve().parent != (src / "refaec").resolve():
        sys.exit(f"error: imported refaec from {refaec.__file__}, not from {src}")


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": N_CPUS,
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": N_CPUS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run(workload_cls, seed: int, seconds: int, trace: bool, workdir: Path) -> tuple[dict, dict]:
    import resource

    import tracer as tracing

    problems: list[str] = []
    workload = workload_cls(seed, workdir)

    setup_times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        tracing.clear_roomsim_caches()
        start = time.perf_counter()
        digests.add(workload.build())
        setup_times.append(time.perf_counter() - start)
    if len(digests) != 1:
        problems.append("set-up produced different inputs on repeats")

    fingerprints: dict[int, str] = {}
    quality: dict[str, list] = {}
    untraced_rtf, overhead, worst_dev = [], [], 0.0
    attempted = failed = 0
    tracer = tracing.Tracer() if trace else None
    traced_audio = 0.0
    first_cycle_counts: list[dict] = []

    def timed_pass(k: int, with_tracer):
        nonlocal attempted, failed, worst_dev
        tracing.clear_roomsim_caches()
        cache_before = tracing.calibration_cache_counts()
        counts_before = dict(tracer.counts) if with_tracer else {}
        p = workload.run_pass(k, with_tracer, check=k < 2 and with_tracer is None)
        cache_after = tracing.calibration_cache_counts()
        misses = None if cache_before is None else cache_after[1] - cache_before[1]
        attempted += p.ops
        if misses is not None and not p.failed and misses != p.rooms:
            problems.append(f"pass {k}: {misses} calibration misses for {p.rooms} rooms")
        j = k % 2
        if p.fingerprint and not p.failed:
            if fingerprints.setdefault(j, p.fingerprint) != p.fingerprint:
                p.failed = p.ops
                label = f"pass {k}{' traced' if with_tracer else ''}"
                p.errors.append(f"{label}: outputs differ from the first pass over set {j}")
        failed += p.failed
        problems.extend(p.errors)
        worst_dev = max(worst_dev, p.worst_dev)
        if j == 0:
            quality.update(p.quality)
        if with_tracer and k < 2:
            delta = {key: tracer.counts[key] - counts_before.get(key, 0) for key in tracer.counts}
            calls = delta.get("roomsim.calibration_calls", 0)
            delta["roomsim.calibration_misses"] = calls if misses is None else misses
            delta["roomsim.calibration_hits"] = calls - delta["roomsim.calibration_misses"]
            first_cycle_counts.append(delta)
        return p

    # passes continue while the next one is expected to fit in the budget;
    # only timed work counts, so the checks do not shorten the measurement
    timed, pass_times = 0.0, []
    k = 0
    while k < 2 or timed + statistics.median(pass_times) <= seconds:
        p = timed_pass(k, None)
        untraced_rtf.append(p.wall / p.audio)
        spent = p.wall
        if tracer is not None and p.fingerprint:
            pt = timed_pass(k, tracer)  # its outputs must equal the untraced pass's
            overhead.append((pt.wall - p.wall) / p.audio)
            traced_audio += pt.audio
            spent += pt.wall
        timed += spent
        pass_times.append(spent)
        k += 1

    facts = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "passes": k,
        "pass_rtf": [round(v, 5) for v in untraced_rtf],
        "setup_s": [round(v, 4) for v in setup_times],
        "worst_oracle_deviation": worst_dev,
        "quality_per_scene": {n: [round(v, 4) for v in vals] for n, vals in quality.items()},
        "problems": problems[:20],
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "rtf": (statistics.median(untraced_rtf), "s/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        for name, vals in quality.items():
            value = statistics.median(vals) if name == "sdr_db" else statistics.fmean(vals)
            metrics[name] = (value, "dB")
    else:
        self_times = tracer.self_times()
        metrics = {name: (self_times.get(name, 0.0) / (traced_audio or 1.0), "s/s")
                   for name in tracing.TIME_METRICS}
        for name in tracing.COUNT_METRICS:
            total = sum(c.get(name, 0) for c in first_cycle_counts)
            per_pass = total / max(len(first_cycle_counts), 1)
            metrics[name] = (per_pass, "B" if "bytes" in name else "count")
        metrics["trace.overhead_rtf"] = (statistics.median(overhead) if overhead else 0.0, "s/s")
        facts["trace_spans"] = len(tracer.spans)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, facts = run(WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"machine": machine_facts(), "run": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
