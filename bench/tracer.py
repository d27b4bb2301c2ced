"""Spans and counters around the calls into each refaec module.

The tracer is used only by traced runs. It swaps every public layer function
the workloads reach for a wrapper that records a span (name, start, end,
parent) and the counters measured at that boundary, in every refaec module
namespace that refers to the function, and puts the originals back when the
traced pass ends. Spans stay in memory; per-layer figures are self times,
the span's duration minus the time covered by its traced child spans.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict

import refaec.dsp
import refaec.masking
import refaec.metrics
import refaec.nonlinear
import refaec.pipeline
import refaec.roomsim
import refaec.wavio
import refaec.wiener

ROUTES = ("far", "ref", "ref_masked", "stws", "mask")

# (module, function name, layer metric the span's self time goes to)
LAYER_FUNCTIONS = [
    (refaec.dsp, "stft_forward", "dsp.stft_forward_s"),
    (refaec.dsp, "stft_inverse", "dsp.stft_inverse_s"),
    (refaec.wiener, "wstws_cancel", None),  # named per route at call time
    (refaec.wiener, "lambda_weights", "wiener.lambda_weights_s"),
    (refaec.masking, "compute_mask", "masking.compute_mask_s"),
    (refaec.masking, "apply_mask", "masking.apply_mask_s"),
    (refaec.roomsim, "calibrated_reflectivity", "roomsim.calibrate_s"),
    (refaec.roomsim, "image_method_rir", "roomsim.rir_s"),
    (refaec.roomsim, "synthesize_scene", "roomsim.synthesize_scene_s"),
    (refaec.nonlinear, "apply_nonlinearity", "nonlinear.apply_s"),
    (refaec.metrics, "evaluate_estimate", "metrics.eval_s"),
    (refaec.metrics, "erle", "metrics.eval_s"),
    (refaec.metrics, "sdr", "metrics.eval_s"),
    (refaec.metrics, "s_sisnr", "metrics.eval_s"),
    (refaec.metrics, "ri_mag_loss", "metrics.eval_s"),
    (refaec.wavio, "read_wav", "wavio.read_s"),
    (refaec.wavio, "write_wav", "wavio.write_s"),
    (refaec.pipeline, "export_features", "pipeline.export_features_s"),
    (refaec.pipeline, "run_linear_stage", "pipeline.run_linear_stage_s"),
    (refaec.pipeline, "synth_dataset", "pipeline.synth_dataset_s"),
    (refaec.pipeline, "run_dataset", "pipeline.run_dataset_s"),
    (refaec.pipeline, "eval_dataset", "pipeline.eval_dataset_s"),
]

TIME_METRICS = sorted(
    {name for _, _, name in LAYER_FUNCTIONS if name}
    | {f"wiener.cancel_s.{route}" for route in ROUTES}
)
COUNT_METRICS = [
    "wiener.units",
    "wiener.degenerate_units",
    "wiener.cov_bytes_computed",
    "roomsim.calibration_hits",
    "roomsim.calibration_misses",
    "wavio.bytes",
    "pipeline.ecf_bytes",
]


def roomsim_caches() -> list:
    """Every functools cache held in the roomsim module namespace."""
    return [obj for obj in vars(refaec.roomsim).values() if hasattr(obj, "cache_info")]


def clear_roomsim_caches() -> None:
    """Make the next synthesis pay for calibration as a fresh process would."""
    for cache in roomsim_caches():
        cache.cache_clear()


def calibration_cache_counts() -> tuple[int, int] | None:
    """(hits, misses) summed over the roomsim caches, or None without one."""
    caches = roomsim_caches()
    if not caches:
        return None
    infos = [cache.cache_info() for cache in caches]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._labels: dict[int, tuple[str, object]] = {}

    # -- spans ---------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the time of its children."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child_time[i]
        return dict(out)

    # -- route labels --------------------------------------------------

    def _label(self, obj, label: str) -> None:
        # the object is kept alive so that its id cannot be reused
        self._labels[id(obj)] = (label, obj)

    def _route(self, Y, X, cfg) -> str:
        if not getattr(cfg, "weighted", True):
            return "stws"
        if self._labels.get(id(Y), ("",))[0] == "ref":
            return "mask"
        return self._labels.get(id(X), ("other",))[0]

    # -- wrappers ------------------------------------------------------

    def _wrapper(self, module, fname, metric):
        fn = getattr(module, fname)
        tracer = self

        if fname == "wstws_cancel":
            def traced(Y, X, cfg, *args, **kwargs):
                name = f"wiener.cancel_s.{tracer._route(Y, X, cfg)}"
                residual, bank = tracer._call(name, fn, (Y, X, cfg) + args, kwargs)
                n_frames, n_bins, taps = bank.taps.shape
                tracer.counts["wiener.units"] += n_frames * n_bins
                tracer.counts["wiener.degenerate_units"] += int(bank.degenerate.sum())
                # the tap-covariance tensor as the method defines it, complex128
                tracer.counts["wiener.cov_bytes_computed"] += 16 * n_frames * n_bins * taps * taps
                return residual, bank
        elif fname == "compute_mask":
            def traced(R, X, *args, **kwargs):
                tracer._label(R, "ref")
                tracer._label(X, "far")
                return tracer._call(metric, fn, (R, X) + args, kwargs)
        elif fname == "apply_mask":
            def traced(*args, **kwargs):
                out = tracer._call(metric, fn, args, kwargs)
                tracer._label(out, "ref_masked")
                return out
        elif fname == "calibrated_reflectivity":
            def traced(*args, **kwargs):
                tracer.counts["roomsim.calibration_calls"] += 1
                return tracer._call(metric, fn, args, kwargs)
        elif fname == "read_wav":
            def traced(path, *args, **kwargs):
                tracer.counts["wavio.bytes"] += os.path.getsize(path)
                return tracer._call(metric, fn, (path,) + args, kwargs)
        elif fname == "write_wav":
            def traced(path, *args, **kwargs):
                out = tracer._call(metric, fn, (path,) + args, kwargs)
                tracer.counts["wavio.bytes"] += os.path.getsize(path)
                return out
        elif fname == "export_features":
            def traced(bundle, path, *args, **kwargs):
                out = tracer._call(metric, fn, (bundle, path) + args, kwargs)
                tracer.counts["pipeline.ecf_bytes"] += os.path.getsize(path)
                return out
        else:
            def traced(*args, **kwargs):
                return tracer._call(metric, fn, args, kwargs)
        return fn, traced

    def install(self) -> None:
        """Swap in the wrappers wherever a refaec module refers to a layer
        function, so calls made inside the library are traced too."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "refaec"]
        for module, fname, metric in LAYER_FUNCTIONS:
            original, traced = self._wrapper(module, fname, metric)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        self._labels.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
