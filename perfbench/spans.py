"""Spans recorded by the benchmark around the program's public calls.

A :class:`Tracer` keeps spans (name, start, end, parent, attributes) in
memory.  :meth:`Tracer.install` wraps the public entry point of each layer
so every call becomes a span; the program itself is not changed.  Spans from
CLI subprocesses (see ``shim.py``) are written to JSON files and merged into
the parent's list, so one run's layer metrics cover every process it
started.  Timestamps are ``time.perf_counter()`` values, which share one
clock across processes on Linux.

Counts come from the wrapped objects' public attributes and from the
program's existing ``repro.obs.metrics`` registry, which a traced run
enables; nothing is added to either.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Tracer:
    """In-memory span recorder with per-thread parent tracking."""

    def __init__(self):
        self.spans: List[dict] = []
        self.registry_snapshots: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []
        self._registry_owned = False

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> dict:
        stack = self._stack()
        record = {"id": f"{os.getpid()}-{next(self._ids)}", "name": name,
                  "parent": stack[-1]["id"] if stack else None,
                  "start": time.perf_counter(), "end": None, "attrs": {}}
        stack.append(record)
        return record

    def end(self, record: dict) -> None:
        record["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()
        with self._lock:
            self.spans.append(record)

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager recording one span."""
        record = self.begin(name)
        try:
            yield record
        finally:
            self.end(record)

    def wrap(self, fn: Callable, name: str,
             attrs: Optional[Callable[..., dict]] = None) -> Callable:
        """``fn`` recording a span per call; ``attrs(result, *args)`` adds counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    record["attrs"].update(attrs(result, *args, **kwargs))
                return result
            finally:
                tracer.end(record)

        return wrapper

    def adopt(self, path) -> None:
        """Merge the spans and registry snapshot a subprocess wrote to ``path``."""
        with open(path) as handle:
            payload = json.load(handle)
        with self._lock:
            self.spans.extend(payload["spans"])
            self.registry_snapshots.append(payload["registry"])

    def dump(self, path) -> None:
        """Write spans plus the metrics-registry snapshot to ``path``."""
        payload = {"spans": self.spans, "registry": self.registry_snapshot()}
        with open(path, "w") as handle:
            json.dump(payload, handle)

    # ------------------------------------------------------------------
    # wrapping the program's layers
    # ------------------------------------------------------------------

    def _replace(self, owner, attr: str, name: str, attrs=None) -> None:
        original = getattr(owner, attr)
        wrapped = self.wrap(original, name, attrs)
        targets = [(owner, attr)]
        # Functions imported by name elsewhere (``from x import f``) are
        # rebound in every loaded module that holds the same object.
        if not isinstance(owner, type):
            for module in list(sys.modules.values()):
                if module is None or not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original and (module, key) != (owner, attr):
                        targets.append((module, key))
        for target, key in targets:
            setattr(target, key, wrapped)
            self._restore.append(functools.partial(setattr, target, key, original))

    def install(self) -> "Tracer":
        """Wrap every layer's public entry and enable the metrics registry."""
        import repro.cli  # noqa: F401 - loads the modules whose names get rebound
        import repro.serve.server  # noqa: F401
        from repro.core import datasets, io, pipeline
        from repro.core.boundaries import TrustedRegion
        from repro.experiments import platformcfg
        from repro.obs import metrics
        from repro.serve import bundle, engine
        from repro.stats.kmm import KernelMeanMatcher

        detector = pipeline.GoldenChipFreeDetector
        self._replace(platformcfg, "generate_experiment_data", "platformcfg.generate",
                      lambda data, *a, **k: {"devices": int(data.sim_fingerprints.shape[0]
                                                            + data.dutt_fingerprints.shape[0])})
        self._replace(io, "load_experiment_data", "io.load")
        self._replace(datasets, "train_regressions", "mars.fit")
        self._replace(datasets, "tail_enhance", "kde.tail",
                      lambda samples, *a, **k: {"samples": int(samples.shape[0])})
        self._replace(KernelMeanMatcher, "fit", "kmm.fit", _kmm_attrs)
        self._replace(TrustedRegion, "fit", "ocsvm.fit", _ocsvm_attrs)
        self._replace(detector, "fit_premanufacturing", "pipeline.fit_premanufacturing")
        self._replace(detector, "fit_silicon", "pipeline.fit_silicon")
        self._replace(detector, "evaluate", "pipeline.evaluate")
        self._replace(bundle, "export_bundle", "bundle.export",
                      lambda info, *a, **k: {"bytes": os.path.getsize(info.path)})
        self._replace(bundle, "load_bundle", "bundle.load",
                      lambda loaded, *a, **k: {"bytes": os.path.getsize(loaded.path)})
        self._replace(engine.ScoringEngine, "score", "engine.score",
                      lambda result, *a, **k: {"devices": int(result.n_devices)})
        if not metrics.enabled():
            metrics.enable()
            self._registry_owned = True
        return self

    def uninstall(self) -> None:
        """Undo :meth:`install` (restores every rebound name)."""
        from repro.obs import metrics

        for restore in reversed(self._restore):
            restore()
        self._restore.clear()
        if self._registry_owned:
            self.registry_snapshots.append(metrics.disable())
            self._registry_owned = False

    def registry_snapshot(self) -> dict:
        from repro.obs import metrics

        return metrics.snapshot()


def _kmm_attrs(matcher, *args, **kwargs) -> dict:
    return {
        "qp_iterations": int(matcher.qp_iterations_),
        "converged": bool(matcher.converged_),
        "rkhs_residual": float(matcher.rkhs_residual_),
        "ess": float(matcher.effective_sample_size()),
    }


def _ocsvm_attrs(region, _self, population, *args, **kwargs) -> dict:
    if region.method != "ocsvm":
        return {}
    svm = region.svm
    used = min(int(population.shape[0]), int(svm.max_training_samples))
    return {"iterations": int(svm.n_iterations_),
            "sv_fraction": float(svm.support_vectors_.shape[0]) / used}


# ----------------------------------------------------------------------
# from spans to layer metrics
# ----------------------------------------------------------------------

#: Spans that do not contain each other; their union is the traced share of
#: a measured window (the coverage metric).
LEAF_LAYERS = ("platformcfg.generate", "io.load", "mars.fit", "kde.tail", "kmm.fit",
               "ocsvm.fit", "pipeline.evaluate", "bundle.export", "bundle.load",
               "engine.score", "cli.import")


def _union(intervals: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    merged: List[List[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def _covered(intervals, window: Tuple[float, float]) -> float:
    lo, hi = window
    return sum(max(0.0, min(b, hi) - max(a, lo)) for a, b in _union(intervals))


def coverage(spans: Sequence[dict], windows: Sequence[Tuple[float, float]],
             names: Sequence[str] = LEAF_LAYERS) -> float:
    """Share of the measured windows' wall time covered by ``names`` spans."""
    intervals = [(s["start"], s["end"]) for s in spans if s["name"] in names]
    total = sum(hi - lo for lo, hi in windows)
    if total <= 0:
        return 0.0
    return sum(_covered(intervals, w) for w in windows) / total


def self_time(spans: Sequence[dict], name: str) -> float:
    """Total duration of ``name`` spans minus what their children cover."""
    children: Dict[str, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    total = 0.0
    for s in spans:
        if s["name"] == name:
            inner = _covered(children.get(s["id"], []), (s["start"], s["end"]))
            total += (s["end"] - s["start"]) - inner
    return total


def _total(spans, name) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _attr(spans, name, key) -> list:
    return [s["attrs"][key] for s in spans if s["name"] == name and key in s["attrs"]]


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _merged_registry(snapshots: Sequence[dict]) -> Tuple[Dict[str, float], Dict[str, list]]:
    counters: Dict[str, float] = {}
    histograms: Dict[str, list] = {}
    for snap in snapshots:
        for key, value in snap.get("counters", {}).items():
            counters[key] = counters.get(key, 0.0) + value
        for key, summary in snap.get("histograms", {}).items():
            if summary.get("count"):
                histograms.setdefault(key, []).append(summary)
    return counters, histograms


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of everything the tracer saw (0 = layer not run)."""
    spans = tracer.spans
    counters, histograms = _merged_registry(tracer.registry_snapshots)
    basis = histograms.get("mars.basis_functions", [])
    basis_mean = (sum(h["total"] for h in basis) / sum(h["count"] for h in basis)
                  if basis else 0.0)
    proposals = counters.get("kde.sampler.proposals", 0.0)
    metrics = {
        "platformcfg.generate_s": _total(spans, "platformcfg.generate"),
        "platformcfg.devices": sum(_attr(spans, "platformcfg.generate", "devices")),
        "io.load_s": _total(spans, "io.load"),
        "mars.fit_s": _total(spans, "mars.fit"),
        "mars.basis_functions": basis_mean,
        "kde.tail_s": _total(spans, "kde.tail"),
        "kde.samples": sum(_attr(spans, "kde.tail", "samples")),
        "kde.acceptance": (counters.get("kde.sampler.accepted", 0.0) / proposals
                           if proposals else 0.0),
        "kmm.fit_s": _total(spans, "kmm.fit"),
        "kmm.qp_iterations": sum(_attr(spans, "kmm.fit", "qp_iterations")),
        "kmm.unconverged": sum(1 for c in _attr(spans, "kmm.fit", "converged") if not c),
        "kmm.rkhs_residual_p50": _median(_attr(spans, "kmm.fit", "rkhs_residual")),
        "kmm.ess_p50": _median(_attr(spans, "kmm.fit", "ess")),
        "ocsvm.fit_s": _total(spans, "ocsvm.fit"),
        "ocsvm.iterations": sum(_attr(spans, "ocsvm.fit", "iterations")),
        "ocsvm.sv_fraction": _median(_attr(spans, "ocsvm.fit", "sv_fraction")),
        "bundle.export_s": _total(spans, "bundle.export"),
        "bundle.load_s": _total(spans, "bundle.load"),
        "bundle.bytes": max(_attr(spans, "bundle.export", "bytes")
                            + _attr(spans, "bundle.load", "bytes") or [0]),
        "cache.hits": counters.get("cache.hits", 0.0),
    }
    for stage in ("fit_premanufacturing", "fit_silicon", "evaluate"):
        metrics[f"pipeline.{stage}_s"] = _total(spans, f"pipeline.{stage}")
        metrics[f"pipeline.{stage}_self_s"] = self_time(spans, f"pipeline.{stage}")
    return metrics
