"""Span tracing of hetcap's public functions from outside the library.

``Tracer.install`` replaces each traced name at the place its callers look
it up (a module global or a class attribute) with a wrapper that records a
span: name, start, end, parent span, op id, and whether the call raised.
``uninstall`` puts the originals back, so untraced ops run the library
unchanged. Spans stay in memory until ``write``.

Some spans also record counts read from the call's arguments or result;
these are "computed" counts (derived from shapes and parameters), not
counters kept by the library.
"""
from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import time
from dataclasses import dataclass, field

# (span name, object whose attribute callers look up, attribute). A name
# imported into several modules is wrapped in each, so every call site is seen.
TARGETS = (
    ("cli.main", "hetcap.cli", "main"),
    ("config.load", "hetcap.config", "load_scenario"),
    ("config.emit", "hetcap.config", "emit_sweep_csv"),
    ("geometry.sample", "hetcap.config", "sample_matern_hcpp"),
    ("geometry.validate", "hetcap.geometry:NetworkTopology", "validate"),
    ("experiments.sweep", "hetcap.experiments", "sweep_eta"),
    ("capacity.simulate", "hetcap.experiments", "simulate_components"),
    ("capacity.simulate", "hetcap.capacity", "simulate_components"),
    ("capacity.reduce", "hetcap.experiments", "ec_from_components"),
    ("capacity.reduce", "hetcap.capacity", "ec_from_components"),
    ("capacity.lower_bound", "hetcap.experiments", "ec_lower_bound"),
    ("capacity.lower_bound", "hetcap.capacity", "ec_lower_bound"),
    ("interference.mean", "hetcap.capacity", "total_mean_interference"),
)

FLOAT64_BYTES = 8


def _owner(path: str):
    module, _, attr = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, attr) if attr else obj


def _simulate_counts(args, result) -> dict:
    """Exact-MC kernel work for one ``simulate_components`` call.

    Per trial the kernel has M BS links (macro plus M-1 other cells) and
    M-1 uplink-UE links, and materialises float64 arrays of those widths:
    distance and fading per BS link; radius, angle, x, y, distance and
    fading per UE link.
    """
    trials, m = args["trials"], len(args["topology"].small_cells)
    return {"trials": trials,
            "links": trials * (2 * m - 1),
            "bytes_computed": FLOAT64_BYTES * trials * (2 * m + 6 * (m - 1))}


def _sample_counts(args, result) -> dict:
    """Matern parents expected and the bytes of their dense distance matrix."""
    from hetcap.geometry import matern_parent_intensity

    region, hard_core = args["region"], args["hard_core"]
    eligible = region.macro_radius - args["cell_radius"]
    compensation = (region.macro_radius / eligible) ** 2
    intensity, _ = matern_parent_intensity(args["target_density"], hard_core,
                                           compensation)
    parents = intensity * math.pi * (eligible + hard_core) ** 2
    return {"cells": len(result.small_cells),
            "parents_expected": parents,
            "pair_bytes_computed": FLOAT64_BYTES * parents**2}


def _emit_counts(args, result) -> dict:
    path = args["path"]
    return {"bytes": os.path.getsize(path) + os.path.getsize(path + ".meta.json")}


COUNTERS = {
    "capacity.simulate": _simulate_counts,
    "capacity.reduce": lambda args, result: {"trials": result.trials},
    "capacity.lower_bound":
        lambda args, result: {"signal_samples": args["signal_samples"]},
    "interference.mean":
        lambda args, result: {"terms": len(result.per_bs) + len(result.per_ue)},
    "experiments.sweep": lambda args, result: {"grid_points": len(result.rows)},
    "geometry.sample": _sample_counts,
    "config.emit": _emit_counts,
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    error: str | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans for calls made while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = 0

    def span(self, name: str, fn, *args, **kwargs) -> tuple[Span, object]:
        """Run ``fn`` inside a span named ``name``; return the span and result."""
        span = Span(len(self.spans), name, time.perf_counter(), math.nan,
                    self._stack[-1] if self._stack else None, self.op)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        return span, result

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            span, result = self.span(name, fn, *args, **kwargs)
            if counter is not None:
                span.counts = counter(signature.bind(*args, **kwargs).arguments,
                                      result)
            return result
        return traced

    def install(self) -> None:
        for name, owner_path, attr in TARGETS:
            owner = _owner(owner_path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__) + "\n")


def per_op_layers(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per op id: self seconds, call count and summed counts per span name.

    Self time is a span's duration minus the durations of its direct
    children; calls are sequential, so children never overlap.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    ops: dict[int, dict[str, float]] = {}
    for s in spans:
        row = ops.setdefault(s.op, {})
        row[f"{s.name}.self_s"] = row.get(f"{s.name}.self_s", 0.0) \
            + (s.end - s.start) - child_time.get(s.id, 0.0)
        row[f"{s.name}.calls"] = row.get(f"{s.name}.calls", 0) + 1
        for key, value in s.counts.items():
            row[f"{s.name}.{key}"] = row.get(f"{s.name}.{key}", 0) + value
    return ops


def errors_by_layer(spans: list[Span]) -> dict[str, int]:
    """Traced calls that raised, by layer (the span name's module part)."""
    errors: dict[str, int] = {}
    for s in spans:
        if s.error is not None:
            layer = s.name.split(".")[0]
            errors[layer] = errors.get(layer, 0) + 1
    return errors
