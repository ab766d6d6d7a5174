"""Per-layer tracing of fractalis from outside the package.

`Tracer.installed()` replaces each traced function at every module binding
that holds it (``refine_attractor`` is bound in rifs, dimension, surface and
cli, for instance), records one span per call and restores the originals on
exit.  Spans stay in memory until the run writes them out.  A span is
``(name, start, end, parent, pass_id, work)`` where ``parent`` is the index
of the enclosing traced span (-1 at top level) and ``work`` is a dict of
counts taken from the call's arguments and result.
"""
from __future__ import annotations

import contextlib
import inspect
import os
import statistics
import sys
import time

import numpy as np


def _bytes_written(call, result):
    return {"bytes": os.path.getsize(call["path"])}


def _scales_kept(call, result):
    return {"scales_kept": len(result[0].series.deltas),
            "scales_requested": call["r_hi"] - call["r_lo"] + 1}


# "module.function" -> work counter (or None), called as counter(bound arguments, result)
TRACED = {
    "config.parse_config": None,
    "catalog.abs_extrema": None,
    "catalog.lipschitz_bound": None,
    "rifs.build_model": None,
    "rifs.derive_connectivity": None,
    "rifs.contraction_report": None,
    "rifs.refine_attractor": lambda c, r: {"points": sum(x.size for x, _ in r.regions)},
    "rifs.merged_curve": None,
    "dimension.check_irreducible": lambda c, r: {"order": int(np.shape(c["A"])[0])},
    "dimension.nonneg_spectral_radius": None,
    "dimension.curve_dimension_bounds": None,
    "dimension.box_count_graph": lambda c, r: {"samples": int(np.size(c["xs"]))},
    "dimension.box_count_surface": lambda c, r: {"cells": int(r)},
    "dimension.fit_dimension": None,
    "dimension.estimate_curve_dimension": _scales_kept,
    "surface.CurveSamples.from_model": None,
    "surface.eval_surface": lambda c, r: {"nodes": int(r.heights.size)},
    "surface.estimate_surface_dimension": None,
    "io.write_curve_csv": _bytes_written,
    "io.write_box_csv": _bytes_written,
    "io.write_json": _bytes_written,
    "io.write_pgm": _bytes_written,
    "io.write_obj": _bytes_written,
    "cli.main": None,
}

# per-layer metric -> unit, in report order
METRICS = {}
for _name in TRACED:
    METRICS[f"{_name}.self_s"] = "s"
    METRICS[f"{_name}.calls"] = "count"
for _name, _stat, _unit in (
        ("io.write_curve_csv", "bytes", "bytes"), ("io.write_obj", "bytes", "bytes"),
        ("io.write_pgm", "bytes", "bytes"), ("io.write_json", "bytes", "bytes"),
        ("rifs.refine_attractor", "points", "count"),
        ("dimension.box_count_graph", "samples", "count"),
        ("dimension.box_count_surface", "cells", "count"),
        ("surface.eval_surface", "nodes", "count"),
        ("dimension.check_irreducible", "order", "count")):
    METRICS[f"{_name}.{_stat}"] = _unit
METRICS["dimension.scales_kept_ratio"] = "ratio"
METRICS["trace.overhead_s"] = "s"

# functions each workload must reach; zero calls there means a missed binding
EXPECTED = {
    "export": ("io.write_curve_csv", "io.write_obj", "io.write_pgm", "io.write_json",
               "rifs.refine_attractor", "rifs.merged_curve", "rifs.build_model",
               "rifs.contraction_report", "catalog.abs_extrema", "catalog.lipschitz_bound",
               "surface.CurveSamples.from_model", "surface.eval_surface",
               "config.parse_config", "cli.main"),
    "analyze": ("rifs.refine_attractor", "rifs.merged_curve", "dimension.box_count_graph",
                "dimension.estimate_curve_dimension", "dimension.fit_dimension",
                "dimension.curve_dimension_bounds", "dimension.check_irreducible",
                "dimension.nonneg_spectral_radius", "rifs.build_model",
                "rifs.derive_connectivity", "rifs.contraction_report", "catalog.abs_extrema",
                "catalog.lipschitz_bound", "io.write_json", "io.write_box_csv",
                "config.parse_config", "cli.main"),
    "surface": ("dimension.box_count_surface", "surface.eval_surface",
                "surface.estimate_surface_dimension", "surface.CurveSamples.from_model",
                "io.write_pgm", "io.write_json", "config.parse_config", "cli.main"),
}
# functions a workload must not reach: a box-counting change must read "no change" there
ABSENT = {
    "export": ("dimension.box_count_graph", "dimension.box_count_surface",
               "dimension.estimate_curve_dimension"),
    "analyze": ("io.write_curve_csv", "io.write_obj"),
    "surface": ("io.write_curve_csv", "io.write_obj"),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.pass_id = None
        self.bindings = {}      # traced name -> ["module.attribute", ...]
        self._stack = []

    def _wrap(self, name, fn, measure):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn) if measure else None

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            done = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                work = None
                if measure and done:
                    call = signature.bind(*args, **kwargs)
                    call.apply_defaults()
                    work = measure(call.arguments, result)
                spans[idx] = (name, start, end, parent, self.pass_id, work)
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every traced function; restore them on exit."""
        import fractalis  # noqa: F401  (loads every submodule)
        modules = [m for key, m in list(sys.modules.items())
                   if key == "fractalis" or key.startswith("fractalis.")]
        restore = []
        try:
            for name, measure in TRACED.items():
                module, _, attr = name.partition(".")
                target = sys.modules[f"fractalis.{module}"]
                if "." in attr:   # a classmethod, e.g. CurveSamples.from_model
                    cls_name, meth = attr.split(".")
                    cls = getattr(target, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, classmethod(self._wrap(name, original.__func__, measure)))
                    restore.append((cls, meth, original))
                    self.bindings[name] = [f"{target.__name__}.{attr}"]
                    continue
                original = getattr(target, attr)
                wrapper = self._wrap(name, original, measure)
                self.bindings[name] = []
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            restore.append((mod, key, original))
                            self.bindings[name].append(f"{mod.__name__}.{key}")
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)
            self.pass_id = None

    def records(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "pass": k, "work": w}
                for n, s, e, p, k, w in self.spans]


def self_times(spans):
    """Per span: its duration minus the time its direct child spans cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def pass_metrics(spans):
    """{pass id: {metric: value}} for every METRICS entry except trace.overhead_s."""
    own = self_times(spans)
    out = {}
    for (name, _, _, _, pass_id, work), self_s in zip(spans, own):
        m = out.setdefault(pass_id, {})
        m[f"{name}.self_s"] = m.get(f"{name}.self_s", 0.0) + self_s
        m[f"{name}.calls"] = m.get(f"{name}.calls", 0) + 1
        for key, value in (work or {}).items():
            m[f"{name}.{key}"] = m.get(f"{name}.{key}", 0) + value
    for m in out.values():
        for metric, unit in METRICS.items():
            if metric != "trace.overhead_s":
                m.setdefault(metric, 0.0 if unit == "s" else 0)
        kept = m.pop("dimension.estimate_curve_dimension.scales_kept", 0)
        requested = m.pop("dimension.estimate_curve_dimension.scales_requested", 0)
        m["dimension.scales_kept_ratio"] = kept / requested if requested else 0.0
    return out


def median_metrics(per_pass):
    """Median over passes of each metric (counts repeat exactly, times vary)."""
    passes = list(per_pass.values())
    return {metric: statistics.median(p[metric] for p in passes)
            for metric in METRICS if metric != "trace.overhead_s"}
