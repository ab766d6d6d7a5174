"""The names the benchmark's tracer pins still exist in the package, and
the benchmark's inputs still parse.

`perfbench/spans.py` wraps fractalis functions by name and reads their
arguments by parameter name.  A rename in the package would leave the
tracer with a missing binding or a counter that raises, so this loads
spans.py (read-only, without running the benchmark) and checks every name it
relies on against the package.  A config the reader refused would fail
every benchmark run at setup, so the configs that `perfbench/workloads.py`
generates are parsed at a few seeds as well.
"""
import importlib
import inspect
import json
import re
import types
from pathlib import Path

import numpy as np
import pytest

from fractalis.config import parse_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(path, name):
    """The module at `path`, compiled from its source so that no bytecode
    cache is written beside it."""
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module


spans = load(PERFBENCH / "spans.py", "perfbench_spans")
workloads = load(PERFBENCH / "workloads.py", "perfbench_workloads")


def resolve(name):
    """The function behind a traced "module.function" or "module.Class.method"."""
    module, _, attr = name.partition(".")
    target = importlib.import_module(f"fractalis.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        method = vars(getattr(target, cls_name))[meth]
        assert isinstance(method, classmethod), f"{name} is no longer a classmethod"
        return method.__func__
    return getattr(target, attr)


def argument_names(counter):
    """The keys a counter reads from its bound-arguments mapping."""
    first = next(iter(inspect.signature(counter).parameters))
    return set(re.findall(rf'\b{first}\["(\w+)"\]', inspect.getsource(counter)))


@pytest.mark.parametrize("name", sorted(spans.TRACED))
def test_traced_name_resolves(name):
    assert callable(resolve(name))


@pytest.mark.parametrize("name", sorted(n for n, c in spans.TRACED.items() if c is not None))
def test_counter_arguments_are_parameters(name):
    params = inspect.signature(resolve(name)).parameters
    assert argument_names(spans.TRACED[name]) <= set(params)


def test_counters_read_the_pinned_arguments():
    read = set().union(*(argument_names(c) for c in spans.TRACED.values() if c is not None))
    assert read == {"xs", "A", "r_lo", "r_hi", "path"}


@pytest.mark.parametrize("table", ["EXPECTED", "ABSENT"])
def test_workload_names_are_traced(table):
    for workload, names in getattr(spans, table).items():
        assert set(names) <= set(spans.TRACED), workload


def test_estimate_counts_through_the_module_binding_once_per_slab(monkeypatch):
    # the tracer replaces dimension.box_count_graph at its module binding;
    # `analyze` must reach it there once per slab of the curve, with the
    # slab as `xs`, for EXPECTED["analyze"] and the `samples` counter to
    # read the pass
    from fractalis import build_model, dimension, merged_curve, refine_attractor
    from fractalis.catalog import Constant

    calls, count = [], dimension.box_count_graph
    signature = inspect.signature(count)

    def recording(*args, **kwargs):
        call = signature.bind(*args, **kwargs).arguments
        # a slab is a view of buffers the next slab reuses
        calls.append((call, call["xs"].copy(), call["ys"].copy()))
        call["counts"] = count(*args, **kwargs)
        return call["counts"]
    monkeypatch.setattr(dimension, "box_count_graph", recording)
    data = [(0.0, 20.0), (0.25, 30.0), (0.5, 10.0), (0.75, 50.0), (1.0, 10.0)]
    for s in (0.5, 0.7):
        calls.clear()
        model = build_model(data, [(0, 4)], [0] * 4, Constant(s))
        report, plan = dimension.estimate_curve_dimension(model, depth=7)
        # every node is on every gridline: one slab per region
        assert len(calls) == 4
        assert all(tuple(c["delta"]) == report.series.deltas for c, _, _ in calls)
        assert tuple(map(sum, zip(*(c["counts"] for c, _, _ in calls)))) == report.series.counts
        samples = [spans.TRACED["dimension.box_count_graph"](c, None)["samples"]
                   for c, _, _ in calls]
        assert sum(samples) == plan.total + len(calls) - 1 == 4 ** 8 + 4
        gx, gy = merged_curve(refine_attractor(model, plan.depth))
        slabs = [(xs[k > 0:], ys[k > 0:]) for k, (_, xs, ys) in enumerate(calls)]
        assert np.concatenate([xs for xs, _ in slabs]).tobytes() == gx.tobytes()
        assert np.concatenate([ys for _, ys in slabs]).tobytes() == gy.tobytes()
    assert "xs" in signature.parameters


@pytest.mark.parametrize("seed", [0, 1, 7, 49])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_benchmark_configs_parse(workload, seed):
    for name, doc in workloads.generate(workload, seed).items():
        assert parse_config(json.loads(workloads.dumps(doc))).mode == doc["mode"], name
