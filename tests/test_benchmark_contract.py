"""The names the benchmark's tracer pins still exist in the package.

`perfbench/spans.py` wraps fractalis functions by name and reads their
arguments by parameter name.  A rename in the package would leave the
tracer with a missing binding or a counter that raises, so this loads
spans.py (read-only, without running the benchmark) and checks every name it
relies on against the package.
"""
import importlib
import inspect
import re
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    """spans.py as a module, compiled from its source so that no bytecode
    cache is written beside it."""
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), vars(module))
    return module


spans = load_spans()


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
