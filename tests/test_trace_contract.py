"""The names bench/tracer.py wraps must stay where it looks for them.

The tracer patches jetlift from outside: functions by name on their
modules, methods through the `__dict__` of the class that defines them,
and two Checker methods with wrappers that repeat their signatures. A
rename or a move breaks `bench/run.py --trace 1` without failing anything
else, so this test reads the tracer's tables (loading the file by path,
without installing it) and checks each name against the library.
"""
import importlib
import importlib.util
import inspect
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), "..", "bench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("jetlift_bench_tracer",
                                                  TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


def resolve_class(path):
    module, _, name = path.rpartition(".")
    return getattr(importlib.import_module(module), name)


@pytest.mark.parametrize("path, names", [
    (path, names) for path, names, _ in
    tracer.SPAN_FUNCS + tracer.TIMED_FUNCS + tracer.COUNTED_FUNCS])
def test_functions_resolve_on_their_module(path, names):
    module = importlib.import_module(path)
    for name in names:
        assert callable(getattr(module, name, None)), f"{path}.{name}"


@pytest.mark.parametrize("path, names", [
    (path, names) for path, names, _ in
    tracer.SPAN_METHODS + tracer.TIMED_METHODS + tracer.COUNTED_METHODS])
def test_methods_are_in_their_class_dict(path, names):
    cls = resolve_class(path)
    for name in names:
        assert callable(cls.__dict__.get(name)), f"{path}.{name}"


def parameters(fn):
    return [(p.name, p.default) for p in inspect.signature(fn).parameters.values()]


def test_hooked_checker_signatures():
    from jetlift.report import Checker

    empty = inspect.Parameter.empty
    assert parameters(Checker.residual) == [
        ("self", empty), ("check_id", empty), ("identity", empty),
        ("dim", empty), ("fn", empty), ("tol", None)]
    assert parameters(Checker.sample) == [
        ("self", empty), ("dim", empty), ("probe", None)]


@pytest.mark.parametrize("module, name", [
    ("jetlift.report", "_REJECTABLE"),
    ("jetlift.errors", "EigenError"),
    ("jetlift.fields", "SymbolicField"),
] + [("jetlift.expr", node) for node in
     ("Const", "Var", "Unary", "Binary", "Pow")])
def test_names_install_reads_resolve(module, name):
    # install() imports these outside its tables: the rejectable errors it
    # counts points by, and the classes its tree walk tells apart
    assert getattr(importlib.import_module(module), name, None) is not None
