"""The benchmark's tracer and gate bind library functions by name.

Deleting or renaming one of those functions must fail here, not only when
the benchmark runs with ``--trace 1``.  The benchmark files are loaded
read-only.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_benchmark_module(name):
    spec = importlib.util.spec_from_file_location(f"_benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return load_benchmark_module("tracer")


def test_traced_functions_resolve(tracer):
    for home, fname, bindings in tracer.TRACED:
        module = importlib.import_module(f"tetrabasis.{home}")
        assert callable(getattr(module, fname, None)), f"{home}.{fname}"
        assert set(bindings or ()) <= set(tracer.MODULES)


def test_tracer_installs_and_restores(tracer):
    cli = importlib.import_module("tetrabasis.cli")
    original = cli.render_json
    t = tracer.Tracer()
    try:
        t.install()
        assert cli.render_json is not original
    finally:
        t.uninstall()
    assert cli.render_json is original


def test_gate_imports():
    gate = load_benchmark_module("gate")
    assert callable(gate.Gate)
