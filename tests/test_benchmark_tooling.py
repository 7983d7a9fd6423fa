"""The benchmark's tracer and gate bind library functions by name.

Deleting or renaming one of those functions must fail here, not only when
the benchmark runs with ``--trace 1``.  The recorded output of every
benchmark operation is replayed too.  The benchmark files are loaded
read-only, without writing bytecode next to them.
"""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
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


@pytest.fixture(scope="module")
def replay_ops():
    """Every recorded operation: search-n4 and inspect-n4 seeds 0-39 (inspect-n4 with
    the reproduce suites), and classify-n3."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.syspath_prepend(str(BENCHMARKS))  # run.py imports its siblings by name
        run = load_benchmark_module("run")
        workloads = [run.build_workload("search-n4", seed) for seed in range(40)]
        workloads += [run.build_workload("inspect-n4", seed) for seed in range(40)]
        workloads.append(run.build_workload("classify-n3", 0))
    return list({op.label: op for w in workloads for op in w.ops}.values())


def test_recorded_outputs_replay(replay_ops):
    cli = importlib.import_module("tetrabasis.cli")
    reference = json.loads((BENCHMARKS / "reference.json").read_text(encoding="utf-8"))["ops"]
    assert len(replay_ops) == len(reference) == 447
    mismatched = []
    for op in replay_ops:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        got = {"sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), "exit": code}
        if got != reference[op.label]:
            mismatched.append(op.label)
    assert mismatched == []
