"""Self-test of the benchmark.  Run from the repository root:

    python3 benchmarks/selftest.py

Checks that
- every workload runs at its normal size for a one-second run (at least two
  passes), with and without tracing, and emits exactly the metrics
  BENCHMARK.json names, each with its unit, with all operations correct
  (seed 1000 has no shipped digests, so the independent verification path
  runs);
- a corrupted reference digest or a wrong exit code counts as a failed
  operation, through the same measurement loop the benchmark uses;
- without a digest, a search CSV that lacks a hit of its sample fails;
- in a directory holding only BENCHMARK.json and the benchmark, the command
  fails without printing a result.
Takes about a minute and a half.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from gate import Gate, Operation  # noqa: E402
from run import (  # noqa: E402
    END_TO_END, OUT, REFERENCE, WORKLOADS, Workload, build_workload, measure, run_pass,
)
from speed import SpeedProbe  # noqa: E402
from tetrabasis import cli  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def run_benchmark(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "1000",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_emitted_metrics(spec: dict) -> None:
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_benchmark(ROOT, workload, trace)
            what = f"{workload} trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{what}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{what}: all {result['attempted']} operations correct")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in declared[trace]}
            expect(emitted == wanted, f"{what}: every declared metric with its unit")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{what}: numeric values")


def check_corrupted_digest() -> None:
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["ops"]
    op = Operation(("reproduce", "appA"))
    entry = reference[op.label]
    flipped = ("0" if entry["sha256"][0] != "0" else "1") + entry["sha256"][1:]
    workload = Workload("selftest", (2,), [op], 1)
    cases = {
        "recorded digest": ({op.label: entry}, 0),
        "corrupted digest": ({op.label: dict(entry, sha256=flipped)}, None),
        "wrong exit code": ({op.label: dict(entry, exit=1)}, None),
    }
    for name, (ref, want_failed) in cases.items():
        run = measure(cli, workload, Gate(ref), seconds=0.01)
        if want_failed is None:
            want_failed = run.attempted
        expect(run.attempted >= 1 and run.failed == want_failed,
               f"{name}: {run.failed} of {run.attempted} operations counted as failed")


def check_incomplete_search() -> None:
    op = build_workload("search-n4", 1000).ops[0]
    [(_op, code, stdout, _seconds, _scaled)] = run_pass(cli, [op], SpeedProbe())
    lines = stdout.splitlines(keepends=True)
    cases = {
        "complete search CSV": (stdout, True),
        "search CSV with only its header": (lines[0], False),
        "search CSV missing its last hit": ("".join(lines[:-1]), False),
    }
    for name, (text, want) in cases.items():
        expect(len(lines) > 2 and Gate({}).check(op, code, text) is want,
               f"{name}: {'passes' if want else 'fails'} the independent check")


def check_bare_directory() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "benchmarks").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "benchmarks")
    proc = run_benchmark(bare, "search-n4", 0)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"bare directory: exit {proc.returncode} without a result")
    shutil.rmtree(bare)


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END),
           "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER),
           "BENCHMARK.json per_layer matches tracer.PER_LAYER")
    check_corrupted_digest()
    check_incomplete_search()
    check_bare_directory()
    check_emitted_metrics(spec)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
