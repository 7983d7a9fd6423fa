"""Benchmark of the tetrabasis CLI: three workloads, end-to-end timings, per-layer trace.

Usage (from the repository root):

    python3 benchmarks/run.py --workload search-n4 --seed 1 --seconds 30 --trace 0

The benchmark drives ``tetrabasis.cli.main(argv)`` in-process from one
Python process with ``--jobs 1`` and records every call's stdout and exit
code, which the correctness gate (``gate.py``) checks.  One pass runs the
workload's CLI operations once; passes start until ``--seconds`` is used up.
Each operation's time is scaled to a reference machine speed with the probe
of ``speed.py``, timed before and after it.  With ``--trace 1`` untraced and
traced passes alternate: the traced ones report the per-layer metrics of
``tracer.py``, and the difference of the traced and untraced pass times is
the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

WORKLOADS = ("search-n4", "classify-n3", "inspect-n4")
SEARCH_SAMPLE = 200      # candidates per search-n4 pass
INSPECT_POLYS = 2        # drawn polynomials per inspect-n4 pass; each targets the next
SETUP_SAMPLES = 7        # fresh interpreters timed for setup_s
MIN_PASSES = 2
END_TO_END = (
    ("wall_s", "s"),
    ("candidates_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Workload:
    name: str
    qubit_counts: tuple[int, ...]   # warmed up during set-up
    ops: list                       # gate.Operation, run in order once per pass
    candidates: int                 # polynomials one pass processes


def draw_regular(seed: int, k: int, n: int = 4, m: int = 2, max_tries: int = 100_000):
    """k regular polynomials with pairwise distinct fingerprint class keys.

    Distinct class keys make every witness search between two of them a
    definite miss.  Candidates are screened with the library, untimed.
    """
    import numpy as np

    from tetrabasis.search import (
        canonical_monomials,
        evaluate_polynomial_candidate,
        polynomial_from_coeffs,
    )

    rng = np.random.default_rng([seed, n, m])
    monos = canonical_monomials(n)
    drawn, keys = [], set()
    for _ in range(max_tries):
        coeffs = tuple(int(c) for c in rng.integers(0, 2**m, len(monos)))
        hit = evaluate_polynomial_candidate(polynomial_from_coeffs(n, m, monos, coeffs))
        key = hit.fingerprint.class_key()
        if hit.geometry.all_regular and key not in keys:
            drawn.append(hit.polynomial)
            keys.add(key)
            if len(drawn) == k:
                return drawn
    raise RuntimeError(f"found {len(drawn)} of {k} regular polynomials in {max_tries} draws")


def build_workload(name: str, seed: int) -> Workload:
    from gate import (
        Operation,
        verify_classify_json,
        verify_geometry_regular,
        verify_invariants,
        verify_level,
        verify_search_csv,
        verify_suite_passed,
        verify_witness,
    )
    from tetrabasis.reproduce import SUITE_NAMES

    if name == "search-n4":
        argv = ("search", "--n", "4", "--m", "2", "--sample", str(SEARCH_SAMPLE),
                "--seed", str(seed), "--format", "csv", "--jobs", "1")
        verify = verify_search_csv(4, 2, SEARCH_SAMPLE, seed)
        return Workload(name, (4,), [Operation(argv, 0, verify)], SEARCH_SAMPLE)
    if name == "classify-n3":
        argv = ("classify", "--n", "3", "--m", "2", "--format", "json", "--jobs", "1")
        return Workload(name, (3,), [Operation(argv, 0, verify_classify_json(3, 2))], 256)
    if name != "inspect-n4":
        raise ValueError(f"unknown workload {name!r}")
    polys = draw_regular(seed, INSPECT_POLYS)
    ops = []
    for i, f in enumerate(polys):
        poly = f.to_text()
        nxt = polys[(i + 1) % len(polys)].to_text()
        neg = f.negated().to_text()
        base = ("--n", "4", "--poly", poly)
        ops += [
            Operation(("geometry",) + base, 0, verify_geometry_regular),
            Operation(("invariants",) + base, 0, verify_invariants(4)),
            Operation(("level",) + base + ("--matrix", "--mode", "full"), 0,
                      verify_level(poly, 4, 2)),
            # different class keys: no witness in either pass
            Operation(("witness",) + base + ("--target", nxt, "--conjugation"), 0,
                      verify_witness(poly, nxt, 4, 2, must_find=False)),
            # the conjugated fiducial is column 0 of the negation's basis
            Operation(("witness",) + base + ("--target", neg, "--conjugation"), 0,
                      verify_witness(poly, neg, 4, 2, must_find=True)),
        ]
    for suite in SUITE_NAMES:
        if suite == "appD":  # documented exit 1; only the reference can vouch for it
            ops.append(Operation(("reproduce", suite), 1))
        else:
            ops.append(Operation(("reproduce", suite), 0, verify_suite_passed(suite)))
    return Workload(name, (2, 3, 4), ops, len(polys))


def run_pass(cli, ops, probe: SpeedProbe, tracer=None):
    """Run every operation once, probing the box's speed before, between and after.

    Returns [(op, exit code or None, stdout, seconds, scaled seconds)], where
    scaled seconds are at the probe's reference speed.
    """
    outcomes = []
    before = probe.seconds()
    for op in ops:
        buf = io.StringIO()
        root = tracer.root() if tracer is not None else contextlib.nullcontext()
        start = perf_counter()
        try:
            with root, contextlib.redirect_stdout(buf):
                code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = None
        seconds = perf_counter() - start
        after = probe.seconds()
        scaled = probe.scale(seconds, (before + after) / 2)
        outcomes.append((op, code, buf.getvalue(), seconds, scaled))
        before = after
    return outcomes


@dataclass
class Measurement:
    walls: list             # per untraced pass: raw seconds
    scaled: list            # per untraced pass: seconds at the reference speed
    traced_scaled: list     # per traced pass: seconds at the reference speed
    layer_samples: list     # per traced pass, the tracer's per-layer metrics
    attempted: int
    failed: int


def measure(cli, workload: Workload, gate, seconds: float, tracer=None,
            span_file: Path | None = None) -> Measurement:
    """Repeat passes for about ``seconds``; with a tracer, every second pass is traced."""
    result = Measurement([], [], [], [], 0, 0)
    probe = SpeedProbe()
    start = perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
            try:
                outcomes = run_pass(cli, workload.ops, probe, tracer)
            finally:
                tracer.uninstall()
            result.traced_scaled.append(sum(o[4] for o in outcomes))
            result.layer_samples.append(tracer.layer_metrics())
            if span_file is not None and len(result.layer_samples) == 1:
                tracer.write_spans(span_file)
        else:
            outcomes = run_pass(cli, workload.ops, probe)
            result.walls.append(sum(o[3] for o in outcomes))
            result.scaled.append(sum(o[4] for o in outcomes))
        for op, code, stdout, _seconds, _scaled in outcomes:
            result.attempted += 1
            result.failed += not gate.check(op, code, stdout)
        index += 1
        if index >= MIN_PASSES and perf_counter() - start >= seconds:
            return result


def setup_seconds(qubit_counts) -> list[float]:
    """Set-up time of fresh interpreters at the reference speed, one subprocess per sample."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *map(str, qubit_counts)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (SRC / "tetrabasis" / "cli.py").is_file():
        print(f"error: no tetrabasis sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from gate import Gate
    from setup_probe import warm_up
    from tetrabasis import cli
    from tracer import PER_LAYER, Tracer

    workload = build_workload(args.workload, args.seed)
    for n in workload.qubit_counts:
        warm_up(cli, n)
    with open(REFERENCE, encoding="utf-8") as fh:
        gate = Gate(json.load(fh)["ops"])

    if args.trace:
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        run = measure(cli, workload, gate, args.seconds, Tracer(), span_file)
        values = {name: statistics.median(s[name] for s in run.layer_samples)
                  for name, _unit in PER_LAYER if name in run.layer_samples[0]}
        traced = statistics.median(run.traced_scaled)
        values["trace.traced_wall_s"] = traced
        values["trace.overhead_s"] = traced - statistics.median(run.scaled)
        values["failure_ratio"] = run.failed / run.attempted
        units = PER_LAYER
    else:
        setups = setup_seconds(workload.qubit_counts)
        run = measure(cli, workload, gate, args.seconds)
        wall = statistics.median(run.scaled)
        values = {
            "wall_s": wall,
            "candidates_per_s": workload.candidates / wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    walls = run.walls
    q1, q3 = quartiles(walls)
    print(f"workload {args.workload} seed {args.seed}: {len(walls)} untraced passes "
          f"of {len(workload.ops)} operations; raw pass seconds median "
          f"{statistics.median(walls):.4f} (q1 {q1:.4f}, q3 {q3:.4f}, max {max(walls):.4f}); "
          f"at reference speed {statistics.median(run.scaled):.4f}")
    print(f"  failure_ratio {run.failed / run.attempted:.6g} ratio "
          f"({run.failed} of {run.attempted} operations failed)")
    if args.trace:
        print(f"  traced passes {len(run.traced_scaled)}, spans written to "
              f"{span_file.relative_to(ROOT)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    for name, entry in metrics.items():
        print(f"  {name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
