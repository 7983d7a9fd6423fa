"""Time the benchmark's set-up in a fresh interpreter.

Set-up is importing ``tetrabasis.cli`` plus one warm-up per qubit count a
workload uses, which fills the tetrahedral-group, single-qubit-Clifford and
Pauli-stack caches.  The speed probe of ``speed.py`` runs right after, in
the same interpreter, and scales the set-up time to the reference speed.
Run as ``python3 benchmarks/setup_probe.py 4 3``; prints
``{"raw_s": ..., "setup_s": ...}``, the second at the reference speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
PROBE_REPEATS = 9


def warm_up(cli, n: int) -> None:
    """A witness call (group and Clifford caches) and a matrix level test (Pauli stack)."""
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["witness", "--n", str(n), "--poly", "z1 z2", "--target", "z1 z2"])
        cli.main(["level", "--n", str(n), "--poly", "z1 z2", "--matrix"])


def main(argv: list[str]) -> int:
    qubit_counts = [int(a) for a in argv]
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    from tetrabasis import cli

    for n in qubit_counts:
        warm_up(cli, n)
    seconds = perf_counter() - start

    from speed import SpeedProbe

    probe = SpeedProbe()
    probe.seconds()  # first calls into numpy's linear algebra are slower
    probe_s = statistics.median(probe.seconds() for _ in range(PROBE_REPEATS))
    print(json.dumps({"raw_s": seconds, "setup_s": probe.scale(seconds, probe_s)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
