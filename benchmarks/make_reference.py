"""Record the correctness gate's reference digests.

For each shipped seed of each workload, runs one pass, requires every
operation to pass the independent verification of ``gate.py`` (and
``reproduce appD`` to exit 1, its documented failure), and stores the stdout
sha256 and exit code under the operation's command line.  Run from the
repository root, at the commit whose outputs become the reference:

    python3 benchmarks/make_reference.py --seeds 0-39

Overwrites ``benchmarks/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from gate import Gate, digest  # noqa: E402
from run import REFERENCE, WORKLOADS, build_workload, run_pass  # noqa: E402
from setup_probe import warm_up  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tetrabasis import cli  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="0-39", help="inclusive range, e.g. 0-39")
    args = parser.parse_args()
    for n in (2, 3, 4):
        warm_up(cli, n)
    independent = Gate({})
    probe = SpeedProbe()
    ops: dict[str, dict] = {}
    for name in WORKLOADS:
        for seed in parse_seeds(args.seeds):
            workload = build_workload(name, seed)
            outcomes = run_pass(cli, workload.ops, probe)
            for op, code, stdout, _seconds, _scaled in outcomes:
                appd = op.argv == ("reproduce", "appD")
                if not appd and not independent.check(op, code, stdout):
                    print(f"independent check failed: {op.label}", file=sys.stderr)
                    return 1
                if appd and code != 1:
                    print(f"reproduce appD exited {code}, expected 1", file=sys.stderr)
                    return 1
                ops[op.label] = {"sha256": digest(stdout), "exit": code}
            print(f"{name} seed {seed}: {len(outcomes)} operations", file=sys.stderr)
            if name == "classify-n3":
                break  # no seed-dependent input
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"seeds": args.seeds, "ops": dict(sorted(ops.items()))}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
