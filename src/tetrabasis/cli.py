"""Command-line interface: build, verify, classify, and reproduce tetrahedral bases.

Reports are deterministic: fixed key order, numbers at 12 significant digits,
no timestamps.  Exit codes: 0 success/pass, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from functools import lru_cache

import numpy as np

from .basisgen import build_tetra_group, check_orthonormal, orbit_basis
from .entanglement import invariant_fingerprint
from .fiducial import PolynomialParseError, build_fiducial, parse_polynomial
from .geometry import (
    EPS_GEO,
    ChiralityInconsistencyError,
    DegenerateGeometryError,
    classify_geometry,
    orbit_bloch_table,
)
from .hierarchy import DEFAULT_CAP, check_cap, diagonal_clifford_level, measurement_level
from .qcore import EPS_NORM, CapacityError
from .reproduce import SUITE_NAMES, reproduce_suite
from .search import (
    SearchConfig,
    SearchHit,
    conjugate_partner_key,
    group_into_classes,
    lc_equivalence_witness,
    search_regular,
)

CSV_COLUMNS = ["poly", "level", "r", "tangle", "c2_1", "c2_2", "c2_3",
               "stab", "chirality", "conjugate_key"]


def fmt_number(x):
    """Round to 12 significant digits for byte-stable serialization."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    return float(f"{float(x):.12g}")


def _formatted(obj):
    if isinstance(obj, dict):
        return {k: _formatted(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_formatted(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return fmt_number(obj.item())
    if isinstance(obj, float):
        return fmt_number(obj)
    return obj


def render_json(obj) -> None:
    """Write obj as indented JSON and a newline to the current ``sys.stdout``.

    ``json.dump`` writes the encoder's chunks as they come, so a large report
    is never held as one string; the bytes equal ``json.dumps(..., indent=2)``.
    """
    json.dump(_formatted(obj), sys.stdout, indent=2)
    sys.stdout.write("\n")


def complex_pairs(vec: np.ndarray) -> list[list[float]]:
    return [[fmt_number(z.real), fmt_number(z.imag)] for z in vec]


def basis_json(basis) -> dict:
    return {
        "n": basis.n,
        "polynomial": basis.polynomial.to_text() if basis.polynomial is not None else None,
        "fiducial": complex_pairs(basis.fiducial),
        "columns": [complex_pairs(basis.column(g)) for g in range(basis.size)],
    }


def hit_csv_row(hit: SearchHit, conjugate_key: str | None) -> list:
    fp = hit.fingerprint
    c2 = list(fp.concurrence_sq[:3])
    c2 += [None] * (3 - len(c2))
    return [
        hit.key,
        hit.level,
        fmt_number(fp.r),
        fmt_number(fp.tangle) if fp.tangle is not None else None,
        fmt_number(c2[0]) if c2[0] is not None else None,
        fmt_number(c2[1]) if c2[1] is not None else None,
        fmt_number(c2[2]) if c2[2] is not None else None,
        fp.stabilizer_order,
        fp.chirality_signature,
        conjugate_key,
    ]


def hits_csv(hits: list[SearchHit]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for hit, partner in zip(hits, conjugate_partner_key(hits, hits)):
        writer.writerow(["" if v is None else v for v in hit_csv_row(hit, partner)])
    return out.getvalue()


def _tolerance(entries: list[str] | None, name: str, default: float) -> float:
    """The command's one tolerance, overridden by repeatable NAME=VALUE entries."""
    value = default
    for entry in entries or []:
        key, _, text = entry.partition("=")
        if key.strip() != name or not text:
            raise ValueError(f"tolerance override {entry!r} is not {name}=value")
        value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"tolerance {name} must be finite and positive, got {value}")
    return value


def _load_config(path: str) -> dict[str | None, dict[str, str]]:
    """key=value lines by section: None holds the keys before any [name] line."""
    sections: dict[str | None, dict[str, str]] = {None: {}}
    current = sections[None]
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = sections.setdefault(line[1:-1].strip(), {})
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"config line {line!r} is not key=value")
            current[key.strip()] = value.strip().strip('"')
    return sections


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The one parser every call shares; parsing and the config step only read it."""
    # no abbreviations: the config check below matches flags by their full spelling
    parser = argparse.ArgumentParser(
        prog="tetrabasis",
        description="Construct, verify, and classify multiqubit tetrahedral measurement bases.",
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="key=value config file, [subcommand] sections; "
                        "explicit flags win")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def sub(name, **kwargs):
        return subparsers.add_parser(name, allow_abbrev=False, **kwargs)

    def add_common(p, poly=True, tolerance=None, formats=("json", "text")):
        p.add_argument("--n", type=int, required=True, help="qubit count")
        p.add_argument("--m", type=int, default=2, help="phase precision (default 2)")
        if poly:
            p.add_argument("--poly", required=True, help="phase polynomial text, e.g. 'z1 z2'")
        p.add_argument("--format", choices=list(formats), default="json")
        if tolerance:
            p.add_argument("--tolerance", action="append", metavar=f"{tolerance}=VALUE",
                           help=f"override the {tolerance} tolerance; repeatable")

    p_build = sub("build", help="fiducial state and orbit basis of a polynomial")
    add_common(p_build)

    p_verify = sub("verify", help="orthonormality check of the orbit basis")
    add_common(p_verify, tolerance="norm")

    p_gekm = sub("geometry", help="Bloch geometry report of the orbit basis")
    add_common(p_gekm, tolerance="geo")

    p_inv = sub("invariants", help="invariant fingerprint of the orbit basis")
    add_common(p_inv)

    p_level = sub("level", help="Clifford-hierarchy level of the diagonal gate")
    add_common(p_level)
    p_level.add_argument("--matrix", action="store_true",
                         help="also give the level of M_psi, certified by its identity with "
                              "the fiducial circuit S(n) H_n D_f H^(x n)")
    p_level.add_argument("--mode", choices=["generator", "full"], default="generator",
                         help="echoed in the output; both modes give the certified level")
    p_level.add_argument("--cap", type=int, default=DEFAULT_CAP)

    def add_search(name, summary, formats):
        p = sub(name, help=summary)
        add_common(p, poly=False, formats=formats)
        p.add_argument("--filter", action="append", choices=["regular", "nonzero"],
                       default=None, help="filters; default regular")
        p.add_argument("--jobs", type=int, default=1,
                       help="takes only 1: the search runs in one process")
        p.add_argument("--sample", type=int, default=None,
                       help="sampled search size (needed for n >= 4 full spaces)")
        p.add_argument("--seed", type=int, default=0)

    add_search("search", "enumerate polynomials and filter bases", ("json", "csv", "text"))
    add_search("classify", "search and group hits into classes", ("json", "text"))

    p_wit = sub("witness", help="local-Clifford witness between two bases")
    add_common(p_wit)
    p_wit.add_argument("--target", required=True, help="polynomial of the target basis")
    p_wit.add_argument("--conjugation", action="store_true",
                       help="also search conjugated candidates")

    p_rep = sub("reproduce", help="run a named reproduction suite")
    p_rep.add_argument("suite", choices=list(SUITE_NAMES))
    p_rep.add_argument("--format", choices=["json", "csv", "text"], default="text")
    return parser


def _subcommands(parser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _options(sub) -> dict[str, argparse.Action]:
    """A subcommand's actions by option string."""
    return {opt: a for a in sub._actions for opt in a.option_strings}


def _apply_config_defaults(parser, argv):
    """Pull --config before full parsing so file values become defaults.

    Keys before any [name] line apply to every subcommand that has the flag;
    one that no subcommand has is passed on, so parsing rejects it.  Keys in
    a [name] section apply only when subcommand name runs, and override
    top-level keys.  The key of a store_true flag takes true (pass the flag)
    or false (omit it).  Only the tokens before the subcommand, where parsing
    accepts --config, are read; the last --config wins, and one followed by
    nothing or by a token starting with - is left for parsing to reject.
    """
    path = command = None
    tokens = iter(argv)
    for token in tokens:
        if token == "--config":
            path = next(tokens, None)
            if path is None or path.startswith("-"):
                return argv
        elif token.startswith("--config="):
            path = token.partition("=")[2]
        elif not token.startswith("-"):
            command = token
            break
    if not path:
        return argv
    sections = _load_config(path)
    commands = _subcommands(parser)
    for name in sections:
        if name is not None and name not in commands:
            raise ValueError(f"config section [{name}] names no subcommand")
    own = _options(commands[command]) if command in commands else {}
    anywhere = {opt for sub in commands.values() for opt in _options(sub)}
    values = {key: value for key, value in sections[None].items()
              if f"--{key}" in own or f"--{key}" not in anywhere}
    values.update(sections.get(command, {}))
    extra = []
    for key, value in values.items():
        flag = f"--{key}"
        # config only fills flags the user did not pass, so flags always win
        if flag in argv or any(a.startswith(flag + "=") for a in argv):
            continue
        if not isinstance(own.get(flag), argparse._StoreTrueAction):
            extra.extend([flag, value])
        elif value.lower() == "true":
            extra.append(flag)
        elif value.lower() != "false":
            raise ValueError(f"config key {key!r} takes true or false, got {value!r}")
    return argv + extra


def _poly(args):
    return parse_polynomial(args.poly, args.n, args.m)


def _basis(args):
    f = _poly(args)
    return orbit_basis(build_fiducial(f), build_tetra_group(args.n), f)


def cmd_build(args) -> int:
    basis = _basis(args)
    payload = basis_json(basis)
    if args.format == "text":
        print(f"polynomial: {payload['polynomial']}")
        print(f"fiducial: {payload['fiducial']}")
        print(f"columns: {basis.size}")
    else:
        render_json(payload)
    return 0


def cmd_verify(args) -> int:
    report = check_orthonormal(_basis(args), tol=_tolerance(args.tolerance, "norm", EPS_NORM))
    payload = {"ok": report.ok, "max_violation": report.max_violation}
    if args.format == "text":
        print(f"orthonormal: {report.ok} (max violation {report.max_violation:.3e})")
    else:
        render_json(payload)
    return 0 if report.ok else 1


def cmd_geometry(args) -> int:
    table = orbit_bloch_table(_basis(args))
    tol = _tolerance(args.tolerance, "geo", EPS_GEO)
    try:
        report = classify_geometry(table, tol=tol)
    except (ChiralityInconsistencyError, DegenerateGeometryError) as exc:
        # a loose --tolerance can call qubits regular whose chirality is undefined
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = report.to_json_dict()
    if args.format == "text":
        print(f"classes: {', '.join(report.classes)}")
        print(f"r: {fmt_number(report.r)}")
        print(f"chirality: {report.chirality_signature()}")
    else:
        render_json(payload)
    return 0


def cmd_invariants(args) -> int:
    basis = _basis(args)
    payload = invariant_fingerprint(basis).to_json_dict()
    if args.format == "text":
        for key, value in _formatted(payload).items():
            print(f"{key}: {value}")
    else:
        render_json(payload)
    return 0


def cmd_level(args) -> int:
    f = _poly(args)
    check_cap(args.cap)
    payload = {"polynomial": f.to_text(), "formula_level": diagonal_clifford_level(f)}
    if args.matrix:
        payload["matrix"] = measurement_level(f, args.cap, args.mode).to_json_dict()
    if args.format == "text":
        print(payload["formula_level"])
        if args.matrix:
            print(f"matrix level: {payload['matrix']['level']} (mode {args.mode})")
    else:
        render_json(payload)
    return 0


def _search_config(args) -> SearchConfig:
    if args.jobs != 1:
        raise ValueError("--jobs takes only 1: the search runs in one process")
    filters = args.filter if args.filter is not None else ["regular"]
    return SearchConfig(
        n=args.n,
        m=args.m,
        require_regular="regular" in filters,
        require_nonzero="nonzero" in filters,
        sample=args.sample,
        seed=args.seed,
    )


def cmd_search(args) -> int:
    hits = search_regular(_search_config(args))
    if args.format == "csv":
        sys.stdout.write(hits_csv(hits))
    elif args.format == "text":
        for hit in hits:
            print(f"{hit.key}  level={hit.level}  r={hit.fingerprint.r}")
        print(f"{len(hits)} hits")
    else:
        rows = [dict(zip(CSV_COLUMNS, hit_csv_row(h, p)))
                for h, p in zip(hits, conjugate_partner_key(hits, hits))]
        render_json({"n": args.n, "m": args.m, "hits": rows})
    return 0


def cmd_classify(args) -> int:
    cfg = _search_config(args)
    if cfg.n > 4:  # the documented cap: fail before the search, whatever it finds
        raise CapacityError(
            "classify supported for n <= 4: classes past n = 4 are not yet validated")
    records = group_into_classes(search_regular(cfg))  # the hits are freed before the output
    payload = {"n": args.n, "m": args.m, "classes": [r.to_json_dict() for r in records]}
    if args.format == "text":
        for record in records:
            fp = record.fingerprint
            print(f"class {record.key!r}: tangle={fp.tangle} r={fp.r} "
                  f"reps={len(record.representatives)} conjugate_of={record.conjugate_partner!r}")
        print(f"{len(records)} classes")
    else:
        render_json(payload)
    return 0


def cmd_witness(args) -> int:
    psi = build_fiducial(_poly(args))
    target = parse_polynomial(args.target, args.n, args.m)
    basis = orbit_basis(build_fiducial(target), build_tetra_group(args.n), target)
    witness = lc_equivalence_witness(psi, basis, allow_conjugation=args.conjugation)
    payload = {
        "poly": args.poly,
        "target": args.target,
        "witness": witness.to_json_dict() if witness is not None else None,
    }
    if args.format == "text":
        print("no witness" if witness is None else
              f"witness: cliffords {witness.clifford_indices} conjugated={witness.conjugated} "
              f"column={witness.column}")
    else:
        render_json(payload)
    return 0


def cmd_reproduce(args) -> int:
    suite = reproduce_suite(args.suite)
    if args.format == "json":
        render_json(suite.to_json_dict())
    elif args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["description", "expected", "actual", "tolerance", "pass"])
        for c in suite.checks:
            writer.writerow(_formatted(c.to_json_dict()).values())
        sys.stdout.write(out.getvalue())
    else:
        print(suite.format_text())
    return 0 if suite.passed else 1


_COMMANDS = {
    "build": cmd_build,
    "verify": cmd_verify,
    "geometry": cmd_geometry,
    "invariants": cmd_invariants,
    "level": cmd_level,
    "search": cmd_search,
    "classify": cmd_classify,
    "witness": cmd_witness,
    "reproduce": cmd_reproduce,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_defaults(parser, argv)
    except (OSError, ValueError) as exc:
        parser.exit(2, f"config error: {exc}\n")
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except PolynomialParseError as exc:
        print(f"polynomial error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
