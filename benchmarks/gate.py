"""Correctness gate: every CLI operation the benchmark runs is checked.

An operation with a recorded reference passes when its stdout sha256 and exit
code equal the recorded ones.  An operation without one (a seed whose
digests were not shipped) is verified independently through the library's
reference path: a search must list exactly the all-regular polynomials of its
sample, re-drawn here from the seed, and every returned witness, applied with
``Witness.apply``, must reproduce its target column up to phase.  Outputs
that only a reference can vouch for, such as ``reproduce appD`` and its
documented exit 1, fail without one.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

import numpy as np

from tetrabasis.basisgen import build_tetra_group, orbit_basis
from tetrabasis.cli import CSV_COLUMNS
from tetrabasis.fiducial import PhasePolynomial, build_fiducial, parse_polynomial
from tetrabasis.geometry import basis_bloch_table, classify_geometry
from tetrabasis.hierarchy import diagonal_clifford_level
from tetrabasis.search import Witness

WITNESS_TOL = 1e-6


@dataclass(frozen=True)
class Operation:
    """One CLI call of a workload pass, with what it must produce."""

    argv: tuple[str, ...]
    expected_exit: int = 0
    verify: Callable[[str], bool] = field(default=lambda stdout: False, compare=False)

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


class Gate:
    """Checks operation results against recorded digests or independent checks."""

    def __init__(self, reference: dict[str, dict]):
        self.reference = reference
        self._verdicts: dict[tuple[str, str, int | None], bool] = {}

    def check(self, op: Operation, exit_code: int | None, stdout: str) -> bool:
        """True when the operation succeeded; exit_code None means it raised."""
        if exit_code is None:
            return False
        key = (op.label, digest(stdout), exit_code)
        if key not in self._verdicts:
            self._verdicts[key] = self._judge(op, key[1], exit_code, stdout)
        return self._verdicts[key]

    def _judge(self, op: Operation, sha: str, exit_code: int, stdout: str) -> bool:
        ref = self.reference.get(op.label)
        if ref is not None:
            return ref["sha256"] == sha and ref["exit"] == exit_code
        if exit_code != op.expected_exit:
            return False
        try:
            return bool(op.verify(stdout))
        except (ValueError, KeyError, TypeError, IndexError):
            return False


# ---------------------------------------------------------------------------
# independent verification through the library's reference path


def reference_basis(f: PhasePolynomial):
    return orbit_basis(build_fiducial(f), build_tetra_group(f.n), f)


def is_regular(f: PhasePolynomial) -> bool:
    return classify_geometry(basis_bloch_table(reference_basis(f))).all_regular


def sampled_polynomials(n: int, m: int, sample: int, seed: int) -> list[PhasePolynomial]:
    """The candidates of ``search --sample``, in draw order.

    Distinct coefficient tuples drawn from ``numpy.random.default_rng(seed)``
    over the monomials of degree >= 2 in lexicographic order.
    """
    monos = sorted(c for size in range(2, n + 1) for c in combinations(range(1, n + 1), size))
    rng = np.random.default_rng(seed)
    drawn: dict[tuple[int, ...], None] = {}
    while len(drawn) < min(sample, (2**m) ** len(monos)):
        drawn.setdefault(tuple(int(c) for c in rng.integers(0, 2**m, len(monos))))
    return [PhasePolynomial(n, m, {frozenset(s): c for s, c in zip(monos, coeffs) if c})
            for coeffs in drawn]


def witness_maps(witness: dict, source_poly: str, target_poly: str, n: int, m: int) -> bool:
    """The witness carries the source fiducial onto its target column up to phase."""
    w = Witness(tuple(witness["clifford_indices"]), bool(witness["conjugated"]),
                int(witness["column"]), complex(*witness["phase"]))
    image = w.apply(build_fiducial(parse_polynomial(source_poly, n, m)))
    column = reference_basis(parse_polynomial(target_poly, n, m)).column(w.column)
    return abs(abs(np.vdot(column, image)) - 1.0) <= WITNESS_TOL


def verify_search_csv(n: int, m: int, sample: int, seed: int) -> Callable[[str], bool]:
    """The CSV lists every all-regular sampled candidate, and only those, in draw order."""
    def verify(stdout: str) -> bool:
        rows = list(csv.reader(io.StringIO(stdout)))
        if not rows or rows[0] != CSV_COLUMNS:
            return False
        if any(len(row) != len(CSV_COLUMNS) for row in rows[1:]):
            return False
        sampled = sampled_polynomials(n, m, sample, seed)
        regular = [f.to_text() for f in sampled if is_regular(f)]
        return [row[0] for row in rows[1:]] == regular
    return verify


def verify_classify_json(n: int, m: int) -> Callable[[str], bool]:
    def verify(stdout: str) -> bool:
        payload = json.loads(stdout)
        for record in payload["classes"]:
            reps = record["representatives"]
            if not reps or not all(is_regular(parse_polynomial(p, n, m)) for p in reps):
                return False
            for member, witness in record["witnesses"].items():
                if witness["conjugated"] or not witness_maps(witness, member, reps[0], n, m):
                    return False
        return True
    return verify


def verify_witness(poly: str, target: str, n: int, m: int,
                   must_find: bool | None) -> Callable[[str], bool]:
    """must_find: True/False when the answer is known in advance, None otherwise."""
    def verify(stdout: str) -> bool:
        witness = json.loads(stdout)["witness"]
        if witness is None:
            return must_find is not True
        return must_find is not False and witness_maps(witness, poly, target, n, m)
    return verify


def verify_geometry_regular(stdout: str) -> bool:
    return all(c == "regular_tetrahedron" for c in json.loads(stdout)["class"])


def verify_invariants(n: int) -> Callable[[str], bool]:
    def verify(stdout: str) -> bool:
        payload = json.loads(stdout)
        return (len(payload["concurrence_sq"]) == n * (n - 1) // 2
                and isinstance(payload["stab_order"], int))
    return verify


def verify_level(poly: str, n: int, m: int) -> Callable[[str], bool]:
    """Closed-form level matches, and the matrix level obeys level(M) <= max(level(D), 2)."""
    def verify(stdout: str) -> bool:
        payload = json.loads(stdout)
        formula = diagonal_clifford_level(parse_polynomial(poly, n, m))
        level = payload["matrix"]["level"]
        return (payload["formula_level"] == formula and isinstance(level, int)
                and level <= max(formula, 2))
    return verify


def verify_suite_passed(suite: str) -> Callable[[str], bool]:
    def verify(stdout: str) -> bool:
        return stdout.rstrip("\n").endswith(f"suite {suite}: PASS")
    return verify
