"""Clifford-hierarchy levels: closed form for diagonal gates, recursive test for matrices.

The closed-form level of a diagonal gate is max over monomials of
(degree + m - 1 - v2(coefficient)); the recursive test decides membership
from the definition (U is at level k when every conjugated Pauli sits at
level k-1).  Conjugating by generators alone is exact for deciding levels
up to 3 because the Clifford group is closed under products; deciding level
k >= 4 soundly needs the full Pauli set at the outer layer, which is what
mode='full' adds.  The recursion bottoms out in a direct O(4^n) test of
whether a matrix is a phased Pauli string, read off its permutation support
and signs, with no Pauli expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .basisgen import build_tetra_group, check_orthonormal, measurement_unitary, orbit_basis
from .fiducial import PhasePolynomial, build_fiducial
from .qcore import is_unitary, num_qubits, parity_sign, pauli_matrix, phase_canonical_key

DEFAULT_CAP = 6
MODES = ("generator", "full")


def two_adic_valuation(c: int, m: int) -> int:
    """v2(c) for 0 < c < 2^m."""
    v = 0
    while c % 2 == 0:
        c //= 2
        v += 1
    return v


def diagonal_clifford_level(f: PhasePolynomial) -> int:
    """Hierarchy level of D_f: max over terms of |S| + m - 1 - v2(coeff), at least 1."""
    level = 1
    for mono, coeff in f.terms.items():
        level = max(level, len(mono) + f.m - 1 - two_adic_valuation(coeff, f.m))
    return level


def is_pauli_like(u: np.ndarray, tol: float = 1e-9) -> bool:
    """True when u is a unit phase times a Pauli string X^a Z^b, entrywise within tol.

    X^a Z^b |x> = (-1)^(b.x) |x xor a>, so u must be supported on the
    permutation x -> x xor a, with a read off column 0, a unit-modulus entry
    u[a, 0], and ratios u[x xor a, x] / u[a, 0] = (-1)^(b.x), with b read
    off at x = 2^k.  The check is O(4^n).
    """
    u = np.asarray(u, dtype=complex)
    n = num_qubits(u.shape[0])
    a = int(np.argmax(np.abs(u[:, 0])))
    pivot = u[a, 0]
    if abs(abs(pivot) - 1.0) > tol:
        return False
    x = np.arange(u.shape[0])
    powers = 1 << np.arange(n)
    b = int(powers[(u[a ^ powers, powers] / pivot).real < 0].sum())
    residual = u.copy()
    residual[x ^ a, x] -= pivot * parity_sign(x & b)
    return bool(np.max(np.abs(residual)) <= tol)


@dataclass(frozen=True)
class LevelResult:
    level: int | None  # None when the recursion passed the cap
    cap: int
    mode: str

    @property
    def exceeded(self) -> bool:
        return self.level is None

    def to_json_dict(self) -> dict:
        return {
            "level": "exceeds_cap" if self.level is None else self.level,
            "cap": self.cap,
            "mode": self.mode,
        }


# (x bit, z bit) of the letters I, X, Y, Z
_LETTER_BITS = ((0, 0), (1, 0), (1, 1), (0, 1))


def _generator_masks(n: int) -> list[tuple[int, int]]:
    """X then Z on each qubit, qubit 1 first."""
    return [mask for l in range(n) for mask in ((1 << (n - 1 - l), 0), (0, 1 << (n - 1 - l)))]


def _string_masks(n: int) -> list[tuple[int, int]]:
    """Every non-identity Pauli string, letters in lexicographic I < X < Y < Z order."""
    masks = []
    for letters in product(_LETTER_BITS, repeat=n):
        a = b = 0
        for x, z in letters:
            a, b = 2 * a + x, 2 * b + z
        masks.append((a, b))
    return masks[1:]


class _LevelEngine:
    """Recursive level computation with memoization on phase-canonical matrices."""

    def __init__(self, n: int, mode: str, cap: int, tol: float, full_layers: int):
        self.mode = mode
        self.cap = cap
        self.tol = tol
        self.full_layers = full_layers if mode == "full" else 0
        self.gen_mats = [pauli_matrix(n, a, b) for a, b in _generator_masks(n)]
        self.full_mats = [pauli_matrix(n, a, b) for a, b in _string_masks(n)]
        # memo: (layer class, matrix key) -> exact level, or -budget meaning
        # "exceeds this budget".  The layer class is min(depth, full_layers):
        # nodes at or below the last full layer all recurse with generators,
        # while each full layer has its own subtree shape
        self.memo: dict[tuple[int, bytes], int] = {}

    def level(self, u: np.ndarray, budget: int, depth: int) -> int | None:
        if is_pauli_like(u, self.tol):
            return 1
        if budget <= 1:
            return None
        layer = min(depth, self.full_layers)
        key = (layer, phase_canonical_key(u))
        cached = self.memo.get(key)
        if cached is not None:
            if cached > 0:
                return cached if cached <= budget else None
            if -cached >= budget:
                return None
        paulis = self.full_mats if depth < self.full_layers else self.gen_mats
        worst = 1
        udag = u.conj().T
        for p in paulis:
            sub = self.level(u @ p @ udag, budget - 1, depth + 1)
            if sub is None:
                self.memo[key] = min(self.memo.get(key, 0), -budget)
                return None
            worst = max(worst, sub)
        self.memo[key] = 1 + worst
        return 1 + worst


def clifford_level_test(u: np.ndarray, cap: int = DEFAULT_CAP, mode: str = "generator",
                        tol: float = 1e-9, full_layers: int = 1) -> LevelResult:
    """Recursive hierarchy-membership test up to a level cap.

    mode='generator' conjugates single-qubit X/Z generators at every layer;
    mode='full' uses all Pauli strings for the outermost ``full_layers``
    recursion layers (default 1) and generators below.
    """
    u = np.asarray(u, dtype=complex)
    n = num_qubits(u.shape[0])
    if not is_unitary(u, 1e-9):
        raise ValueError("input is not unitary")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if not 1 <= cap <= DEFAULT_CAP:
        raise ValueError(f"cap must lie in 1..{DEFAULT_CAP}, got {cap}")
    engine = _LevelEngine(n, mode, cap, tol, full_layers)
    return LevelResult(engine.level(u, cap, 0), cap, mode)


@dataclass(frozen=True)
class LevelBoundReport:
    polynomial: PhasePolynomial
    diagonal_level: int
    measurement_level: LevelResult
    ok: bool

    def to_json_dict(self) -> dict:
        return {
            "polynomial": self.polynomial.to_text(),
            "diagonal_level": self.diagonal_level,
            "measurement_level": self.measurement_level.to_json_dict(),
            "ok": self.ok,
        }


def verify_level_bound(f: PhasePolynomial, cap: int = DEFAULT_CAP, mode: str = "full",
                       full_layers: int = 1) -> LevelBoundReport:
    """Check level(M_psi) <= level(D_f) on the orbit basis of f.

    The implication holds for levels k >= 2 (the hierarchy statement starts
    at the Clifford group), so a Pauli diagonal gate still only promises a
    Clifford measurement unitary.
    """
    basis = orbit_basis(build_fiducial(f), build_tetra_group(f.n), f)
    if not check_orthonormal(basis).ok:
        raise ValueError("orbit basis of the polynomial is not orthonormal")
    k_diag = diagonal_clifford_level(f)
    result = clifford_level_test(measurement_unitary(basis), cap=cap, mode=mode,
                                 full_layers=full_layers)
    ok = result.level is not None and result.level <= max(k_diag, 2)
    return LevelBoundReport(f, k_diag, result, ok)
