"""Clifford-hierarchy levels: closed form for diagonal gates, recursive test for matrices.

The closed-form level of a diagonal gate is max over monomials of
(degree + m - 1 - v2(coefficient)) (Cui, Gottesman & Krishna, PRA 95,
012329, 2017).  It also gives the level of every measurement unitary.
M_psi of f's orbit basis is the fiducial circuit S(n) H_n D_f H^(x n)
entrywise: column g is U_g|psi>, S(n) H_n carries U_g onto the Z string
Z^g (the label order makes this the identity map on labels), Z^g commutes
with D_f, and Z^g H^(x n)|0> = H^(x n)|g>.  For k >= 2, level k is closed
under multiplication by Cliffords C on either side.  On the right,
(U C) P (U C)^dag = U (C P C^dag) U^dag, with C P C^dag a Pauli up to
phase.  On the left, (C U) P (C U)^dag = C (U P U^dag) C^dag, and level
k-1 is closed under Clifford conjugation, by induction from the Paulis.
M_psi is no Pauli: H_n leaves its column 0, the fiducial, with 2^(n-1) >= 2
pairs of amplitudes, at least one nonzero in each.  So
level(M_psi) = max(level(D_f), 2), which ``measurement_level`` returns
after checking the identity on M_psi itself.

The recursive test decides membership of any matrix from the definition:
a non-Pauli U is at level 1 + max over Paulis P of level(U P U^dag).  Its
outermost ``full_layers`` layers conjugate by every Pauli string, the
layers below by the 2n X/Z generators.  Testing fewer children can only
lower a level, so every returned level is a lower bound, and
``exceeds_cap`` always means the level exceeds the cap.  A generator layer
never reports a level <= 3 wrongly: if every generator's child U g U^dag
lies in C_j for j in {1, 2}, so does every Pauli's child, a product of
them up to phase, because C_1 and C_2 are groups (C_3 is not).  Each full
layer adds one, as it tests every Pauli's child.  So a returned level
<= full_layers + 3 is exact and a larger one a lower bound: one full layer
certifies levels up to 4, and level 5 needs two.  The recursion bottoms
out in a direct O(4^n) test of whether a matrix is a phased Pauli string,
read off its permutation support and signs, with no Pauli expansion.

Each expanded node handles its children as array blocks of up to
CHILD_BLOCK Paulis.  U P is a column gather times a sign vector, so a
block's children U P U^dag come from one stacked matmul; one stacked Pauli
test picks out the children at level 1, and one key pass keys the rest
that the coset skip below keeps.  Those are recursed into depth-first in Pauli order,
so a child that passes the budget still stops its node; only the rest of
its block was computed in vain.

A full layer expands one child per coset of K_U = {R : U R U^dag is a
phased Pauli}, the first in Pauli order.  For R in K_U, U (P R) U^dag =
+-(U P U^dag) S up to phase, with S = U R U^dag, and S g S^dag = +-g for
every Pauli g; so the children of U P R U^dag are those of U P U^dag up to
sign, in generator and full layers alike.  The memo keys are phase-canonical,
so the two subtrees, and the levels they give, are the same.  Only Paulis R
whose child was actually tested count as members of K_U, so every skip is
exact, and a cap miss still stops at its first over-budget child.  (A coset
can get a second child when the product of tested Paulis linking the two
was not tested itself yet.)  Generator layers skip nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .basisgen import build_tetra_group, measurement_unitary, orbit_basis
from .fiducial import PhasePolynomial, build_fiducial, fiducial_circuit
from .qcore import (
    EPS_NORM,
    check_capacity,
    is_unitary,
    num_qubits,
    parity_sign,
    phase_canonical_key,
    phase_canonical_keys,
)

DEFAULT_CAP = 6
CHILD_BLOCK = 16  # children conjugated, Pauli-tested and keyed per array pass
PAULI_TOL = 1e-9  # entrywise tolerance of the Pauli test


def two_adic_valuation(c: int) -> int:
    """v2(c), the exponent of the largest power of 2 dividing c > 0."""
    if c <= 0:
        raise ValueError(f"2-adic valuation needs a positive integer, got {c}")
    return (c & -c).bit_length() - 1


def diagonal_clifford_level(f: PhasePolynomial) -> int:
    """Hierarchy level of D_f: max over terms of |S| + m - 1 - v2(coeff), at least 1."""
    level = 1
    for mono, coeff in f.terms.items():
        level = max(level, len(mono) + f.m - 1 - two_adic_valuation(coeff))
    return level


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, locked against writes; cached tables are shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _pauli_indices(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Basis indices x, the powers 2^j < d, and the signs (-1)^popcount(b & x), row b."""
    x = np.arange(d)
    return _read_only(x, 1 << np.arange(num_qubits(d)), parity_sign(x[:, None] & x))


def pauli_like(stack: np.ndarray) -> np.ndarray:
    """Per matrix of a (k, d, d) stack, whether it is a unit phase times a Pauli string.

    X^a Z^b |x> = (-1)^(b.x) |x xor a>, so a matrix u must be supported on
    the permutation x -> x xor a, with a read off column 0, a unit-modulus
    entry u[a, 0], and ratios u[x xor a, x] / u[a, 0] = (-1)^(b.x), with b
    read off at x = 2^j.  Every entry must match within PAULI_TOL; the check
    is O(4^n) per matrix.
    """
    stack = np.asarray(stack, dtype=complex)
    x, powers, characters = _pauli_indices(stack.shape[1])
    rows = np.arange(len(stack))[:, None]
    support = np.argmax(np.abs(stack[:, :, 0]), axis=1)[:, None] ^ x
    on = stack[rows, support, x]  # u[x xor a, x]; column 0 holds the pivot u[a, 0]
    unit = np.abs(np.abs(on[:, 0]) - 1.0) <= PAULI_TOL
    if not unit.any():
        return unit
    # a non-unit pivot already fails; dividing by 1 instead keeps a zero pivot finite
    pivot = np.where(unit, on[:, 0], 1.0)[:, None]
    b = ((on[:, powers] / pivot).real < 0) @ powers
    residual = np.abs(stack)
    residual[rows, support, x] = np.abs(on - pivot * characters[b])
    return unit & (residual.max(axis=(1, 2)) <= PAULI_TOL)


def is_pauli_like(u: np.ndarray) -> bool:
    """True when u is a unit phase times a Pauli string X^a Z^b: ``pauli_like`` of one matrix."""
    return bool(pauli_like(np.asarray(u, dtype=complex)[None])[0])


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


@lru_cache(maxsize=None)
def _child_blocks(n: int, full: bool) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Packed masks, column gathers and signs of U -> U P, CHILD_BLOCK Paulis at a time.

    For P = Z^b X^a, (U P)[:, x] = s_P(x) U[:, x xor a] with
    s_P(x) = (-1)^popcount(b & (x xor a)), and P packs into (a << n) | b.
    The Paulis are those of one layer: every non-identity string when full,
    else the generators.
    """
    masks = np.array(_string_masks(n) if full else _generator_masks(n))
    x = np.arange(2**n)
    packed = (masks[:, 0] << n) | masks[:, 1]
    cols = masks[:, :1] ^ x
    signs = parity_sign(masks[:, 1:] & cols).astype(float)
    _read_only(packed, cols, signs)
    return tuple((packed[i:i + CHILD_BLOCK], cols[i:i + CHILD_BLOCK], signs[i:i + CHILD_BLOCK])
                 for i in range(0, len(masks), CHILD_BLOCK))


def _coset_firsts(inner: np.ndarray, masks: np.ndarray, kernel: set[int],
                  expanded: set[int]) -> list[int]:
    """The inner children P with no P xor R in expanded, R in kernel; adds them to expanded.

    kernel holds packed masks R of tested children at level 1, so the
    children of P and P xor R have the same level (see the module docstring).
    """
    firsts = []
    for i, p in zip(inner.tolist(), masks[inner].tolist()):
        if not any(p ^ r in expanded for r in kernel):
            expanded.add(p)
            firsts.append(i)
    return firsts


class _LevelEngine:
    """Recursive level computation with memoization on phase-canonical matrices.

    A node's children U P U^dag are built and Pauli-tested one block at a
    time.  In a full layer, a non-Pauli child U P U^dag is skipped before it
    is keyed when P xor Q is the mask of a tested Pauli child, for some child
    Q already expanded: P lies in Q's coset of K_U, whose children all have
    Q's level (see the module docstring).  The rest are keyed and recursed
    into in Pauli order, so the first child that passes the budget still
    ends the node.
    """

    def __init__(self, n: int, full_layers: int):
        self.n = n
        # flat index of row r of U: U.take(rows + cols) gathers columns cols
        self.rows = (np.arange(2**n) << n)[:, None]
        self.full_layers = full_layers
        # memo: (layer class, matrix key) -> exact level.  A node that passes
        # its budget is not stored: the None unwinds to the root, and the
        # engine serves one call.  The layer class is min(depth, full_layers):
        # nodes at or below the last full layer all recurse with generators,
        # while each full layer has its own subtree shape
        self.memo: dict[tuple[int, bytes], int] = {}

    def level(self, u: np.ndarray, budget: int) -> int | None:
        """Level of the root u, or None when it exceeds budget."""
        if is_pauli_like(u):
            return 1
        if budget <= 1:
            return None
        return self._expand(u, budget, 0, (0, phase_canonical_key(u)))

    def _expand(self, u: np.ndarray, budget: int, depth: int,
                key: tuple[int, bytes]) -> int | None:
        """Level of a non-Pauli u with budget >= 2, memoized under key."""
        cached = self.memo.get(key)
        if cached is not None:
            return cached if cached <= budget else None
        layer = min(depth + 1, self.full_layers)
        full = depth < self.full_layers
        udag = u.conj().T
        worst = 1
        # packed masks of the children expanded so far and, in a full layer
        # only, of the tested children at level 1; a generator layer skips none
        kernel: set[int] = set()
        expanded: set[int] = set()
        for masks, cols, signs in _child_blocks(self.n, full):
            children = (u.take(self.rows + cols[:, None, :]) * signs[:, None, :]) @ udag
            pauli = pauli_like(children)
            if full:
                kernel.update(masks[pauli].tolist())
            if budget <= 2 and not pauli.all():
                # a non-Pauli child would need level 1 to fit the budget
                return None
            inner = _coset_firsts(np.flatnonzero(~pauli), masks, kernel, expanded)
            if not inner:
                continue
            keys = phase_canonical_keys(children[inner].reshape(len(inner), -1))
            for i, child_key in zip(inner, keys):
                sub = self._expand(children[i], budget - 1, depth + 1, (layer, child_key))
                if sub is None:
                    return None
                worst = max(worst, sub)
        self.memo[key] = 1 + worst
        return 1 + worst


def check_cap(cap: int) -> None:
    """Reject a level cap outside 1..DEFAULT_CAP."""
    if not 1 <= cap <= DEFAULT_CAP:
        raise ValueError(f"cap must lie in 1..{DEFAULT_CAP}, got {cap}")


def clifford_level_test(u: np.ndarray, cap: int = DEFAULT_CAP,
                        full_layers: int = 0) -> LevelResult:
    """Recursive hierarchy-membership test up to a level cap.

    The outermost ``full_layers`` layers conjugate by every Pauli string, the
    layers below by the X/Z generators; the result's mode reads 'full' when
    full_layers >= 1.  A level <= full_layers + 3 is exact, a larger one a
    lower bound (see the module docstring).
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"input must be a square matrix, got shape {u.shape}")
    n = num_qubits(u.shape[0])
    check_capacity(u.shape[0])
    if not is_unitary(u):
        raise ValueError("input is not unitary")
    if full_layers < 0:
        raise ValueError(f"full_layers must be at least 0, got {full_layers}")
    check_cap(cap)
    mode = "full" if full_layers else "generator"
    return LevelResult(_LevelEngine(n, full_layers).level(u, cap), cap, mode)


@dataclass(frozen=True)
class LevelBoundReport:
    polynomial: PhasePolynomial
    diagonal_level: int
    measurement_level: LevelResult
    ok: bool


def _orbit_unitary(f: PhasePolynomial) -> np.ndarray:
    """M_psi of f's orbit basis, through the orthonormality check of ``measurement_unitary``."""
    return measurement_unitary(orbit_basis(build_fiducial(f), build_tetra_group(f.n), f))


def measurement_level(f: PhasePolynomial, cap: int = DEFAULT_CAP) -> int | None:
    """Level of M_psi on f's orbit basis, certified by the fiducial-circuit identity.

    M_psi must equal ``fiducial_circuit(f)`` entrywise within EPS_NORM, or an
    AssertionError names f; its level is then max(level(D_f), 2) (see the
    module docstring), with no recursion.  Returns None when that level
    exceeds cap.  ``verify_level_bound`` runs the recursive test that checks
    the certificate.
    """
    check_cap(cap)
    deviation = float(np.max(np.abs(_orbit_unitary(f) - fiducial_circuit(f))))
    if not deviation <= EPS_NORM:
        raise AssertionError(f"measurement unitary of {f.to_text()!r} is not its fiducial "
                             f"circuit (deviation {deviation:.3e})")
    level = max(diagonal_clifford_level(f), 2)
    return level if level <= cap else None


def verify_level_bound(f: PhasePolynomial) -> LevelBoundReport:
    """Check level(M_psi) <= max(level(D_f), 2) on the orbit basis of f, by the recursive test.

    The bound is an equality: M_psi is S(n) H_n D_f H^(x n), and levels
    k >= 2 are closed under Clifford multiplication on either side (see the
    module docstring), so a Pauli diagonal gate gives a Clifford measurement
    unitary and every other D_f gives M_psi its own level.  The recursion,
    one full layer at cap DEFAULT_CAP, checks ``measurement_level``
    independently but certifies levels up to 4 only: at 5 or 6, ``ok`` shows
    that it found nothing above the bound, not that the bound holds.
    """
    k_diag = diagonal_clifford_level(f)
    result = clifford_level_test(_orbit_unitary(f), full_layers=1)
    ok = result.level is not None and result.level <= max(k_diag, 2)
    return LevelBoundReport(f, k_diag, result, ok)
