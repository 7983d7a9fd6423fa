"""Phase polynomials over Z_{2^m} and the fiducial-state circuit built from them.

A polynomial f maps bit vectors (z1..zn) to Z_{2^m}; it seeds the diagonal
gate D_f with entries exp(2*pi*i*f(z)/2^m) and, through the staircase of
CNOTs, the fiducial state of a tetrahedral basis.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .qcore import check_capacity

MAX_PRECISION = 62  # polynomial values are int64 mod 2^m

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<z>z)|(?P<plus>\+)|(?P<star>\*))")


class PolynomialParseError(ValueError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class PhasePolynomial:
    """Integer polynomial f: Z_2^n -> Z_{2^m} stored as monomial -> coefficient.

    Monomials are frozensets of variable indices in 1..n; coefficients are kept
    reduced mod 2^m and zero coefficients are dropped.  Constant terms are not
    representable by construction.
    """

    n: int
    m: int
    terms: dict[frozenset[int], int] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one variable")
        if not 1 <= self.m <= MAX_PRECISION:
            raise ValueError(f"precision m must lie in 1..{MAX_PRECISION}, got {self.m}")
        mod = 2**self.m
        cleaned = {}
        for mono, coeff in self.terms.items():
            mono = frozenset(mono)
            if not mono:
                raise ValueError("constant terms are not allowed")
            if min(mono) < 1 or max(mono) > self.n:
                raise ValueError(f"monomial {sorted(mono)} outside variables 1..{self.n}")
            coeff %= mod
            if coeff:
                cleaned[mono] = coeff
        object.__setattr__(self, "terms", cleaned)

    def __hash__(self):
        return hash((self.n, self.m, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms ordered lexicographically by monomial index tuple."""
        return sorted(((tuple(sorted(s)), c) for s, c in self.terms.items()))

    def to_text(self) -> str:
        """Canonical text form, e.g. '3 z1 z3 + z2 z3 + 3 z1 z2 z3'."""
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            factors = " ".join(f"z{i}" for i in mono)
            parts.append(factors if coeff == 1 else f"{coeff} {factors}")
        return " + ".join(parts)

    def negated(self) -> "PhasePolynomial":
        """Polynomial of the conjugated diagonal gate: all coefficients negated mod 2^m."""
        return PhasePolynomial(self.n, self.m, {s: -c for s, c in self.terms.items()})


def parse_polynomial(text: str, n: int, m: int) -> PhasePolynomial:
    """Parse 'coeff z_i z_j + ...' text into a PhasePolynomial.

    Grammar: poly := term ('+' term)*; term := [coeff] factor+;
    factor := 'z' index with optional '*' separators; whitespace-insensitive.
    Repeated variables collapse (z^2 = z over Z_2) and like monomials merge
    mod 2^m.  '0' denotes the empty polynomial.
    """
    if text.strip() == "0":
        return PhasePolynomial(n, m, {})
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            bad = len(text) - len(text[pos:].lstrip())
            raise PolynomialParseError(f"unexpected character {text[bad]!r}", bad)
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()

    terms: dict[frozenset[int], int] = {}
    i = 0

    def parse_term(i: int) -> int:
        coeff = 1
        if i < len(tokens) and tokens[i][0] == "int":
            coeff = int(tokens[i][1])
            i += 1
        mono: set[int] = set()
        saw_factor = False
        while i < len(tokens):
            kind, _, tpos = tokens[i]
            if kind == "star":
                i += 1
                continue
            if kind != "z":
                break
            i += 1
            if i >= len(tokens) or tokens[i][0] != "int":
                raise PolynomialParseError("expected index after 'z'", tpos)
            idx = int(tokens[i][1])
            if not 1 <= idx <= n:
                raise PolynomialParseError(f"variable index {idx} outside 1..{n}", tokens[i][2])
            mono.add(idx)
            saw_factor = True
            i += 1
        if not saw_factor:
            where = tokens[i][2] if i < len(tokens) else len(text)
            raise PolynomialParseError("term has no variables (constant terms rejected)", where)
        key = frozenset(mono)
        terms[key] = terms.get(key, 0) + coeff
        return i

    if not tokens:
        raise PolynomialParseError("empty polynomial text", 0)
    i = parse_term(i)
    while i < len(tokens):
        if tokens[i][0] != "plus":
            raise PolynomialParseError(f"expected '+', got {tokens[i][1]!r}", tokens[i][2])
        i = parse_term(i + 1)
    return PhasePolynomial(n, m, terms)


def evaluate_polynomial(f: PhasePolynomial, z: tuple[int, ...] | list[int]) -> int:
    """f(z) mod 2^m for a bit vector of length n."""
    if len(z) != f.n:
        raise ValueError(f"expected {f.n} bits, got {len(z)}")
    total = 0
    for mono, coeff in f.terms.items():
        if all(z[i - 1] for i in mono):
            total += coeff
    return total % 2**f.m


def polynomial_values(f: PhasePolynomial) -> np.ndarray:
    """f over all 2^n inputs, indexed with z1 as the most significant bit."""
    idx = np.arange(2**f.n)
    vals = np.zeros(2**f.n, dtype=np.int64)
    for mono, coeff in f.terms.items():
        mask = sum(1 << (f.n - i) for i in mono)
        vals += coeff * ((idx & mask) == mask)
    return vals % 2**f.m


def diagonal_gate(f: PhasePolynomial) -> np.ndarray:
    """D_f = diag(exp(2*pi*i*f(z)/2^m)) in computational order."""
    check_capacity(2**f.n)
    return np.diag(np.exp(2j * np.pi * polynomial_values(f) / 2**f.m))


def apply_cnot(psi: np.ndarray, n: int, control: int, target: int) -> np.ndarray:
    """CNOT on a state vector: flips the target bit where the control bit is 1."""
    idx = np.arange(2**n)
    cbit = (idx >> (n - control)) & 1
    flipped = idx ^ (cbit << (n - target))
    out = np.empty_like(psi)
    out[flipped] = psi[idx]
    return out


@lru_cache(maxsize=None)
def _staircase_index(n: int) -> np.ndarray:
    """The CNOT staircase as a gather index: output entry x is input entry index[x]."""
    index = np.arange(2**n)
    for control in range(n, 1, -1):
        index = apply_cnot(index, n, control, control - 1)
    return index


def staircase_circuit(n: int) -> np.ndarray:
    """S(n) = CNOT(2->1) ... CNOT(n->n-1) as a permutation matrix; S(1) = identity."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_capacity(2**n)
    return np.eye(2**n, dtype=complex)[_staircase_index(n)]


HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def build_fiducials(values: np.ndarray, n: int, m: int) -> np.ndarray:
    """Fiducial states S(n) H_n D_f H^(x n) |0..0> as (B, 2^n) rows.

    Row b of ``values`` is f_b over all 2^n inputs, in ``polynomial_values``
    order; H_n acts on qubit n only.
    """
    check_capacity(2**n)
    psi = 2 ** (-n / 2) * np.exp(2j * np.pi * values / 2**m)
    psi = (psi.reshape(-1, 2) @ HADAMARD.T).reshape(len(values), -1)  # H on qubit n
    return psi[:, _staircase_index(n)]


def build_fiducial(f: PhasePolynomial) -> np.ndarray:
    """Fiducial state of one polynomial: the one-row case of ``build_fiducials``."""
    return build_fiducials(polynomial_values(f)[None], f.n, f.m)[0]


def fiducial_circuit(f: PhasePolynomial) -> np.ndarray:
    """The dense circuit S(n) H_n D_f H^(x n); column 0 is ``build_fiducial(f)``.

    H^(x n)|c> = 2^(-n/2) sum_x (-1)^(c.x) |x> and -1 = exp(2 pi i 2^(m-1) / 2^m),
    so column c is the fiducial of f + 2^(m-1) sum_{i in c} z_i: one
    ``build_fiducials`` call over the 2^n shifted value rows.
    """
    check_capacity(2**f.n)
    x = np.arange(2**f.n)
    parities = (np.bitwise_count(x[:, None] & x) & 1).astype(np.int64)  # c.x mod 2, row c
    values = polynomial_values(f) + 2 ** (f.m - 1) * parities
    return build_fiducials(values % 2**f.m, f.n, f.m).T
