"""Dense complex linear algebra and Pauli-string algebra for small qubit systems.

Conventions used throughout the package:

- qubit 1 is the most significant bit of a computational-basis index, so an
  n-qubit amplitude vector lists |00..0>, |00..1>, ..., |11..1> in order;
- states are 1-D complex ndarrays of length 2**n, operators are square
  complex ndarrays; dimensions are capped at 2**MAX_QUBITS.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

MAX_QUBITS = 6

EPS_NORM = 1e-10
EPS_UNITARY = 1e-10

PAULI_MATS = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# single-qubit products: (a, b) -> (phase, letter) with a @ b = phase * letter
_PAULI_TABLE = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("X", "X"): (1, "I"), ("X", "Y"): (1j, "Z"), ("X", "Z"): (-1j, "Y"),
    ("Y", "I"): (1, "Y"), ("Y", "X"): (-1j, "Z"), ("Y", "Y"): (1, "I"), ("Y", "Z"): (1j, "X"),
    ("Z", "I"): (1, "Z"), ("Z", "X"): (1j, "Y"), ("Z", "Y"): (-1j, "X"), ("Z", "Z"): (1, "I"),
}


class CapacityError(ValueError):
    """Requested object exceeds the 2**MAX_QUBITS dense-storage cap."""


def num_qubits(dim: int) -> int:
    """Number of qubits for a power-of-two dimension."""
    n = dim.bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def check_capacity(dim: int) -> None:
    if dim > 2**MAX_QUBITS:
        raise CapacityError(f"dimension {dim} exceeds cap 2**{MAX_QUBITS}")


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis with an overall phase in {1, i, -1, -i}."""

    letters: str
    phase: complex = 1

    def __post_init__(self):
        if not self.letters or any(c not in "IXYZ" for c in self.letters):
            raise ValueError(f"invalid Pauli letters {self.letters!r}")
        if self.phase not in (1, 1j, -1, -1j):
            raise ValueError(f"phase must be a fourth root of unity, got {self.phase!r}")

    @property
    def n(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "PauliString") -> "PauliString":
        return pauli_multiply(self, other)

    def to_matrix(self) -> np.ndarray:
        check_capacity(2**self.n)
        mat = np.array([[self.phase]], dtype=complex)
        for c in self.letters:
            mat = np.kron(mat, PAULI_MATS[c])
        return mat

    def commutes_with(self, other: "PauliString") -> bool:
        anti = sum(
            1
            for a, b in zip(self.letters, other.letters)
            if a != "I" and b != "I" and a != b
        )
        return anti % 2 == 0

    def __str__(self):
        pre = {1: "+", 1j: "+i", -1: "-", -1j: "-i"}[self.phase]
        return pre + self.letters


def pauli_multiply(p: PauliString, q: PauliString) -> PauliString:
    """Letter-wise product with tracked phase."""
    if p.n != q.n:
        raise ValueError(f"Pauli strings act on {p.n} vs {q.n} qubits")
    phase = p.phase * q.phase
    letters = []
    for a, b in zip(p.letters, q.letters):
        ph, c = _PAULI_TABLE[(a, b)]
        phase *= ph
        letters.append(c)
    return PauliString("".join(letters), phase)


def identity_string(n: int) -> PauliString:
    return PauliString("I" * n)


def all_pauli_letter_strings(n: int) -> list[str]:
    """All 4**n letter strings in lexicographic (I < X < Y < Z) order."""
    return ["".join(p) for p in product("IXYZ", repeat=n)]


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the left factor occupies the more significant bits."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != b.ndim or a.ndim not in (1, 2):
        raise ValueError("operands must both be states (1-D) or operators (2-D)")
    num_qubits(a.shape[0])
    num_qubits(b.shape[0])
    check_capacity(a.shape[0] * b.shape[0])
    return np.kron(a, b)


def kron_all(mats: list[np.ndarray]) -> np.ndarray:
    out = np.array([[1]], dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def basis_state(n: int, index: int) -> np.ndarray:
    vec = np.zeros(2**n, dtype=complex)
    vec[index] = 1.0
    return vec


def partial_trace(psi: np.ndarray, keep: set[int] | list[int] | tuple[int, ...]) -> np.ndarray:
    """Reduced density matrix of a pure state on the kept qubits (1-indexed, ascending)."""
    psi = np.asarray(psi, dtype=complex)
    n = num_qubits(psi.shape[0])
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("keep-set must be nonempty")
    if keep[0] < 1 or keep[-1] > n:
        raise ValueError(f"keep indices must lie in 1..{n}, got {keep}")
    keep_axes = [q - 1 for q in keep]
    rest_axes = [a for a in range(n) if a not in keep_axes]
    tensor = psi.reshape([2] * n).transpose(keep_axes + rest_axes)
    mat = tensor.reshape(2 ** len(keep_axes), 2 ** len(rest_axes))
    return mat @ mat.conj().T


def is_hermitian(m: np.ndarray, tol: float = EPS_UNITARY) -> bool:
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def is_unitary(m: np.ndarray, tol: float = EPS_UNITARY) -> bool:
    d = m.shape[0]
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(d))) <= tol)


def hermitian_eig(hm: np.ndarray, tol: float = EPS_UNITARY) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (real, descending) and matching eigenvector columns of a Hermitian matrix."""
    hm = np.asarray(hm, dtype=complex)
    if hm.shape[0] > 16:
        raise ValueError("hermitian_eig supports dimension <= 16")
    if not is_hermitian(hm, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(hm)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def apply_on_qubit(op: np.ndarray, psi: np.ndarray, qubit: int) -> np.ndarray:
    """Apply a single-qubit operator to one qubit (1-indexed) of a state."""
    n = num_qubits(psi.shape[0])
    axis = qubit - 1
    tensor = np.moveaxis(psi.reshape([2] * n), axis, 0)
    out = np.tensordot(op, tensor, axes=([1], [0]))
    return np.moveaxis(out, 0, axis).reshape(-1)


def phase_canonical_key(u: np.ndarray) -> bytes:
    """Matrix key invariant under global phase, rounded to 8 decimals."""
    flat = u.ravel()
    pivot = flat[np.argmax(np.abs(np.round(flat, 8)))]
    return (np.round(u * (abs(pivot) / pivot), 8) + 0.0).tobytes()
