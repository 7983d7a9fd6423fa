"""Dense complex linear algebra and Pauli operators for small qubit systems.

Conventions used throughout the package:

- qubit 1 is the most significant bit of a computational-basis index, so an
  n-qubit amplitude vector lists |00..0>, |00..1>, ..., |11..1> in order;
- states are 1-D complex ndarrays of length 2**n, operators are square
  complex ndarrays; dimensions are capped at 2**MAX_QUBITS;
- a Pauli operator is a pair of bit masks (a, b) in the same bit order,
  standing for Z^b X^a (the binary stabilizer-formalism form).
"""

from __future__ import annotations

import numpy as np

MAX_QUBITS = 6

EPS_NORM = 1e-10
EPS_HERMITIAN = 1e-10
EPS_UNITARY = 1e-9
PIVOT_TIE = 1e-9  # moduli this close count as tied when picking a key's pivot

PAULI_MATS = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
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


def parity_sign(v: np.ndarray) -> np.ndarray:
    """(-1)^popcount(v), entrywise, for non-negative integer masks."""
    return np.where(np.bitwise_count(v) & 1, -1, 1)


def pauli_matrix(n: int, x_mask: int, z_mask: int) -> np.ndarray:
    """Dense Z^z_mask X^x_mask on n qubits, mask bits in basis-index order.

    A Pauli operator is the pair of masks (a, b) of the qubits carrying an X
    and a Z factor; Z^b X^a |x> = (-1)^popcount(b & (x xor a)) |x xor a>.
    """
    dim = 2**n
    check_capacity(dim)
    if not (0 <= x_mask < dim and 0 <= z_mask < dim):
        raise ValueError(f"Pauli masks must lie in 0..{dim - 1}, got ({x_mask}, {z_mask})")
    x = np.arange(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[x ^ x_mask, x] = parity_sign(z_mask & (x ^ x_mask))
    return mat


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


def is_hermitian(m: np.ndarray) -> bool:
    return bool(np.max(np.abs(m - m.conj().T)) <= EPS_HERMITIAN)


def is_unitary(m: np.ndarray) -> bool:
    d = m.shape[0]
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(d))) <= EPS_UNITARY)


def hermitian_eig(hm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (real, descending) and matching eigenvector columns of a Hermitian matrix."""
    hm = np.asarray(hm, dtype=complex)
    if hm.shape[0] > 16:
        raise ValueError("hermitian_eig supports dimension <= 16")
    if not is_hermitian(hm):
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


def _round8(a: np.ndarray) -> np.ndarray:
    """np.round(a, 8) of a C-contiguous complex array, on its float view.

    Complex rounding is componentwise, so the bits are the same; the float
    path skips numpy's slower complex one, which the level test's memo keys
    would pay on every node.
    """
    return np.round(a.view(np.float64), 8).view(np.complex128)


def phase_canonical_keys(rows: np.ndarray) -> list[bytes]:
    """Per row of a 2-D complex array, a key invariant under that row's global phase.

    Each row is divided by the phase of its pivot and rounded to 8 decimals.
    The pivot is the first entry whose modulus is within PIVOT_TIE of the
    row's largest.  The moduli are compared before any rounding, so among
    entries of equal modulus the pivot does not depend on the row's phase.
    """
    rows = np.ascontiguousarray(rows, dtype=complex)
    mags = np.abs(rows)
    tied = mags >= mags.max(axis=1, keepdims=True) - PIVOT_TIE
    pivots = rows[np.arange(len(rows)), np.argmax(tied, axis=1)]
    # + 0.0 turns a rounded -0.0 into 0.0
    keys = _round8(rows * (np.abs(pivots) / pivots)[:, None]) + 0.0
    return [row.tobytes() for row in keys]


def phase_canonical_key(u: np.ndarray) -> bytes:
    """Matrix key invariant under global phase, rounded to 8 decimals."""
    return phase_canonical_keys(u.reshape(1, -1))[0]
