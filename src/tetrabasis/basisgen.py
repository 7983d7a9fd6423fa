"""Tetrahedral symmetry group, orbit bases, and the reference two-qubit EJM."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fiducial import PhasePolynomial
from .qcore import EPS_NORM, check_capacity, num_qubits, parity_sign

# Regular tetrahedron vertices on the Bloch sphere, canonical order.
TETRAHEDRON_VERTICES = np.array(
    [
        [1, 1, 1],
        [1, -1, -1],
        [-1, 1, -1],
        [-1, -1, 1],
    ],
    dtype=float,
) / np.sqrt(3)


class NonOrthonormalBasisError(RuntimeError):
    """Operation requires an orthonormal basis but the orbit is degenerate."""


@dataclass(frozen=True)
class TetraGroup:
    """Abelian order-2^n Pauli group generated by Z(i)Z(i+1) and X^(x n).

    Label g, with bits g1..gn (g1 most significant), names the ordered
    generator product (Z1Z2)^g1 ... (Z(n-1)Zn)^g(n-1) (X^n)^gn, which is
    exactly Z^b X^a with ``x_masks[g]`` = a = (2^n - 1) * gn and
    ``z_masks[g]`` = b = (g & ~1) xor (g >> 1), qubit 1 the most
    significant mask bit.
    """

    n: int
    x_masks: tuple[int, ...]
    z_masks: tuple[int, ...]

    def __post_init__(self):
        if not len(self.x_masks) == len(self.z_masks) == 2**self.n:
            raise ValueError("group must have 2^n elements")


@lru_cache(maxsize=None)
def build_tetra_group(n: int) -> TetraGroup:
    """Construct G_tetra for n >= 2 qubits with the canonical phase convention."""
    if n < 2:
        raise ValueError("tetrahedral group needs n >= 2")
    check_capacity(2**n)
    labels = range(2**n)
    return TetraGroup(n, tuple((2**n - 1) * (g & 1) for g in labels),
                      tuple((g & ~1) ^ (g >> 1) for g in labels))


@dataclass(frozen=True)
class Basis:
    """2^n columns, column g = U_g |fiducial> under the canonical label order."""

    n: int
    columns: np.ndarray  # (2^n, 2^n), column j is basis state j
    fiducial: np.ndarray
    group: TetraGroup | None = None
    polynomial: PhasePolynomial | None = None

    def column(self, g: int) -> np.ndarray:
        return self.columns[:, g]

    @property
    def size(self) -> int:
        return self.columns.shape[1]


def orbit_basis(psi: np.ndarray, group: TetraGroup,
                polynomial: PhasePolynomial | None = None) -> Basis:
    """Orbit { U_g |psi> } as a basis; orthonormality is not assumed here."""
    psi = np.asarray(psi, dtype=complex)
    if num_qubits(psi.shape[0]) != group.n:
        raise ValueError("state dimension does not match group qubit count")
    return Basis(group.n, orbit_columns(psi[None], group)[0], psi, group, polynomial)


def orbit_columns(states: np.ndarray, group: TetraGroup) -> np.ndarray:
    """(B, 2^n, 2^n): the orbit basis columns of each fiducial row of (B, 2^n) states.

    Entry x of column g is (-1)^popcount(b_g & x) psi[x xor a_g].
    """
    x = np.arange(2**group.n)[:, None]
    signs = parity_sign(x & np.array(group.z_masks))
    # + 0.0 turns the -0.0 of a negated zero amplitude into 0.0
    return states[:, x ^ np.array(group.x_masks)] * signs + 0.0


@dataclass(frozen=True)
class OrthonormalityReport:
    ok: bool
    max_violation: float


def check_orthonormal(basis: Basis, tol: float = EPS_NORM) -> OrthonormalityReport:
    """Orthonormality check; for orbit bases this reduces to fiducial overlaps.

    For a Pauli-group orbit, <col_g|col_h> equals a unit phase times
    <psi|U_(g xor h)|psi>, so the fiducial overlaps carry the whole Gram matrix.
    """
    violation = abs(np.linalg.norm(basis.fiducial) - 1.0)
    if basis.group is not None:
        psi = basis.fiducial
        for g in range(1, basis.size):
            overlap = abs(np.vdot(psi, basis.column(g)))
            violation = max(violation, overlap)
    else:
        gram = basis.columns.conj().T @ basis.columns
        violation = max(violation, float(np.max(np.abs(gram - np.eye(basis.size)))))
    violation = float(violation)
    return OrthonormalityReport(ok=bool(violation <= tol), max_violation=violation)


def measurement_unitary(basis: Basis) -> np.ndarray:
    """M with M|g> = U_g|psi>; requires an orthonormal basis."""
    report = check_orthonormal(basis)
    if not report.ok:
        raise NonOrthonormalBasisError(
            f"basis is not orthonormal (violation {report.max_violation:.3e})"
        )
    return basis.columns.copy()


def bloch_state(direction: np.ndarray, sign: int = +1) -> np.ndarray:
    """Qubit eigenstate along a unit Bloch vector (+1) or its antipode (-1)."""
    direction = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(direction) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")
    mx, my, mz = direction
    theta = np.arccos(np.clip(mz, -1.0, 1.0))
    phi = np.arctan2(my, mx)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    if sign > 0:
        return np.array([c, s * np.exp(1j * phi)], dtype=complex)
    return np.array([s, -c * np.exp(1j * phi)], dtype=complex)


def ejm_reference_basis() -> Basis:
    """The literature two-qubit EJM: column i is a superposition of |m_i,-m_i> and |-m_i,m_i>."""
    a = (np.sqrt(3) + 1) / (2 * np.sqrt(2))
    b = (np.sqrt(3) - 1) / (2 * np.sqrt(2))
    cols = np.empty((4, 4), dtype=complex)
    for i, m in enumerate(TETRAHEDRON_VERTICES):
        plus = bloch_state(m, +1)
        minus = bloch_state(m, -1)
        cols[:, i] = a * np.kron(plus, minus) + b * np.kron(minus, plus)
    return Basis(2, cols, cols[:, 0].copy())


def bases_equal_up_to_relabeling(b1: np.ndarray, b2: np.ndarray) -> bool:
    """True when the column sets match up to a permutation and per-column phases, within 1e-10."""
    if b1.shape != b2.shape:
        return False
    overlaps = np.abs(b2.conj().T @ b1)
    used = set()
    for j in range(b1.shape[1]):
        matches = [k for k in range(b2.shape[1]) if overlaps[k, j] >= 1 - 1e-10]
        matches = [k for k in matches if k not in used]
        if not matches:
            return False
        used.add(matches[0])
    return True
