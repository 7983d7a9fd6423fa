"""Bloch-vector extraction and classification of the local basis geometry.

The group orbit constrains each qubit's marginals to an even-sign-change
family (a disphenoid vertex set); classification decides whether that set is
a regular tetrahedron, a planar rectangle, a line, or degenerate, and
compares handedness between qubits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .basisgen import Basis, bloch_state
from .qcore import EPS_UNITARY, PAULI_MATS, apply_on_qubit, is_unitary, num_qubits, partial_trace

EPS_GEO = 1e-8

GEOMETRY_CLASSES = (
    "regular_tetrahedron",
    "disphenoid",
    "planar_rectangle",
    "collinear",
    "degenerate",
)


class DegenerateGeometryError(RuntimeError):
    """Bloch table does not span enough directions for the requested map."""


class ChiralityInconsistencyError(RuntimeError):
    """No single orthogonal map aligns the two qubits' Bloch tables."""


def bloch_vector(psi: np.ndarray, qubit: int) -> np.ndarray:
    """(<X>, <Y>, <Z>) of one qubit of a pure state."""
    rho = partial_trace(psi, {qubit})
    return np.array(
        [np.trace(rho @ PAULI_MATS[p]).real for p in ("X", "Y", "Z")]
    )


# Bloch-space action of conjugating by I, X, Y, Z: even sign changes.
_PAULI_FLIPS = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
)


def basis_bloch_table(basis: Basis) -> np.ndarray:
    """Array of shape (n, 2^n, 3): Bloch vector of qubit l in basis column g."""
    table = np.empty((basis.n, basis.size, 3))
    for g in range(basis.size):
        col = basis.column(g)
        for l in range(basis.n):
            table[l, g] = bloch_vector(col, l + 1)
    return table


def orbit_bloch_table(basis: Basis) -> np.ndarray:
    """``basis_bloch_table`` of an orbit basis from the fiducial's n Bloch vectors.

    Column g is U_g|psi> with U_g = Z^b X^a, so its qubit-l marginal is the
    fiducial's conjugated by qubit l's factor, an even sign flip of v_l:
    ((-1)^b, (-1)^(a xor b), (-1)^a) from that qubit's mask bits a, b.
    """
    if basis.group is None:
        raise ValueError("the orbit Bloch table needs the basis's group")
    vectors = np.array([bloch_vector(basis.fiducial, l) for l in range(1, basis.n + 1)])
    shifts = np.arange(basis.n - 1, -1, -1)[:, None]
    a = (np.array(basis.group.x_masks) >> shifts) & 1  # (n, 2^n)
    b = (np.array(basis.group.z_masks) >> shifts) & 1
    return vectors[:, None, :] * (1 - 2 * np.stack([b, a ^ b, a], axis=-1))


@dataclass(frozen=True)
class GeometryReport:
    classes: tuple[str, ...]            # per qubit
    lengths: tuple[float, ...]          # per qubit common Bloch length
    r: float | None                     # shared length when all qubits agree
    lines: tuple[tuple[tuple[float, float, float], ...], ...]  # per qubit direction lines
    chirality: dict[tuple[int, int], int | None]               # (k, l) with k < l -> sign
    nonzero_components: bool

    @property
    def all_regular(self) -> bool:
        return all(c == "regular_tetrahedron" for c in self.classes)

    def chirality_signature(self) -> str:
        """Pair signs sorted to a canonical string, '?' for undefined pairs."""
        marks = []
        for sign in self.chirality.values():
            marks.append("?" if sign is None else ("+" if sign > 0 else "-"))
        return "".join(sorted(marks))

    def to_json_dict(self) -> dict:
        return {
            "class": list(self.classes),
            "r": self.r,
            "lines": [[list(v) for v in qubit_lines] for qubit_lines in self.lines],
            "chirality": {f"{k},{l}": s for (k, l), s in self.chirality.items()},
            "nonzero_components": self.nonzero_components,
        }


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    for comp in v:
        if abs(comp) > 1e-12:
            return v if comp > 0 else -v
    return v


def classify_geometry(table: np.ndarray, tol: float = EPS_GEO) -> GeometryReport:
    """Per-qubit geometry class, common length, direction lines, and pair chirality.

    A qubit whose row is not the sign-flip orbit of its column-0 vector v
    (within tol) is degenerate.  Otherwise the class follows from the zero
    and equal magnitudes of v, and the lines are the distinct sign flips of
    v/|v| in order of first appearance over the columns.  Components of v
    within tol of zero are taken as exact zeros.
    """
    n = table.shape[0]
    anchors = np.where(np.abs(table[:, 0]) <= tol, 0.0, table[:, 0])
    lengths = np.linalg.norm(anchors, axis=1)
    classes = []
    all_lines = []
    for l in range(n):
        v = anchors[l]
        labels = _flip_labels(table[l], tol)
        zeros = int(np.count_nonzero(v == 0.0))
        if labels is None or zeros == 3:
            classes.append("degenerate")
            all_lines.append(())
            continue
        if zeros == 0:
            regular = np.ptp(np.abs(v)) <= tol
            classes.append("regular_tetrahedron" if regular else "disphenoid")
        else:
            classes.append("planar_rectangle" if zeros == 1 else "collinear")
        # + 0.0 turns the -0.0 of a flipped zero component into 0.0
        flips = [tuple((_canonical_sign(v / lengths[l] * f) + 0.0).tolist())
                 for f in _PAULI_FLIPS]
        all_lines.append(tuple(dict.fromkeys(flips[g] for g in labels.tolist())))

    lengths = lengths.tolist()
    spread = max(lengths) - min(lengths)
    r = float(np.mean(lengths)) if spread <= max(tol, 1e-9) else None

    chirality: dict[tuple[int, int], int | None] = {}
    for k, l in combinations(range(1, n + 1), 2):
        if classes[k - 1] == classes[l - 1] == "regular_tetrahedron":
            chirality[(k, l)] = relational_chirality(table, k, l, tol)[0]
        else:
            chirality[(k, l)] = None

    return GeometryReport(
        classes=tuple(classes),
        lengths=tuple(lengths),
        r=r,
        lines=tuple(all_lines),
        chirality=chirality,
        nonzero_components=bool(np.min(np.abs(table)) > tol),
    )


def _flip_labels(vectors: np.ndarray, tol: float) -> np.ndarray | None:
    """Per column, the index of the sign flip of column 0 that it lies on.

    Indexes ``_PAULI_FLIPS``; None when some column is farther than tol from
    all four flips, so the row is not the orbit of its first vector.
    """
    dist = np.linalg.norm(vectors[:, None, :] - vectors[0] * _PAULI_FLIPS, axis=2)
    if np.max(np.min(dist, axis=1)) > tol:
        return None
    return np.argmin(dist, axis=1)


def _labeled_vertices(vectors: np.ndarray, tol: float) -> np.ndarray:
    """The qubit's tetra vertices labeled by the group's local Pauli action.

    Column 0 of the table is the fiducial (group label 0), so its vector
    anchors the orbit; the group acts locally as Pauli conjugations, whose
    Bloch action is the even-sign-change family.  Every table vector must lie
    on that anchored orbit.
    """
    if _flip_labels(vectors, max(tol, 1e-7)) is None:
        raise ChiralityInconsistencyError(
            "Bloch table does not carry the sign-change orbit structure"
        )
    return vectors[0] * _PAULI_FLIPS


def relational_chirality(table: np.ndarray, k: int, l: int,
                         tol: float = EPS_GEO) -> tuple[int, np.ndarray]:
    """Orthogonal map aligning the two qubits' group-labeled tetra, and its det sign.

    O carries qubit k's vertex for each local Pauli label onto qubit l's
    vertex for the same label; a -1 sign means mirrored tetrahedra.  Vertices
    are normalized first, so tetra of different sizes compare by shape alone.
    Both vertex sets are the sign flips of their label-I vertices u_k and
    u_l, so O = diag(u_l / u_k) and its sign is that of prod(u_l / u_k).
    """
    uk = _labeled_vertices(table[k - 1], tol)[0]
    ul = _labeled_vertices(table[l - 1], tol)[0]
    nk, nl = np.linalg.norm(uk), np.linalg.norm(ul)
    if nk < max(tol, 1e-9) or nl < max(tol, 1e-9):
        raise DegenerateGeometryError("vanishing Bloch vectors carry no orientation")
    uk = uk / nk
    ul = ul / nl
    # 4 * prod(u_k) is the determinant of the I, X, Y labeled vertices
    if abs(4 * np.prod(uk)) < 1e-9:
        raise DegenerateGeometryError(f"qubit {k} Bloch vectors span rank < 3")
    ratio = ul / uk
    omap = np.diag(ratio)
    if np.max(np.abs(omap @ omap.T - np.eye(3))) > 1e-6:
        raise ChiralityInconsistencyError(f"alignment map for qubits {k},{l} is not orthogonal")
    return (1 if np.prod(ratio) > 0 else -1), omap


def conjugate_state(psi: np.ndarray) -> np.ndarray:
    """Entry-wise complex conjugate in the computational basis."""
    return np.conj(np.asarray(psi, dtype=complex))


def apply_local_unitaries(psi: np.ndarray, factors: list[np.ndarray],
                          tol: float = EPS_UNITARY) -> np.ndarray:
    """Apply one single-qubit unitary per qubit: (U_1 x ... x U_n)|psi>."""
    psi = np.asarray(psi, dtype=complex)
    n = num_qubits(psi.shape[0])
    if len(factors) != n:
        raise ValueError(f"expected {n} single-qubit factors, got {len(factors)}")
    for idx, u in enumerate(factors):
        u = np.asarray(u, dtype=complex)
        if u.shape != (2, 2) or not is_unitary(u, max(tol, 1e-9)):
            raise ValueError(f"factor {idx + 1} is not a single-qubit unitary")
        psi = apply_on_qubit(u, psi, idx + 1)
    return psi


def tetra_product_decomposition(psi: np.ndarray, directions: list[np.ndarray]) -> dict[str, complex]:
    """Coefficients of psi in the product basis of +/- eigenstates along the directions.

    Keys are sign patterns such as '++-' (qubit order); the antipodal pair per
    qubit is orthonormal, so the coefficients are plain inner products and
    reconstruction is exact.
    """
    psi = np.asarray(psi, dtype=complex)
    n = num_qubits(psi.shape[0])
    if len(directions) != n:
        raise ValueError(f"expected {n} directions, got {len(directions)}")
    pairs = [(bloch_state(d, +1), bloch_state(d, -1)) for d in directions]
    coeffs: dict[str, complex] = {}
    for pattern in product("+-", repeat=n):
        vec = np.array([1.0], dtype=complex)
        for l, s in enumerate(pattern):
            vec = np.kron(vec, pairs[l][0] if s == "+" else pairs[l][1])
        coeffs["".join(pattern)] = complex(np.vdot(vec, psi))
    return coeffs

