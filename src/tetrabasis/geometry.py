"""Bloch-vector extraction and classification of the local basis geometry.

The group orbit constrains each qubit's marginals to an even-sign-change
family (a disphenoid vertex set); classification decides whether that set is
a regular tetrahedron, a planar rectangle, a line, or degenerate, and
compares handedness between qubits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .basisgen import Basis, TetraGroup, bloch_state
from .qcore import apply_on_qubit, is_unitary, num_qubits

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


def bloch_vectors(states: np.ndarray) -> np.ndarray:
    """(B, n, 3) Bloch vectors (<X>, <Y>, <Z>) of every qubit of each row of (B, 2^n) states.

    Row by row and qubit by qubit, rho is ``partial_trace`` with the same
    numpy operations, so a row's vectors do not depend on the other rows.
    The vector is read off rho: tr(rho X) = rho01 + rho10, tr(rho Y) =
    i (rho01 - rho10) and tr(rho Z) = rho00 - rho11, real parts taken.
    """
    states = np.asarray(states, dtype=complex)
    mats = states[:, _qubit_split(num_qubits(states.shape[1]))]  # (B, n, 2, 2^(n-1))
    rho = mats @ mats.conj().swapaxes(-1, -2)
    r00, r01, r10, r11 = rho[..., 0, 0], rho[..., 0, 1], rho[..., 1, 0], rho[..., 1, 1]
    return np.stack([r01.real + r10.real, r10.imag - r01.imag, r00.real - r11.real], axis=-1)


@lru_cache(maxsize=None)
def _qubit_split(n: int) -> np.ndarray:
    """(n, 2, 2^(n-1)) indices: row l of a state as ``partial_trace`` lays it out for qubit l+1."""
    idx = np.arange(2**n).reshape((2,) * n)
    return np.stack([np.moveaxis(idx, l, 0).reshape(2, -1) for l in range(n)])


def bloch_vector(psi: np.ndarray, qubit: int) -> np.ndarray:
    """(<X>, <Y>, <Z>) of one qubit of a pure state."""
    return bloch_vectors(np.asarray(psi)[None])[0, qubit - 1]


# Bloch-space action of conjugating by I, X, Y, Z: even sign changes.
_PAULI_FLIPS = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
)


def basis_bloch_table(basis: Basis) -> np.ndarray:
    """Array of shape (n, 2^n, 3): Bloch vector of qubit l in basis column g."""
    return bloch_vectors(basis.columns.T).transpose(1, 0, 2)


def orbit_bloch_tables(states: np.ndarray, group: TetraGroup) -> np.ndarray:
    """(B, n, 2^n, 3): ``orbit_bloch_table`` of the orbit basis of each fiducial row.

    Column g is U_g|psi> with U_g = Z^b X^a, so its qubit-l marginal is the
    fiducial's conjugated by qubit l's factor, an even sign flip of v_l:
    ((-1)^b, (-1)^(a xor b), (-1)^a) from that qubit's mask bits a, b.
    """
    return bloch_vectors(states)[:, :, None, :] * _orbit_flips(group)


@lru_cache(maxsize=None)
def _orbit_flips(group: TetraGroup) -> np.ndarray:
    """(n, 2^n, 3) signs that carry each qubit's fiducial Bloch vector to column g's."""
    shifts = np.arange(group.n - 1, -1, -1)[:, None]
    a = (np.array(group.x_masks) >> shifts) & 1  # (n, 2^n)
    b = (np.array(group.z_masks) >> shifts) & 1
    return 1 - 2 * np.stack([b, a ^ b, a], axis=-1)


def orbit_bloch_table(basis: Basis) -> np.ndarray:
    """``basis_bloch_table`` of an orbit basis from the fiducial's n Bloch vectors."""
    if basis.group is None:
        raise ValueError("the orbit Bloch table needs the basis's group")
    return orbit_bloch_tables(basis.fiducial[None], basis.group)[0]


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


def classify_geometry(table: np.ndarray, tol: float = EPS_GEO) -> GeometryReport:
    """Per-qubit geometry class, common length, direction lines, and pair chirality.

    A qubit whose row is not the sign-flip orbit of its column-0 vector v
    (within tol) is degenerate.  Otherwise the class follows from the zero
    and equal magnitudes of v, and the lines are the distinct sign flips of
    v/|v| in order of first appearance over the columns.  Components of v
    within tol of zero are taken as exact zeros.
    """
    return classify_geometries(np.asarray(table)[None], tol)[0]


def classify_geometries(tables: np.ndarray, tol: float = EPS_GEO) -> list[GeometryReport]:
    """``classify_geometry`` of each (n, 2^n, 3) table of a (B, n, 2^n, 3) stack.

    The arithmetic runs in array passes over the whole stack; each report
    depends only on its own table.
    """
    tables = np.asarray(tables, dtype=float)
    count, n = tables.shape[:2]
    firsts = tables[:, :, 0]
    anchors = np.where(np.abs(firsts) <= tol, 0.0, firsts)  # (B, n, 3)
    lengths = _norms(anchors)
    zeros = np.count_nonzero(anchors == 0.0, axis=2)
    # distance of every column to each sign flip of its row's column 0
    dist = _norms(tables[:, :, :, None, :] - firsts[:, :, None, None, :] * _PAULI_FLIPS)
    on_orbit = dist.min(axis=3).max(axis=2) <= tol
    # each qubit's flip labels in order of first appearance over the columns
    seen = dist.argmin(axis=3)[..., None] == np.arange(len(_PAULI_FLIPS))  # (B, n, 2^n, 4)
    present = seen.any(axis=2)
    labels = np.where(present, seen.argmax(axis=2), seen.shape[2]).argsort(axis=2, kind="stable")
    magnitudes = np.abs(anchors)
    regular = magnitudes.max(axis=2) - magnitudes.min(axis=2) <= tol
    with np.errstate(divide="ignore", invalid="ignore"):
        units = anchors / lengths[:, :, None]
    flips = units[:, :, None, :] * _PAULI_FLIPS  # (B, n, 4, 3)
    # each line keeps the sign of its first component above 1e-12 in modulus;
    # + 0.0 turns the -0.0 of a flipped zero component into 0.0
    big = np.abs(units[:, :, None, :]) > 1e-12
    lead = np.where(big[..., 0], flips[..., 0], np.where(big[..., 1], flips[..., 1], flips[..., 2]))
    flips = np.where((big.any(axis=3) & (lead < 0))[..., None], -flips, flips) + 0.0
    spread = lengths.max(axis=1) - lengths.min(axis=1)
    means = np.add.reduce(lengths, axis=1) / n  # np.mean, bit for bit
    nonzero = np.abs(tables).min(axis=(1, 2, 3)) > tol
    tetra = on_orbit & (zeros == 0) & regular
    signs = _chirality_signs(tables, units, lengths, tetra, tol)

    pairs = list(combinations(range(1, n + 1), 2))
    flips, labels, counts = flips.tolist(), labels.tolist(), present.sum(axis=2).tolist()
    lengths, on_orbit, zeros, regular = (
        lengths.tolist(), on_orbit.tolist(), zeros.tolist(), regular.tolist())
    reports = []
    for t in range(count):
        classes = []
        all_lines = []
        for l in range(n):
            if not on_orbit[t][l] or zeros[t][l] == 3:
                classes.append("degenerate")
                all_lines.append(())
                continue
            if zeros[t][l] == 0:
                classes.append("regular_tetrahedron" if regular[t][l] else "disphenoid")
            else:
                classes.append("planar_rectangle" if zeros[t][l] == 1 else "collinear")
            lines = flips[t][l]
            all_lines.append(tuple(dict.fromkeys(
                tuple(lines[j]) for j in labels[t][l][:counts[t][l]])))
        chirality = {
            (k, l): signs[t][k - 1][l - 1]
            if classes[k - 1] == classes[l - 1] == "regular_tetrahedron" else None
            for k, l in pairs
        }
        reports.append(GeometryReport(
            classes=tuple(classes),
            lengths=tuple(lengths[t]),
            r=float(means[t]) if spread[t] <= max(tol, 1e-9) else None,
            lines=tuple(all_lines),
            chirality=chirality,
            nonzero_components=bool(nonzero[t]),
        ))
    return reports


def _norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=-1)`` of a real array, bit for bit, without its wrapper."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _chirality_signs(tables: np.ndarray, units: np.ndarray, lengths: np.ndarray,
                     tetra: np.ndarray, tol: float) -> list:
    """signs[t][k][l]: ``relational_chirality`` sign of qubits k+1, l+1 of table t.

    Only pairs of regular-tetrahedron qubits (``tetra``) are read.  Their
    column-0 vectors have no component zeroed, so ``units`` and ``lengths``
    are their normalized label-I vertices and lengths, and the sign is that
    of prod(u_l / u_k).  A pair that fails one of ``relational_chirality``'s
    checks is handed to that function, so it raises (or answers) exactly as
    for a single table.
    """
    vanishing = lengths < max(tol, 1e-9)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = units[:, None, :, :] / units[:, :, None, :]  # (B, k, l, 3): u_l / u_k
        suspect = (vanishing[:, :, None] | vanishing[:, None, :]
                   | (np.abs(4 * np.prod(units, axis=2)) < 1e-9)[:, :, None]
                   | ~(np.abs(ratio * ratio - 1).max(axis=3) <= 1e-6))
        signs = np.where(np.prod(ratio, axis=3) > 0, 1, -1).tolist()
    for t, k, l in zip(*np.nonzero(suspect & tetra[:, :, None] & tetra[:, None, :])):
        if k < l:
            signs[t][k][l] = relational_chirality(tables[t], k + 1, l + 1, tol)[0]
    return signs


def _flip_labels(vectors: np.ndarray, tol: float) -> np.ndarray | None:
    """Per column, the index of the sign flip of column 0 that it lies on.

    Indexes ``_PAULI_FLIPS``; None when some column is farther than tol from
    all four flips, so the row is not the orbit of its first vector.
    """
    dist = np.linalg.norm(vectors[:, None, :] - vectors[0] * _PAULI_FLIPS, axis=2)
    if np.max(np.min(dist, axis=1)) > tol:
        return None
    return np.argmin(dist, axis=1)


def relational_chirality(table: np.ndarray, k: int, l: int,
                         tol: float = EPS_GEO) -> tuple[int, np.ndarray]:
    """Orthogonal map aligning the two qubits' group-labeled tetra, and its det sign.

    O carries qubit k's vertex for each local Pauli label onto qubit l's
    vertex for the same label; a -1 sign means mirrored tetrahedra.  Vertices
    are normalized first, so tetra of different sizes compare by shape alone.
    Column 0 of the table is the fiducial (group label 0), and the group acts
    locally as Pauli conjugations, so each qubit's row must be the sign-flip
    orbit of its label-I vertex (u_k, u_l).  Then O = diag(u_l / u_k) and
    its sign is that of prod(u_l / u_k).
    """
    for q in (k, l):
        if _flip_labels(table[q - 1], max(tol, 1e-7)) is None:
            raise ChiralityInconsistencyError(
                "Bloch table does not carry the sign-change orbit structure"
            )
    uk, ul = table[k - 1, 0], table[l - 1, 0]
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


def apply_local_unitaries(psi: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """Apply one single-qubit unitary per qubit: (U_1 x ... x U_n)|psi>."""
    psi = np.asarray(psi, dtype=complex)
    n = num_qubits(psi.shape[0])
    if len(factors) != n:
        raise ValueError(f"expected {n} single-qubit factors, got {len(factors)}")
    for idx, u in enumerate(factors):
        u = np.asarray(u, dtype=complex)
        if u.shape != (2, 2) or not is_unitary(u):
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

