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


@dataclass(frozen=True)
class GeometryArrays:
    """The fields of B ``GeometryReport``s but the lines, as arrays over the rows.

    classes index GEOMETRY_CLASSES, r is NaN where the report's is None, and
    chirality holds each pair's sign in ``combinations`` order, 0 where the
    report has None.  units are column 0's vectors with the components
    within tol of zero set to 0, normalized: the reports' lines are their
    sign flips.
    """

    classes: np.ndarray    # (B, n) int
    lengths: np.ndarray    # (B, n)
    r: np.ndarray          # (B,)
    nonzero: np.ndarray    # (B,) bool
    chirality: np.ndarray  # (B, n (n - 1) / 2) int
    units: np.ndarray      # (B, n, 3)

    @property
    def all_regular(self) -> np.ndarray:
        return (self.classes == 0).all(axis=1)

    def shared_lengths(self) -> list[float | None]:
        """Per row, the report's r."""
        return [None if r != r else r for r in self.r.tolist()]

    def chirality_signatures(self) -> list[str]:
        """Per row, the report's ``chirality_signature``: '+' sorts before '-' and '?'."""
        plus = np.count_nonzero(self.chirality > 0, axis=1).tolist()
        minus = np.count_nonzero(self.chirality < 0, axis=1).tolist()
        pairs = self.chirality.shape[1]
        return ["+" * p + "-" * m + "?" * (pairs - p - m) for p, m in zip(plus, minus)]


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
    """``classify_geometry`` of each (n, C, 3) table of a (B, n, C, 3) stack.

    The arithmetic runs in array passes over the whole stack; each report
    depends only on its own table.
    """
    return _reports(*_geometry_arrays(np.asarray(tables, dtype=float), tol))


def orbit_geometries(states: np.ndarray, group: TetraGroup,
                     tol: float = EPS_GEO) -> GeometryArrays:
    """``classify_geometries(orbit_bloch_tables(states, group), tol)`` as arrays, for fiducial rows."""
    return _geometry_arrays(_orbit_columns(states, group), tol)[0]


def orbit_geometry_reports(states: np.ndarray, group: TetraGroup,
                           tol: float = EPS_GEO) -> list[GeometryReport]:
    """``classify_geometries(orbit_bloch_tables(states, group), tol)``, from the Bloch vectors."""
    return classify_geometries(_orbit_columns(states, group), tol)


def orbit_geometry(basis: Basis, tol: float = EPS_GEO) -> GeometryReport:
    """``classify_geometry(orbit_bloch_table(basis), tol)`` of an orbit basis."""
    if basis.group is None:
        raise ValueError("the orbit geometry needs the basis's group")
    return orbit_geometry_reports(basis.fiducial[None], basis.group, tol)[0]


def _orbit_columns(states: np.ndarray, group: TetraGroup) -> np.ndarray:
    """(B, n, 4, 3) compact orbit tables of fiducial rows, with their full tables' geometry.

    Column g of a full table is v_l times the fixed signs
    ``_orbit_flips(group)[l, g]``, so it equals, bit for bit, the column
    of the compact table with the same signs (``_first_flips``).  The
    classification reads column 0, the set of columns and their sign
    patterns' order of first appearance, which both tables share.
    """
    return bloch_vectors(states)[:, :, None, :] * _first_flips(group)


@lru_cache(maxsize=None)
def _first_flips(group: TetraGroup) -> np.ndarray:
    """(n, 4, 3) ``_orbit_flips``: per qubit, each distinct sign pattern in order of first
    appearance over the columns, then column 0's repeated up to four."""
    rows = []
    for signs in _orbit_flips(group).tolist():
        distinct = list(dict.fromkeys(map(tuple, signs)))
        rows.append(distinct + distinct[:1] * (4 - len(distinct)))
    return np.array(rows)


def _geometry_arrays(tables: np.ndarray, tol: float) -> tuple[GeometryArrays, np.ndarray]:
    """The arrays of ``classify_geometries`` of a (B, n, C, 3) stack, and its column labels.

    The labels (B, n, C) index, per column, the sign flip of its row's
    column 0 nearest to it.
    """
    n = tables.shape[1]
    firsts = tables[:, :, 0]
    # distance of every column to each sign flip of its row's column 0
    dist = _norms(tables[:, :, :, None, :] - firsts[:, :, None, None, :] * _PAULI_FLIPS)
    on_orbit = dist.min(axis=3).max(axis=2) <= tol
    anchors = np.where(np.abs(firsts) <= tol, 0.0, firsts)  # (B, n, 3)
    lengths = _norms(anchors)
    zeros = (anchors == 0.0).sum(axis=2)
    magnitudes = np.abs(anchors)
    regular = magnitudes.max(axis=2) - magnitudes.min(axis=2) <= tol
    classes = zeros + 1  # indices into GEOMETRY_CLASSES: 1, 2 or 3 zeros fix the class
    classes[(zeros == 0) & regular] = 0
    classes[~on_orbit] = 4
    with np.errstate(divide="ignore", invalid="ignore"):
        units = anchors / lengths[:, :, None]
    spread = lengths.max(axis=1) - lengths.min(axis=1)
    means = np.add.reduce(lengths, axis=1) / n  # np.mean, bit for bit
    geometry = GeometryArrays(
        classes=classes,
        lengths=lengths,
        r=np.where(spread <= max(tol, 1e-9), means, np.nan),
        nonzero=np.abs(tables).min(axis=(1, 2, 3)) > tol,
        chirality=_chirality_signs(tables, units, lengths, classes == 0, tol),
        units=units,
    )
    return geometry, dist.argmin(axis=3)


def _reports(geometry: GeometryArrays, column_labels: np.ndarray) -> list[GeometryReport]:
    """The reports of ``GeometryArrays``, row by row.

    column_labels (B, n, C) index, per column of each qubit's row, the sign
    flip of column 0 that it lies on; their order of first appearance over
    the columns orders each qubit's lines.
    """
    n = geometry.classes.shape[1]
    seen = column_labels[..., None] == np.arange(len(_PAULI_FLIPS))  # (B, n, C, 4)
    present = seen.any(axis=2)
    labels = np.where(present, seen.argmax(axis=2), seen.shape[2]).argsort(axis=2, kind="stable")
    units = geometry.units
    flips = units[:, :, None, :] * _PAULI_FLIPS  # (B, n, 4, 3)
    # each line keeps the sign of its first component above 1e-12 in modulus;
    # + 0.0 turns the -0.0 of a flipped zero component into 0.0
    big = np.abs(units[:, :, None, :]) > 1e-12
    lead = np.where(big[..., 0], flips[..., 0], np.where(big[..., 1], flips[..., 1], flips[..., 2]))
    flips = np.where((big.any(axis=3) & (lead < 0))[..., None], -flips, flips) + 0.0

    pairs = list(combinations(range(1, n + 1), 2))
    flips, labels, counts = flips.tolist(), labels.tolist(), present.sum(axis=2).tolist()
    classes, lengths = geometry.classes.tolist(), geometry.lengths.tolist()
    chirality, nonzero = geometry.chirality.tolist(), geometry.nonzero.tolist()
    reports = []
    for t, r in enumerate(geometry.shared_lengths()):
        all_lines = tuple(
            () if classes[t][l] == 4 else tuple(dict.fromkeys(
                tuple(flips[t][l][j]) for j in labels[t][l][:counts[t][l]]))
            for l in range(n))
        reports.append(GeometryReport(
            classes=tuple(GEOMETRY_CLASSES[c] for c in classes[t]),
            lengths=tuple(lengths[t]),
            r=r,
            lines=all_lines,
            chirality={pair: sign or None for pair, sign in zip(pairs, chirality[t])},
            nonzero_components=bool(nonzero[t]),
        ))
    return reports


def _norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=-1)`` of a real array, bit for bit, without its wrapper."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _chirality_signs(tables: np.ndarray, units: np.ndarray, lengths: np.ndarray,
                     tetra: np.ndarray, tol: float) -> np.ndarray:
    """(B, pairs) signs: the ``relational_chirality`` sign of each pair of qubits of table t.

    Pairs (k, l), k < l, come in ``combinations`` order, and only those of
    two regular-tetrahedron qubits (``tetra``) get a sign; the others get 0.
    Their column-0 vectors have no component zeroed, so ``units`` and
    ``lengths`` are their normalized label-I vertices and lengths, and the
    sign is that of prod(u_l / u_k).  A pair that fails one of
    ``relational_chirality``'s checks is handed to that function with its
    table, so it raises (or answers) exactly as for a single table.
    """
    k, l = _pairs(units.shape[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = units[:, l] / units[:, k]  # (B, pairs, 3): u_l / u_k
        vanishing = lengths < max(tol, 1e-9)
        flat = np.abs(4 * np.multiply.reduce(units, axis=2)) < 1e-9  # I, X, Y span rank < 3
        suspect = (vanishing[:, k] | vanishing[:, l] | flat[:, k]
                   | ~(np.abs(ratio * ratio - 1).max(axis=2) <= 1e-6))
        positive = np.multiply.reduce(ratio, axis=2) > 0
    both = tetra[:, k] & tetra[:, l]
    signs = np.where(both, np.where(positive, 1, -1), 0)
    for t, p in zip(*np.nonzero(suspect & both)):
        signs[t, p] = relational_chirality(tables[t], k[p] + 1, l[p] + 1, tol)[0]
    return signs


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The qubit pairs k < l, 0-based, in ``combinations`` order, as two index arrays."""
    return np.triu_indices(n, 1)


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

