"""Exhaustive search over phase polynomials and classification of the hits.

Candidates are the coefficient rows of canonical polynomials (degree >= 2).
They arrive as (B, K) int64 array blocks, read from an index range for the
full space or drawn in bulk for a sample.  ``fiducial.build_fiducials``
builds a block's fiducial rows, every row's orbit must pass the
orthonormality guard, and ``screen_block`` drops the rows whose Bloch
vectors provably fail the filters.  Both read Pauli expectations off the
block with a few matmuls: the guard one per X mask of the group (two for
``build_tetra_group``), each against a cached sign matrix of that mask's
labels, and the screen one, |psi|^2 times (-1)^x_l, for all qubits' <Z>.
The survivors' geometry is read as arrays off their n Bloch vectors
(``geometry.orbit_geometries``), their fingerprints are built in further
array passes, and those that pass the filters are the hits.  A hit keeps
its fiducial row; its geometry report and orbit columns are built only
where they are read.  Hits are grouped into local-Clifford
classes by a canonical key (``lc_canonical_keys``: each qubit's frame is
fixed by its Bloch vector, and the smallest image over the frame-fixing
Clifford tuples is kept).  Each later member of a class is linked to the
class's first by an explicit witness, derived from the tuples that reach
the two fiducials' minimal images with a table of Clifford products, so
grouping makes no witness scan.  The scan, ``lc_equivalence_witness``,
serves the ``witness`` command and the reproduction suites.  Column c of
an orbit basis is P_c psi_A, so it scans onto column 0 alone and derives
every other column's witness from its Pauli with the same product table.
It visits only the Clifford tuples whose cube rotations carry each
qubit's Bloch vector onto psi_A's, takes their prefixes as stacked array
blocks, one matmul per block against column 0 with the last qubit's 24
Cliffords folded in, in the order of the smallest tuple any column can
give them, and stops once no later block can beat the best witness found.
The scan and the grouping share two kernels, each an array pass over
rows: ``_smallest_column_image`` picks a witness tuple and column from
each row's candidate tuples, and ``_witness_phase`` recomputes a winning
tuple's phase with stacked copies of a one-tuple scan's operations, so
its bits do not depend on the rows it is computed with.  The scan calls
them with one row, and the grouping with up to LINK_CHUNK class links.
The conjugate partner of f is -f, looked up by polynomial
(``conjugate_partner_key``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from .basisgen import Basis, TetraGroup, build_tetra_group, orbit_basis, orbit_columns
from .entanglement import InvariantFingerprint, invariant_fingerprints
from .fiducial import HADAMARD, MAX_PRECISION, PhasePolynomial, build_fiducial, build_fiducials
from .geometry import (
    EPS_GEO,
    GeometryArrays,
    GeometryReport,
    basis_bloch_table,
    bloch_vectors,
    conjugate_state,
    orbit_geometries,
    orbit_geometry_reports,
)
from .hierarchy import diagonal_clifford_level
from .qcore import (
    EPS_NORM,
    PAULI_MATS,
    CapacityError,
    apply_on_qubit,
    num_qubits,
    parity_sign,
    phase_canonical_key,
    phase_canonical_keys,
)

FULL_ENUMERATION_LIMIT = 2**23
SCREEN_BATCH = 4096  # candidates per array pass of the pre-screen
SCREEN_SLACK = 1e-9  # margin around EPS_GEO for the float error of the screen's Bloch vectors
KEY_HITS = 1024  # rows per Bloch-frame pass of lc_canonical_keys
KEY_IMAGES = 4096  # frame-fixed images per array pass of lc_canonical_keys; bounds its temporaries
LINK_CHUNK = 64  # class links per array pass of group_into_classes; bounds its temporaries
WITNESS_BLOCK = 64  # live prefixes in a scan's first stacked block; block k holds k times as many
WITNESS_TOL = 1e-9  # a witness maps onto a column with overlap modulus at least 1 - WITNESS_TOL


def canonical_monomials(n: int, min_degree: int = 2) -> list[tuple[int, ...]]:
    """Monomials of degree >= min_degree in canonical (lexicographic) order."""
    monos = []
    for size in range(min_degree, n + 1):
        monos.extend(combinations(range(1, n + 1), size))
    return sorted(monos)


def polynomial_from_coeffs(n: int, m: int, monos: list[tuple[int, ...]],
                           coeffs: Sequence[int]) -> PhasePolynomial:
    return PhasePolynomial(n, m, {frozenset(s): c for s, c in zip(monos, coeffs) if c})


@dataclass(frozen=True)
class SearchConfig:
    n: int
    m: int
    require_regular: bool = True
    require_nonzero: bool = False
    sample: int | None = None      # sampled search for spaces over the full-run limit
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("search needs n >= 2")
        if not 1 <= self.m <= MAX_PRECISION:
            raise ValueError(f"precision m must lie in 1..{MAX_PRECISION}, got {self.m}")
        if self.sample is not None and self.sample < 1:
            raise ValueError("sample size must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class SearchHit:
    polynomial: PhasePolynomial
    level: int
    fiducial: np.ndarray = field(compare=False, repr=False)  # (2^n,) row; the basis is its orbit
    fingerprint: InvariantFingerprint = field(compare=False, repr=False)

    @cached_property
    def key(self) -> str:
        """The polynomial's text, built on first read: grouping and output read it often."""
        return self.polynomial.to_text()

    @cached_property
    def geometry(self) -> GeometryReport:
        """The orbit basis's geometry report, built on first read from the fiducial row.

        A report depends only on its own row, so it equals the one a stack of
        rows gives; the search itself reads only ``orbit_geometries`` arrays.
        """
        return orbit_geometry_reports(self.fiducial[None], build_tetra_group(self.polynomial.n))[0]


def evaluate_polynomial_candidate(f: PhasePolynomial) -> SearchHit:
    """Check the orbit of f's fiducial and compute level and fingerprint; geometry on read."""
    states = build_fiducial(f)[None]
    _require_orthonormal(states, build_tetra_group(f.n), lambda i: f)
    return _evaluate_rows([f], states)[0]


def _evaluate_rows(polys: list[PhasePolynomial], states: np.ndarray,
                   cfg: SearchConfig | None = None) -> list[SearchHit]:
    """``evaluate_polynomial_candidate`` of each polynomial that passes cfg's filters.

    The rows' orbits must already have passed ``_require_orthonormal``.  The
    geometry is read as ``orbit_geometries`` arrays, which give the filters,
    r and the chirality signatures in array passes over all rows, so no
    report is built: a hit builds its own when ``SearchHit.geometry`` is
    read.  Fingerprints are array passes too; what a row adds on its own is
    its level and the construction of its dataclasses.  Without cfg every
    row passes.
    """
    if not polys:
        return []
    geometry = orbit_geometries(states, build_tetra_group(polys[0].n))
    passed = [True] * len(polys) if cfg is None else _passes_filters(geometry, cfg).tolist()
    fingerprints = invariant_fingerprints(states, geometry.shared_lengths(),
                                          geometry.chirality_signatures())
    return [SearchHit(f, diagonal_clifford_level(f), psi, fingerprint)
            for f, psi, fingerprint, ok in zip(polys, states, fingerprints, passed) if ok]


def _non_orthonormal(f: PhasePolynomial, violation: float) -> AssertionError:
    return AssertionError(
        f"orbit of {f.to_text()!r} unexpectedly non-orthonormal (violation {violation:.3e})")


def _passes_filters(geometry: GeometryArrays, cfg: SearchConfig) -> np.ndarray:
    """Per row, whether its geometry passes cfg's regular and nonzero filters."""
    passed = np.ones(len(geometry.r), dtype=bool)
    if cfg.require_regular:
        passed &= geometry.all_regular
    if cfg.require_nonzero:
        passed &= geometry.nonzero
    return passed


@lru_cache(maxsize=None)
def _monomial_indicator(n: int, monos: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """(K, 2^n) 0/1 indicators of the monomials over the inputs; coefficients @ it are values."""
    idx = np.arange(2**n)
    masks = [sum(1 << (n - i) for i in mono) for mono in monos]
    return np.array([(idx & mask) == mask for mask in masks], dtype=np.int64)


@lru_cache(maxsize=None)
def _guard_tables(group: TetraGroup) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
    """Per distinct X mask a of the labels g >= 1: a, the gather x xor a, and the signs.

    The signs are the (labels, 2^n) matrix (-1)^popcount(b_g & x) of that
    mask's labels, so signs @ (conj(psi) psi[x xor a]) is their <psi|U_g|psi>.
    """
    x = np.arange(2**group.n)
    labels = range(1, 2**group.n)
    tables = []
    for a in dict.fromkeys(group.x_masks[g] for g in labels):
        z = np.array([group.z_masks[g] for g in labels if group.x_masks[g] == a])
        tables.append((a, x ^ a, parity_sign(z[:, None] & x).astype(float)))
    return tuple(tables)


def _orbit_violations(psi: np.ndarray, group: TetraGroup) -> np.ndarray:
    """Per row, the largest of |norm - 1| and |<psi|U_g|psi>| over the labels g >= 1.

    This is ``check_orthonormal``'s violation of the orbit basis, but not bit
    for bit: the values can differ from its, and with the block size, by
    about 1e-16, so only the decision against EPS_NORM is shared.  U_g is
    Z^b X^a, so the labels are grouped by their X mask a, and one product
    conj(psi) psi[x xor a] times the mask's signs (``_guard_tables``) gives
    all of its labels; for a = 0 that product is |psi|^2, which also gives
    the norm.  ``build_tetra_group`` has only the masks 0 and 2^n - 1.

    S(n) H_n conjugates the group onto the 2^n Z strings, and the state it
    acts on, D_f H^(x n)|0..0>, has flat moduli, so every orbit is
    orthonormal by construction: the guard catches only a fault in the
    fiducial builder or the group.
    """
    weights = psi.real**2 + psi.imag**2
    violation = np.abs(np.sqrt(weights.sum(axis=1)) - 1)
    for a, gather, signs in _guard_tables(group):
        product = weights if a == 0 else psi.conj() * psi[:, gather]
        # (labels, B), so the largest modulus is an elementwise maximum over rows
        violation = np.maximum(violation, np.abs(signs @ product.T).max(axis=0))
    return violation


def _require_orthonormal(states: np.ndarray, group: TetraGroup, poly_of) -> None:
    """Raise for the first row whose orbit is not orthonormal; poly_of(i) names row i.

    The reported violation is recomputed from that row alone, so the message
    does not depend on the block the row was screened in.
    """
    bad = np.flatnonzero(_orbit_violations(states, group) > EPS_NORM)
    if bad.size:
        row = bad[0]
        raise _non_orthonormal(poly_of(row), _orbit_violations(states[row:row + 1], group)[0])


@lru_cache(maxsize=None)
def _z_signs(n: int) -> np.ndarray:
    """(2^n, n) signs (-1)^x_l, qubit 1 the most significant bit: |psi|^2 @ it is each <Z_l>."""
    bits = np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)
    return 1.0 - 2 * (bits & 1)


def _bloch_vectors(psi: np.ndarray, n: int) -> np.ndarray:
    """(B, n, 3) Bloch vectors of each row's qubits: (2 Re r01, -2 Im r01, <Z>).

    The screen's own kernel, kept apart from ``geometry.bloch_vectors``: that
    one measured about 3 to 6 times slower on n=4 screen blocks, and its bits
    are fixed by the partial-trace formula the reports print.  The screen
    needs only its decisions, and the two kernels differ by at most about
    2e-16, far inside SCREEN_SLACK.  r01 comes from each qubit's two halves
    of the row, taken as views: one gather of all qubits' halves measured
    faster, but its temporaries (about 400 kB on a 200-row n=4 block) made
    some processes page-fault on every call.  Every <Z> comes from one
    product |psi|^2 @ ``_z_signs(n)``.
    """
    vectors = np.empty((len(psi), n, 3))
    for l in range(n):
        split = psi.reshape(len(psi), 2**l, 2, -1)
        rho01 = np.einsum("bij,bij->b", split[:, :, 0], split[:, :, 1].conj())
        vectors[:, l, 0] = 2 * rho01.real
        vectors[:, l, 1] = -2 * rho01.imag
    vectors[:, :, 2] = (psi.real**2 + psi.imag**2) @ _z_signs(n)
    return vectors


def screen_block(states: np.ndarray, cfg: SearchConfig) -> np.ndarray:
    """Boolean mask over (B, 2^n) fiducial rows: the candidates that may pass cfg.

    ``classify_geometry`` calls qubit l regular when each component of its
    Bloch vector exceeds EPS_GEO in modulus and the moduli spread by at most
    EPS_GEO; nonzero components need that lower bound on every qubit.  Both
    tests are widened by SCREEN_SLACK, so only candidates that provably fail
    are dropped.  Lengths are never compared across qubits.  The smallest
    and largest modulus are taken elementwise over the three components.
    """
    x, y, z = np.moveaxis(np.abs(_bloch_vectors(states, cfg.n)), 2, 0)
    low = np.minimum(np.minimum(x, y), z)
    above = low > EPS_GEO - SCREEN_SLACK
    keep = np.ones(len(states), dtype=bool)
    if cfg.require_regular:
        spread = np.maximum(np.maximum(x, y), z) - low
        keep &= (above & (spread <= EPS_GEO + SCREEN_SLACK)).all(axis=1)
    if cfg.require_nonzero:
        keep &= above.all(axis=1)
    return keep


def _candidate_blocks(cfg: SearchConfig, k: int):
    """(B, k) int64 coefficient rows of at most SCREEN_BATCH candidates, in enumeration order.

    The full space comes in ``itertools.product`` order: row idx holds the
    base-2^m digits of idx, most significant first.  A sample is the first
    min(sample, size) distinct rows of the seeded draws.  Each sampled
    block is one ``rng.integers`` call of at most the rows still missing,
    deduplicated in first-occurrence order, so the generator draws exactly
    what one call per candidate would and leaves it in the same state.  A
    block whose rows were all seen before is skipped.
    """
    base = 2**cfg.m
    size = base**k
    if cfg.sample is None:
        if size > FULL_ENUMERATION_LIMIT:
            raise CapacityError(
                f"{size} candidates exceed the full-enumeration limit; set a sample limit"
            )
        powers = base ** np.arange(k - 1, -1, -1, dtype=np.int64)
        for start in range(0, size, SCREEN_BATCH):
            idx = np.arange(start, min(start + SCREEN_BATCH, size), dtype=np.int64)
            yield idx[:, None] // powers % base
        return
    rng = np.random.default_rng(cfg.seed)
    target = min(cfg.sample, size)
    seen: set[bytes] = set()
    while len(seen) < target:
        draws = rng.integers(0, base, (min(target - len(seen), SCREEN_BATCH), k))
        fresh = []
        for i, row in enumerate(draws):
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                fresh.append(i)
        if fresh:
            yield draws[fresh]


def search_regular(cfg: SearchConfig) -> list[SearchHit]:
    """Filtered hits over the polynomial space, in deterministic enumeration order.

    Candidates arrive as coefficient blocks of at most SCREEN_BATCH rows
    (``_candidate_blocks``) and are screened a block at a time.  Every
    candidate's orbit must be orthonormal, as in
    ``evaluate_polynomial_candidate``; only the candidates ``screen_block``
    keeps become ``PhasePolynomial``s and have their geometry arrays and
    fingerprints built, all of a block's survivors together
    (``_evaluate_rows``).  A hit builds its geometry report only when read.
    """
    n, m = cfg.n, cfg.m
    monos = canonical_monomials(n)
    indicator = _monomial_indicator(n, tuple(monos))
    group = build_tetra_group(n)
    hits = []
    for block in _candidate_blocks(cfg, len(monos)):
        states = build_fiducials((block @ indicator) % 2**m, n, m)
        _require_orthonormal(states, group,
                             lambda i: polynomial_from_coeffs(n, m, monos, block[i].tolist()))
        kept = np.flatnonzero(screen_block(states, cfg))
        polys = [polynomial_from_coeffs(n, m, monos, block[i].tolist()) for i in kept]
        hits += _evaluate_rows(polys, states[kept], cfg)
    return hits


# ---------------------------------------------------------------------------
# single-qubit Clifford representatives and local-Clifford witnesses

_PHASE_GATE = np.array([[1, 0], [0, 1j]], dtype=complex)


@lru_cache(maxsize=1)
def single_qubit_cliffords() -> tuple[np.ndarray, ...]:
    """The 24 single-qubit Cliffords up to phase, in breadth-first generator order."""
    start = np.eye(2, dtype=complex)
    order = [start]
    seen = {phase_canonical_key(start)}
    head = 0
    while head < len(order):
        base = order[head]
        head += 1
        for gate in (_PHASE_GATE, HADAMARD):
            candidate = base @ gate
            key = phase_canonical_key(candidate)
            if key not in seen:
                seen.add(key)
                order.append(candidate)
    assert len(order) == 24
    return tuple(order)


@lru_cache(maxsize=1)
def _clifford_stack() -> np.ndarray:
    """(24, 2, 2) ``single_qubit_cliffords`` as one array."""
    return np.stack(single_qubit_cliffords())


@lru_cache(maxsize=1)
def clifford_bloch_rotations() -> np.ndarray:
    """(24, 3, 3) Bloch rotations R[k]_ij = tr(s_i C_k s_j C_k^dag) / 2, Cliffords in order.

    Each is a signed permutation matrix, so the rounding is exact.
    """
    sigma = np.stack([PAULI_MATS[p] for p in "XYZ"])
    stack = _clifford_stack()
    table = np.einsum("iab,kbc,jcd,kad->kij", sigma, stack, sigma, stack.conj()).real / 2
    return np.rint(table)


@lru_cache(maxsize=1)
def clifford_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Cliffords' product table modulo phase, their inverses, and the Paulis' indices.

    products[i, j] is the index of C_i C_j and inverse[i] that of C_i^dag,
    up to phase; paulis[a, b] is the index of Z^b X^a (I, X, Z and ZX).
    A Clifford up to phase is fixed by its Bloch rotation, and the rotation
    of a product is the product of the rotations, so the tables are read
    from the exact integer rotations.
    """
    rotations = clifford_bloch_rotations().astype(np.int64)
    digits = 3 ** np.arange(9)
    code = {int(c): k for k, c in enumerate((rotations.reshape(24, 9) + 1) @ digits)}

    def indices(mats: np.ndarray) -> np.ndarray:
        flat = (mats.reshape(-1, 9) + 1) @ digits
        return np.array([code[int(c)] for c in flat], dtype=np.intp).reshape(mats.shape[:-2])

    x, z = np.diag([1, -1, -1]), np.diag([-1, -1, 1])  # rotations of X and Z
    paulis = np.stack([[np.eye(3, dtype=np.int64), z], [x, z @ x]])
    return (indices(np.einsum("iab,jbc->ijac", rotations, rotations)),
            indices(rotations.transpose(0, 2, 1)), indices(paulis))


@lru_cache(maxsize=None)
def _column_paulis(n: int) -> np.ndarray:
    """(2^n, n) Clifford indices of column g's Pauli Z^b X^a on each qubit, qubit 1 first."""
    group = build_tetra_group(n)
    shifts = np.arange(n - 1, -1, -1)
    x = np.array(group.x_masks)[:, None] >> shifts & 1
    z = np.array(group.z_masks)[:, None] >> shifts & 1
    return clifford_tables()[2][x, z]


@dataclass(frozen=True)
class Witness:
    """Local-Clifford map carrying a state onto one column of a target basis."""

    clifford_indices: tuple[int, ...]
    conjugated: bool
    column: int
    phase: complex

    def local_unitaries(self) -> list[np.ndarray]:
        cliffs = single_qubit_cliffords()
        return [cliffs[i] for i in self.clifford_indices]

    def apply(self, psi: np.ndarray) -> np.ndarray:
        vec = conjugate_state(psi) if self.conjugated else np.asarray(psi, dtype=complex)
        for qubit, u in enumerate(self.local_unitaries(), start=1):
            vec = apply_on_qubit(u, vec, qubit)
        return vec / self.phase

    def to_json_dict(self) -> dict:
        return {
            "clifford_indices": list(self.clifford_indices),
            "conjugated": self.conjugated,
            "column": self.column,
            "phase": [self.phase.real, self.phase.imag],
        }


def lc_equivalence_witness(psi1: np.ndarray, basis2: Basis, allow_conjugation: bool = False,
                           tol: float = WITNESS_TOL) -> Witness | None:
    """First local-Clifford tuple mapping psi1 (or its conjugate) onto a column of basis2.

    The result is that of scanning all 24^n tuples in lexicographic index
    order (non-conjugated pass first), so absence of a witness is a definite
    result for that search space; psi1 must be a unit vector.  A tuple that
    reaches two columns (possible only for a loose tol) names the lower one.

    An orbit basis is scanned onto its column 0, psi_A, alone: T carries psi1
    onto column c exactly when S = P_c T carries it onto column 0, so the
    scan collects every such S and returns the smallest P_c S over the
    columns c (``_smallest_column_image``, one segment).  Its columns must be the
    orbit of column 0 under its group, bit for bit, or the derivation would
    name a wrong tuple; a basis that is not raises ``ValueError``.  A basis
    without a group is scanned onto all its columns, and a hit is its own
    witness.

    Only tuples S that can reach a scanned column are visited.  A Clifford
    acts on the Bloch sphere as one of the 24 rotations of the cube (it
    permutes the Paulis up to sign; Gottesman, arXiv:quant-ph/9807006), so
    it carries qubit l's Bloch vector v_l to R_k v_l.  A hit
    |<c|phi>| >= 1 - tol puts the two pure states within trace distance
    sqrt(1 - (1 - tol)^2), and partial traces do not increase it, so every
    qubit's Bloch vectors then differ by at most 2 sqrt(1 - (1 - tol)^2).  A
    zero Bloch vector admits all 24 Cliffords, so the pruning holds for any
    unit state and any basis.  A (24,) * (n-1) array of column bitsets, the
    AND of each qubit's allowed rotations, lists the live prefixes on qubits
    1..n-1; the last qubit is scanned whole, its 24 Cliffords folded into
    the scanned columns once, so one matmul gives a block of live prefixes'
    overlaps with every (last Clifford, column) pair.  Qubit 1's 24 images
    are computed once per pass and shared by the blocks.

    Live prefixes are taken in the order of their floor, the smallest
    prefix P_c S of any column c (``_prefix_floors``; a groupless basis's
    prefixes are their own floors), and the scan stops once the best tuple
    found lies below the next block's floor.  A regular n=4 pass has 27
    live prefixes, one block, but zero Bloch vectors leave up to 24^(n-1),
    and a late hit can follow thousands; so block k holds k * WITNESS_BLOCK
    prefixes, which keeps an early hit's block small and a long scan's
    blocks few.  The hit test reads the stacked overlaps with column 0,
    whose last bits can differ from a one-tuple overlap with column c, so
    only an overlap within rounding of 1 - tol could be decided
    differently.  The winner's phase is recomputed from its tuple alone
    (``_witness_phase``, one row), with the operations that grouping stacks
    over its class links, so its float bits do not depend on the block, and
    a derived link's phase is the scan's bit for bit.
    """
    psi1 = np.asarray(psi1, dtype=complex)
    n = num_qubits(psi1.shape[0])
    if n != basis2.n:
        raise ValueError("states act on different qubit counts")
    if n > 4:
        raise CapacityError("witness search supported for n <= 4")
    if not 0 < tol < 1:
        raise ValueError(f"witness tolerance must lie in (0, 1), got {tol}")
    if abs(np.linalg.norm(psi1) - 1) > 1e-9:
        raise ValueError("witness search needs a unit state")  # the Bloch bound assumes one
    grouped = basis2.group is not None
    if grouped and not np.array_equal(
            basis2.columns, orbit_columns(basis2.columns[None, :, 0], basis2.group)[0]):
        raise ValueError("witness target's columns are not the orbit of its column 0")
    stack = _clifford_stack()
    rotations = clifford_bloch_rotations()
    cols_dag = basis2.columns.conj().T
    size = 1 if grouped else len(cols_dag)  # scanned columns: an orbit basis's column 0, else all
    # folded[(r, b), (k, c)] = sum_a <column c|_(r, a) C_k[a, b]: last qubit's Clifford k, column c
    folded = (cols_dag[:size].reshape(-1, 2) @ stack).reshape(24 * size, -1).T
    targets = (bloch_vectors(basis2.columns[None, :, 0]).transpose(1, 0, 2) if grouped
               else basis_bloch_table(basis2))  # (n, size, 3)
    # slack in the overlap covers its float error; the margin covers the Bloch vectors'
    bound = 2 * np.sqrt(1 - (1 - tol - 1e-12) ** 2) + 1e-12
    weights = 24 ** np.arange(n - 2, -1, -1)  # prefix (k_1, .., k_(n-1)) has index weights @ k

    for conjugated in ((False, True) if allow_conjugation else (False,)):
        base = conjugate_state(psi1) if conjugated else psi1
        vectors = bloch_vectors(base[None])[0]
        rotated = np.einsum("kij,lj->lki", rotations, vectors)  # (n, 24, 3)
        allowed = np.linalg.norm(
            rotated[:, :, None, :] - targets[:, None, :, :], axis=-1) <= bound  # (n, 24, size)
        # bit c of reach[k_1, .., k_l] is set when the prefix can still reach column c
        bits = np.where(allowed, np.uint64(1) << np.arange(size, dtype=np.uint64), 0).sum(axis=2)
        reach = np.bitwise_and.reduce(np.bitwise_or.reduce(bits, axis=1))
        for l in range(n - 1):
            reach = reach[..., None] & bits[l]
        if grouped:
            order, floors = _prefix_floors(n)
            kept = reach.ravel()[order] != 0
            live, floors = order[kept], floors[kept]
        else:
            live = floors = np.flatnonzero(reach)  # lexicographic order
        heads = _apply_rowwise(stack, base[None], 0)  # qubit 1's 24 images, shared by the blocks
        best = None  # (tuple, column) of the smallest witness found so far
        start, width = 0, WITNESS_BLOCK
        while start < len(live) and (best is None or weights @ best[0][:-1] >= floors[start]):
            block = [live[start:start + width] // w % 24 for w in weights]
            start, width = start + width, width + WITNESS_BLOCK
            psi = heads[block[0]]
            for l in range(1, n - 1):
                psi = _apply_rowwise(stack[block[l]], psi, l)
            hit = np.abs(psi @ folded) >= 1 - tol
            if hit.any():  # in C order, the first hit is the block's smallest tuple, then column
                rows, last, column = np.nonzero(hit.reshape(len(psi), 24, size))
                tuples = np.stack([d[rows] for d in block] + [last], axis=1)
                if grouped:
                    tuples, column = _smallest_column_image(tuples, np.zeros(1, dtype=np.intp))
                found = (tuple(tuples[0].tolist()), int(column[0]))
                best = found if best is None else min(best, found)
        if best is not None:
            clifford_indices, column = best
            phase = _witness_phase(base[None], np.array([clifford_indices]), np.array([column]),
                                   cols_dag[None])
            return Witness(clifford_indices, conjugated, column, complex(phase[0]))
    return None


@lru_cache(maxsize=None)
def _prefix_floors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every prefix S on qubits 1..n-1, as its lexicographic index, in scan order, and its floor.

    The floor of S is the smallest index of the prefix of P_c S over the
    columns c: a tuple that extends S and carries a state onto column 0
    gives the witness P_c S for column c, whose prefix is no smaller.
    Prefixes are sorted by floor, stably, so those with one floor stay in
    index order.
    """
    products = clifford_tables()[0]
    floors = np.full(24 ** (n - 1), 24 ** (n - 1))
    for paulis in _column_paulis(n)[:, :-1]:  # one column at a time bounds the temporaries
        index = np.zeros((), dtype=np.int64)
        for p in paulis:
            index = index[..., None] * 24 + products[p]  # the prefix's index of P_c S
        floors = np.minimum(floors, index.ravel())
    order = np.argsort(floors, kind="stable")
    return order, floors[order]


def _smallest_column_image(tuples: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per segment of (M, n) tuples, the smallest tuple T = P_c S over its rows S and the columns c.

    Segment i is the rows starts[i]:starts[i + 1] (the last runs to M), and
    none is empty; the result is the (segments, n) tuples and their columns.
    Every caller's target is an orbit basis: column c is P_c psi_A, the
    Pauli string whose per-qubit Clifford indices are ``_column_paulis(n)[c]``,
    and each row S of a segment carries that segment's state psi onto psi_A
    up to phase.  A Pauli is its own inverse up to phase, so T = P_c S
    carries psi onto column c, and a tuple T reaches column c exactly when
    P_c T is such an S.  Given every such S, the tuples that reach some
    column are the T = P_c S, and the first that a lexicographic scan over
    all tuples meets is the smallest; a tuple that reaches two columns (only
    under a loose tolerance) comes with the lower one first, as in that
    scan's C order.  Products are read from ``clifford_tables`` qubit by
    qubit.  Each (T, c) is coded as one integer, T's lexicographic index
    times 2^n plus c, so the smallest code of a segment
    (``np.minimum.reduceat``) is its smallest tuple with the lower column.
    The codes are (2^n, M) int64, which the callers' chunks keep small.
    """
    products = clifford_tables()[0]
    n = tuples.shape[1]
    paulis = _column_paulis(n)
    codes = np.arange(2**n)[:, None]
    for l in range(n):
        codes = codes + products[paulis[:, l, None], tuples[:, l]] * 24 ** (n - 1 - l) * 2**n
    smallest = np.minimum.reduceat(codes.min(axis=0), starts)
    return (smallest[:, None] >> n) // 24 ** np.arange(n - 1, -1, -1) % 24, smallest % 2**n


def _witness_phase(states: np.ndarray, tuples: np.ndarray, columns: np.ndarray,
                   cols_dag: np.ndarray) -> np.ndarray:
    """Per row, <column|mapped>: the (L, n) tuples carry the (L, 2^n) states to phase * column.

    cols_dag[i] is row i's target columns as the scan takes them,
    columns.conj().T.  Each row is computed with the operations of a scan
    that visits one prefix at a time: per prefix qubit one 2x2 product on
    the contiguous (2, 2^(n-1)) layout of ``apply_on_qubit``'s tensordot, the
    last qubit's 24 Cliffords as a (24, 2^n) batch of images, and
    cols_dag @ batch.T, of which one entry is read.  Stacked, each is the
    same call per row, so a row's phase, and the output that prints it, is
    bit for bit that scan's and does not depend on the rows it is computed
    with.  Of the 24 images only the one the row reads, its last Clifford's,
    is computed, with the arithmetic of an einsum over all 24: each complex
    product from its real parts, and the two products summed onto a zero.
    The other 23 stay zero, so the matmul keeps its shape.
    """
    stack = _clifford_stack()
    rows, dim = states.shape
    state = states
    for l in range(tuples.shape[1] - 1):
        split = state.reshape(rows, 2**l, 2, -1).transpose(0, 2, 1, 3).reshape(rows, 2, -1)
        out = stack[tuples[:, l]] @ split
        state = out.reshape(rows, 2, 2**l, -1).transpose(0, 2, 1, 3).reshape(rows, dim)
    last = tuples[:, -1]
    x = state.reshape(rows, -1, 1, 2)  # [t, r, ., b]
    c = stack[last][:, None]  # [t, ., a, b]
    real = x.real * c.real - x.imag * c.imag
    imag = x.real * c.imag + x.imag * c.real
    image = np.empty((rows, dim // 2, 2), dtype=complex)  # [t, r, a]
    image.real = real[..., 0] + 0.0 + real[..., 1]
    image.imag = imag[..., 0] + 0.0 + imag[..., 1]
    batch = np.zeros((rows, 24, dim), dtype=complex)
    batch[np.arange(rows), last] = image.reshape(rows, dim)
    return (cols_dag @ batch.transpose(0, 2, 1))[np.arange(rows), columns, last]


def _apply_rowwise(u: np.ndarray, psi: np.ndarray, l: int) -> np.ndarray:
    """Row b of psi with the (B, 2, 2) u[b] applied to qubit l + 1; a single row is broadcast."""
    split = psi.reshape(len(psi), 2**l, 2, -1)
    upper, lower = split[:, :, 0], split[:, :, 1]
    out = np.empty((len(u),) + split.shape[1:], dtype=complex)
    out[:, :, 0] = u[:, 0, 0, None, None] * upper + u[:, 0, 1, None, None] * lower
    out[:, :, 1] = u[:, 1, 0, None, None] * upper + u[:, 1, 1, None, None] * lower
    return out.reshape(len(u), -1)


# ---------------------------------------------------------------------------
# grouping hits into classes

@dataclass
class ClassRecord:
    """One equivalence class: shared fingerprint, representatives, witness links."""

    fingerprint: InvariantFingerprint
    representatives: list[PhasePolynomial] = field(default_factory=list)
    witness_links: dict[str, Witness] = field(default_factory=dict)
    conjugate_partner: str | None = None

    @cached_property
    def key(self) -> str:
        """The first representative's text; representatives only grow at the end."""
        return self.representatives[0].to_text()

    def to_json_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint.to_json_dict(),
            "representatives": [f.to_text() for f in self.representatives],
            "witnesses": {k: w.to_json_dict() for k, w in self.witness_links.items()},
            "conjugate_partner": self.conjugate_partner,
        }


def lc_canonical_keys(fiducials: np.ndarray) -> list[bytes]:
    """Per (2^n,) row, a key shared by the rows local-Clifford equivalent to it, and only them.

    Kraus's standard form (PRL 104, 020504, 2010): fix each qubit's local
    frame from its marginal, then take the smallest ``phase_canonical_keys``
    row over the finite freedom that is left.  Qubit l's Bloch vector has 24
    cube-rotation images R_k v_l; rounded to 8 decimals, the Cliffords whose
    image is the lexicographically largest are kept (3 for a regular qubit,
    1 for a generic vector, 24 for a zero one).  Every kept tuple is applied
    to the row, and the key is the smallest key among those images.  An LC
    image of the row keeps the composed tuples, so its images are the same
    states up to phase.  Both steps round to 8 decimals, so the key is exact
    only up to that rounding.  Rows are taken KEY_HITS at a time and their
    images KEY_IMAGES at a time, so a zero-Bloch n=4 row's 24^4 images stay
    bounded.  The kept tuples whose image has the key are its canonical
    frames: two rows with one key are linked by composing their frames,
    which is how ``group_into_classes`` derives its witnesses.
    """
    return _lc_keys_and_frames(fiducials)[0]


def _lc_keys_and_frames(fiducials: np.ndarray) -> tuple[list[bytes], np.ndarray, np.ndarray]:
    """``lc_canonical_keys``, and the kept (frame-fixing) Clifford index tuples whose image
    has that key: row i's are the (M, n) int8 rows tuples[offsets[i]:offsets[i + 1]]."""
    fiducials = np.asarray(fiducials, dtype=complex)
    keys: list[bytes] = []
    blocks, counts = [], []
    for start in range(0, len(fiducials), KEY_HITS):
        block_keys, block_tuples, block_counts = _block_lc_keys(fiducials[start:start + KEY_HITS])
        keys += block_keys
        blocks.append(block_tuples)
        counts.append(block_counts)
    tuples = np.concatenate(blocks) if blocks else np.empty((0, 0), dtype=np.int8)
    return keys, tuples, np.cumsum(np.concatenate([[0], *counts]).astype(np.intp))


def _block_lc_keys(states: np.ndarray) -> tuple[list[bytes], np.ndarray, np.ndarray]:
    """``_lc_keys_and_frames`` of one block of rows, with each row's count of tuples."""
    n = num_qubits(states.shape[1])
    images = np.round(np.einsum("kij,blj->blki", clifford_bloch_rotations(),
                                bloch_vectors(states)), 8)  # (B, n, 24, 3)
    kept = np.ones(images.shape[:3], dtype=bool)
    for axis in range(3):  # lexicographic maximum, one component at a time
        component = np.where(kept, images[..., axis], -np.inf)
        kept &= component == component.max(axis=2, keepdims=True)
    counts = kept.sum(axis=2)  # (B, n)
    choices = np.argsort(~kept, axis=2, kind="stable")  # kept Cliffords first, ascending
    sizes = counts.prod(axis=1)
    ends = np.cumsum(sizes)
    stack = _clifford_stack()
    best: list[bytes | None] = [None] * len(states)
    frames: list[np.ndarray | None] = [None] * len(states)
    for first in range(0, int(ends[-1]), KEY_IMAGES):
        image = np.arange(first, min(first + KEY_IMAGES, int(ends[-1])))
        owner = np.searchsorted(ends, image, side="right")
        rest = image - (ends[owner] - sizes[owner])  # image number within its row
        psi = states[owner]
        tuples = np.empty((len(image), n), dtype=np.int8)
        for l in range(n - 1, -1, -1):  # mixed radix, last qubit fastest
            digit = rest % counts[owner, l]
            rest //= counts[owner, l]
            tuples[:, l] = choices[owner, l, digit]
            psi = _apply_rowwise(stack[tuples[:, l]], psi, l)
        image_keys = phase_canonical_keys(psi)
        bounds = np.flatnonzero(np.diff(owner)) + 1
        for lo, hi in zip([0, *bounds], [*bounds, len(owner)]):
            row, smallest = owner[lo], min(image_keys[lo:hi])
            if best[row] is not None and smallest > best[row]:
                continue
            minimal = tuples[lo:hi][[key == smallest for key in image_keys[lo:hi]]]
            if best[row] == smallest:
                minimal = np.concatenate([frames[row], minimal])
            best[row], frames[row] = smallest, minimal
    return best, np.concatenate(frames), np.array([len(f) for f in frames])


def conjugate_partner_key(hits: list[SearchHit], among: list[SearchHit]) -> list[str | None]:
    """Per hit, the key of the first hit in ``among`` whose basis holds its conjugated fiducial.

    ``hits`` and ``among`` come from one search: one n, one m, canonical
    (degree >= 2) polynomials.  Only -f's basis then holds conj(psi_f): H and
    S(n) are real, so conj(psi_f) = psi_(-f); column g of h's basis is the
    fiducial of h + 2^(m-1) sum_(i in g) z_i (``fiducial.fiducial_circuit``);
    and with no constant term, two fiducials are equal up to phase only when
    their polynomials are.  So the partner is looked up by -f, exactly.
    """
    keys = {other.polynomial: other.key for other in reversed(among)}  # the first one wins
    return [keys.get(hit.polynomial.negated()) for hit in hits]


def group_into_classes(hits: list[SearchHit]) -> list[ClassRecord]:
    """Group hits by fingerprint, split by local-Clifford canonical key, pair conjugates.

    Every basis is the orbit of its fiducial under the same group of real
    local Paulis, so a hit maps onto some column of another's basis under a
    pure local-Clifford tuple exactly when their fiducials are LC-equivalent:
    the classes are the LC classes of the fiducials, which share
    ``lc_canonical_keys``.  Within one fingerprint group, the first hit with
    a key opens its class, and its orbit basis becomes the class's witness
    target; every later hit with that key is linked to it by the witness
    ``lc_equivalence_witness`` would find, derived from the canonical frames
    without a scan.  The loop over members only collects these links, in
    order, and each LINK_CHUNK of them is derived in two array passes
    (``_derive_links``): tuples and columns, then phases, bit for bit the
    scan's.  A class's conjugation partner is the class of the group member
    that negates the representative's polynomial (``conjugate_partner_key``);
    one in another group is not found.
    """
    keys, tuples, offsets = _lc_keys_and_frames(np.array([hit.fiducial for hit in hits]))
    groups: dict[tuple, list[int]] = {}
    for i, hit in enumerate(hits):
        groups.setdefault(hit.fingerprint.class_key(), []).append(i)

    records: list[ClassRecord] = []
    links: list[tuple[ClassRecord, int, int, np.ndarray]] = []
    for key in sorted(groups, key=repr):
        members = groups[key]  # indices into hits
        # per key: the class, its first member and that member's conjugated orbit columns
        classes: dict[bytes, tuple[ClassRecord, int, np.ndarray]] = {}
        reps: list[SearchHit] = []
        member_class: dict[str, ClassRecord] = {}
        for i in members:
            hit, lc_key = hits[i], keys[i]
            if lc_key in classes:
                record, first, target = classes[lc_key]
                record.representatives.append(hit.polynomial)
                links.append((record, i, first, target))
                if len(links) == LINK_CHUNK:  # derived as they fill, so few targets stay alive
                    _derive_links(hits, tuples, offsets, links)
                    links = []
            else:
                record = ClassRecord(fingerprint=hit.fingerprint,
                                     representatives=[hit.polynomial])
                basis = orbit_basis(hit.fiducial, build_tetra_group(hit.polynomial.n),
                                    hit.polynomial)
                classes[lc_key] = (record, i, basis.columns.conj())
                reps.append(hit)
            member_class[hit.key] = record
        opened = [record for record, _, _ in classes.values()]
        for record, partner in zip(opened, conjugate_partner_key(reps, [hits[i] for i in members])):
            if partner is not None:
                record.conjugate_partner = member_class[partner].key
        for record in sorted(opened, key=lambda r: r.key):
            partner = record.conjugate_partner
            flag = None if partner is None else partner < record.key
            record.fingerprint = replace(record.fingerprint, conjugate_flag=flag)
            records.append(record)
    if links:
        _derive_links(hits, tuples, offsets, links)
    return records


def _derive_links(hits: list[SearchHit], tuples: np.ndarray, offsets: np.ndarray,
                  links: list[tuple[ClassRecord, int, int, np.ndarray]]) -> None:
    """Add to each link's class the witness ``lc_equivalence_witness`` returns for its member.

    A link is (class, member, the class's first member, target): the target
    is the orbit basis of the first fiducial psi_A, as its conjugated
    columns, and ``_lc_keys_and_frames`` gives the frames (tuples, offsets)
    of both fiducials.  The member's first frame carries its fiducial psi,
    and each frame f of psi_A carries psi_A, onto the same canonical state up
    to phase.  A tuple S carrying psi onto psi_A makes frame S^-1 a
    frame-fixing tuple of psi_A with minimal image, so S = f^-1 frame for
    some f, and the scan's witness is the smallest P_c S over these S and
    the columns c.  All links' candidates S form one ragged array, one
    segment per link, for one ``_smallest_column_image``, and their phases
    are one ``_witness_phase``, bit for bit the scan's.  A link whose phase
    has modulus below 1 - WITNESS_TOL raises, the first in link order.
    """
    products, inverse, _ = clifford_tables()
    members = np.array([link[1] for link in links])
    firsts = np.array([link[2] for link in links])
    counts = offsets[firsts + 1] - offsets[firsts]
    starts = np.cumsum(counts) - counts
    frames = tuples[np.arange(counts.sum()) + np.repeat(offsets[firsts] - starts, counts)]
    candidates = products[inverse[frames], np.repeat(tuples[offsets[members]], counts, axis=0)]
    images, columns = _smallest_column_image(candidates, starts)
    cols_dag = np.stack([link[3] for link in links]).transpose(0, 2, 1)
    states = np.array([hits[i].fiducial for i in members])
    phases = _witness_phase(states, images, columns, cols_dag)
    for (record, i, _, _), image, column, phase in zip(links, images.tolist(), columns.tolist(),
                                                       phases.tolist()):
        if abs(phase) < 1 - WITNESS_TOL:
            raise _unlinked(hits[i].polynomial, record.representatives[0])
        record.witness_links[hits[i].key] = Witness(tuple(image), False, column, phase)


def _unlinked(f: PhasePolynomial, rep: PhasePolynomial) -> AssertionError:
    return AssertionError(
        f"{f.to_text()!r} shares the local-Clifford key of {rep.to_text()!r} "
        "but no witness links them")
