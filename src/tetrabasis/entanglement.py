"""Local-unitary invariants: three-tangle, pairwise concurrence, permutation symmetry."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .basisgen import Basis
from .geometry import GeometryReport, basis_bloch_table, classify_geometry, orbit_bloch_table
from .qcore import num_qubits, PAULI_MATS

_YY = np.kron(PAULI_MATS["Y"], PAULI_MATS["Y"])


def three_tangle(psi: np.ndarray) -> float:
    """Three-tangle 4|Det a| of a three-qubit pure state.

    Coffman, Kundu and Wootters, PRA 61, 052306 (2000).  Det is Cayley's
    hyperdeterminant of the amplitude tensor a in discriminant form,
    b^2 - 4 det(a[0]) det(a[1]), with b the xy coefficient of det(x a[0] + y a[1]).
    """
    psi = np.asarray(psi, dtype=complex)
    if num_qubits(psi.shape[0]) != 3:
        raise ValueError("three_tangle is defined for exactly 3 qubits")
    return float(_three_tangles(psi[None])[0])


def _three_tangles(states: np.ndarray) -> np.ndarray:
    """(B,) ``three_tangle`` of each row of (B, 8) states, in one array pass.

    The bits are those of the formula evaluated on one row's numpy scalars.
    numpy's array loops round a complex product (a fused multiply-add) and a
    complex modulus differently from its scalars, so products are formed
    from their real parts (``_product``) and the modulus is ``np.hypot``.
    """
    a = states.reshape(-1, 2, 2, 2)
    b = (_product(a[:, 0, 0, 0], a[:, 1, 1, 1]) + _product(a[:, 0, 1, 1], a[:, 1, 0, 0])
         - _product(a[:, 0, 0, 1], a[:, 1, 1, 0]) - _product(a[:, 0, 1, 0], a[:, 1, 0, 1]))
    det = _product(4 * np.linalg.det(a[:, 0]), np.linalg.det(a[:, 1]))
    z = _product(b, b) - det
    return 4 * np.hypot(z.real, z.imag)


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y of complex arrays, rounded as one numpy complex scalar product is."""
    out = np.empty(x.shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def pairwise_concurrence(psi: np.ndarray, pair: tuple[int, int]) -> float:
    """Wootters concurrence of the two-qubit marginal on a pair of qubits (1-indexed).

    Wootters, PRL 80, 2245 (1998).  With psi as a matrix A whose 4 rows index
    the pair, the square roots of the eigenvalues of rho (Y x Y) rho* (Y x Y)
    are the singular values s of A^T (Y x Y) A, so C = max(0, s_0 - s_1 - ...).
    """
    psi = np.asarray(psi, dtype=complex)
    n = num_qubits(psi.shape[0])
    k, l = pair
    if k == l or not (1 <= k <= n and 1 <= l <= n):
        raise ValueError(f"pair must be two distinct qubits in 1..{n}, got {pair}")
    return float(_concurrences(psi[None], ((k, l),))[0, 0])


def _concurrences(states: np.ndarray, pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """(B, len(pairs)) concurrences of (B, 2^n) states by ``pairwise_concurrence``'s formula.

    Rows do not interact: each (row, pair) matrix goes through its own SVD.
    """
    if not pairs:
        return np.zeros((len(states), 0))
    a = states[:, _pair_split(num_qubits(states.shape[1]), pairs)]  # (B, P, 4, 2^(n-2))
    s = np.linalg.svd(a.swapaxes(-1, -2) @ _YY @ a, compute_uv=False)
    return np.maximum(0.0, s[..., 0] - s[..., 1:].sum(axis=-1))


@lru_cache(maxsize=None)
def _pair_split(n: int, pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """(P, 4, 2^(n-2)) indices: a state as the matrix whose 4 rows index each pair."""
    idx = np.arange(2**n).reshape((2,) * n)
    return np.stack([np.moveaxis(idx, (k - 1, l - 1), (0, 1)).reshape(4, -1) for k, l in pairs])


def permutation_operator_apply(psi: np.ndarray, perm: tuple[int, ...]) -> np.ndarray:
    """State with qubit wires permuted: wire i carries what wire perm[i] carried."""
    n = num_qubits(psi.shape[0])
    return psi.reshape([2] * n).transpose(perm).reshape(-1)


def permutation_stabilizer_order(psi: np.ndarray) -> int:
    """Number of qubit-wire permutations fixing the state up to global phase, within 1e-9."""
    return int(_stabilizer_orders(np.asarray(psi, dtype=complex)[None])[0])


def _stabilizer_orders(states: np.ndarray) -> np.ndarray:
    """``permutation_stabilizer_order`` of each row of (B, 2^n) states."""
    moved = states[:, _wire_permutations(num_qubits(states.shape[1]))]  # (B, n!, 2^n)
    overlaps = np.einsum("bx,bpx->bp", states.conj(), moved)
    return np.count_nonzero(np.abs(overlaps) >= 1 - 1e-9, axis=1)


@lru_cache(maxsize=None)
def _wire_permutations(n: int) -> np.ndarray:
    """(n!, 2^n) indices: ``permutation_operator_apply`` for every wire permutation."""
    idx = np.arange(2**n)
    return np.stack([permutation_operator_apply(idx, perm) for perm in permutations(range(n))])


@dataclass(frozen=True)
class InvariantFingerprint:
    """Invariant bundle used to group bases into classes."""

    n: int
    tangle: float | None                 # three-qubit only
    concurrence_sq: tuple[float, ...]    # sorted over all qubit pairs
    r: float | None
    chirality_signature: str
    stabilizer_order: int
    conjugate_flag: bool | None = None

    def class_key(self) -> tuple:
        """Key for grouping: LU-invariant fields rounded to 10 decimals.

        The permutation-stabilizer order and the chirality signature are
        recorded but excluded here: both are frame quantities that vary
        across local-Clifford images of one class (a phase gate on a single
        qubit mirrors that qubit's labeled tetra), so keying on them would
        split genuine equivalence classes.
        """
        parts: list = []
        if self.tangle is not None:
            parts.append(round(self.tangle, 10))
        parts.append(tuple(round(c, 10) for c in self.concurrence_sq))
        parts.append(round(self.r, 10) if self.r is not None else None)
        return tuple(parts)

    def to_json_dict(self) -> dict:
        return {
            "tangle": self.tangle,
            "concurrence_sq": list(self.concurrence_sq),
            "r": self.r,
            "chirality": self.chirality_signature,
            "stab_order": self.stabilizer_order,
            "conjugate_flag": self.conjugate_flag,
        }


def invariant_fingerprint(basis: Basis, geometry: GeometryReport | None = None) -> InvariantFingerprint:
    """Fingerprint of an orthonormal basis from its fiducial state."""
    if geometry is None:
        table = orbit_bloch_table(basis) if basis.group is not None else basis_bloch_table(basis)
        geometry = classify_geometry(table)
    return invariant_fingerprints(basis.fiducial[None], [geometry])[0]


def invariant_fingerprints(states: np.ndarray,
                           geometries: list[GeometryReport]) -> list[InvariantFingerprint]:
    """``invariant_fingerprint`` of each fiducial row of (B, 2^n) states with its geometry."""
    states = np.asarray(states, dtype=complex)
    n = num_qubits(states.shape[1])
    if n == 3:
        tangles = [round(t, 10) for t in _three_tangles(states).tolist()]
    else:
        tangles = [None] * len(states)
    concurrences = _concurrences(states, tuple(combinations(range(1, n + 1), 2))).tolist()
    orders = _stabilizer_orders(states).tolist()
    return [
        InvariantFingerprint(
            n=n,
            tangle=tangle,
            concurrence_sq=tuple(sorted(round(c**2, 10) for c in conc)),
            r=round(geometry.r, 10) if geometry.r is not None else None,
            chirality_signature=geometry.chirality_signature(),
            stabilizer_order=order,
        )
        for tangle, conc, order, geometry in zip(tangles, concurrences, orders, geometries)
    ]
