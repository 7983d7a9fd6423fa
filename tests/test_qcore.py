from functools import reduce
from itertools import product

import numpy as np
import pytest

from tetrabasis.basisgen import build_tetra_group, orbit_basis
from tetrabasis.qcore import (
    CapacityError,
    PAULI_MATS,
    hermitian_eig,
    num_qubits,
    partial_trace,
    pauli_matrix,
    phase_canonical_key,
    phase_canonical_keys,
)

I2 = np.eye(2, dtype=complex)
BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
APPA_FIDUCIAL = np.array([1, (1 - 1j) / 2, (1 + 1j) / 2, 0], dtype=complex) / np.sqrt(2)


def letter_matrix(letters):
    """Reference: Kronecker product of the letters' 2x2 Pauli matrices, qubit 1 leftmost."""
    return reduce(np.kron, [PAULI_MATS[c] for c in letters])


def letter_masks(letters):
    """(x mask, z mask) of a letter string; Y = i X Z = -i Z X carries both bits."""
    a = int("".join("1" if c in "XY" else "0" for c in letters), 2)
    b = int("".join("1" if c in "YZ" else "0" for c in letters), 2)
    return a, b


def mask_pairs(n):
    return list(product(range(2**n), repeat=2))


class TestPartialTrace:
    def test_bell_marginal_maximally_mixed(self):
        np.testing.assert_allclose(partial_trace(BELL, {1}), np.eye(2) / 2, atol=1e-14)

    def test_product_state_marginal(self):
        rho = partial_trace(np.eye(4)[1], {2})
        np.testing.assert_allclose(rho, np.outer([0, 1], [0, 1]), atol=1e-15)

    def test_appA_fiducial_marginal(self):
        # hand partial trace of the published 4-amplitude vector:
        # rho = [[3/4, (1-i)/4], [(1+i)/4, 1/4]]
        expected = np.array([[0.75, (1 - 1j) / 4], [(1 + 1j) / 4, 0.25]])
        np.testing.assert_allclose(partial_trace(APPA_FIDUCIAL, {1}), expected, atol=1e-14)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(BELL, set())

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(BELL, {3})

    def test_trace_and_psd_on_random_states(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4):
            psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            psi /= np.linalg.norm(psi)
            rho = partial_trace(psi, {1, n})
            assert abs(np.trace(rho) - 1) < 1e-12
            np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(rho).min() > -1e-12


class TestHermitianEig:
    def test_identity(self):
        vals, _ = hermitian_eig(np.eye(4, dtype=complex))
        np.testing.assert_allclose(vals, np.ones(4), atol=1e-14)

    def test_z(self):
        vals, _ = hermitian_eig(PAULI_MATS["Z"])
        np.testing.assert_allclose(vals, [1, -1], atol=1e-14)

    def test_bell_marginal(self):
        vals, _ = hermitian_eig(partial_trace(BELL, {1}))
        np.testing.assert_allclose(vals, [0.5, 0.5], atol=1e-13)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_descending_reconstruction_orthonormal(self):
        rng = np.random.default_rng(9)
        mat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        hm = mat + mat.conj().T
        vals, vecs = hermitian_eig(hm)
        assert np.all(np.diff(vals) <= 1e-12)
        np.testing.assert_allclose((vecs * vals) @ vecs.conj().T, hm, atol=1e-10)
        np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(8), atol=1e-10)
        assert abs(vals.sum() - np.trace(hm).real) < 1e-10


class TestNumQubits:
    def test_powers_of_two(self):
        assert [num_qubits(2**n) for n in range(7)] == list(range(7))

    @pytest.mark.parametrize("dim", [12, 0, -4])
    def test_other_dimensions_rejected(self, dim):
        with pytest.raises(ValueError, match=f"dimension {dim} is not a power of two"):
            num_qubits(dim)


class TestPauliStrings:
    """Pauli operators as (x mask, z mask) pairs: Z^b X^a against letter Kronecker products."""

    def test_zz_times_xx(self):
        # Z^11 X^11 is the product (ZZ)(XX) = -YY
        np.testing.assert_array_equal(pauli_matrix(2, 0b11, 0b11), -letter_matrix("YY"))

    def test_self_inverse(self):
        for n in (1, 2, 3):
            for a, b in mask_pairs(n):
                p = pauli_matrix(n, a, b)
                sign = (-1) ** (a & b).bit_count()
                np.testing.assert_array_equal(p @ p, sign * np.eye(2**n))

    def test_z_times_x(self):
        np.testing.assert_array_equal(pauli_matrix(1, 1, 1), 1j * letter_matrix("Y"))

    def test_matrix_consistency(self):
        # every letter string is its masks' Z^b X^a times (-i)^(number of Y)
        for n in (1, 2, 3):
            for letters in product("IXYZ", repeat=n):
                phase = (-1j) ** letters.count("Y")
                np.testing.assert_array_equal(phase * pauli_matrix(n, *letter_masks(letters)),
                                              letter_matrix(letters))

    def test_commute_anticommute_phase(self):
        # Z^b X^a Z^b' X^a' = (-1)^(a.b') Z^(b^b') X^(a^a'); the pair commutes
        # exactly when a.b' + a'.b is even
        n = 2
        for (a, b), (c, d) in product(mask_pairs(n), repeat=2):
            p, q = pauli_matrix(n, a, b), pauli_matrix(n, c, d)
            np.testing.assert_array_equal(
                p @ q, (-1) ** (a & d).bit_count() * pauli_matrix(n, a ^ c, b ^ d))
            commute = ((a & d).bit_count() + (c & b).bit_count()) % 2 == 0
            np.testing.assert_array_equal(p @ q, (1 if commute else -1) * (q @ p))

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            pauli_matrix(2, 4, 0)
        with pytest.raises(ValueError):
            pauli_matrix(2, 0, -1)
        with pytest.raises(CapacityError):
            pauli_matrix(7, 0, 0)


def scalar_phase_key(u):
    """Reference: one matrix's key, pivot = first entry within 1e-9 of the largest modulus."""
    flat = u.ravel()
    mags = np.abs(flat)
    pivot = flat[np.flatnonzero(mags >= mags.max() - 1e-9)[0]]
    return (np.round(u * (abs(pivot) / pivot), 8) + 0.0).tobytes()


class TestPhaseCanonicalKeys:
    def rows_and_matrices(self):
        from tetrabasis.search import SearchConfig, search_regular, single_qubit_cliffords
        hits = search_regular(SearchConfig(3, 2))[:6] + search_regular(
            SearchConfig(4, 2, sample=300, seed=1))
        columns = [orbit_basis(h.fiducial, build_tetra_group(h.polynomial.n)).columns.conj().T
                   for h in hits]
        # ties: the equal-modulus rows of the n = 2 orbit and of Hadamard-like matrices
        tied = np.array([[1, 1j, -1, -1j], [0.5, -0.5, 0.5j, 0.5], [0, 1, -1, 0]]) / 2
        return columns + [tied], list(single_qubit_cliffords())

    def test_rows_match_the_per_row_key(self):
        row_blocks, matrices = self.rows_and_matrices()
        row_blocks.append(np.array([m.ravel() for m in matrices]))
        for rows in row_blocks:
            keys = phase_canonical_keys(rows)
            assert keys == [phase_canonical_key(row) for row in rows]
            assert keys == [scalar_phase_key(row) for row in rows]

    def test_matrix_key_is_its_flattened_row(self):
        row_blocks, matrices = self.rows_and_matrices()
        for u in matrices + row_blocks:
            assert phase_canonical_key(u) == scalar_phase_key(u)


class TestPhaseCanonicalKeyInvariance:
    """The key of a hit fiducial survives the changes that leave its class unchanged.

    Hit amplitudes take few distinct moduli, so rows often hold several
    entries of equal modulus; the key must not pick its pivot among them by
    the row's phase.
    """

    @pytest.fixture(scope="class")
    def hits(self):
        from tetrabasis.search import SearchConfig, search_regular
        hits = search_regular(SearchConfig(3, 2)) + search_regular(
            SearchConfig(4, 2, sample=6000, seed=1))
        assert len(hits) > 100
        return hits

    @staticmethod
    def random_lc(n, rng):
        """Kronecker product of n random single-qubit Cliffords, each with a random phase."""
        from tetrabasis.search import single_qubit_cliffords
        cliffords = single_qubit_cliffords()
        return reduce(np.kron, [np.exp(2j * np.pi * rng.random()) * cliffords[k]
                                for k in rng.integers(0, 24, n)])

    @staticmethod
    def column_keys(columns):
        return set(phase_canonical_keys(columns.T))

    def test_random_global_phase(self, hits):
        rng = np.random.default_rng(11)
        for hit in hits:
            for psi in (hit.fiducial, self.random_lc(hit.polynomial.n, rng) @ hit.fiducial):
                phases = np.exp(2j * np.pi * rng.random(4))[:, None]
                keys = phase_canonical_keys(phases * psi)
                assert keys == [phase_canonical_key(psi)] * 4

    def test_other_column_as_fiducial(self, hits):
        # the column, read off as a state, carries an arbitrary phase
        rng = np.random.default_rng(12)
        for hit in hits:
            basis = orbit_basis(hit.fiducial, build_tetra_group(hit.polynomial.n))
            other = orbit_basis(np.exp(2j * np.pi * rng.random())
                                * basis.column(int(rng.integers(1, basis.size))), basis.group)
            assert self.column_keys(other.columns) == self.column_keys(basis.columns)

    def test_random_lc_tuple_on_both_sides(self, hits):
        rng = np.random.default_rng(13)
        for hit in hits:
            basis = orbit_basis(hit.fiducial, build_tetra_group(hit.polynomial.n))
            other = orbit_basis(np.exp(2j * np.pi * rng.random())
                                * basis.column(int(rng.integers(1, basis.size))), basis.group)
            lc = self.random_lc(basis.n, rng)
            assert self.column_keys(lc @ other.columns) == self.column_keys(lc @ basis.columns)
