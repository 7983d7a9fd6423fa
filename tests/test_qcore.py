import numpy as np
import pytest

from tetrabasis.qcore import (
    CapacityError,
    PAULI_MATS,
    PauliString,
    all_pauli_letter_strings,
    basis_state,
    hermitian_eig,
    partial_trace,
    pauli_multiply,
    tensor_product,
)

I2 = np.eye(2, dtype=complex)
BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
APPA_FIDUCIAL = np.array([1, (1 - 1j) / 2, (1 + 1j) / 2, 0], dtype=complex) / np.sqrt(2)


class TestTensorProduct:
    def test_identity_kron(self):
        np.testing.assert_allclose(tensor_product(I2, I2), np.eye(4), atol=1e-15)

    def test_basis_index_arithmetic(self):
        ket0, ket1 = basis_state(1, 0), basis_state(1, 1)
        np.testing.assert_allclose(tensor_product(ket0, ket1), basis_state(2, 1), atol=1e-15)

    def test_zz_on_11(self):
        zz = tensor_product(PAULI_MATS["Z"], PAULI_MATS["Z"])
        np.testing.assert_allclose(zz @ basis_state(2, 3), basis_state(2, 3), atol=1e-15)

    def test_capacity_error(self):
        big = np.eye(2**4, dtype=complex)
        with pytest.raises(CapacityError):
            tensor_product(big, np.eye(2**3, dtype=complex))

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            tensor_product(I2, basis_state(1, 0))


class TestPartialTrace:
    def test_bell_marginal_maximally_mixed(self):
        np.testing.assert_allclose(partial_trace(BELL, {1}), np.eye(2) / 2, atol=1e-14)

    def test_product_state_marginal(self):
        rho = partial_trace(basis_state(2, 1), {2})
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


class TestPauliStrings:
    def test_zz_times_xx(self):
        out = pauli_multiply(PauliString("ZZ"), PauliString("XX"))
        assert out.letters == "YY" and out.phase == -1

    def test_self_inverse(self):
        out = pauli_multiply(PauliString("X"), PauliString("X"))
        assert out.letters == "I" and out.phase == 1

    def test_z_times_x(self):
        out = pauli_multiply(PauliString("Z"), PauliString("X"))
        assert out.letters == "Y" and out.phase == 1j

    def test_matrix_consistency(self):
        rng = np.random.default_rng(1)
        letters = all_pauli_letter_strings(2)
        for _ in range(30):
            a = PauliString(letters[rng.integers(16)])
            b = PauliString(letters[rng.integers(16)])
            np.testing.assert_allclose((a * b).to_matrix(), a.to_matrix() @ b.to_matrix(),
                                       atol=1e-14)

    def test_commute_anticommute_phase(self):
        letters = all_pauli_letter_strings(3)
        for a_str in letters[:10]:
            for b_str in letters[:10]:
                a, b = PauliString(a_str), PauliString(b_str)
                ab, ba = a * b, b * a
                assert ab.letters == ba.letters
                ratio = ab.phase / ba.phase
                assert ratio == (1 if a.commutes_with(b) else -1)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            PauliString("XQ")
        with pytest.raises(ValueError):
            PauliString("X", phase=0.5)
        with pytest.raises(ValueError):
            pauli_multiply(PauliString("X"), PauliString("XX"))
