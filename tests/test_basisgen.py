from functools import lru_cache, reduce

import numpy as np
import pytest

from tetrabasis.basisgen import (
    NonOrthonormalBasisError,
    TETRAHEDRON_VERTICES,
    bases_equal_up_to_relabeling,
    bloch_state,
    build_tetra_group,
    check_orthonormal,
    ejm_reference_basis,
    measurement_unitary,
    orbit_basis,
)
from tetrabasis.fiducial import build_fiducial, fiducial_circuit, parse_polynomial
from tetrabasis.geometry import bloch_vector
from tetrabasis.qcore import PAULI_MATS, CapacityError, pauli_matrix
from tetrabasis.reproduce import EJM_MATRIX
from tetrabasis.search import canonical_monomials, polynomial_from_coeffs

from polyspace import enumerate_polynomials, seeded_polynomials

KET00 = np.eye(4, dtype=complex)[0]


def letter_matrix(letters):
    """Reference: Kronecker product of the letters' 2x2 Pauli matrices, qubit 1 leftmost."""
    return reduce(np.kron, [PAULI_MATS[c] for c in letters])


@lru_cache(maxsize=None)
def group_oracle(n):
    """U_g for every label g: the ordered product (Z1Z2)^g1 ... (X^n)^gn of dense generators."""
    gens = [letter_matrix("I" * i + "ZZ" + "I" * (n - i - 2)) for i in range(n - 1)]
    gens.append(letter_matrix("X" * n))
    elements = []
    for g in range(2**n):
        u = np.eye(2**n, dtype=complex)
        for k, gen in enumerate(gens):
            if (g >> (n - 1 - k)) & 1:
                u = u @ gen
        elements.append(u)
    return tuple(elements)


def mask_elements(n):
    group = build_tetra_group(n)
    return [pauli_matrix(n, a, b) for a, b in zip(group.x_masks, group.z_masks)]


class TestTetraGroup:
    def test_two_qubit_elements(self):
        group = build_tetra_group(2)
        assert group.x_masks == (0, 0b11, 0, 0b11)
        assert group.z_masks == (0, 0, 0b11, 0b11)
        expected = [letter_matrix("II"), letter_matrix("XX"), letter_matrix("ZZ"),
                    -letter_matrix("YY")]
        for elem, ref in zip(mask_elements(2), expected):
            np.testing.assert_array_equal(elem, ref)

    def test_label_bit_convention(self):
        group = build_tetra_group(2)
        # label (g1, g2) = (1, 0) is Z1Z2
        assert (group.x_masks[0b10], group.z_masks[0b10]) == (0, 0b11)
        np.testing.assert_array_equal(mask_elements(2)[0b10], letter_matrix("ZZ"))

    def test_identity_at_label_zero(self):
        for n in (2, 3, 4, 5):
            group = build_tetra_group(n)
            assert (group.x_masks[0], group.z_masks[0]) == (0, 0)

    def test_masks_equal_ordered_generator_products(self):
        for n in (2, 3, 4, 5):
            for g, (elem, ref) in enumerate(zip(mask_elements(n), group_oracle(n))):
                np.testing.assert_array_equal(elem, ref, err_msg=f"n={n} label {g}")

    def test_three_qubit_commuting(self):
        mats = mask_elements(3)
        assert len(mats) == 8
        for a in mats:
            for b in mats:
                np.testing.assert_array_equal(a @ b, b @ a)

    def test_elements_square_to_plus_minus_identity(self):
        # the group's elements are all +1-squaring: Z^b X^a with even a.b
        for n in (2, 3, 4, 5):
            for elem in mask_elements(n):
                np.testing.assert_array_equal(elem @ elem, np.eye(2**n))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_fiducial_circuit_conjugates_the_group_to_the_z_strings(self, n):
        # W = S(n) H_n carries D_f H^(x n)|0..0> to the fiducial, and W^dag U_g W
        # is exactly the Z string Z^g: it commutes with D_f, and H^(x n) turns it
        # into X^g, so the fiducial circuit W D_f H^(x n) conjugates U_g to X^g,
        # label for label, whatever f.  D_f H^(x n)|0..0> has flat moduli, so
        # <psi|U_g|psi> = 2^-n sum_x (-1)^(g.x) = 0 for g >= 1: every orbit is
        # orthonormal by construction, for every polynomial
        group = build_tetra_group(n)
        for f in seeded_polynomials(n, 3, 2, 8, min_degree=1):
            circuit = fiducial_circuit(f)
            for g, (a, b) in enumerate(zip(group.x_masks, group.z_masks)):
                conjugated = circuit.conj().T @ pauli_matrix(n, a, b) @ circuit
                np.testing.assert_allclose(conjugated, pauli_matrix(n, g, 0), rtol=0, atol=1e-12)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            build_tetra_group(1)

    def test_capacity_rejected(self):
        with pytest.raises(CapacityError):
            build_tetra_group(7)


class TestOrbitBasis:
    def test_column_count(self):
        rng = np.random.default_rng(0)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        assert orbit_basis(psi, build_tetra_group(3)).size == 8

    def test_degenerate_orbit_of_00(self):
        basis = orbit_basis(KET00, build_tetra_group(2))
        report = check_orthonormal(basis)
        assert not report.ok
        assert abs(report.max_violation - 1) < 1e-12

    def test_appA_orbit_matches_published_matrix(self):
        from tetrabasis.geometry import apply_local_unitaries
        from tetrabasis.qcore import PAULI_MATS
        f = parse_polynomial("z1 z2", 2, 2)
        basis = orbit_basis(build_fiducial(f), build_tetra_group(2), f)
        transformed = np.stack(
            [apply_local_unitaries(basis.column(g), [np.eye(2), -PAULI_MATS["Y"]])
             for g in range(4)], axis=1)
        assert bases_equal_up_to_relabeling(transformed, EJM_MATRIX)

    def test_orthonormal_for_phase_polynomial(self):
        f = parse_polynomial("z1 z2", 2, 2)
        basis = orbit_basis(build_fiducial(f), build_tetra_group(2), f)
        assert check_orthonormal(basis).ok

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            orbit_basis(KET00, build_tetra_group(3))

    def test_columns_equal_dense_oracle_bytes(self):
        # the index-and-sign columns equal the dense products U_g psi byte for
        # byte, signed zeros included: a negated zero amplitude must print 0.0
        rng = np.random.default_rng(61)
        polys = list(enumerate_polynomials(3, 2))
        for n, m in ((4, 2), (3, 3)):
            monos = canonical_monomials(n)
            polys += [polynomial_from_coeffs(
                n, m, monos, tuple(int(c) for c in rng.integers(0, 2**m, len(monos))))
                for _ in range(50)]
        zero_seen = 0
        for f in polys:
            psi = build_fiducial(f)
            cols = orbit_basis(psi, build_tetra_group(f.n), f).columns
            dense = np.stack([u @ psi for u in group_oracle(f.n)], axis=1)
            assert cols.tobytes() == dense.tobytes(), f.to_text()
            parts = cols.view(float)
            assert not np.any(np.signbit(parts[parts == 0])), f.to_text()
            zero_seen += int(np.any(psi == 0))
        assert zero_seen > 0


class TestMeasurementUnitary:
    def test_maps_label_zero_to_fiducial(self):
        f = parse_polynomial("z1 z2", 2, 2)
        basis = orbit_basis(build_fiducial(f), build_tetra_group(2), f)
        m = measurement_unitary(basis)
        np.testing.assert_allclose(m @ KET00, basis.fiducial, atol=1e-14)

    def test_unitary_for_table_row(self):
        f = parse_polynomial("z1 z3 + 3 z2 z3 + z1 z2 z3", 3, 2)
        basis = orbit_basis(build_fiducial(f), build_tetra_group(3), f)
        m = measurement_unitary(basis)
        np.testing.assert_allclose(m.conj().T @ m, np.eye(8), atol=1e-10)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(NonOrthonormalBasisError):
            measurement_unitary(orbit_basis(KET00, build_tetra_group(2)))

    @pytest.mark.parametrize("n, m", [(n, m) for n in range(2, 7) for m in range(1, 5)]
                             + [(2, 62), (3, 62)])
    def test_is_the_fiducial_circuit(self, n, m):
        # M_psi = S(n) H_n D_f H^(x n) entrywise, which fixes its hierarchy level
        for f in seeded_polynomials(n, m, 6, 9, min_degree=1):
            u = measurement_unitary(orbit_basis(build_fiducial(f), build_tetra_group(n), f))
            np.testing.assert_allclose(u, fiducial_circuit(f), rtol=0, atol=1e-12,
                                       err_msg=f.to_text())


class TestBlochState:
    def test_north_pole(self):
        np.testing.assert_allclose(bloch_state(np.array([0, 0, 1.0])), [1, 0], atol=1e-15)

    def test_plus_x(self):
        np.testing.assert_allclose(bloch_state(np.array([1.0, 0, 0])),
                                   np.array([1, 1]) / np.sqrt(2), atol=1e-15)

    def test_round_trip_m1(self):
        state = bloch_state(TETRAHEDRON_VERTICES[0])
        np.testing.assert_allclose(bloch_vector(state, 1), TETRAHEDRON_VERTICES[0],
                                   atol=1e-12)

    def test_antipodal_orthogonal(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            plus, minus = bloch_state(v, +1), bloch_state(v, -1)
            assert abs(np.vdot(plus, minus)) < 1e-12

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            bloch_state(np.array([1.0, 1.0, 0]))


class TestEjmReference:
    def test_columns_match_published_matrix(self):
        ref = ejm_reference_basis()
        for i in range(4):
            assert abs(abs(np.vdot(EJM_MATRIX[:, i], ref.column(i))) - 1) < 1e-10

    def test_pairwise_orthogonal(self):
        ref = ejm_reference_basis()
        gram = np.abs(ref.columns.conj().T @ ref.columns - np.eye(4))
        assert gram.max() < 1e-10

    def test_iso_entangled_concurrence_half(self):
        # oracle: the reference-state Schmidt coefficients a, b give C = 2ab = 1/2
        from tetrabasis.entanglement import pairwise_concurrence
        ref = ejm_reference_basis()
        for i in range(4):
            assert abs(pairwise_concurrence(ref.column(i), (1, 2)) - 0.5) < 1e-10


class TestBasisEquality:
    def test_identity(self):
        ref = ejm_reference_basis()
        assert bases_equal_up_to_relabeling(ref.columns, ref.columns)

    def test_permutation_and_phases(self):
        ref = ejm_reference_basis()
        perm = [2, 0, 3, 1]
        phases = np.exp(1j * np.array([0.3, -1.2, 2.5, 0.9]))
        shuffled = ref.columns[:, perm] * phases
        assert bases_equal_up_to_relabeling(ref.columns, shuffled)

    def test_distinct_bases(self):
        ref = ejm_reference_basis()
        assert not bases_equal_up_to_relabeling(ref.columns, np.eye(4, dtype=complex))
