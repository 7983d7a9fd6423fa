from itertools import combinations, permutations, product

import numpy as np
import pytest

from tetrabasis.basisgen import build_tetra_group, ejm_reference_basis, orbit_basis
from tetrabasis.entanglement import (
    _YY,
    _three_tangles,
    InvariantFingerprint,
    invariant_fingerprint,
    invariant_fingerprints,
    pairwise_concurrence,
    permutation_operator_apply,
    permutation_stabilizer_order,
    three_tangle,
)
from tetrabasis.fiducial import parse_polynomial, build_fiducial, build_fiducials
from tetrabasis.geometry import (
    apply_local_unitaries,
    classify_geometries,
    classify_geometry,
    orbit_bloch_table,
    orbit_bloch_tables,
)
from tetrabasis.qcore import PAULI_MATS, partial_trace
from tetrabasis.search import _monomial_indicator, canonical_monomials


def basis_state(n, index):
    return np.eye(2**n, dtype=complex)[index]

from polyspace import enumerate_polynomials

GHZ = (basis_state(3, 0b000) + basis_state(3, 0b111)) / np.sqrt(2)
BELL = (basis_state(2, 0b00) + basis_state(2, 0b11)) / np.sqrt(2)

TABLE1 = {
    "z1 z3 + 3 z2 z3 + z1 z2 z3": np.sqrt(65) / 16,
    "z1 z2 + z1 z3 + z2 z3 + 3 z1 z2 z3": np.sqrt(97) / 16,
    "z1 z2 + 2 z1 z3 + z1 z2 z3": np.sqrt(113) / 16,
    "z1 z3 + z1 z2 z3": np.sqrt(145) / 16,
}


def fiducial(text):
    return build_fiducial(parse_polynomial(text, 3, 2))


def random_state(rng, n):
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return psi / np.linalg.norm(psi)


def random_local_unitaries(rng, n):
    factors = []
    for _ in range(n):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        factors.append(q)
    return factors


def concurrences_sq(psi):
    n = int(np.log2(psi.shape[0]))
    return [pairwise_concurrence(psi, p) ** 2 for p in combinations(range(1, n + 1), 2)]


class TestThreeTangle:
    def test_ghz(self):
        assert abs(three_tangle(GHZ) - 1) < 1e-14

    def test_product_state(self):
        assert three_tangle(basis_state(3, 0)) == 0

    @pytest.mark.parametrize("text,tau", TABLE1.items())
    def test_table1_values(self, text, tau):
        assert abs(three_tangle(fiducial(text)) - tau) < 1e-12

    def test_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            three_tangle(BELL)

    def test_conjugation_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            psi = rng.normal(size=8) + 1j * rng.normal(size=8)
            psi /= np.linalg.norm(psi)
            assert abs(three_tangle(psi) - three_tangle(np.conj(psi))) < 1e-12


def scalar_three_tangle(psi):
    """Reference: the hyperdeterminant formula on one state's numpy scalars, as first written."""
    a = psi.reshape(2, 2, 2)
    b = (a[0, 0, 0] * a[1, 1, 1] + a[0, 1, 1] * a[1, 0, 0]
         - a[0, 0, 1] * a[1, 1, 0] - a[0, 1, 0] * a[1, 0, 1])
    return float(4 * abs(b**2 - 4 * np.linalg.det(a[0]) * np.linalg.det(a[1])))


def n3_fiducials(m):
    """Every canonical n=3 polynomial's fiducial at precision m, in enumeration order."""
    monos = canonical_monomials(3)
    coeffs = np.array(list(product(range(2**m), repeat=len(monos))))
    return build_fiducials(coeffs @ _monomial_indicator(3, tuple(monos)) % 2**m, 3, m)


class TestBatchedThreeTangle:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_full_n3_space_equals_the_scalar_formula(self, m):
        # the fingerprints keep round(tau, 10), and reproduce table1 prints tau
        # unrounded, so the one-row call is compared bit for bit as well
        states = n3_fiducials(m)
        reference = np.array([scalar_three_tangle(psi) for psi in states])
        tangles = _three_tangles(states)
        assert np.abs(tangles - reference).max() <= 1e-15
        assert tangles.view(np.int64).tolist() == reference.view(np.int64).tolist()
        assert [three_tangle(psi) for psi in states[::97]] == reference[::97].tolist()
        geometries = classify_geometries(orbit_bloch_tables(states, build_tetra_group(3)))
        assert [fp.tangle for fp in invariant_fingerprints(states, geometries)] == [
            round(tau, 10) for tau in reference.tolist()]


class TestPairwiseConcurrence:
    def test_bell_maximal(self):
        assert abs(pairwise_concurrence(BELL, (1, 2)) - 1) < 1e-12

    def test_ghz_marginals_unentangled(self):
        for pair in ((1, 2), (1, 3), (2, 3)):
            assert pairwise_concurrence(GHZ, pair) < 1e-12

    @pytest.mark.parametrize("text,tau", TABLE1.items())
    def test_table1_values(self, text, tau):
        expected = (13 - tau * 16) / 32
        psi = fiducial(text)
        values = [pairwise_concurrence(psi, p) ** 2 for p in ((1, 2), (1, 3), (2, 3))]
        for v in values:
            assert abs(v - expected) < 1e-10
        assert max(values) - min(values) < 1e-10

    def test_same_qubit_rejected(self):
        with pytest.raises(ValueError):
            pairwise_concurrence(GHZ, (2, 2))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_out_of_range_qubit_rejected(self, n):
        psi = basis_state(n, 0)
        for pair in ((0, 1), (1, n + 1)):
            with pytest.raises(ValueError):
                pairwise_concurrence(psi, pair)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_wootters_reference(self, n):
        # oracle: sqrt of the eigenvalues of rho (Y x Y) rho* (Y x Y), from a
        # general (non-Hermitian) eigensolve of the explicit marginal
        yy = np.kron(PAULI_MATS["Y"], PAULI_MATS["Y"])
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            psi = random_state(rng, n)
            for pair in combinations(range(1, n + 1), 2):
                rho = partial_trace(psi, pair)
                lams = np.sort(np.sqrt(np.abs(np.linalg.eigvals(rho @ yy @ rho.conj() @ yy))))
                expected = max(0.0, lams[-1] - lams[:-1].sum())
                assert abs(pairwise_concurrence(psi, pair) - expected) < 1e-6


class TestCoffmanKunduWootters:
    """4 det rho_A = C_AB^2 + C_AC^2 + tau for every focus qubit A of a 3-qubit pure state.

    The identity ties the tangle to the concurrences independently of how
    either is computed.
    """

    @staticmethod
    def assert_ckw(psi):
        tau = three_tangle(psi)
        for a in (1, 2, 3):
            b, c = (q for q in (1, 2, 3) if q != a)
            lhs = 4 * np.linalg.det(partial_trace(psi, {a})).real
            rhs = pairwise_concurrence(psi, (a, b)) ** 2 + pairwise_concurrence(psi, (a, c)) ** 2
            assert abs(lhs - rhs - tau) < 1e-12

    def test_all_n3_fiducials(self):
        polys = list(enumerate_polynomials(3, 2))
        assert len(polys) == 256
        for f in polys:
            self.assert_ckw(build_fiducial(f))

    def test_random_states(self):
        rng = np.random.default_rng(2000)
        for _ in range(200):
            self.assert_ckw(random_state(rng, 3))
        self.assert_ckw(GHZ)
        self.assert_ckw(basis_state(3, 0b011))


class TestPermutationStabilizer:
    def test_basis_state_with_one_excitation(self):
        assert permutation_stabilizer_order(basis_state(3, 0b001)) == 2

    def test_table1_row1_fully_symmetric(self):
        assert permutation_stabilizer_order(fiducial("z1 z3 + 3 z2 z3 + z1 z2 z3")) == 6

    def test_tau_sqrt145_row_single_transposition(self):
        # oracle: apply all six wire permutations explicitly and count overlaps
        psi = fiducial("z1 z3 + z1 z2 z3")
        count = 0
        fixing = []
        for perm in permutations(range(3)):
            overlap = abs(np.vdot(psi, permutation_operator_apply(psi, perm)))
            if overlap >= 1 - 1e-9:
                count += 1
                fixing.append(perm)
        assert count == 2
        assert permutation_stabilizer_order(psi) == count
        assert (0, 2, 1) in fixing  # swap of qubits 2 and 3

    def test_permutation_operator_is_wire_permutation(self):
        psi = basis_state(3, 0b011)
        swapped = permutation_operator_apply(psi, (1, 0, 2))  # swap wires 1,2
        np.testing.assert_allclose(swapped, basis_state(3, 0b101), atol=1e-15)


class TestInvariantFingerprint:
    def test_table1_row2(self):
        f = parse_polynomial("z1 z2 + z1 z3 + z2 z3 + 3 z1 z2 z3", 3, 2)
        basis = orbit_basis(build_fiducial(f), build_tetra_group(3), f)
        fp = invariant_fingerprint(basis)
        assert abs(fp.tangle - np.sqrt(97) / 16) < 1e-9
        for c2 in fp.concurrence_sq:
            assert abs(c2 - (13 - np.sqrt(97)) / 32) < 1e-9
        assert abs(fp.r - np.sqrt(3) / 4) < 1e-9

    def test_ejm_reference(self):
        fp = invariant_fingerprint(ejm_reference_basis())
        assert fp.tangle is None
        assert fp.concurrence_sq == (0.25,)
        assert abs(fp.r - np.sqrt(3) / 2) < 1e-9
        assert fp.chirality_signature == "-"

    def test_conjugate_pair_identical_keys(self):
        group = build_tetra_group(3)
        keys = []
        for text in ("z1 z3 + 3 z2 z3 + z1 z2 z3", "3 z1 z3 + z2 z3 + 3 z1 z2 z3"):
            f = parse_polynomial(text, 3, 2)
            basis = orbit_basis(build_fiducial(f), group, f)
            keys.append(invariant_fingerprint(basis).class_key())
        assert keys[0] == keys[1]

    def test_json_keys(self):
        fp = invariant_fingerprint(ejm_reference_basis())
        assert list(fp.to_json_dict().keys()) == [
            "tangle", "concurrence_sq", "r", "chirality", "stab_order", "conjugate_flag"]

    def test_monogamy_bounds_on_table1(self):
        for text in TABLE1:
            f = parse_polynomial(text, 3, 2)
            basis = orbit_basis(build_fiducial(f), build_tetra_group(3), f)
            fp = invariant_fingerprint(basis)
            assert 0 <= fp.tangle <= 1
            for c2 in fp.concurrence_sq:
                assert 0 <= c2 <= 1


def reference_fingerprint(psi, geometry):
    """Reference: the one-state fingerprint (one SVD per pair, one vdot per permutation)."""
    n = int(np.log2(len(psi)))
    conc = []
    for k, l in combinations(range(1, n + 1), 2):
        a = np.moveaxis(psi.reshape([2] * n), (k - 1, l - 1), (0, 1)).reshape(4, -1)
        s = np.linalg.svd(a.T @ _YY @ a, compute_uv=False)
        conc.append(round(float(max(0.0, s[0] - s[1:].sum())) ** 2, 10))
    stab = sum(abs(np.vdot(psi, permutation_operator_apply(psi, perm))) >= 1 - 1e-9
               for perm in permutations(range(n)))
    return InvariantFingerprint(
        n=n, tangle=round(three_tangle(psi), 10) if n == 3 else None,
        concurrence_sq=tuple(sorted(conc)),
        r=round(geometry.r, 10) if geometry.r is not None else None,
        chirality_signature=geometry.chirality_signature(), stabilizer_order=stab)


class TestStackedFingerprints:
    @pytest.mark.parametrize("n", [3, 4])
    def test_stack_matches_reference_per_state(self, n):
        rng = np.random.default_rng(n)
        group = build_tetra_group(n)
        polys = list(enumerate_polynomials(3, 2)) if n == 3 else [
            parse_polynomial(t, 4, 2) for t in (
                "z1 z3 + z1 z3 z4 + 3 z2 z3 z4 + 3 z2 z4 + z3 z4", "z1 z2 + z3 z4",
                "2 z1 z2 z3 z4", "z1 z2 z3 + 3 z2 z4 + z1 z4")]
        states = [build_fiducial(f) for f in polys]
        states += [psi / np.linalg.norm(psi) for psi in
                   rng.standard_normal((5, 2**n)) + 1j * rng.standard_normal((5, 2**n))]
        geometries = [classify_geometry(orbit_bloch_table(orbit_basis(psi, group)))
                      for psi in states]
        assert invariant_fingerprints(np.array(states), geometries) == [
            reference_fingerprint(psi, g) for psi, g in zip(states, geometries)]


class TestLocalUnitaryInvariance:
    def test_tangle_and_concurrence_under_random_locals(self):
        rng = np.random.default_rng(17)
        psi = fiducial("z1 z2 + 2 z1 z3 + z1 z2 z3")
        tau0 = three_tangle(psi)
        c0 = [pairwise_concurrence(psi, p) for p in ((1, 2), (1, 3), (2, 3))]
        for _ in range(10):
            factors = []
            for _ in range(3):
                mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                q, _ = np.linalg.qr(mat)
                factors.append(q)
            rotated = apply_local_unitaries(psi, factors)
            assert abs(three_tangle(rotated) - tau0) < 1e-9
            for pair, c in zip(((1, 2), (1, 3), (2, 3)), c0):
                assert abs(pairwise_concurrence(rotated, pair) - c) < 1e-9

    @pytest.mark.parametrize("n", [3, 4])
    def test_tangle_and_squared_concurrences_on_random_states(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(20):
            psi = random_state(rng, n)
            images = [np.conj(psi)] + [apply_local_unitaries(psi, random_local_unitaries(rng, n))
                                       for _ in range(3)]
            for image in images:
                if n == 3:
                    assert abs(three_tangle(image) - three_tangle(psi)) < 1e-12
                np.testing.assert_allclose(concurrences_sq(image), concurrences_sq(psi),
                                           rtol=0, atol=1e-12)
