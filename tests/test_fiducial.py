import itertools
from functools import reduce

import numpy as np
import pytest

from tetrabasis.fiducial import (
    PhasePolynomial,
    PolynomialParseError,
    apply_cnot,
    build_fiducial,
    build_fiducials,
    diagonal_gate,
    evaluate_polynomial,
    fiducial_circuit,
    parse_polynomial,
    polynomial_values,
    staircase_circuit,
)
from tetrabasis.qcore import apply_on_qubit

from polyspace import enumerate_polynomials, seeded_polynomials

APPA_FIDUCIAL = np.array([1, (1 - 1j) / 2, (1 + 1j) / 2, 0], dtype=complex) / np.sqrt(2)
APPC_FIDUCIAL = 0.5 * np.array(
    [1, (1 - 1j) / 2, (1 - 1j) / 2, (1 + 1j) / 2, (1 - 1j) / 2, (1 + 1j) / 2, (1 + 1j) / 2, 0]
)


class TestParse:
    def test_three_qubit_table_polynomial(self):
        f = parse_polynomial("3 z1 z3 + z2 z3 + 3 z1 z2 z3", 3, 2)
        assert f.terms == {frozenset({1, 3}): 3, frozenset({2, 3}): 1, frozenset({1, 2, 3}): 3}

    def test_star_separator(self):
        f = parse_polynomial("z1*z2", 2, 2)
        assert f.terms == {frozenset({1, 2}): 1}

    def test_modular_cancellation(self):
        f = parse_polynomial("2 z1 z2 + 2 z1 z2", 2, 2)
        assert f.terms == {}

    def test_whitespace_insensitive(self):
        assert parse_polynomial("3z1z3+z2z3", 3, 2) == parse_polynomial("3 z1 z3 + z2 z3", 3, 2)

    def test_repeated_variable_collapses(self):
        f = parse_polynomial("z1 z1 z2", 2, 2)
        assert f.terms == {frozenset({1, 2}): 1}

    def test_index_out_of_range(self):
        with pytest.raises(PolynomialParseError) as err:
            parse_polynomial("z1 z5", 3, 2)
        assert err.value.position == 4  # points at the offending index digit

    def test_constant_term_rejected(self):
        with pytest.raises(PolynomialParseError):
            parse_polynomial("3", 2, 2)
        with pytest.raises(PolynomialParseError):
            parse_polynomial("z1 z2 + 2", 2, 2)

    def test_malformed_token(self):
        with pytest.raises(PolynomialParseError):
            parse_polynomial("z1 & z2", 2, 2)
        with pytest.raises(PolynomialParseError):
            parse_polynomial("z", 2, 2)

    def test_zero_polynomial(self):
        assert parse_polynomial("0", 3, 2).terms == {}

    def test_render_parse_roundtrip(self):
        texts = ["3 z1 z3 + z2 z3 + 3 z1 z2 z3", "z1 z2", "2 z1 z3 + z1 z2 z3", "0"]
        for text in texts:
            f = parse_polynomial(text, 3, 2)
            assert parse_polynomial(f.to_text(), 3, 2) == f
            assert parse_polynomial(f.to_text(), 3, 2).to_text() == f.to_text()

    def test_canonical_order_is_lexicographic(self):
        f = parse_polynomial("z2 z3 + z1 z2 + 2 z1 z2 z3", 3, 2)
        assert f.to_text() == "z1 z2 + 2 z1 z2 z3 + z2 z3"


class TestEvaluate:
    def test_and_gate(self):
        f = parse_polynomial("z1 z2", 2, 2)
        assert evaluate_polynomial(f, (1, 1)) == 1
        assert evaluate_polynomial(f, (1, 0)) == 0

    def test_three_term_sum(self):
        f = parse_polynomial("3 z1 z3 + z2 z3 + 3 z1 z2 z3", 3, 2)
        assert evaluate_polynomial(f, (1, 1, 1)) == 3  # 3+1+3 = 7 mod 4

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            evaluate_polynomial(parse_polynomial("z1 z2", 2, 2), (1,))


    def test_values_at_precision_62(self):
        # four coefficients of 2^62 - 1 sum past int64 at z = 111; the wrap is exact mod 2^62
        top = 2**62 - 1
        f = PhasePolynomial(3, 62, {frozenset(s): top for s in ({1, 2}, {1, 3}, {2, 3}, {1, 2, 3})})
        assert polynomial_values(f).tolist() == [
            evaluate_polynomial(f, z) for z in itertools.product((0, 1), repeat=3)]

    @pytest.mark.parametrize("m", [0, 63, 64])
    def test_precision_outside_1_to_62_rejected(self, m):
        with pytest.raises(ValueError, match="1..62"):
            PhasePolynomial(2, m, {frozenset({1, 2}): 1})


class TestDiagonalGate:
    def test_cz_quarter_phase(self):
        np.testing.assert_allclose(diagonal_gate(parse_polynomial("z1 z2", 2, 2)),
                                   np.diag([1, 1, 1, 1j]), atol=1e-15)

    def test_empty_is_identity(self):
        np.testing.assert_allclose(diagonal_gate(PhasePolynomial(2, 2, {})), np.eye(4),
                                   atol=1e-15)

    def test_pauli_z(self):
        np.testing.assert_allclose(diagonal_gate(parse_polynomial("2 z1", 1, 2)),
                                   np.diag([1, -1]), atol=1e-15)

    def test_phase_additivity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n, m = 3, 2
            monos = [frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 2, 3})]
            fa = PhasePolynomial(n, m, {s: int(rng.integers(4)) for s in monos})
            fb = PhasePolynomial(n, m, {s: int(rng.integers(4)) for s in monos})
            fsum = PhasePolynomial(
                n, m, {s: fa.terms.get(s, 0) + fb.terms.get(s, 0) for s in monos})
            np.testing.assert_allclose(diagonal_gate(fa) @ diagonal_gate(fb),
                                       diagonal_gate(fsum), atol=1e-13)


class TestStaircase:
    def test_single_qubit_identity(self):
        np.testing.assert_allclose(staircase_circuit(1), np.eye(2), atol=1e-15)

    def test_two_qubit_action(self):
        s2 = staircase_circuit(2)
        np.testing.assert_allclose(s2 @ np.eye(4)[:, 0b01], np.eye(4)[:, 0b11], atol=1e-15)
        np.testing.assert_allclose(s2 @ np.eye(4)[:, 0b10], np.eye(4)[:, 0b10], atol=1e-15)

    def test_three_qubit_action(self):
        # by hand: CNOT(3->2) sends 001 to 011, then CNOT(2->1) sends 011 to 111
        s3 = staircase_circuit(3)
        np.testing.assert_allclose(s3 @ np.eye(8)[:, 0b001], np.eye(8)[:, 0b111], atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_permutation_matrix(self, n):
        mat = np.abs(staircase_circuit(n))
        np.testing.assert_allclose(mat.sum(axis=0), np.ones(2**n), atol=1e-15)
        np.testing.assert_allclose(mat.sum(axis=1), np.ones(2**n), atol=1e-15)
        assert np.all((mat < 1e-12) | (np.abs(mat - 1) < 1e-12))

    def test_cnot_direction(self):
        psi = np.eye(4)[:, 0b01].astype(complex)
        np.testing.assert_allclose(apply_cnot(psi, 2, 2, 1), np.eye(4)[:, 0b11], atol=1e-15)
        np.testing.assert_allclose(apply_cnot(psi, 2, 1, 2), np.eye(4)[:, 0b01], atol=1e-15)


class TestBuildFiducial:
    def test_two_qubit_published_amplitudes(self):
        psi = build_fiducial(parse_polynomial("z1 z2", 2, 2))
        np.testing.assert_allclose(psi, APPA_FIDUCIAL, atol=1e-14)

    def test_three_qubit_published_amplitudes(self):
        psi = build_fiducial(parse_polynomial("3 z1 z3 + z2 z3 + 3 z1 z2 z3", 3, 2))
        np.testing.assert_allclose(psi, APPC_FIDUCIAL, atol=1e-14)

    def test_trivial_single_qubit(self):
        np.testing.assert_allclose(build_fiducial(PhasePolynomial(1, 2, {})),
                                   [1, 0], atol=1e-15)

    def test_unit_norm_across_polynomials(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 4))
            monos = [frozenset({i + 1 for i in np.flatnonzero(rng.integers(0, 2, n))})
                     for _ in range(3)]
            terms = {s: int(rng.integers(1, 2**m)) for s in monos if s}
            psi = build_fiducial(PhasePolynomial(n, m, terms))
            assert abs(np.linalg.norm(psi) - 1) < 1e-12

    def test_conjugate_is_the_negated_polynomial(self):
        # H and S(n) are real, so conj(S(n) H_n D_f H^(xn)|0>) = S(n) H_n D_(-f) H^(xn)|0>
        polys = list(enumerate_polynomials(3, 2)) + seeded_polynomials(3, 3, 200, 8)
        for n, m in ((4, 2), (4, 3), (5, 2), (5, 3)):
            polys += seeded_polynomials(n, m, 100, 8)
        for f in polys:
            np.testing.assert_allclose(build_fiducial(f).conj(), build_fiducial(f.negated()),
                                       rtol=0, atol=1e-15, err_msg=f.to_text())

    def test_matches_explicit_circuit(self):
        # fiducial equals the dense circuit S(n) H_n D_f H^(xn) |0>
        for text, n in [("z1 z2", 2), ("3 z1 z3 + z2 z3 + 3 z1 z2 z3", 3)]:
            f = parse_polynomial(text, n, 2)
            np.testing.assert_allclose(build_fiducial(f), gate_product(f)[:, 0], atol=1e-13)


def gate_product(f):
    """Reference: S(n) H_n D_f H^(xn) as a product of dense gates."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    hn = np.kron(np.eye(2 ** (f.n - 1)), h)
    return staircase_circuit(f.n) @ hn @ diagonal_gate(f) @ reduce(np.kron, [h] * f.n)


class TestFiducialCircuit:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 62])
    def test_is_the_dense_gate_product(self, n, m):
        for f in seeded_polynomials(n, m, 3, 5, min_degree=1):
            np.testing.assert_allclose(fiducial_circuit(f), gate_product(f), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 62])
    def test_column_zero_is_the_build_fiducials_row_bitwise(self, n, m):
        for f in seeded_polynomials(n, m, 5, 6, min_degree=1):
            row = build_fiducials(polynomial_values(f)[None], n, m)[0]
            assert fiducial_circuit(f)[:, 0].tobytes() == row.tobytes(), f.to_text()


def scalar_fiducial(f):
    """Reference: the one-polynomial circuit, H on qubit n by apply_on_qubit, then CNOT by CNOT."""
    n = f.n
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    psi = np.full(2**n, 2 ** (-n / 2), dtype=complex)
    psi = psi * np.exp(2j * np.pi * polynomial_values(f) / 2**f.m)
    psi = apply_on_qubit(h, psi, n)
    for control in range(n, 1, -1):
        psi = apply_cnot(psi, n, control, control - 1)
    return psi


def dense_cnot(n, control, target):
    """CNOT as a dense matrix: |0><0| on the control, plus |1><1| on it with X on the target."""
    def kron(ops):
        return reduce(np.kron, [ops.get(q, np.eye(2)) for q in range(1, n + 1)])
    x = np.array([[0, 1], [1, 0]])
    return kron({control: np.diag([1, 0])}) + kron({control: np.diag([0, 1]), target: x})


class TestBuildFiducials:
    @pytest.mark.parametrize("polys", [
        pytest.param(lambda: list(enumerate_polynomials(3, 1)), id="n3-m1"),
        pytest.param(lambda: list(enumerate_polynomials(3, 2)), id="n3-m2"),
        pytest.param(lambda: list(enumerate_polynomials(3, 3)), id="n3-m3"),
        pytest.param(lambda: seeded_polynomials(4, 2, 500, 0), id="n4-m2"),
        pytest.param(lambda: seeded_polynomials(4, 3, 500, 1), id="n4-m3"),
        pytest.param(lambda: seeded_polynomials(5, 2, 300, 2), id="n5-m2"),
        pytest.param(lambda: list(enumerate_polynomials(2, 2, min_degree=1)), id="n2-m2"),
        pytest.param(lambda: list(enumerate_polynomials(2, 3, min_degree=1)), id="n2-m3"),
    ])
    def test_rows_equal_the_scalar_circuit_bitwise(self, polys):
        polys = polys()
        f = polys[0]
        rows = build_fiducials(np.array([polynomial_values(g) for g in polys]), f.n, f.m)
        assert rows.shape == (len(polys), 2**f.n)
        for g, row in zip(polys, rows):
            expected = scalar_fiducial(g).tobytes()
            assert row.tobytes() == expected, g.to_text()
            assert build_fiducial(g).tobytes() == expected, g.to_text()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_single_qubit_rows_one_at_a_time(self, m):
        # at n = 1 a block of two or more rows goes through another BLAS kernel
        # than one row, and the Hadamard's cancellations can differ in the last
        # bit (1e-17 for 0); the search never builds blocks below n = 2
        for g in enumerate_polynomials(1, m, min_degree=1):
            expected = scalar_fiducial(g).tobytes()
            assert build_fiducials(polynomial_values(g)[None], 1, m)[0].tobytes() == expected
            assert build_fiducial(g).tobytes() == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_staircase_is_the_dense_cnot_product(self, n):
        expected = reduce(np.matmul, [dense_cnot(n, c, c - 1) for c in range(2, n + 1)],
                          np.eye(2**n))
        assert np.array_equal(staircase_circuit(n), expected)
