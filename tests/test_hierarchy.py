import os
import re
import warnings
from functools import lru_cache, reduce
from itertools import product

import numpy as np
import pytest

from tetrabasis.basisgen import (
    build_tetra_group,
    check_orthonormal,
    measurement_unitary,
    orbit_basis,
)
from tetrabasis.fiducial import PhasePolynomial, parse_polynomial, build_fiducial, diagonal_gate
from tetrabasis import hierarchy
from tetrabasis.hierarchy import (
    DEFAULT_CAP,
    LevelResult,
    _LevelEngine,
    _generator_masks,
    _string_masks,
    clifford_level_test,
    diagonal_clifford_level,
    is_pauli_like,
    measurement_level,
    pauli_like,
    two_adic_valuation,
    verify_level_bound,
)
from tetrabasis.qcore import (
    MAX_QUBITS,
    PAULI_MATS,
    CapacityError,
    num_qubits,
    parity_sign,
    pauli_matrix,
    phase_canonical_key,
)
from tetrabasis.reproduce import APPD_EXAMPLE1
from tetrabasis.search import (
    SearchConfig,
    canonical_monomials,
    evaluate_polynomial_candidate,
    group_into_classes,
    polynomial_from_coeffs,
    search_regular,
)

from polyspace import enumerate_polynomials

X, Y, Z = PAULI_MATS["X"], PAULI_MATS["Y"], PAULI_MATS["Z"]
H = (X + Z) / np.sqrt(2)
T = np.diag([1, np.exp(1j * np.pi / 4)])
S = np.diag([1, 1j])


def letter_matrix(letters):
    """Reference: Kronecker product of the letters' 2x2 Pauli matrices, qubit 1 leftmost."""
    return reduce(np.kron, [PAULI_MATS[c] for c in letters])


def letter_strings(n):
    """All 4**n letter strings in lexicographic (I < X < Y < Z) order."""
    return ["".join(p) for p in product("IXYZ", repeat=n)]


@lru_cache(maxsize=None)
def pauli_matrices(n):
    return {s: letter_matrix(s) for s in letter_strings(n)}


def pauli_expansion(u):
    """Reference: c_P = Tr(P^dag U) / 2^n over every Pauli letter string."""
    u = np.asarray(u, dtype=complex)
    n = num_qubits(u.shape[0])
    return {s: np.trace(p.conj().T @ u) / 2**n for s, p in pauli_matrices(n).items()}


def pauli_reconstruction(coeffs):
    """Sum c_P * P; inverse of pauli_expansion."""
    return sum(c * letter_matrix(s) for s, c in coeffs.items())


def is_pauli_like_reference(u, tol=1e-9):
    """Exactly one Pauli-expansion coefficient has unit modulus, the rest vanish."""
    mags = np.abs(np.array(list(pauli_expansion(u).values())))
    big = mags > tol
    return bool(big.sum() == 1 and abs(mags[big][0] - 1.0) <= tol)


def embed(gate, first, n):
    """Gate on consecutive qubits from `first` (1-indexed), identity elsewhere."""
    k = gate.shape[0].bit_length() - 1
    return np.kron(np.kron(np.eye(2 ** (first - 1)), gate), np.eye(2 ** (n - first - k + 1)))


def random_clifford(n, rng, depth=12):
    """Product of random H, S and CZ gates."""
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    u = np.eye(2**n, dtype=complex)
    for _ in range(depth):
        if n > 1 and rng.random() < 0.3:
            gate = embed(cz, int(rng.integers(1, n)), n)
        else:
            gate = embed((H, S)[rng.integers(2)], int(rng.integers(1, n + 1)), n)
        u = gate @ u
    return u


def cnot(control, target, n):
    """CNOT from qubit control to qubit target (1-indexed), as a permutation matrix."""
    x = np.arange(2**n)
    flip = np.where(x & (1 << (n - control)), 1 << (n - target), 0)
    u = np.zeros((2**n, 2**n), dtype=complex)
    u[x ^ flip, x] = 1
    return u


def random_cnot_clifford(n, rng, depth=12):
    """Product of random H, S and CNOT gates, the CNOTs on any ordered pair of qubits."""
    u = np.eye(2**n, dtype=complex)
    for _ in range(depth):
        if n > 1 and rng.random() < 0.4:
            control, target = rng.choice(n, 2, replace=False) + 1
            gate = cnot(int(control), int(target), n)
        else:
            gate = embed((H, S)[rng.integers(2)], int(rng.integers(1, n + 1)), n)
        u = gate @ u
    return u


def random_pauli(n, rng):
    letters = "".join(rng.choice(list("IXYZ"), n))
    return np.exp(2j * np.pi * rng.random()) * letter_matrix(letters)


def haar_unitary(n, rng):
    z = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestDiagonalLevelFormula:
    def test_quarter_cz(self):
        assert diagonal_clifford_level(parse_polynomial("z1 z2", 2, 2)) == 3

    def test_three_qubit_example(self):
        assert diagonal_clifford_level(
            parse_polynomial("3 z1 z3 + z2 z3 + 3 z1 z2 z3", 3, 2)) == 4

    def test_four_qubit_example(self):
        from tetrabasis.reproduce import APPD_EXAMPLE1
        assert diagonal_clifford_level(parse_polynomial(APPD_EXAMPLE1, 4, 2)) == 5

    def test_even_coefficient_lowers_level(self):
        assert diagonal_clifford_level(parse_polynomial("2 z1 z2", 2, 2)) == 2

    def test_empty_polynomial(self):
        assert diagonal_clifford_level(PhasePolynomial(2, 2, {})) == 1

    def test_clamped_at_one(self):
        assert diagonal_clifford_level(parse_polynomial("2 z1", 1, 2)) == 1

    def test_t_gate_as_polynomial(self):
        assert diagonal_clifford_level(parse_polynomial("z1", 1, 3)) == 3

    def test_doubling_invariance(self):
        # doubling all coefficients into precision m+1 keeps the level
        for coeffs in product(range(4), repeat=2):
            monos = [frozenset({1, 2}), frozenset({1})]
            f = PhasePolynomial(2, 2, dict(zip(monos, coeffs)))
            doubled = PhasePolynomial(2, 3, {s: 2 * c for s, c in f.terms.items()})
            assert diagonal_clifford_level(doubled) == diagonal_clifford_level(f)

    def test_two_adic_valuation(self):
        def by_division(c):
            v = 0
            while c % 2 == 0:
                c //= 2
                v += 1
            return v
        assert [two_adic_valuation(c) for c in (1, 2, 4, 6)] == [0, 1, 2, 1]
        assert all(two_adic_valuation(c) == by_division(c) for c in range(1, 4097))

    @pytest.mark.parametrize("c", [0, -2])
    def test_two_adic_valuation_rejects_non_positive(self, c):
        with pytest.raises(ValueError, match="positive integer"):
            two_adic_valuation(c)


class TestPauliExpansion:
    """The reference oracle's own checks: Pauli strings are an orthogonal operator basis."""

    def test_x(self):
        coeffs = pauli_expansion(PAULI_MATS["X"])
        assert abs(coeffs["X"] - 1) < 1e-14
        assert all(abs(c) < 1e-14 for k, c in coeffs.items() if k != "X")

    def test_hadamard(self):
        coeffs = pauli_expansion(H)
        assert abs(coeffs["X"] - 1 / np.sqrt(2)) < 1e-14
        assert abs(coeffs["Z"] - 1 / np.sqrt(2)) < 1e-14
        assert abs(coeffs["I"]) < 1e-14 and abs(coeffs["Y"]) < 1e-14

    def test_s_gate_trace_system(self):
        # solve the 2x2 system by hand: c_I = (1+i)/2, c_Z = (1-i)/2
        coeffs = pauli_expansion(S)
        assert abs(coeffs["I"] - (1 + 1j) / 2) < 1e-14
        assert abs(coeffs["Z"] - (1 - 1j) / 2) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reconstruction_identity(self, n):
        rng = np.random.default_rng(n)
        mat = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        np.testing.assert_allclose(pauli_reconstruction(pauli_expansion(mat)), mat, atol=1e-12)


class TestIsPauliLike:
    def test_pauli_tensor(self):
        assert is_pauli_like(np.kron(X, Z))

    def test_hadamard_is_not(self):
        assert not is_pauli_like(H)

    def test_global_phase_irrelevant(self):
        assert is_pauli_like(np.exp(1j * np.pi / 7) * Y)

    def test_non_unit_pivot_rejected(self):
        assert not is_pauli_like(0.5 * X)
        assert not is_pauli_like(np.zeros((4, 4), dtype=complex))

    def test_sign_pattern_must_be_a_character(self):
        # permutation support and unit entries, but signs (+,+,+,-) are no Z^b
        assert not is_pauli_like(np.diag([1, 1, 1, -1]).astype(complex))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_with_pauli_expansion(self, n):
        rng = np.random.default_rng(100 + n)
        cases = {True: 0, False: 0}
        for _ in range(40):
            pauli = random_pauli(n, rng)
            noise = rng.normal(size=pauli.shape) + 1j * rng.normal(size=pauli.shape)
            for u in (pauli, random_clifford(n, rng), haar_unitary(n, rng),
                      pauli + 1e-6 * noise / np.abs(noise).max()):
                expected = is_pauli_like_reference(u)
                assert is_pauli_like(u) == expected
                cases[expected] += 1
        assert cases[True] >= 40 and cases[False] >= 80

    def test_every_pauli_string_accepted(self):
        for n in (1, 2, 3):
            for letters in letter_strings(n):
                for phase in (1, 1j, -1, -1j):
                    assert is_pauli_like(phase * letter_matrix(letters))


class TestRecursiveLevelTest:
    def test_pauli_level_one(self):
        assert clifford_level_test(X).level == 1

    def test_hadamard_level_two(self):
        assert clifford_level_test(H).level == 2

    def test_t_gate_level_three(self):
        assert clifford_level_test(T).level == 3

    def test_ejm_measurement_level_three(self):
        f = parse_polynomial("z1 z2", 2, 2)
        m = measurement_unitary(orbit_basis(build_fiducial(f), build_tetra_group(2), f))
        assert clifford_level_test(m, full_layers=0).level == 3
        assert clifford_level_test(m, full_layers=1).level == 3

    def test_cap_exceeded(self):
        result = clifford_level_test(T, cap=2)
        assert result.level is None and result.exceeded
        assert result.to_json_dict()["level"] == "exceeds_cap"

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            clifford_level_test(np.array([[1, 1], [0, 1.0]]))

    @pytest.mark.parametrize("shape", [(2, 3), (1, 2, 2), (4,), ()])
    def test_non_square_input_rejected_with_its_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            clifford_level_test(np.ones(shape))

    def test_dimension_above_the_cap_rejected_before_the_unitarity_check(self, monkeypatch):
        def no_unitarity_check(u):
            raise AssertionError("is_unitary ran")
        monkeypatch.setattr(hierarchy, "is_unitary", no_unitarity_check)
        dim = 2 ** (MAX_QUBITS + 1)
        with pytest.raises(CapacityError, match=f"dimension {dim}"):
            clifford_level_test(np.eye(dim))

    @pytest.mark.parametrize("layers", [-1, -3])
    def test_negative_full_layers_rejected(self, layers):
        with pytest.raises(ValueError, match="full_layers must be at least 0"):
            clifford_level_test(np.kron(T, T), full_layers=layers)

    def test_mode_names_the_layer_count(self):
        # LevelResult keeps the printed 'generator' / 'full' of the CLI's two modes
        assert clifford_level_test(T) == LevelResult(3, DEFAULT_CAP, "generator")
        for layers in (1, 2):
            result = clifford_level_test(T, full_layers=layers)
            assert result == LevelResult(3, DEFAULT_CAP, "full")

    def test_global_phase_and_pauli_invariance(self):
        rng = np.random.default_rng(5)
        pool = [H, T, np.kron(H, T)]
        paulis1 = [X, Y, Z]
        for base in pool:
            level = clifford_level_test(base).level
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert clifford_level_test(phase * base).level == level
            n = base.shape[0].bit_length() - 1
            pauli = paulis1[rng.integers(3)]
            full = pauli if n == 1 else np.kron(pauli, np.eye(2))
            assert clifford_level_test(full @ base).level == level
            assert clifford_level_test(base @ full).level == level


class TestFormulaVsRecursive:
    def test_n2_canonical_exhaustive(self):
        for coeff in range(4):
            f = PhasePolynomial(2, 2, {frozenset({1, 2}): coeff})
            result = clifford_level_test(diagonal_gate(f), full_layers=1)
            assert result.level == diagonal_clifford_level(f)

    def test_n3_canonical_exhaustive(self):
        monos = [frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3}),
                 frozenset({1, 2, 3})]
        for coeffs in product(range(4), repeat=4):
            f = PhasePolynomial(3, 2, dict(zip(monos, coeffs)))
            result = clifford_level_test(diagonal_gate(f), cap=6, full_layers=1)
            assert result.level == diagonal_clifford_level(f), f.to_text()


class TestLevelBound:
    def test_quarter_cz_equality_at_three(self):
        report = verify_level_bound(parse_polynomial("z1 z2", 2, 2))
        assert report.ok
        assert report.diagonal_level == 3
        assert report.measurement_level.level == 3

    def test_clifford_case(self):
        report = verify_level_bound(parse_polynomial("2 z1 z2", 2, 2))
        assert report.ok
        assert report.diagonal_level == 2
        assert report.measurement_level.level == 2

    def test_pauli_diagonal_yields_clifford_measurement(self):
        # D_f Pauli (level 1): the bound starts at the Clifford group,
        # and the measurement unitary indeed lands there
        report = verify_level_bound(parse_polynomial("2 z1", 2, 2))
        assert report.ok
        assert report.diagonal_level == 1
        assert report.measurement_level.level == 2

    def test_three_qubit_table_row(self):
        report = verify_level_bound(parse_polynomial("z1 z3 + z1 z2 z3", 3, 2))
        assert report.ok
        assert report.diagonal_level == 4
        assert report.measurement_level.level <= 4

    def test_n5_regular_hit_at_level_six(self):
        # the first hit of `search --n 5 --m 2 --sample 40000 --seed 1`
        f = parse_polynomial(
            "z1 z2 z3 + 2 z1 z2 z3 z4 + z1 z2 z3 z4 z5 + z1 z2 z3 z5 + 2 z1 z2 z4 z5"
            " + 2 z1 z3 + 2 z1 z4 + 2 z1 z4 z5 + z2 z3 + 3 z2 z3 z4 + 3 z2 z3 z4 z5"
            " + 3 z2 z3 z5 + 3 z2 z4 z5 + 2 z2 z5 + 3 z3 z4 + 3 z3 z4 z5 + 2 z4 z5", 5, 2)
        assert evaluate_polynomial_candidate(f).geometry.all_regular
        assert diagonal_clifford_level(f) == 6
        # one full layer certifies levels up to 4: this 6 is a lower bound,
        # which the certified level meets
        assert clifford_level_test(orbit_unitary(f), full_layers=1).level == 6
        assert measurement_level(f) == 6
        assert measurement_level(f, cap=5) is None

    def test_measurement_level_checks_cap(self):
        f = parse_polynomial("z1 z2", 2, 2)
        for cap in (0, DEFAULT_CAP + 1):
            with pytest.raises(ValueError, match="cap must lie in"):
                measurement_level(f, cap=cap)

    @pytest.mark.longrun
    @pytest.mark.skipif(not os.environ.get("TETRABASIS_LONGRUN"),
                        reason="opt-in long-running check (set TETRABASIS_LONGRUN=1)")
    def test_every_n4_class_representative(self):
        records = group_into_classes(search_regular(SearchConfig(4, 2)))
        assert len(records) == 4_674
        failed = []
        for record in records:
            f = record.representatives[0]
            report = verify_level_bound(f)
            # the recursion stays an independent check of the certified level;
            # one full layer certifies only levels up to 4, a 5 is a lower bound
            if not (report.ok and measurement_level(f) == max(report.diagonal_level, 2)
                    == report.measurement_level.level):
                failed.append(f.to_text())
        assert failed == []


class TestLevelPaulis:
    def test_generators_are_x_then_z_per_qubit(self):
        for n in (1, 2, 3):
            gens = ["I" * l + c + "I" * (n - l - 1) for l in range(n) for c in "XZ"]
            mats = [pauli_matrix(n, a, b) for a, b in _generator_masks(n)]
            assert len(mats) == len(gens)
            for letters, mat in zip(gens, mats):
                np.testing.assert_array_equal(mat, letter_matrix(letters))

    def test_strings_in_letter_order(self):
        # Z^b X^a is the letter string times i^(number of Y), since Z X = i Y
        for n in (1, 2, 3):
            mats = [pauli_matrix(n, a, b) for a, b in _string_masks(n)]
            strings = letter_strings(n)[1:]
            assert len(mats) == len(strings)
            for letters, mat in zip(strings, mats):
                phase = 1j ** letters.count("Y")
                np.testing.assert_array_equal(mat, phase * letter_matrix(letters))


def scalar_is_pauli_like(u, tol=1e-9):
    """Reference: the one-matrix Pauli test the recursion used to call on every child."""
    n = num_qubits(u.shape[0])
    a = int(np.argmax(np.abs(u[:, 0])))
    pivot = u[a, 0]
    if abs(abs(pivot) - 1.0) > tol:
        return False
    x = np.arange(u.shape[0])
    powers = 1 << np.arange(n)
    b = int(powers[(u[a ^ powers, powers] / pivot).real < 0].sum())
    residual = u.copy()
    residual[x ^ a, x] -= pivot * parity_sign(x & b)
    return bool(np.max(np.abs(residual)) <= tol)


class ScalarLevelEngine:
    """Reference: the recursion with one dense conjugation, Pauli test and key per child."""

    def __init__(self, n, tol, full_layers):
        self.tol = tol
        self.full_layers = full_layers
        self.gen_mats = [pauli_matrix(n, a, b) for a, b in _generator_masks(n)]
        self.full_mats = [pauli_matrix(n, a, b) for a, b in _string_masks(n)]
        self.memo = {}
        self.expanded = 0  # nodes that computed their children

    def level(self, u, budget, depth):
        if scalar_is_pauli_like(u, self.tol):
            return 1
        if budget <= 1:
            return None
        layer = min(depth, self.full_layers)
        key = (layer, phase_canonical_key(u))
        cached = self.memo.get(key)
        if cached is not None:
            if cached > 0:
                return cached if cached <= budget else None
            if -cached >= budget:
                return None
        self.expanded += 1
        paulis = self.full_mats if depth < self.full_layers else self.gen_mats
        worst = 1
        udag = u.conj().T
        for p in paulis:
            sub = self.level(u @ p @ udag, budget - 1, depth + 1)
            if sub is None:
                self.memo[key] = min(self.memo.get(key, 0), -budget)
                return None
            worst = max(worst, sub)
        self.memo[key] = 1 + worst
        return 1 + worst


def orbit_unitary(f):
    """M_psi of f's orbit basis, or None when that basis is not orthonormal."""
    basis = orbit_basis(build_fiducial(f), build_tetra_group(f.n), f)
    return measurement_unitary(basis) if check_orthonormal(basis).ok else None


def sampled_unitaries(n, m, count, seed, regular=None):
    """count measurement unitaries of seeded random polynomials; regular=None takes any."""
    from tetrabasis.search import evaluate_polynomial_candidate
    rng = np.random.default_rng([seed, n, m])
    monos = canonical_monomials(n)
    found = []
    while len(found) < count:
        coeffs = tuple(int(c) for c in rng.integers(0, 2**m, len(monos)))
        f = polynomial_from_coeffs(n, m, monos, coeffs)
        u = orbit_unitary(f)
        if u is None:
            continue
        if regular is None or evaluate_polynomial_candidate(f).geometry.all_regular == regular:
            found.append(u)
    return found


class ScalarReference:
    """Scalar engines per (n, full_layers), each shared by every call of one test.

    A memo entry states a matrix's exact level, or that it exceeds a budget,
    for a layer class; that holds whatever root or cap reached the matrix,
    so sharing the memo across calls changes no answer, only the time taken.
    """

    def __init__(self):
        self.engines = {}

    def level(self, u, cap, full_layers):
        u = np.asarray(u, dtype=complex)
        key = (num_qubits(u.shape[0]), full_layers)
        if key not in self.engines:
            self.engines[key] = ScalarLevelEngine(key[0], 1e-9, full_layers)
        return self.engines[key].level(u, cap, 0)

    def assert_matches(self, u, layers=(1,)):
        """clifford_level_test equals the scalar level at caps 1..6, for 0 and each layer count."""
        for full_layers in (0, *layers):
            for cap in range(1, DEFAULT_CAP + 1):
                expected = self.level(u, cap, full_layers)
                result = clifford_level_test(u, cap=cap, full_layers=full_layers)
                assert result.level == expected, (full_layers, cap)


class TestStackedLevelEngine:
    """The block-wise recursion returns the scalar recursion's level, None included."""

    def test_full_n3_m2_space(self):
        reference = ScalarReference()
        unitaries = [orbit_unitary(f) for f in enumerate_polynomials(3, 2)]
        assert all(u is not None for u in unitaries)
        for i, u in enumerate(unitaries):
            # two full layers cost about 20 times one; every sixteenth basis takes them
            reference.assert_matches(u, layers=(1, 2) if i % 16 == 0 else (1,))

    @pytest.mark.parametrize("m, regular, count", [(2, True, 2), (2, False, 1), (3, None, 1)])
    def test_seeded_n4_samples(self, m, regular, count):
        reference = ScalarReference()
        for u in sampled_unitaries(4, m, count, seed=41, regular=regular):
            reference.assert_matches(u)

    def test_diagonal_gates(self):
        reference = ScalarReference()
        rng = np.random.default_rng(42)
        for n, m, count in ((2, 3, 3), (3, 2, 3), (3, 3, 3), (4, 2, 1)):
            monos = canonical_monomials(n, 1)
            for i in range(count):
                coeffs = tuple(int(c) for c in rng.integers(0, 2**m, len(monos)))
                f = polynomial_from_coeffs(n, m, monos, coeffs)
                # two full layers: every gate at n = 2, the first of each set at n = 3
                two = n == 2 or (n == 3 and i == 0)
                reference.assert_matches(diagonal_gate(f), layers=(1, 2) if two else (1,))

    def test_cliffords_and_t_products(self):
        reference = ScalarReference()
        rng = np.random.default_rng(43)
        for n in (1, 2, 3):
            for _ in range(3):
                clifford = random_clifford(n, rng)
                t = embed(T, int(rng.integers(1, n + 1)), n)
                for u in (clifford, clifford @ t, t @ clifford @ t, t @ clifford @ t @ clifford):
                    reference.assert_matches(u, layers=(1, 2))
            reference.assert_matches(reduce(np.kron, [T] * n), layers=(1, 2))

    def test_memo_holds_exact_levels_only(self):
        # CS on qubits 1, 2 and a level-4 phase on qubit 3: qubit 1's and 2's
        # generators give level-2 children before qubit 3's passes the budget
        u = diagonal_gate(parse_polynomial("4 z1 z2 + z3", 3, 4))
        engine = _LevelEngine(3, 0)
        assert engine.level(u, 3) is None
        assert sorted(engine.memo.values()) == [2, 2]
        assert _LevelEngine(3, 0).level(u, 4) == 4


class TestStackedPauliKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_with_pauli_expansion_on_mixed_stacks(self, n):
        rng = np.random.default_rng(200 + n)
        stack = []
        for _ in range(12):
            pauli = random_pauli(n, rng)
            noise = rng.normal(size=pauli.shape) + 1j * rng.normal(size=pauli.shape)
            stack += [pauli, pauli + 1e-6 * noise / np.abs(noise).max(),
                      random_clifford(n, rng), haar_unitary(n, rng)]
        order = rng.permutation(len(stack))
        stack = np.array(stack)[order]
        expected = [is_pauli_like_reference(u) for u in stack]
        assert pauli_like(stack).tolist() == expected
        assert [is_pauli_like(u) for u in stack] == expected
        assert sum(expected) >= 12 and len(expected) - sum(expected) >= 24

    def test_zero_and_scaled_matrices_rejected_without_warnings(self):
        stack = np.array([np.zeros((4, 4)), 0.5 * np.kron(X, Z), np.kron(Y, Z)], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pauli_like(stack).tolist() == [False, False, True]


def pauli_kernel(u):
    """Reference: the masks (a, b) of the non-identity Paulis R with U R U^dag a phased Pauli."""
    n = num_qubits(u.shape[0])
    return [(a, b) for a, b in _string_masks(n)
            if is_pauli_like(u @ pauli_matrix(n, a, b) @ u.conj().T)]


class CountingEngine(_LevelEngine):
    """The level engine, recording (depth, memo hit, level, matrix) per _expand call on return."""

    def __init__(self, n, full_layers):
        super().__init__(n, full_layers)
        self.calls = []

    def _expand(self, u, budget, depth, key):
        hit = key in self.memo
        sub = super()._expand(u, budget, depth, key)
        self.calls.append((depth, hit, sub, u))
        return sub

    def expansions(self):
        return sum(not hit for _, hit, _, _ in self.calls)

    def root_children(self):
        return [(sub, v) for depth, _, sub, v in self.calls if depth == 1]


def root_coset_cover(u, engine):
    """Per non-Pauli child of the root u, the number of expanded children in its coset of K_U.

    U P U^dag and U Q U^dag are in one coset when U P Q U^dag, their
    product up to phase, is a phased Pauli.
    """
    n = num_qubits(u.shape[0])
    expanded = [v for _, v in engine.root_children()]
    children = [u @ pauli_matrix(n, a, b) @ u.conj().T for a, b in _string_masks(n)]
    return [sum(is_pauli_like(v.conj().T @ child) for v in expanded)
            for child in children if not is_pauli_like(child)]


def dressed_diagonal_gates(seed, counts=((2, 3, 3), (3, 2, 3), (3, 3, 2), (4, 2, 1))):
    """(n, f, C1 D_f C2) for seeded random f and seeded random H, S, CNOT Cliffords C1, C2.

    counts lists (n, m, number of gates).
    """
    rng = np.random.default_rng(seed)
    for n, m, count in counts:
        monos = canonical_monomials(n, 1)
        for _ in range(count):
            coeffs = tuple(int(c) for c in rng.integers(0, 2**m, len(monos)))
            f = polynomial_from_coeffs(n, m, monos, coeffs)
            d = diagonal_gate(f)
            yield n, f, random_cnot_clifford(n, rng) @ d @ random_cnot_clifford(n, rng)


class TestLayerCountCertificate:
    """A returned level <= full_layers + 3 is exact, a larger one a lower bound.

    The oracle runs no recursion: levels k >= 2 are closed under Clifford
    multiplication on either side, so C1 D_f C2 has level max(level(D_f), 2)
    unless it is a Pauli, and level(D_f) is the closed form.
    """

    def test_clifford_dressed_diagonal_gates(self):
        outcomes = set()
        gates = dressed_diagonal_gates(46, ((2, 3, 60), (3, 2, 40), (3, 3, 40), (4, 2, 40)))
        for _, f, u in gates:
            true = 1 if is_pauli_like_reference(u) else max(diagonal_clifford_level(f), 2)
            for full_layers in (0, 1):
                level = clifford_level_test(u, full_layers=full_layers).level
                certified = level <= full_layers + 3
                assert level == true if certified else level <= true, (f.to_text(), full_layers)
                outcomes.add((full_layers, certified))
        # both layer counts return certified levels and lower bounds
        assert outcomes == {(0, True), (0, False), (1, True), (1, False)}


class TestCosetSkip:
    """A full layer skips the children in the coset of an expanded one, and keeps the levels."""

    def test_clifford_dressed_diagonal_gates(self):
        reference = ScalarReference()
        several = 0
        for n, _, u in dressed_diagonal_gates(44):
            kernel = pauli_kernel(u)
            # K_U is nontrivial, and is not the Z strings of a diagonal gate
            assert any(a for a, _ in kernel)
            reference.assert_matches(u, layers=(1, 2) if n < 4 else (1,))
            engine = CountingEngine(n, 1)
            assert engine.level(u, DEFAULT_CAP) == reference.level(u, DEFAULT_CAP, 1)
            # no coset is left out; one can get a second child when the product
            # of tested Paulis that links the two was not yet tested itself
            cover = root_coset_cover(u, engine)
            assert cover and 0 not in cover
            several += max(cover) > 1
        assert several >= 3

    def test_root_expands_one_child_per_non_pauli_coset(self):
        u = orbit_unitary(parse_polynomial(APPD_EXAMPLE1, 4, 2))
        kernel_size = len(pauli_kernel(u)) + 1
        assert kernel_size == 16
        engine = CountingEngine(4, 1)
        assert engine.level(u, DEFAULT_CAP) == 5
        assert set(root_coset_cover(u, engine)) == {1}
        assert len(engine.root_children()) == 4**4 // kernel_size - 1 == 15
        # the scalar recursion expands more nodes for the same level
        reference = ScalarLevelEngine(4, 1e-9, 1)
        assert reference.level(u, DEFAULT_CAP, 0) == 5
        assert engine.expansions() < reference.expanded

    def test_generator_layers_skip_nothing(self):
        u = orbit_unitary(parse_polynomial(APPD_EXAMPLE1, 4, 2))
        engine = CountingEngine(4, 0)
        reference = ScalarLevelEngine(4, 1e-9, 0)
        assert engine.level(u, DEFAULT_CAP) == reference.level(u, DEFAULT_CAP, 0) == 5
        assert engine.expansions() == reference.expanded

    def test_cap_miss_stops_at_the_first_over_budget_child(self):
        example = orbit_unitary(parse_polynomial(APPD_EXAMPLE1, 4, 2))
        cases = [(4, example, 4, 1), (4, example, 4, 2), (4, example, 3, 1)]
        for n, _, u in dressed_diagonal_gates(45):
            level = ScalarReference().level(u, DEFAULT_CAP, 1)
            # at cap 2 the root fails on its first non-Pauli child, expanding none
            if n < 4 and level > 3:
                cases.append((n, u, level - 1, 2))
        assert len(cases) >= 5
        for n, u, cap, layers in cases:
            engine = CountingEngine(n, layers)
            assert engine.level(u, cap) is None
            children = [sub for sub, _ in engine.root_children()]
            assert children[-1] is None and None not in children[:-1]
            reference = ScalarLevelEngine(n, 1e-9, layers)
            assert reference.level(u, cap, 0) is None
            assert engine.expansions() <= reference.expanded
