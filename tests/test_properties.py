"""Structural property tests: algebraic identities, invariances, canonicalization."""

from dataclasses import replace
from functools import lru_cache, reduce
from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrabasis.basisgen import build_tetra_group, check_orthonormal, orbit_basis
from tetrabasis.entanglement import invariant_fingerprint, three_tangle
from tetrabasis.fiducial import PhasePolynomial, parse_polynomial, build_fiducial
from tetrabasis.geometry import (
    apply_local_unitaries,
    basis_bloch_table,
    classify_geometry,
    relational_chirality,
)
from tetrabasis.qcore import PAULI_MATS, apply_on_qubit, pauli_matrix
from tetrabasis.search import (
    SearchConfig,
    _column_paulis,
    _smallest_column_image,
    _witness_phase,
    clifford_tables,
    group_into_classes,
    lc_equivalence_witness,
    search_regular,
    single_qubit_cliffords,
)
from test_search import exhaustive_witness


def pauli_letters(n):
    return st.text(alphabet="IXYZ", min_size=n, max_size=n)


def letter_matrix(letters):
    """Reference: Kronecker product of the letters' 2x2 Pauli matrices, qubit 1 leftmost."""
    return reduce(np.kron, [PAULI_MATS[c] for c in letters])


def letter_masks(letters):
    """(x mask, z mask) of a letter string and the phase with letters = phase * Z^b X^a."""
    a = int("".join("1" if c in "XY" else "0" for c in letters), 2)
    b = int("".join("1" if c in "YZ" else "0" for c in letters), 2)
    return a, b, (-1j) ** letters.count("Y")


def polynomials(n, m):
    monos = [frozenset(s) for size in range(1, n + 1)
             for s in combinations(range(1, n + 1), size)]
    return st.fixed_dictionaries(
        {}, optional={mono: st.integers(0, 2**m - 1) for mono in monos}
    ).map(lambda terms: PhasePolynomial(n, m, terms))


class TestPauliAlgebra:
    @settings(max_examples=200, deadline=None)
    @given(pauli_letters(3), pauli_letters(3))
    def test_product_letters_order_independent(self, a_str, b_str):
        # both orders give the xor of the masks; they differ by the symplectic sign
        (a, b, _), (c, d, _) = letter_masks(a_str), letter_masks(b_str)
        p, q = pauli_matrix(3, a, b), pauli_matrix(3, c, d)
        sign = (-1) ** (a & d).bit_count()
        np.testing.assert_array_equal(p @ q, sign * pauli_matrix(3, a ^ c, b ^ d))
        anticommuting = sum(x != "I" and y != "I" and x != y for x, y in zip(a_str, b_str))
        assert ((a & d).bit_count() + (b & c).bit_count()) % 2 == anticommuting % 2
        np.testing.assert_array_equal(p @ q, (-1) ** anticommuting * (q @ p))

    @settings(max_examples=100, deadline=None)
    @given(pauli_letters(2), pauli_letters(2))
    def test_product_matches_matrices(self, a_str, b_str):
        (a, b, s), (c, d, t) = letter_masks(a_str), letter_masks(b_str)
        product_of_masks = s * t * (-1) ** (a & d).bit_count() * pauli_matrix(2, a ^ c, b ^ d)
        np.testing.assert_allclose(product_of_masks, letter_matrix(a_str) @ letter_matrix(b_str),
                                   atol=1e-13)


class TestPolynomialCanonicalForm:
    @settings(max_examples=150, deadline=None)
    @given(polynomials(3, 2))
    def test_render_parse_roundtrip(self, f):
        parsed = parse_polynomial(f.to_text(), f.n, f.m)
        assert parsed == f
        assert parsed.to_text() == f.to_text()

    @settings(max_examples=60, deadline=None)
    @given(polynomials(2, 3))
    def test_negation_is_conjugation(self, f):
        psi = build_fiducial(f)
        np.testing.assert_allclose(build_fiducial(f.negated()), np.conj(psi), atol=1e-13)


class TestOrbitProperties:
    def test_random_phase_orthonormality_m6(self):
        # any phase pattern yields an orthonormal orbit; m=6 gives fine phases
        rng = np.random.default_rng(23)
        group = {n: build_tetra_group(n) for n in (2, 3)}
        monos = {n: [frozenset(s) for size in range(1, n + 1)
                     for s in combinations(range(1, n + 1), size)] for n in (2, 3)}
        for trial in range(120):
            n = 2 if trial % 2 == 0 else 3
            terms = {s: int(rng.integers(0, 64)) for s in monos[n]}
            f = PhasePolynomial(n, 6, terms)
            basis = orbit_basis(build_fiducial(f), group[n], f)
            report = check_orthonormal(basis)
            assert report.ok, f"violation {report.max_violation} for {f.to_text()}"

    def test_group_covariance_of_columns(self):
        # each generator, as a Kronecker product of letters, permutes the
        # columns up to phase, so the whole group does
        for n, text in ((2, "z1 z2"), (3, "z1 z2 + 2 z1 z3 + z1 z2 z3")):
            f = parse_polynomial(text, n, 2)
            basis = orbit_basis(build_fiducial(f), build_tetra_group(n), f)
            gens = ["I" * i + "ZZ" + "I" * (n - i - 2) for i in range(n - 1)] + ["X" * n]
            for mat in map(letter_matrix, gens):
                for g in range(basis.size):
                    moved = mat @ basis.column(g)
                    overlaps = np.abs(basis.columns.conj().T @ moved)
                    assert np.max(overlaps) > 1 - 1e-10

    def test_bloch_length_multiset_constant_in_g(self):
        f = parse_polynomial("z1 z2 + z2 z3", 3, 2)
        basis = orbit_basis(build_fiducial(f), build_tetra_group(3), f)
        table = basis_bloch_table(basis)
        norms = np.linalg.norm(table, axis=2)
        for qubit in range(3):
            assert norms[qubit].max() - norms[qubit].min() < 1e-9

    def test_measurement_unitary_unitary_whenever_orthonormal(self):
        from tetrabasis.basisgen import measurement_unitary
        for hit in search_regular(SearchConfig(3, 2))[:12]:
            f = hit.polynomial
            basis = orbit_basis(build_fiducial(f), build_tetra_group(3), f)
            m = measurement_unitary(basis)
            assert np.max(np.abs(m.conj().T @ m - np.eye(8))) < 1e-10


@st.composite
def witness_cases(draw):
    """A state L U_g psi_f (LC tuple L, orbit column g) and the orbit basis of f, -f or h."""
    n = draw(st.sampled_from([3, 2]))
    f = draw(polynomials(n, 2))
    target = draw(st.one_of(st.just(f), st.just(f.negated()), polynomials(n, 2)))
    state = orbit_basis(build_fiducial(f), build_tetra_group(n), f).column(
        draw(st.integers(0, 2**n - 1)))
    cliffs = single_qubit_cliffords()
    for qubit, index in enumerate(draw(st.lists(st.integers(0, 23), min_size=n, max_size=n)), 1):
        state = apply_on_qubit(cliffs[index], state, qubit)
    return state, orbit_basis(build_fiducial(target), build_tetra_group(n), target)


class TestWitnessOracle:
    @settings(max_examples=60, deadline=None)
    @given(witness_cases())
    def test_stacked_scan_equals_exhaustive(self, case):
        # exact equality, phase bits included, in the plain pass and in both passes
        state, basis = case
        for conjugation in (False, True):
            assert (lc_equivalence_witness(state, basis, allow_conjugation=conjugation)
                    == exhaustive_witness(state, basis, allow_conjugation=conjugation))


@lru_cache(maxsize=None)
def search_hits(n):
    """Unfiltered n=3 hits (zero-Bloch rows included), or regular n=4 sample hits."""
    if n == 3:
        return search_regular(SearchConfig(3, 2, require_regular=False))
    return search_regular(SearchConfig(4, 2, sample=3000, seed=1))


class TestDerivedWitness:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([3, 4]), st.integers(0, 10**6),
           st.lists(st.integers(0, 23), min_size=4, max_size=4), st.integers(0, 15),
           st.floats(0, 1, exclude_max=True))
    def test_link_to_a_local_clifford_image_equals_the_scan(self, n, pick, tuple_, column, turn):
        # the image L P_c psi e^(2 pi i turn) shares psi's key, and its derived
        # link is the scan's first witness, phase bits included
        hits = search_hits(n)
        hit = hits[pick % len(hits)]
        basis = orbit_basis(hit.fiducial, build_tetra_group(n), hit.polynomial)
        state = basis.column(column % 2**n)
        for qubit, index in enumerate(tuple_[:n], 1):
            state = apply_on_qubit(single_qubit_cliffords()[index], state, qubit)
        label = parse_polynomial("z1 z2" if hit.key == "0" else "0", n, 2)
        image = replace(hit, polynomial=label, fiducial=state * np.exp(2j * np.pi * turn))
        [record] = group_into_classes([hit, image])
        assert record.witness_links == {
            label.to_text(): lc_equivalence_witness(image.fiducial, basis)}


def scalar_witness_phase(state, tuple_, column, cols_dag):
    """Reference: one row's phase with one qubit's operator at a time, as the scan once took it."""
    stack = np.stack(single_qubit_cliffords())
    for qubit, index in enumerate(tuple_[:-1], start=1):
        state = apply_on_qubit(stack[index], state, qubit)
    batch = np.einsum("rb,kab->kra", state.reshape(-1, 2), stack).reshape(24, -1)
    return (cols_dag @ batch.T)[column, tuple_[-1]]


@st.composite
def phase_cases(draw):
    """Seeded fiducials (or their conjugates), tuples, columns and orbit targets."""
    n, m = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 6))

    def fiducial():
        f = PhasePolynomial(n, m, {frozenset(s): int(rng.integers(2**m))
                                   for k in range(1, n + 1) for s in combinations(range(1, n + 1), k)})
        return build_fiducial(f), f

    states = [psi.conj() if rng.integers(2) else psi for psi, _ in
              (fiducial() for _ in range(rows))]
    targets = [orbit_basis(psi, build_tetra_group(n), f).columns.conj()
               for psi, f in (fiducial() for _ in range(rows))]
    return (np.array(states), rng.integers(0, 24, (rows, n)), rng.integers(0, 2**n, rows),
            targets)


@st.composite
def segment_cases(draw):
    """Seeded (M, n) tuples in segments, one keeping all 24 Cliffords on a qubit."""
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    segments = [rng.integers(0, 24, (int(rng.integers(1, 10)), n))
                for _ in range(draw(st.integers(0, 4)))]
    zero_bloch = np.repeat(rng.integers(0, 24, (1, n)), 24, axis=0)
    zero_bloch[:, int(rng.integers(n))] = np.arange(24)  # a zero Bloch vector keeps every Clifford
    segments.insert(draw(st.integers(0, len(segments))), zero_bloch)
    return segments


class TestBatchedLinkKernels:
    @settings(max_examples=60, deadline=None)
    @given(phase_cases())
    def test_phase_block_equals_its_rows(self, case):
        # bits compared as int64 views, so a -0.0 component counts; the block
        # takes the targets stacked, as grouping does, and a row as the scan does
        states, tuples, columns, targets = case
        block = _witness_phase(states, tuples, columns,
                               np.stack(targets).transpose(0, 2, 1)).view(np.int64)
        for i, target in enumerate(targets):
            row = _witness_phase(states[i:i + 1], tuples[i:i + 1], columns[i:i + 1],
                                 target.T[None])
            reference = scalar_witness_phase(states[i], tuples[i], columns[i], target.T)
            assert block[2 * i:2 * i + 2].tolist() == row.view(np.int64).tolist()
            assert block[2 * i:2 * i + 2].tolist() == np.array([reference]).view(np.int64).tolist()

    @settings(max_examples=60, deadline=None)
    @given(segment_cases())
    def test_column_image_segments_equal_one_segment_calls(self, segments):
        products = clifford_tables()[0]
        paulis = _column_paulis(segments[0].shape[1])
        starts = np.cumsum([0] + [len(s) for s in segments[:-1]])
        images, columns = _smallest_column_image(np.concatenate(segments), starts)
        for segment, image, column in zip(segments, images.tolist(), columns.tolist()):
            [one], [one_column] = _smallest_column_image(segment, np.zeros(1, dtype=np.intp))
            assert (image, column) == (one.tolist(), one_column)
            # the smallest P_c S with the lower column on a tie, by brute force
            assert (image, column) == min((products[p, s].tolist(), c)
                                          for s in segment for c, p in enumerate(paulis))


class TestChiralityInvariance:
    def test_sign_stable_under_structure_preserving_rotations(self):
        # per-qubit Pauli rotations and a shared vertex-axis 3-cycle preserve
        # the labeled-tetra structure; pairwise signs must not move
        rng = np.random.default_rng(31)
        cycle = np.cos(np.pi / 3) * np.eye(2) - 1j * np.sin(np.pi / 3) * (
            PAULI_MATS["X"] + PAULI_MATS["Y"] + PAULI_MATS["Z"]) / np.sqrt(3)
        f = parse_polynomial("z1 z2 + z1 z3 + z2 z3 + 3 z1 z2 z3", 3, 2)
        group = build_tetra_group(3)
        basis = orbit_basis(build_fiducial(f), group, f)
        base_signs = {pair: relational_chirality(basis_bloch_table(basis), *pair)[0]
                      for pair in ((1, 2), (1, 3), (2, 3))}
        paulis = [np.eye(2), PAULI_MATS["X"], PAULI_MATS["Y"], PAULI_MATS["Z"]]
        for _ in range(25):
            shared = np.linalg.matrix_power(cycle, int(rng.integers(0, 3)))
            factors = [paulis[rng.integers(4)] @ shared for _ in range(3)]
            rotated_cols = np.stack(
                [apply_local_unitaries(basis.column(g), factors)
                 for g in range(basis.size)], axis=1)
            table = np.empty((3, 8, 3))
            from tetrabasis.geometry import bloch_vector
            for g in range(8):
                for qubit in range(3):
                    table[qubit, g] = bloch_vector(rotated_cols[:, g], qubit + 1)
            for pair, expected in base_signs.items():
                assert relational_chirality(table, *pair)[0] == expected


class TestDegreeOneCanonicalization:
    def test_degree_one_terms_stay_within_canonical_classes(self):
        # validates dropping degree-1 monomials from the enumeration: added
        # terms can move a basis between classes (they conjugate the fiducial
        # by a staircase-entangled phase gate) and can even break regularity,
        # but every regular result fingerprints into a canonical class, so the
        # degree >= 2 enumeration already sees every class
        rng = np.random.default_rng(41)
        hits = search_regular(SearchConfig(3, 2))
        canonical_keys = {h.fingerprint.class_key() for h in hits}
        group = build_tetra_group(3)
        sample = [hits[i] for i in rng.choice(len(hits), size=10, replace=False)]
        regular_seen = 0
        for hit in sample:
            for _ in range(4):
                qubit = int(rng.integers(1, 4))
                coeff = int(rng.integers(1, 4))
                terms = dict(hit.polynomial.terms)
                terms[frozenset({qubit})] = coeff  # the canonical space has no degree-1 terms
                extended = PhasePolynomial(3, 2, terms)
                basis = orbit_basis(build_fiducial(extended), group, extended)
                assert check_orthonormal(basis).ok
                geometry = classify_geometry(basis_bloch_table(basis))
                if not geometry.all_regular:
                    continue
                regular_seen += 1
                assert abs(geometry.r - np.sqrt(3) / 4) < 1e-9
                fp = invariant_fingerprint(basis, geometry)
                assert fp.class_key() in canonical_keys
        assert regular_seen > 0

    def test_n2_full_space_has_no_classes_beyond_canonical(self):
        # exhaustive over all 64 degree >= 1 polynomials at n=2, m=2
        from itertools import product as iproduct
        group = build_tetra_group(2)
        canonical_keys = set()
        full_keys = set()
        for c1, c2, c12 in iproduct(range(4), repeat=3):
            f = PhasePolynomial(2, 2, {frozenset({1}): c1, frozenset({2}): c2,
                                       frozenset({1, 2}): c12})
            basis = orbit_basis(build_fiducial(f), group, f)
            geometry = classify_geometry(basis_bloch_table(basis))
            if geometry.all_regular and geometry.nonzero_components:
                key = invariant_fingerprint(basis, geometry).class_key()
                full_keys.add(key)
                if c1 == 0 and c2 == 0:
                    canonical_keys.add(key)
        assert full_keys == canonical_keys
        assert len(full_keys) == 1


class TestHigherPrecisionEquivalence:
    def test_m3_hits_reduce_to_m2_classes_n2(self):
        # all n=2, m=3 canonical polynomials whose bases are regular+nonzero
        # fingerprint-match the unique m=2 class
        for coeff in range(8):
            f = PhasePolynomial(2, 3, {frozenset({1, 2}): coeff})
            basis = orbit_basis(build_fiducial(f), build_tetra_group(2), f)
            geometry = classify_geometry(basis_bloch_table(basis))
            if not (geometry.all_regular and geometry.nonzero_components):
                continue
            fp = invariant_fingerprint(basis, geometry)
            assert fp.concurrence_sq == (0.25,)
            assert abs(fp.r - np.sqrt(3) / 2) < 1e-9

    def test_m3_doubled_hits_match_m2_classes_n3(self):
        # doubling coefficients embeds every m=2 polynomial at m=3 with the
        # same diagonal gate, so each m=2 class reappears; additionally a
        # random m=3 sample must not produce tangles outside the m=2 set
        known = {round(np.sqrt(v) / 16, 8) for v in (65, 97, 113, 145)}
        group = build_tetra_group(3)
        for hit in search_regular(SearchConfig(3, 2))[:10]:
            doubled = PhasePolynomial(3, 3, {s: 2 * c for s, c in hit.polynomial.terms.items()})
            basis = orbit_basis(build_fiducial(doubled), group, doubled)
            geometry = classify_geometry(basis_bloch_table(basis))
            assert geometry.all_regular
            assert round(three_tangle(basis.fiducial), 8) in known
        rng = np.random.default_rng(53)
        monos = [frozenset(s) for s in ((1, 2), (1, 3), (2, 3), (1, 2, 3))]
        for _ in range(400):
            terms = {s: int(rng.integers(0, 8)) for s in monos}
            f = PhasePolynomial(3, 3, terms)
            basis = orbit_basis(build_fiducial(f), group, f)
            geometry = classify_geometry(basis_bloch_table(basis))
            if geometry.all_regular:
                assert round(three_tangle(basis.fiducial), 8) in known
                assert abs(geometry.r - np.sqrt(3) / 4) < 1e-9
