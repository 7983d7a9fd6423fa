import hashlib
import json
import os
import re
from dataclasses import replace
from itertools import islice, product

import numpy as np
import pytest

from tetrabasis.basisgen import (
    build_tetra_group,
    check_orthonormal,
    ejm_reference_basis,
    orbit_basis,
    orbit_columns,
)
from tetrabasis.fiducial import parse_polynomial, build_fiducial
from tetrabasis.geometry import bloch_vector, bloch_vectors, conjugate_state, orbit_bloch_table
from tetrabasis.qcore import (
    EPS_NORM,
    PAULI_MATS,
    CapacityError,
    apply_on_qubit,
    num_qubits,
    phase_canonical_key,
    phase_canonical_keys,
)
from tetrabasis.search import (
    WITNESS_BLOCK,
    ClassRecord,
    SearchConfig,
    Witness,
    canonical_monomials,
    clifford_bloch_rotations,
    clifford_tables,
    conjugate_partner_key,
    evaluate_polynomial_candidate,
    group_into_classes,
    lc_canonical_keys,
    lc_equivalence_witness,
    polynomial_from_coeffs,
    screen_block,
    search_regular,
    single_qubit_cliffords,
)

from polyspace import enumerate_polynomials, polynomial_space_size, seeded_polynomials


class TestEnumeration:
    def test_n2_count(self):
        polys = list(enumerate_polynomials(2, 2))
        assert len(polys) == 4

    def test_n3_count(self):
        assert len(list(enumerate_polynomials(3, 2))) == 256

    def test_n4_space_size(self):
        assert polynomial_space_size(4, 2) == 4_194_304

    def test_lexicographic_order(self):
        polys = list(enumerate_polynomials(2, 2))
        assert [f.to_text() for f in polys] == ["0", "z1 z2", "2 z1 z2", "3 z1 z2"]

    def test_monomial_order(self):
        assert canonical_monomials(3) == [(1, 2), (1, 2, 3), (1, 3), (2, 3)]

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            list(enumerate_polynomials(6, 2))

    def test_min_degree(self):
        polys = list(enumerate_polynomials(2, 1, min_degree=1))
        assert len(polys) == 8  # three monomials z1, z2, z1z2 at m=1


class TestSearchRegular:
    def test_n2_regular_nonzero(self):
        hits = search_regular(SearchConfig(2, 2, require_regular=True, require_nonzero=True))
        assert [h.key for h in hits] == ["z1 z2", "3 z1 z2"]
        assert all(h.level == 3 for h in hits)

    def test_m1_clifford_space_has_no_regular_bases(self):
        # precision 1 keeps every diagonal gate Clifford; regular tetrahedral
        # structure needs at least the level-3 quarter phases
        for n in (2, 3):
            assert search_regular(SearchConfig(n, 1)) == []

    def test_redundant_orthonormality_guard(self):
        hits = search_regular(SearchConfig(2, 2, require_regular=False))
        assert len(hits) == 4  # every candidate passed the orthonormality assert

    def test_explicit_polynomial_restriction(self):
        from tetrabasis.reproduce import APPD_EXAMPLE1, APPD_EXAMPLE2
        hits = regular_hits(parse_polynomial(t, 4, 2) for t in (APPD_EXAMPLE1, APPD_EXAMPLE2))
        assert len(hits) == 2
        assert sorted(h.fingerprint.r for h in hits) == [
            round(np.sqrt(3) / 8, 10), round(3 * np.sqrt(3) / 8, 10)]
        assert all(h.level == 5 for h in hits)

    def test_capacity_error_without_sample(self):
        # n=5 full space (4^26) exceeds the enumeration limit; n=4 stays legal
        with pytest.raises(CapacityError):
            search_regular(SearchConfig(5, 2))

    def test_sampled_search_deterministic(self):
        cfg = SearchConfig(4, 2, sample=40, seed=3)
        first = [h.key for h in search_regular(cfg)]
        second = [h.key for h in search_regular(cfg)]
        assert first == second

    @pytest.mark.parametrize("cfg", [SearchConfig(3, 2), SearchConfig(4, 2, sample=3000, seed=5)],
                             ids=["n3-full", "n4-sample"])
    def test_reports_bitwise_stable_across_screen_blocks(self, monkeypatch, cfg):
        # the screen block is the search's only chunking: 17 leaves an uneven
        # last block (256 = 15 * 17 + 1), and 1 screens every row alone
        from tetrabasis import search
        from tetrabasis.cli import hits_csv
        reports = []
        for batch in (4096, 17, 1):
            monkeypatch.setattr(search, "SCREEN_BATCH", batch)
            reports.append(hits_csv(search_regular(cfg)))
        assert reports[0].count("\n") > 1  # some hits, not only the header
        assert reports[1] == reports[0] and reports[2] == reports[0]


def regular_hits(polys):
    """The regular hits among explicit polynomials, each through evaluate_polynomial_candidate."""
    hits = [evaluate_polynomial_candidate(f) for f in polys]
    return [hit for hit in hits if hit.geometry.all_regular]


def candidate_coeffs(cfg, rng=None):
    """Reference candidates: the full space in order, or the distinct seeded draws.

    A sample is drawn one candidate at a time, until it holds min(sample,
    space size) distinct rows; pass rng to draw from that generator.
    """
    monos = canonical_monomials(cfg.n)
    if cfg.sample is None:
        return list(product(range(2**cfg.m), repeat=len(monos)))
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    drawn = {}
    while len(drawn) < min(cfg.sample, polynomial_space_size(cfg.n, cfg.m)):
        drawn.setdefault(tuple(int(c) for c in rng.integers(0, 2**cfg.m, len(monos))), None)
    return list(drawn)


def passes(hit, cfg):
    return ((not cfg.require_regular or hit.geometry.all_regular)
            and (not cfg.require_nonzero or hit.geometry.nonzero_components))


def scalar_search(cfg):
    """Reference: the unscreened loop, every candidate through evaluate_polynomial_candidate."""
    monos = canonical_monomials(cfg.n)
    hits = []
    for coeffs in candidate_coeffs(cfg):
        hit = evaluate_polynomial_candidate(polynomial_from_coeffs(cfg.n, cfg.m, monos, coeffs))
        if passes(hit, cfg):
            hits.append(hit)
    return hits


FILTERS = [(True, False), (False, True), (True, True), (False, False)]
UNEQUAL_LENGTHS = "z1 z3 + z1 z3 z4 + 3 z2 z3 z4 + 3 z2 z4 + z3 z4"


class TestBatchedScreen:
    def assert_matches_scalar(self, cfg):
        screened = search_regular(cfg)
        reference = scalar_search(cfg)
        assert screened == reference  # polynomial, geometry report and level
        assert [h.key for h in screened] == [h.key for h in reference]
        assert [h.level for h in screened] == [h.level for h in reference]
        assert [h.fingerprint for h in screened] == [h.fingerprint for h in reference]
        return screened

    @pytest.mark.parametrize("regular,nonzero", FILTERS)
    def test_full_n2_every_filter(self, regular, nonzero):
        hits = self.assert_matches_scalar(
            SearchConfig(2, 2, require_regular=regular, require_nonzero=nonzero))
        assert len(hits) == (4 if not (regular or nonzero) else 2)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_full_n3(self, m):
        hits = self.assert_matches_scalar(SearchConfig(3, m))
        assert len(hits) == (0 if m == 1 else 40)

    def test_full_n3_nonzero_only(self):
        assert len(self.assert_matches_scalar(
            SearchConfig(3, 2, require_regular=False, require_nonzero=True))) == 128

    @pytest.mark.parametrize("m,seed", [(2, 0), (2, 1), (3, 1)])
    def test_seeded_n4_samples(self, m, seed):
        self.assert_matches_scalar(SearchConfig(4, m, sample=400, seed=seed))

    @pytest.mark.parametrize("cfg", [SearchConfig(3, 2), SearchConfig(4, 2, sample=600, seed=4)])
    def test_keep_mask_covers_every_scalar_pass(self, cfg):
        monos = canonical_monomials(cfg.n)
        coeffs = candidate_coeffs(cfg)
        hits = [evaluate_polynomial_candidate(polynomial_from_coeffs(cfg.n, cfg.m, monos, c))
                for c in coeffs]
        for regular, nonzero in FILTERS:
            flt = replace(cfg, require_regular=regular, require_nonzero=nonzero)
            keep = screen_block(np.array([h.fiducial for h in hits]), flt)
            passed = np.array([passes(h, flt) for h in hits])
            assert keep.shape == passed.shape and not np.any(passed & ~keep)
            if regular:
                assert keep.sum() <= len(coeffs) // 5  # the screen rejects nearly everything

    def test_unequal_lengths_hit_is_kept(self):
        f = parse_polynomial(UNEQUAL_LENGTHS, 4, 2)
        hit = evaluate_polynomial_candidate(f)
        assert hit.geometry.all_regular and hit.geometry.nonzero_components
        assert hit.geometry.r is None  # its qubits' Bloch lengths differ
        assert screen_block(build_fiducial(f)[None], SearchConfig(4, 2, require_nonzero=True))[0]

    @pytest.mark.parametrize("n", [2, 3])
    def test_orthonormality_guard_sees_screened_out_candidates(self, monkeypatch, n):
        # label 1 repeats label 0's identity, so <psi|U_1|psi> = 1 for every
        # candidate; the zero polynomial comes first and is never regular
        from tetrabasis import search
        from tetrabasis.basisgen import TetraGroup

        def repeated_identity(k):
            group = build_tetra_group(k)
            return TetraGroup(k, (0, 0) + group.x_masks[2:], (0, 0) + group.z_masks[2:])

        monkeypatch.setattr(search, "build_tetra_group", repeated_identity)
        message = r"orbit of '0' unexpectedly non-orthonormal \(violation 1\.000e\+00\)"
        with pytest.raises(AssertionError, match=message):
            search_regular(SearchConfig(n, 2))

    def test_guard_message_does_not_depend_on_the_block(self, monkeypatch):
        # one corrupted row of the n=3 space; its violation is reported from
        # that row alone, whatever SCREEN_BATCH puts beside it
        from tetrabasis import search
        from tetrabasis.fiducial import polynomial_values
        bad = parse_polynomial("z1 z2 + 2 z1 z3 + 3 z2 z3", 3, 2)
        build = search.build_fiducials

        def corrupting(values, n, m):
            states = build(values, n, m)
            rows = np.flatnonzero((values == polynomial_values(bad)).all(axis=1))
            states[rows] = (states[rows] + 0.01 * np.roll(states[rows], 1, axis=1)) / 1.00005
            return states

        monkeypatch.setattr(search, "build_fiducials", corrupting)
        messages = []
        for batch in (4096, 1, 7):
            monkeypatch.setattr(search, "SCREEN_BATCH", batch)
            with pytest.raises(AssertionError) as caught:
                search_regular(SearchConfig(3, 2))
            messages.append(str(caught.value))
        assert messages[0].startswith(f"orbit of {bad.to_text()!r} unexpectedly non-orthonormal")
        assert messages == [messages[0]] * 3


def fiducial_rows(cfg):
    """The (B, 2^n) fiducial rows of cfg's candidates, built as search_regular builds a block."""
    from tetrabasis import search
    coeffs = np.array(candidate_coeffs(cfg), dtype=np.int64)
    indicator = search._monomial_indicator(cfg.n, tuple(canonical_monomials(cfg.n)))
    return search.build_fiducials((coeffs @ indicator) % 2**cfg.m, cfg.n, cfg.m)


GUARD_SPACES = ([SearchConfig(n, m) for n in (2, 3) for m in (1, 2, 3)]
                + [SearchConfig(n, m, sample=300, seed=n + m) for n in (4, 5, 6) for m in (2, 3)])


def reference_violations(states, group):
    return np.array([check_orthonormal(orbit_basis(psi, group)).max_violation for psi in states])


class TestOrthonormalityGuard:
    @pytest.mark.parametrize("cfg", GUARD_SPACES, ids=lambda c: f"n{c.n}-m{c.m}-{c.sample}")
    def test_violations_equal_check_orthonormal(self, cfg):
        from tetrabasis.search import _orbit_violations
        group = build_tetra_group(cfg.n)
        states = fiducial_rows(cfg)
        reference = reference_violations(states, group)
        for block in (states, states[:1]):
            guard = _orbit_violations(block, group)
            np.testing.assert_allclose(guard, reference[:len(block)], rtol=0, atol=1e-15)
            assert np.array_equal(guard > EPS_NORM, reference[:len(block)] > EPS_NORM)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_corrupted_rows_either_side_of_eps_norm(self, n):
        # psi + t U_g psi, normalised, has <psi'|U_g|psi'> = 2t / (1 + t^2) and
        # no other overlap, since U_g is Hermitian and the group is abelian
        from tetrabasis.search import _orbit_violations
        group = build_tetra_group(n)
        states = fiducial_rows(SearchConfig(n, 2, sample=2**n, seed=n))
        columns = orbit_columns(states, group)
        rows, expected = [], []
        for g in range(1, 2**n):
            for target, ok in ((EPS_NORM * (1 - 1e-3), True), (EPS_NORM * (1 + 1e-3), False)):
                row = states[g] + target / 2 * columns[g, :, g]
                rows.append(row / np.linalg.norm(row))
                expected.append(ok)
        block = np.concatenate([states, rows])
        reference = reference_violations(block, group)
        assert (reference[len(states):] <= EPS_NORM).tolist() == expected
        guard = _orbit_violations(block, group)
        np.testing.assert_allclose(guard, reference, rtol=0, atol=1e-15)
        assert np.array_equal(guard > EPS_NORM, reference > EPS_NORM)

    @pytest.mark.parametrize("n", [2, 3])
    def test_label_with_a_third_x_mask_is_guarded(self, monkeypatch, n):
        # label 1 becomes X on qubit 1 alone, an X mask that is neither 0 nor
        # all-ones; the first candidate it fails must be named
        from tetrabasis import search
        from tetrabasis.basisgen import TetraGroup
        group = build_tetra_group(n)
        patched = TetraGroup(n, (0, 1 << (n - 1)) + group.x_masks[2:], (0, 0) + group.z_masks[2:])
        assert len({a for a, _gather, _signs in search._guard_tables(patched)}) == 3
        first = next(f for f in enumerate_polynomials(n, 2)
                     if not check_orthonormal(orbit_basis(build_fiducial(f), patched)).ok)
        violation = check_orthonormal(orbit_basis(build_fiducial(first), patched)).max_violation
        monkeypatch.setattr(search, "build_tetra_group", lambda k: patched)
        message = (f"orbit of {first.to_text()!r} unexpectedly non-orthonormal "
                   f"(violation {violation:.3e})")
        with pytest.raises(AssertionError, match=re.escape(message)):
            search_regular(SearchConfig(n, 2))


class TestScreenKernel:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_bloch_vectors_equal_the_partial_trace_formula(self, n, m):
        from tetrabasis.search import _bloch_vectors
        cfg = SearchConfig(n, m, sample=200, seed=10 * n + m)
        states = fiducial_rows(cfg)
        np.testing.assert_allclose(_bloch_vectors(states, n), bloch_vectors(states),
                                   rtol=0, atol=1e-15)


def block_rows(cfg, monkeypatch, batch):
    """The candidate blocks of cfg at SCREEN_BATCH = batch, and their rows as tuples."""
    from tetrabasis import search
    monkeypatch.setattr(search, "SCREEN_BATCH", batch)
    blocks = list(search._candidate_blocks(cfg, len(canonical_monomials(cfg.n))))
    for block in blocks:
        assert block.dtype == np.int64 and block.ndim == 2 and 1 <= len(block) <= batch
    return blocks, [tuple(row) for block in blocks for row in block.tolist()]


class TestCandidateBlocks:
    @pytest.mark.parametrize("batch", [4096, 17, 1])
    @pytest.mark.parametrize("m", [1, 2, 3, 62])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sampled_rows_equal_per_candidate_draws(self, monkeypatch, n, m, batch):
        # the generator must leave its rng where one draw per candidate does
        cfg = SearchConfig(n, m, sample=150, seed=n * 100 + m)
        drawn = []
        real = np.random.default_rng

        def recorded(seed):
            drawn.append(real(seed))
            return drawn[-1]

        monkeypatch.setattr(np.random, "default_rng", recorded)
        _, rows = block_rows(cfg, monkeypatch, batch)
        reference_rng = real(cfg.seed)
        assert rows == candidate_coeffs(cfg, reference_rng)
        assert drawn[0].bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("m,size", [(1, 2), (2, 4)])
    def test_sample_larger_than_the_space(self, monkeypatch, m, size):
        cfg = SearchConfig(2, m, sample=300, seed=7)
        for batch in (4096, 17, 1):
            _, rows = block_rows(cfg, monkeypatch, batch)
            assert sorted(rows) == [(c,) for c in range(size)]
            assert rows == candidate_coeffs(cfg)

    def test_sample_dense_in_duplicates(self, monkeypatch):
        # 12 distinct rows of a 16-row space take many repeated draws
        cfg = SearchConfig(3, 1, sample=12, seed=2)
        rng, distinct, draws = np.random.default_rng(cfg.seed), set(), 0
        while len(distinct) < 12:
            distinct.add(tuple(rng.integers(0, 2, 4)))
            draws += 1
        assert draws > 15
        for batch in (4096, 17, 5, 1):
            blocks, rows = block_rows(cfg, monkeypatch, batch)
            assert rows == candidate_coeffs(cfg)
        assert len(blocks) == 12  # at batch 1, each repeated draw left a block empty

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3])
    def test_full_space_is_product_order(self, monkeypatch, n, m):
        expected = list(product(range(2**m), repeat=len(canonical_monomials(n))))
        for batch in (4096, 17, 1):
            _, rows = block_rows(SearchConfig(n, m), monkeypatch, batch)
            assert rows == expected

    def test_first_n4_blocks_are_product_order(self):
        from tetrabasis.search import SCREEN_BATCH, _candidate_blocks
        blocks = list(islice(_candidate_blocks(SearchConfig(4, 2), 11), 3))
        assert [len(b) for b in blocks] == [SCREEN_BATCH] * 3
        rows = [tuple(row) for block in blocks for row in block.tolist()]
        assert rows == list(islice(product(range(4), repeat=11), 3 * SCREEN_BATCH))

    @pytest.mark.parametrize("cfg", [SearchConfig(4, 2, sample=400, seed=1), SearchConfig(3, 2)],
                             ids=["n4-sample", "n3-full"])
    def test_hit_coefficients_are_python_ints(self, cfg):
        hits = search_regular(cfg)
        assert hits
        assert all(type(c) is int for hit in hits for c in hit.polynomial.terms.values())

    def test_sampled_search_json_serialises(self, capsys):
        from tetrabasis.cli import main
        assert main(["search", "--n", "4", "--m", "2", "--sample", "400", "--seed", "1",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hits"] and all(isinstance(row["poly"], str) for row in payload["hits"])


class TestCliffordGroup:
    def test_count(self):
        assert len(single_qubit_cliffords()) == 24

    def test_unitary(self):
        for mat in single_qubit_cliffords():
            np.testing.assert_allclose(mat.conj().T @ mat, np.eye(2), atol=1e-12)

    def test_distinct_up_to_phase(self):
        cliffs = single_qubit_cliffords()
        for i, a in enumerate(cliffs):
            for b in cliffs[i + 1:]:
                assert abs(abs(np.trace(a.conj().T @ b)) - 2) > 1e-6

    def test_closed_under_multiplication(self):
        cliffs = single_qubit_cliffords()
        for a in cliffs[:6]:
            for b in cliffs[:6]:
                prod = a @ b
                matches = [c for c in cliffs if abs(abs(np.trace(c.conj().T @ prod)) - 2) < 1e-9]
                assert len(matches) == 1

    def test_identity_first(self):
        np.testing.assert_allclose(single_qubit_cliffords()[0], np.eye(2), atol=1e-15)

    def test_tables_match_the_matrices_up_to_phase(self):
        cliffs = single_qubit_cliffords()

        def same_up_to_phase(a, b):
            return abs(abs(np.trace(a.conj().T @ b)) - 2) < 1e-9

        products, inverse, paulis = clifford_tables()
        for i, a in enumerate(cliffs):
            assert same_up_to_phase(cliffs[inverse[i]], a.conj().T)
            for j, b in enumerate(cliffs):
                assert same_up_to_phase(cliffs[products[i, j]], a @ b)
        x, z = PAULI_MATS["X"], PAULI_MATS["Z"]
        for a, b in product((0, 1), repeat=2):
            pauli = np.linalg.matrix_power(z, b) @ np.linalg.matrix_power(x, a)
            assert same_up_to_phase(cliffs[paulis[a, b]], pauli)


class TestWitness:
    def test_identity_witness(self):
        f = parse_polynomial("z1 z2", 2, 2)
        psi = build_fiducial(f)
        basis = orbit_basis(psi, build_tetra_group(2), f)
        witness = lc_equivalence_witness(psi, basis)
        assert witness.clifford_indices == (0, 0)
        assert witness.column == 0 and not witness.conjugated

    def test_different_qubit_counts_rejected(self):
        f, g = parse_polynomial("z1 z2", 2, 2), parse_polynomial("z1 z2 z3", 3, 2)
        target = orbit_basis(build_fiducial(g), build_tetra_group(3), g)
        with pytest.raises(ValueError, match="different qubit counts"):
            lc_equivalence_witness(build_fiducial(f), target)

    def test_table1_row_requires_conjugation(self):
        group = build_tetra_group(3)
        f1 = parse_polynomial("z1 z3 + 3 z2 z3 + z1 z2 z3", 3, 2)
        f2 = parse_polynomial("3 z1 z3 + z2 z3 + 3 z1 z2 z3", 3, 2)
        psi1 = build_fiducial(f1)
        basis2 = orbit_basis(build_fiducial(f2), group, f2)
        assert lc_equivalence_witness(psi1, basis2, allow_conjugation=False) is None
        witness = lc_equivalence_witness(psi1, basis2, allow_conjugation=True)
        assert witness is not None and witness.conjugated

    def test_distinct_tangles_never_linked(self):
        group = build_tetra_group(3)
        f1 = parse_polynomial("z1 z3 + 3 z2 z3 + z1 z2 z3", 3, 2)      # tangle sqrt(65)/16
        f2 = parse_polynomial("z1 z3 + z1 z2 z3", 3, 2)                # tangle sqrt(145)/16
        psi1 = build_fiducial(f1)
        basis2 = orbit_basis(build_fiducial(f2), group, f2)
        assert lc_equivalence_witness(psi1, basis2, allow_conjugation=True) is None

    def test_witness_reproduces_column(self):
        group = build_tetra_group(3)
        f1 = parse_polynomial("z1 z2 + z1 z3 + z2 z3 + 3 z1 z2 z3", 3, 2)
        f2 = parse_polynomial("z1 z2 + z1 z3 + 3 z2 z3 + z1 z2 z3", 3, 2)
        psi1 = build_fiducial(f1)
        basis2 = orbit_basis(build_fiducial(f2), group, f2)
        witness = lc_equivalence_witness(psi1, basis2, allow_conjugation=True)
        mapped = witness.apply(psi1)
        assert np.max(np.abs(mapped - basis2.column(witness.column))) < 1e-9

    def test_deterministic(self):
        group = build_tetra_group(2)
        f1 = parse_polynomial("z1 z2", 2, 2)
        f2 = parse_polynomial("3 z1 z2", 2, 2)
        psi = build_fiducial(f1)
        basis = orbit_basis(build_fiducial(f2), group, f2)
        first = lc_equivalence_witness(psi, basis, allow_conjugation=True)
        second = lc_equivalence_witness(psi, basis, allow_conjugation=True)
        assert first == second


SIGMA = [PAULI_MATS[p] for p in "XYZ"]


def exhaustive_witness(psi1, basis2, allow_conjugation=False, tol=1e-9):
    """Reference scan: every one of the 24^n tuples in lexicographic index order."""
    psi1 = np.asarray(psi1, dtype=complex)
    n = num_qubits(psi1.shape[0])
    cliffs = single_qubit_cliffords()
    stack = np.stack(cliffs)
    cols_dag = basis2.columns.conj().T

    for conjugated in ((False, True) if allow_conjugation else (False,)):
        base = conjugate_state(psi1) if conjugated else psi1

        def scan(qubit, state):
            if qubit == n:
                grouped = state.reshape(-1, 2)
                batch = np.einsum("rb,kab->kra", grouped, stack).reshape(24, -1)
                overlaps = cols_dag @ batch.T
                hits = np.argwhere(np.abs(overlaps) >= 1 - tol)
                if hits.size == 0:
                    return None
                order = np.lexsort((hits[:, 0], hits[:, 1]))
                column, last = int(hits[order[0]][0]), int(hits[order[0]][1])
                return Witness((last,), conjugated, column, complex(overlaps[column, last]))
            for idx in range(24):
                result = scan(qubit + 1, apply_on_qubit(cliffs[idx], state, qubit))
                if result is not None:
                    return replace(result, clifford_indices=(idx,) + result.clifford_indices)
            return None

        witness = scan(1, base)
        if witness is not None:
            return witness
    return None


def orbit_of(f):
    return orbit_basis(build_fiducial(f), build_tetra_group(f.n), f)


def pauli_products(basis):
    """(2^n, n, 24) Clifford index of P_c C_k on qubit l, P_c = Z^b X^a from column c's masks.

    Built from the matrices and looked up up to phase, apart from ``clifford_tables``.
    """
    n, group = basis.n, basis.group
    cliffs = single_qubit_cliffords()
    index = {phase_canonical_key(c): k for k, c in enumerate(cliffs)}
    table = np.empty((2**n, n, 24), dtype=int)
    for c, l in product(range(2**n), range(n)):
        a, b = (mask >> (n - 1 - l) & 1 for mask in (group.x_masks[c], group.z_masks[c]))
        z, x = (np.linalg.matrix_power(PAULI_MATS[p], e) for p, e in (("Z", b), ("X", a)))
        pauli = z @ x
        table[c, l] = [index[phase_canonical_key(pauli @ cliff)] for cliff in cliffs]
    return table


def column_image(basis, column, cliffords):
    """The tuple P_c C on the qubits of cliffords, c = column."""
    table = pauli_products(basis)[column]
    return tuple(int(table[l, k]) for l, k in enumerate(cliffords))


def live_prefixes(psi, basis, tol=1e-9):
    """Reference: the Bloch-pruned prefixes on qubits 1..n-1 that reach column 0, in scan order.

    The scan takes them by their floor, the smallest prefix P_c S over the
    columns c, and prefixes with one floor in index order.
    """
    n = basis.n
    rotated = np.einsum("kij,lj->lki", clifford_bloch_rotations(), bloch_vectors(psi[None])[0])
    bound = 2 * np.sqrt(1 - (1 - tol - 1e-12) ** 2) + 1e-12
    allowed = np.linalg.norm(rotated - orbit_bloch_table(basis)[:, None, 0], axis=-1) <= bound
    if not allowed[-1].any():
        return []
    table = pauli_products(basis)[:, :n - 1].tolist()
    prefixes = product(*(np.flatnonzero(allowed[l]).tolist() for l in range(n - 1)))
    return sorted(prefixes, key=lambda prefix: min(
        [row[k] for row, k in zip(rows, prefix)] for rows in table))


def applied_prefixes(monkeypatch):
    """Per pass of the next scans, the number of prefixes the scan applies to the state.

    A block applies qubit 2's Cliffords to its prefixes after qubit 1's shared
    images, so the calls on qubit 2 count them; the counts need n >= 3.
    """
    from tetrabasis import search
    counts = []
    apply_rowwise = search._apply_rowwise

    def spy(u, psi, l):
        if l == 0:
            counts.append(0)  # qubit 1's images open each pass
        elif l == 1:
            counts[-1] += len(u)
        return apply_rowwise(u, psi, l)

    monkeypatch.setattr(search, "_apply_rowwise", spy)
    return counts


def assert_matches_exhaustive(psi, basis, tol=1e-9):
    """Pruned and exhaustive scans agree exactly, in each pass and in both together.

    The conjugated pass scans conj(psi) as the plain pass would, so the
    reference runs each pass once.  Returns the number of passes that found
    a witness.
    """
    plain = exhaustive_witness(psi, basis, tol=tol)
    conj = exhaustive_witness(conjugate_state(psi), basis, tol=tol)
    assert lc_equivalence_witness(psi, basis, tol=tol) == plain
    assert lc_equivalence_witness(conjugate_state(psi), basis, tol=tol) == conj
    both = plain or (conj and replace(conj, conjugated=True))
    assert lc_equivalence_witness(psi, basis, allow_conjugation=True, tol=tol) == both
    return (plain is not None) + (conj is not None)


@pytest.fixture(scope="module")
def n3_hits():
    return search_regular(SearchConfig(3, 2))


@pytest.fixture(scope="module")
def n3_m3_hits():
    return search_regular(SearchConfig(3, 3))


class TestPrunedWitness:
    def test_rotation_table_is_the_cube_group(self):
        rotations = clifford_bloch_rotations()
        assert rotations.shape == (24, 3, 3)
        assert len({r.tobytes() for r in rotations}) == 24
        axes = {tuple(v) for v in np.vstack([np.eye(3), -np.eye(3)])}
        for r in rotations:
            np.testing.assert_array_equal(r @ r.T, np.eye(3))
            assert round(np.linalg.det(r)) == 1
            assert {tuple(r @ np.array(v)) for v in axes} == axes

    def test_rotation_table_matches_conjugation(self):
        for c, r in zip(single_qubit_cliffords(), clifford_bloch_rotations()):
            for j in range(3):
                image = c @ SIGMA[j] @ c.conj().T
                np.testing.assert_allclose(image, sum(r[i, j] * SIGMA[i] for i in range(3)),
                                           atol=1e-12)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, 1.0, 2.0])
    def test_tolerance_outside_unit_interval_rejected(self, tol):
        f = parse_polynomial("z1 z2", 2, 2)
        with pytest.raises(ValueError):
            lc_equivalence_witness(build_fiducial(f), orbit_of(f), tol=tol)

    def test_non_unit_state_rejected(self):
        f = parse_polynomial("z1 z2", 2, 2)
        with pytest.raises(ValueError):
            lc_equivalence_witness(2 * build_fiducial(f), orbit_of(f))

    def test_n3_hits_against_negation_and_other_class(self, n3_hits):
        first_key = n3_hits[0].fingerprint.class_key()
        foreign = next(h for h in n3_hits if h.fingerprint.class_key() != first_key)
        found = 0
        for hit in n3_hits:
            psi = build_fiducial(hit.polynomial)
            fixed = foreign if hit.fingerprint.class_key() == first_key else n3_hits[0]
            for target in (hit.polynomial.negated(), fixed.polynomial):
                found += assert_matches_exhaustive(psi, orbit_of(target))
        assert found >= 40

    @pytest.mark.parametrize("tol", [1e-2, 1e-5, 1e-9])
    def test_near_hits_at_the_tolerance(self, n3_hits, tol):
        # a state at overlap 1 - 0.99 tol with a fiducial, tilted along a
        # Pauli axis orthogonal to one qubit's Bloch vector: that qubit's
        # Bloch vector moves by almost the full bound, so a smaller pruning
        # bound loses witnesses the full scan finds
        found = 0
        for index, hit in enumerate(n3_hits[:9]):
            psi = build_fiducial(hit.polynomial)
            qubit = index % 3 + 1
            axis = np.cross(bloch_vector(psi, qubit), [1.0, 0.3, 0.1])
            axis /= np.linalg.norm(axis)
            tilt = apply_on_qubit(sum(a * s for a, s in zip(axis, SIGMA)), psi, qubit)
            tilt -= np.vdot(psi, tilt) * psi
            tilt /= np.linalg.norm(tilt)
            overlap = 1 - 0.99 * tol
            near = overlap * psi + np.sqrt(1 - overlap**2) * tilt
            found += assert_matches_exhaustive(near, orbit_of(hit.polynomial.negated()), tol)
        assert found >= 9

    def test_seeded_n4_pairs(self):
        rng = np.random.default_rng(11)
        monos = canonical_monomials(4)
        regular = []
        while len(regular) < 2:
            coeffs = tuple(int(c) for c in rng.integers(0, 4, len(monos)))
            hits = regular_hits([polynomial_from_coeffs(4, 2, monos, coeffs)])
            regular.extend(h.polynomial for h in hits)
        # the negation's basis holds the conjugated fiducial, so that pair has
        # a witness; the cross pair runs the plain pass only, as a full 24^4 scan
        psi = build_fiducial(regular[0])
        assert assert_matches_exhaustive(psi, orbit_of(regular[0].negated())) >= 1
        cross = orbit_of(regular[1])
        assert lc_equivalence_witness(psi, cross) == exhaustive_witness(psi, cross)

    def test_groupless_ejm_reference_basis(self):
        ejm = ejm_reference_basis()
        f = parse_polynomial("z1 z2", 2, 2)
        assert_matches_exhaustive(build_fiducial(f), ejm)
        assert_matches_exhaustive(ejm.column(0), orbit_of(f))
        assert lc_equivalence_witness(ejm.column(2), ejm) is not None

    @pytest.mark.parametrize("text", ["z1 z3 + z2 z3", "z1 z3", "2 z1 z3", "z1 z2 z3"])
    def test_non_regular_n3_bases(self, text):
        # planar, collinear, zero and disphenoid Bloch vectors
        f = parse_polynomial(text, 3, 2)
        psi = build_fiducial(f)
        for target in (f, f.negated(), parse_polynomial("z1 z2 + z2 z3", 3, 2)):
            assert_matches_exhaustive(psi, orbit_of(target))

    def test_zero_bloch_vectors_admit_every_clifford(self):
        ghz = np.zeros(8, dtype=complex)
        ghz[[0, 7]] = 1 / np.sqrt(2)
        f = parse_polynomial("2 z1 z3", 3, 2)
        assert_matches_exhaustive(ghz, orbit_of(f))
        witness = lc_equivalence_witness(build_fiducial(f), orbit_of(f))
        assert witness.clifford_indices == (0, 0, 0) and witness.column == 0

    # the stacked scan's block k takes k * WITNESS_BLOCK live prefixes, in
    # the order of live_prefixes; each case asserts where its prefixes fall
    GHZ3 = np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=complex) / np.sqrt(2)

    def test_hit_inside_the_first_block(self, monkeypatch):
        psi = build_fiducial(parse_polynomial("2 z1 z3 + z2 z3", 3, 2))
        target = orbit_of(parse_polynomial("2 z1 z3 + 3 z2 z3", 3, 2))
        assert assert_matches_exhaustive(psi, target) >= 1
        live = live_prefixes(psi, target)
        witness = lc_equivalence_witness(psi, target)
        assert witness.column == 1
        rank = live.index(column_image(target, witness.column, witness.clifford_indices)[:-1])
        assert 0 < rank < len(live) == 8 < WITNESS_BLOCK
        assert rank == 4
        counts = applied_prefixes(monkeypatch)
        lc_equivalence_witness(psi, target)
        assert counts == [8]

    def test_all_zero_bloch_hit_in_the_third_block(self, monkeypatch):
        # every qubit of both has a zero Bloch vector, so all 24^2 prefixes are
        # live; blocks hold 64, 128 and 192 of them, and the scan stops after
        # the block that holds its hit
        target = orbit_of(parse_polynomial("2 z1 z2 + 2 z1 z3", 3, 2))
        assert assert_matches_exhaustive(self.GHZ3, target) >= 1
        live = live_prefixes(self.GHZ3, target)
        assert len(live) == 24**2
        witness = lc_equivalence_witness(self.GHZ3, target)
        rank = live.index(column_image(target, witness.column, witness.clifford_indices)[:-1])
        assert 3 * WITNESS_BLOCK <= rank < 6 * WITNESS_BLOCK
        assert rank == 314
        counts = applied_prefixes(monkeypatch)
        lc_equivalence_witness(self.GHZ3, target)
        assert counts == [6 * WITNESS_BLOCK]

    def test_miss_over_many_blocks(self, monkeypatch):
        psi = build_fiducial(parse_polynomial("2 z1 z3", 3, 2))
        target = orbit_of(parse_polynomial("3 z1 z2 + 2 z1 z3", 3, 2))
        assert len(live_prefixes(psi, target)) == 24**2 > 6 * WITNESS_BLOCK
        assert lc_equivalence_witness(psi, target) is None
        assert_matches_exhaustive(psi, target)
        counts = applied_prefixes(monkeypatch)
        lc_equivalence_witness(psi, target)
        assert counts == [24**2]  # a miss visits every live prefix

    def test_regular_n4_pass_applies_at_most_27_prefixes(self, monkeypatch):
        # a regular qubit admits 3 Cliffords onto one column's Bloch vector, so
        # 3^3 prefixes are live per pass, where all 16 columns would give 432
        hits = regular_hits(seeded_polynomials(4, 2, 400, seed=25))
        key = hits[0].fingerprint.class_key()
        first = hits[0].polynomial
        second = next(h.polynomial for h in hits if h.fingerprint.class_key() != key)
        psi = build_fiducial(first)
        counts = applied_prefixes(monkeypatch)
        assert lc_equivalence_witness(psi, orbit_of(first.negated()), allow_conjugation=True)
        assert lc_equivalence_witness(psi, orbit_of(second), allow_conjugation=True) is None
        assert len(counts) == 4 and max(counts) <= 27
        assert counts[0] == 27  # the pure pass of the negation scans its whole live list

    def test_columns_not_the_orbit_of_column_0_rejected(self):
        f = parse_polynomial("z1 z2 + z1 z3 + z2 z3 + 3 z1 z2 z3", 3, 2)
        basis = orbit_of(f)
        swapped = replace(basis, columns=basis.columns[:, [0, 2, 1, 3, 4, 5, 6, 7]])
        with pytest.raises(ValueError, match="not the orbit of its column 0"):
            lc_equivalence_witness(build_fiducial(f), swapped)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_all_n2_polynomial_pairs(self, m):
        polys = list(enumerate_polynomials(2, m))
        for f, g in product(polys, repeat=2):
            psi, target = build_fiducial(f), orbit_of(g)
            for conjugation in (False, True):
                assert (lc_equivalence_witness(psi, target, allow_conjugation=conjugation)
                        == exhaustive_witness(psi, target, allow_conjugation=conjugation))

    @pytest.mark.parametrize("columns", [(2, 5), (6, 1), (0, 7)])
    def test_loose_tolerance_tuple_reaching_two_columns(self, columns):
        # an equal superposition of two columns has overlap 1/sqrt(2) >= 1 - 0.5
        # with both, so the identity reaches two columns and the lower one wins
        target = orbit_of(parse_polynomial("z1 z2 + z1 z3 + z2 z3 + 3 z1 z2 z3", 3, 2))
        psi = (target.column(columns[0]) + target.column(columns[1])) / np.sqrt(2)
        witness = lc_equivalence_witness(psi, target, tol=0.5)
        assert witness == exhaustive_witness(psi, target, tol=0.5)
        assert witness.clifford_indices == (0, 0, 0) and witness.column == min(columns)

    @pytest.mark.parametrize("text, live, rank, applied", [
        ("2 z1 z2 + 2 z3 z4", 24**2 * 4, 39, 1),
        ("2 z1 z4 + 2 z2 z3", 24**3, 4678, 78),
    ])
    def test_zero_bloch_n4_stops_early(self, monkeypatch, text, live, rank, applied):
        # zero Bloch vectors on qubits 1 and 2 (first case) or on every qubit
        # leave up to 24^3 live prefixes; the self-witness stops after the
        # first block, and an LC image's after the block that holds its hit
        target = orbit_of(parse_polynomial(text, 4, 2))
        image = target.column(11)
        for qubit, index in enumerate((5, 17, 2, 9), start=1):
            image = apply_on_qubit(single_qubit_cliffords()[index], image, qubit)
        counts = applied_prefixes(monkeypatch)
        for psi in (target.fiducial, image):
            assert lc_equivalence_witness(psi, target) == exhaustive_witness(psi, target)
        witness = lc_equivalence_witness(image, target)
        prefixes = live_prefixes(image, target)
        assert len(prefixes) == live
        assert prefixes.index(column_image(target, witness.column,
                                           witness.clifford_indices)[:-1]) == rank
        assert counts[:2] == [WITNESS_BLOCK, applied * WITNESS_BLOCK] and counts[1] < 24**3

    @pytest.mark.longrun
    @pytest.mark.skipif(not os.environ.get("TETRABASIS_LONGRUN"),
                        reason="opt-in long-running check (set TETRABASIS_LONGRUN=1)")
    def test_all_n3_hit_pairs(self, n3_hits):
        for hit, target in product(n3_hits, repeat=2):
            assert_matches_exhaustive(build_fiducial(hit.polynomial), orbit_of(target.polynomial))


def scan_partner_keys(hits, among, tol=1e-9):
    """Reference: per hit, scan ``among`` for the first basis holding its conjugated fiducial."""
    keys = []
    for hit in hits:
        target = conjugate_state(orbit_of(hit.polynomial).fiducial)
        keys.append(next((other.key for other in among
                          if holds(orbit_of(other.polynomial), target, tol)), None))
    return keys


def holds(basis, state, tol=1e-9):
    """True when some column of basis equals state up to phase."""
    return np.max(np.abs(basis.columns.conj().T @ state)) >= 1 - tol


class TestConjugatePartnerIndex:
    def test_empty_lists(self, n3_hits):
        assert conjugate_partner_key([], []) == []
        assert conjugate_partner_key([], n3_hits) == []
        assert conjugate_partner_key(n3_hits[:3], []) == [None] * 3

    def test_n2_hits(self):
        hits = search_regular(SearchConfig(2, 2))
        assert conjugate_partner_key(hits, hits) == scan_partner_keys(hits, hits)

    def test_full_n3_hits(self, n3_hits, n3_m3_hits):
        for hits in (n3_hits, n3_m3_hits):
            assert len(hits) == 40
            assert conjugate_partner_key(hits, hits) == scan_partner_keys(hits, hits)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_n4_hits_with_negations_in_both_orders(self, seed):
        hits = search_regular(SearchConfig(4, 2, sample=300, seed=seed))
        negated = regular_hits(h.polynomial.negated() for h in hits)
        assert len(negated) == len(hits) > 0
        for both in (hits + negated, negated[::-1] + hits[::-1]):
            partners = conjugate_partner_key(both, both)
            assert partners == scan_partner_keys(both, both)
            assert None not in partners

    def test_hits_and_among_differ(self, n3_hits):
        for hits, among in ((n3_hits[::3], n3_hits[1::2]), (n3_hits[:10], n3_hits[::-1]),
                            (n3_hits[5:], n3_hits[:5])):
            assert conjugate_partner_key(hits, among) == scan_partner_keys(hits, among)

    def test_unfiltered_nonzero_n3_hits(self):
        # non-regular hits too: the negation is the partner whatever the geometry
        hits = search_regular(SearchConfig(3, 2, require_regular=False, require_nonzero=True))
        assert len(hits) == 128
        assert conjugate_partner_key(hits, hits) == scan_partner_keys(hits, hits)


class TestClassGrouping:
    def test_n2_single_class(self):
        hits = search_regular(SearchConfig(2, 2, require_regular=True, require_nonzero=True))
        records = group_into_classes(hits)
        assert len(records) == 1
        record = records[0]
        assert [f.to_text() for f in record.representatives] == ["z1 z2", "3 z1 z2"]
        assert record.conjugate_partner == record.key  # self-conjugate after pairing
        assert record.fingerprint.conjugate_flag is False
        assert "3 z1 z2" in record.witness_links

    def test_empty_hits(self):
        assert group_into_classes([]) == []

    def test_conjugate_partner_key_is_negated_polynomial(self, n3_hits):
        partners = conjugate_partner_key(n3_hits, n3_hits)
        assert len(partners) == 40
        assert partners == [h.polynomial.negated().to_text() for h in n3_hits]

    def test_conjugate_flag_marks_the_later_key_of_each_pair(self, n3_hits):
        records = group_into_classes(n3_hits)
        by_key = {r.key: r for r in records}
        assert len(records) == 8
        for record in records:
            partner = by_key[record.conjugate_partner]
            assert partner is not record and partner.conjugate_partner == record.key
            assert record.fingerprint.conjugate_flag is (partner.key < record.key)
        assert sum(r.fingerprint.conjugate_flag for r in records) == 4

    def test_orbit_columns_built_only_for_class_targets(self, monkeypatch):
        # the search and the pairing build no orbit columns and the pairing no
        # state keys; grouping builds one orbit basis (through basisgen's
        # binding) per class
        from tetrabasis import basisgen, search
        from tetrabasis.cli import hits_csv
        columns, keys = [], []

        def orbit_columns_counted(states, group):
            columns.append(states)
            return orbit_columns(states, group)

        def phase_canonical_keys_counted(states):
            keys.append(states)
            return phase_canonical_keys(states)

        monkeypatch.setattr(basisgen, "orbit_columns", orbit_columns_counted)
        monkeypatch.setattr(search, "phase_canonical_keys", phase_canonical_keys_counted)
        for cfg in (SearchConfig(4, 2, sample=300, seed=1), SearchConfig(3, 2)):
            columns.clear()
            hits = search_regular(cfg)
            assert len(hits) >= 4 and columns == []
            hits_csv(hits)
            present = {h.key for h in hits}
            negations = [h.polynomial.negated().to_text() for h in hits]
            assert conjugate_partner_key(hits, hits) == [
                key if key in present else None for key in negations]
            assert columns == [] and keys == []
            records = group_into_classes(hits)
            assert [len(states) for states in columns] == [1] * len(records)
            keys.clear()

    def test_hit_fiducial_is_the_orbit_fiducial(self):
        hits = search_regular(SearchConfig(3, 2)) + search_regular(
            SearchConfig(4, 2, sample=300, seed=1))
        for hit in hits:
            assert hit.fiducial.shape == (2**hit.polynomial.n,)
            assert hit.fiducial.tobytes() == build_fiducial(hit.polynomial).tobytes()
            assert hit.fiducial.tobytes() == orbit_of(hit.polynomial).column(0).tobytes()

    def test_n4_explicit_examples_classify(self):
        from tetrabasis.reproduce import APPD_EXAMPLE1, APPD_EXAMPLE2
        hits = regular_hits(parse_polynomial(t, 4, 2) for t in (APPD_EXAMPLE1, APPD_EXAMPLE2))
        records = group_into_classes(hits)
        assert len(records) == 2  # different tetra sizes, distinct fingerprints
        assert {len(r.representatives) for r in records} == {1}
        # neither example's conjugate is in this restricted set
        assert all(r.conjugate_partner is None for r in records)


def greedy_classes(hits, tol=1e-9):
    """Reference: a hit tries its fingerprint group's classes in order, one witness call each,
    and joins the first that links it; otherwise it opens a class."""
    groups = {}
    for hit in hits:
        groups.setdefault(hit.fingerprint.class_key(), []).append(hit)
    records = []
    for key in sorted(groups, key=repr):
        members = groups[key]
        classes, reps, member_class = [], [], {}
        for hit in members:
            for record, target in classes:
                witness = lc_equivalence_witness(hit.fiducial, target, tol=tol)
                if witness is not None:
                    record.representatives.append(hit.polynomial)
                    record.witness_links[hit.key] = witness
                    member_class[hit.key] = record
                    break
            else:
                record = ClassRecord(fingerprint=hit.fingerprint, representatives=[hit.polynomial])
                classes.append((record, orbit_of(hit.polynomial)))
                reps.append(hit)
                member_class[hit.key] = record
        for (record, _), partner in zip(classes, conjugate_partner_key(reps, members)):
            if partner is not None:
                record.conjugate_partner = member_class[partner].key
        for record, _ in sorted(classes, key=lambda pair: pair[0].key):
            partner = record.conjugate_partner
            flag = None if partner is None else partner < record.key
            record.fingerprint = replace(record.fingerprint, conjugate_flag=flag)
            records.append(record)
    return records


def lc_image(psi, rng):
    """A random orbit column of psi under a random local-Clifford tuple and global phase."""
    n = num_qubits(len(psi))
    state = orbit_columns(psi[None], build_tetra_group(n))[0][:, rng.integers(2**n)]
    for qubit in range(1, n + 1):
        state = apply_on_qubit(single_qubit_cliffords()[rng.integers(24)], state, qubit)
    return state * np.exp(2j * np.pi * rng.random())


GHZ4 = np.zeros(16, dtype=complex)
GHZ4[[0, 15]] = 1 / np.sqrt(2)


class TestCanonicalKeys:
    @pytest.fixture(scope="class")
    def mixed_hits(self):
        # regular, non-regular and zero-Bloch hits (27 hits of the unfiltered n=3
        # space have a zero Bloch vector, 4 of them on every qubit), and n=4 hits
        # with unequal or non-regular vectors
        return (search_regular(SearchConfig(3, 2, require_regular=False))
                + search_regular(SearchConfig(4, 2, sample=1000, seed=3, require_regular=False,
                                              require_nonzero=True))
                + search_regular(SearchConfig(4, 2, sample=3000, seed=1)))

    def test_mixed_hits_cover_every_frame_kind(self, mixed_hits):
        zero = [np.linalg.norm(bloch_vectors(h.fiducial[None])[0], axis=1) < 1e-9
                for h in mixed_hits]
        assert sum(z.any() for z in zero) >= 20 and sum(z.all() for z in zero) >= 4
        assert sum(h.geometry.all_regular for h in mixed_hits) >= 60
        assert sum(not h.geometry.all_regular and not z.any()
                   for h, z in zip(mixed_hits, zero)) >= 100

    def test_invariant_under_phase_column_and_local_cliffords(self, mixed_hits):
        rng = np.random.default_rng(5)
        for n in (3, 4):
            fiducials = [h.fiducial for h in mixed_hits if h.polynomial.n == n]
            keys = lc_canonical_keys(np.array(fiducials))
            for _ in range(2):
                assert lc_canonical_keys(np.array([lc_image(psi, rng) for psi in fiducials])) == keys

    def test_keys_do_not_depend_on_the_block(self, mixed_hits, monkeypatch):
        from tetrabasis import search
        fiducials = np.array([h.fiducial for h in mixed_hits if h.polynomial.n == 3])
        keys = lc_canonical_keys(fiducials)
        assert keys == [lc_canonical_keys(psi[None])[0] for psi in fiducials[:40]] + keys[40:]
        # a zero-Bloch n=3 row has 24^3 images, so it spans many passes of 50
        monkeypatch.setattr(search, "KEY_HITS", 7)
        monkeypatch.setattr(search, "KEY_IMAGES", 50)
        assert lc_canonical_keys(fiducials) == keys

    def test_zero_bloch_n4_images_are_bounded(self):
        # GHZ4 keeps all 24 Cliffords on every qubit: 24^4 images of 16 amplitudes
        import tracemalloc
        tracemalloc.start()
        try:
            key = lc_canonical_keys(GHZ4[None])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6  # all images at once would take 85 MB
        assert lc_canonical_keys(lc_image(GHZ4, np.random.default_rng(2))[None]) == key


class TestKeyedGrouping:
    @pytest.mark.parametrize("cfg", [
        SearchConfig(3, 2),
        SearchConfig(3, 3),
        SearchConfig(3, 2, require_regular=False, require_nonzero=True),
        SearchConfig(3, 2, require_regular=False),
        SearchConfig(2, 3),
        SearchConfig(4, 2, sample=12000, seed=7),
    ], ids=["n3m2", "n3m3", "n3-nonzero", "n3-unfiltered", "n2m3", "n4-sample"])
    def test_matches_greedy_witness_grouping(self, cfg):
        hits = search_regular(cfg)
        records = group_into_classes(hits)
        reference = greedy_classes(hits)
        assert ([[f.to_text() for f in r.representatives] for r in records]
                == [[f.to_text() for f in r.representatives] for r in reference])
        assert [r.to_json_dict() for r in records] == [r.to_json_dict() for r in reference]
        if cfg.n == 4:
            assert sum(len(r.representatives) > 1 for r in records) >= 4

    def test_grouping_makes_no_witness_call(self, monkeypatch):
        from tetrabasis import search

        def scan(*args, **kwargs):
            raise AssertionError("group_into_classes scanned for a witness")

        monkeypatch.setattr(search, "lc_equivalence_witness", scan)
        hits = search_regular(SearchConfig(3, 2, require_regular=False))
        records = group_into_classes(hits)
        assert len(records) == 56
        assert sum(len(r.witness_links) for r in records) == 256 - 56

    def test_key_match_without_witness_raises(self, monkeypatch, n3_hits):
        # conjugate partners share a fingerprint but are not LC-equivalent;
        # given one key, the second's derived link has no unit overlap
        from tetrabasis import search
        record = next(r for r in group_into_classes(n3_hits) if r.conjugate_partner != r.key)
        pair = [h for h in n3_hits if h.key in (record.key, record.conjugate_partner)]
        first, later = (h.polynomial for h in pair)
        block_lc_keys = search._block_lc_keys

        def one_key(states):
            keys, tuples, counts = block_lc_keys(states)
            return [b"one key"] * len(keys), tuples, counts

        monkeypatch.setattr(search, "_block_lc_keys", one_key)
        message = (f"{later.to_text()!r} shares the local-Clifford key of {first.to_text()!r} "
                   "but no witness links them")
        with pytest.raises(AssertionError, match=re.escape(message)):
            group_into_classes(pair)

    @pytest.mark.parametrize("cfg", [
        SearchConfig(3, 2),
        SearchConfig(3, 3),
        SearchConfig(3, 2, require_regular=False, require_nonzero=True),
        SearchConfig(3, 3, require_regular=False, require_nonzero=True),
        SearchConfig(3, 2, require_regular=False),
        SearchConfig(3, 3, require_regular=False),
        SearchConfig(4, 2, sample=60000, seed=9),
    ], ids=["n3m2", "n3m3", "n3m2-nonzero", "n3m3-nonzero", "n3m2-unfiltered",
            "n3m3-unfiltered", "n4-sample"])
    def test_derived_links_equal_the_scan(self, cfg):
        # unfiltered n=3 hits include zero-Bloch rows, whose frames keep all
        # 24 Cliffords on a qubit
        hits = search_regular(cfg)
        records = group_into_classes(hits)
        assert_links_equal_the_scan(hits, records, exhaustive=cfg.n == 3)
        assert sum(len(r.witness_links) for r in records) >= (20 if cfg.n == 4 else 30)

    @pytest.mark.parametrize("cfg", [
        SearchConfig(3, 2),
        SearchConfig(3, 3),
        SearchConfig(4, 2, sample=60000, seed=9),
    ], ids=["n3m2", "n3m3", "n4-sample"])
    def test_links_do_not_depend_on_the_chunk(self, monkeypatch, cfg):
        # 1 derives every link alone and 3 leaves an uneven last chunk; the
        # phases are compared as int64 views, so a -0.0 component counts
        from tetrabasis import search
        hits = search_regular(cfg)
        runs = []
        for chunk in (search.LINK_CHUNK, 1, 3):
            monkeypatch.setattr(search, "LINK_CHUNK", chunk)
            runs.append(group_into_classes(hits))
        links = [[(key, w.clifford_indices, w.column,
                   np.array([w.phase]).view(np.int64).tolist())
                  for r in records for key, w in r.witness_links.items()] for records in runs]
        assert len(links[0]) >= (20 if cfg.n == 4 else 30)
        for records, derived in zip(runs[1:], links[1:]):
            assert [r.to_json_dict() for r in records] == [r.to_json_dict() for r in runs[0]]
            assert derived == links[0]

    @pytest.mark.longrun
    @pytest.mark.skipif(not os.environ.get("TETRABASIS_LONGRUN"),
                        reason="opt-in long-running check (set TETRABASIS_LONGRUN=1)")
    def test_full_n4_census(self, capsys):
        # the CSV bytes pin the enumeration order too, which the counts alone do not
        from tetrabasis.cli import main
        assert main(["search", "--n", "4", "--m", "2", "--format", "csv"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "71e88db5f40c5172f26f6e34b7ff3b411d2ef4d22d3b059f6d09119d03e5db5e")
        hits = search_regular(SearchConfig(4, 2))
        records = group_into_classes(hits)
        assert len(hits) == 42_052 and len(records) == 4_674
        keys = {r.key for r in records}
        assert all(r.conjugate_partner in keys for r in records)
        assert sum(r.conjugate_partner == r.key for r in records) == 16
        assert all(len(r.witness_links) == len(r.representatives) - 1 for r in records)
        assert sum(len(r.representatives) for r in records) == len(hits)
        assert sum(len(r.witness_links) for r in records) == 37_378
        assert_links_equal_the_scan(hits, records)


def assert_links_equal_the_scan(hits, records, exhaustive=False):
    """Every derived witness link is the one the scan returns, phase bits included.

    The scan and the derivation share their composition step, so with
    exhaustive each link is also compared with ``exhaustive_witness``.
    """
    fiducials = {h.key: h.fiducial for h in hits}
    for record in records:
        target = orbit_of(record.representatives[0])
        for key, witness in record.witness_links.items():
            assert witness == lc_equivalence_witness(fiducials[key], target)
            if exhaustive:
                assert witness == exhaustive_witness(fiducials[key], target)


class TestConfig:
    def test_invalid_n(self):
        with pytest.raises(ValueError):
            SearchConfig(1, 2)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            SearchConfig(2, 0)
        with pytest.raises(ValueError, match="1..62"):
            SearchConfig(2, 63)
