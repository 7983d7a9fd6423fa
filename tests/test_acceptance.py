"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 5's permutation sub-check settles the published claim that the
four-qubit Example 1 fiducial is fully permutation-phase-invariant
(stabilizer order 24 in S4).  Its 2|2 purities (47, 63, 39)/128 and its six
pair correlation determinants 64^3 det T_kl are exact local-unitary
invariants, and no non-identity qubit permutation preserves them, so the
stabilizer is trivial.  The test derives order 1 from those invariants;
`reproduce appD` still reports the published value as its one failing check.
"""

from itertools import combinations, permutations, product

import numpy as np
import pytest

from tetrabasis.basisgen import (
    build_tetra_group,
    check_orthonormal,
    measurement_unitary,
    orbit_basis,
)
from tetrabasis.entanglement import (
    pairwise_concurrence,
    permutation_operator_apply,
    permutation_stabilizer_order,
    three_tangle,
)
from tetrabasis.fiducial import PhasePolynomial, parse_polynomial, build_fiducial
from tetrabasis.geometry import (
    apply_local_unitaries,
    basis_bloch_table,
    bloch_vector,
    conjugate_state,
    relational_chirality,
)
from tetrabasis.hierarchy import clifford_level_test, diagonal_clifford_level, verify_level_bound
from tetrabasis.qcore import PAULI_MATS, partial_trace
from tetrabasis.reproduce import (
    APPD_EXAMPLE1,
    reproduce_suite,
)
from tetrabasis.search import SearchConfig, group_into_classes, search_regular


def announce(number: int, summary: str):
    print(f"ACCEPTANCE {number}: {summary} PASS")


def run_suite(number: int, name: str, skip_check=None):
    suite = reproduce_suite(name)
    failures = [c for c in suite.checks
                if not c.passed and (skip_check is None or skip_check not in c.description)]
    assert not failures, "\n".join(c.description for c in failures)
    return suite


def test_criterion_1_appA_reproduction():
    run_suite(1, "appA")
    announce(1, "two-qubit fiducial and basis match the published EJM")


def test_criterion_2_table1_reproduction():
    run_suite(2, "table1")
    announce(2, "three-qubit class invariants, geometry, and witness structure reproduced")


def test_criterion_3_appB_reproduction():
    run_suite(3, "appB")
    announce(3, "alignment output and vertex 4-cycle reproduced")


def test_criterion_4_appC_reproduction():
    run_suite(4, "appC")
    announce(4, "product-basis decomposition magnitudes and phases reproduced")


def test_criterion_5_appD_geometry_and_levels():
    run_suite(5, "appD", skip_check="permutation-phase invariance")
    announce(5, "four-qubit geometry, Bloch vectors, chirality pattern, and levels reproduced")


def test_criterion_5_appD_example1_permutation_invariance():
    """Example 1's permutation symmetry, from exact local-unitary invariants.

    The paper calls Example 1 fully permutation-phase-invariant (stabilizer
    order 24 in S4).  The fiducial built from its phase polynomial is stated
    to match the published amplitude listing to 3e-17; that listing is not
    in this repository, so the match is not re-checked here.

    If a qubit permutation fixes the state up to phase, even after local
    unitaries and complex conjugation, it must carry every pair (k, l) to a
    pair with the same local-unitary invariants.  Two such invariants are
    exact rationals here:

    - the 2|2 purities tr rho_12^2 = 47/128, tr rho_13^2 = 63/128 and
      tr rho_14^2 = 39/128 (equal to those of the complementary pairs), all
      distinct, so only the Klein group {id, (12)(34), (13)(24), (14)(23)}
      survives;
    - 64^3 det T_kl of the pair correlation matrices, -7168 (12),
      -31744 (13), 1024 (14), 1024 (23), -29696 (24), -5120 (34); det T is
      unchanged by proper local rotations, by swapping the pair and by
      conjugation (which flips two signs), and each double transposition
      carries some pair to one with a different value.

    So the stabilizer is trivial: `permutation_stabilizer_order` must be 1
    and every non-identity overlap |<psi|P psi>| is at most 3/4.  The
    appD suite keeps reporting the published order 24 as its one failure.

    What the example does have (not the published property): all four
    Bloch vectors are (1, 1, 1)/8, and the set of the basis's 16 per-column
    marginal vertex tuples is mapped onto itself by every qubit permutation.
    """
    f = parse_polynomial(APPD_EXAMPLE1, 4, 2)
    psi = build_fiducial(f)
    pairs = list(combinations(range(1, 5), 2))
    paulis = [PAULI_MATS[p] for p in "XYZ"]

    purity = {}
    det_t = {}
    for pair in pairs:
        rho = partial_trace(psi, pair)
        purity[pair] = np.trace(rho @ rho).real
        corr = np.array([[np.trace(rho @ np.kron(a, b)).real for b in paulis] for a in paulis])
        det_t[pair] = np.linalg.det(corr)

    # (a) exact invariants
    expected_purity = {(1, 2): 47, (1, 3): 63, (1, 4): 39, (2, 3): 39, (2, 4): 63, (3, 4): 47}
    expected_det = {(1, 2): -7168, (1, 3): -31744, (1, 4): 1024,
                    (2, 3): 1024, (2, 4): -29696, (3, 4): -5120}
    for pair in pairs:
        assert abs(purity[pair] - expected_purity[pair] / 128) < 1e-12, pair
        assert abs(det_t[pair] - expected_det[pair] / 64**3) < 1e-12, pair

    # (b) the permutations that keep both exact invariants on every pair
    def moved(pair, perm):
        return tuple(sorted(perm[q - 1] + 1 for q in pair))

    invariant_keeping = [
        perm for perm in permutations(range(4))
        if all(expected_purity[moved(p, perm)] == expected_purity[p]
               and expected_det[moved(p, perm)] == expected_det[p] for p in pairs)
    ]
    assert invariant_keeping == [(0, 1, 2, 3)]
    stab = permutation_stabilizer_order(psi)
    assert stab == len(invariant_keeping) == 1
    for perm in permutations(range(4)):
        if perm != (0, 1, 2, 3):
            overlap = abs(np.vdot(psi, permutation_operator_apply(psi, perm)))
            assert overlap <= 3 / 4 + 1e-12, perm

    # (c) the appD suite still reports the published claim as written
    failures = [c for c in reproduce_suite("appD").checks if not c.passed]
    assert len(failures) == 1
    assert "permutation-phase invariance" in failures[0].description
    assert failures[0].expected == 24
    assert failures[0].actual == stab

    # (d) the permutation symmetry Example 1 does have
    for qubit in range(1, 5):
        np.testing.assert_allclose(bloch_vector(psi, qubit), np.ones(3) / 8, atol=1e-12)
    table = basis_bloch_table(orbit_basis(psi, build_tetra_group(4), f))
    np.testing.assert_allclose(8 * table, np.rint(8 * table), atol=1e-9)
    vertex_tuples = {
        tuple(tuple(int(x) for x in np.rint(8 * table[q, g])) for q in range(4))
        for g in range(16)
    }
    assert len(vertex_tuples) == 16
    for perm in permutations(range(4)):
        assert {tuple(t[q] for q in perm) for t in vertex_tuples} == vertex_tuples, perm
    announce(5, "four-qubit example 1 stabilizer is trivial (published order 24 ruled out); "
                "its vertex-tuple set is permutation-invariant")


def test_criterion_6_n2_exhaustive_search():
    hits = search_regular(SearchConfig(2, 2, require_regular=True, require_nonzero=True))
    assert [h.key for h in hits] == ["z1 z2", "3 z1 z2"]
    assert all(h.level == 3 for h in hits)
    records = group_into_classes(hits)
    assert len(records) == 1
    assert len(records[0].representatives) == 2
    assert records[0].conjugate_partner == records[0].key
    announce(6, "n=2 search selects exactly {z1z2, 3z1z2} at level 3, one class")


def test_criterion_7_n3_exhaustive_search():
    hits = search_regular(SearchConfig(3, 2))
    assert len(hits) == 40

    tangles = sorted({round(h.fingerprint.tangle, 9) for h in hits})
    expected = sorted(round(np.sqrt(v) / 16, 9) for v in (65, 97, 113, 145))
    assert tangles == expected

    for hit in hits:
        assert abs(hit.fingerprint.r - np.sqrt(3) / 4) < 1e-9
        c2 = hit.fingerprint.concurrence_sq
        assert max(c2) - min(c2) < 1e-9

    records = group_into_classes(hits)
    assert len(records) == 8  # 4 tangle values x 2 conjugation chiralities
    by_tangle = {}
    for record in records:
        by_tangle.setdefault(round(record.fingerprint.tangle, 9), []).append(record)
    for tangle, pair in by_tangle.items():
        assert len(pair) == 2
        keys = {p.key for p in pair}
        assert pair[0].conjugate_partner in keys and pair[1].conjugate_partner in keys
        assert pair[0].conjugate_partner != pair[0].key  # genuinely chirality-split

    # every same-fingerprint hit is witness-linked to its class representative
    for record in records:
        linked = set(record.witness_links) | {record.key}
        assert linked == {f.to_text() for f in record.representatives}
    announce(7, "n=3 search yields 4 tangles x 2 chiralities, all hits witness-linked")


def test_criterion_8_level_bound_desk_check():
    monos = [frozenset({1}), frozenset({2}), frozenset({1, 2})]
    equality_seen = False
    for coeffs in product(range(4), repeat=3):
        f = PhasePolynomial(2, 2, dict(zip(monos, coeffs)))
        report = verify_level_bound(f)
        assert report.ok, f.to_text()
        assert report.measurement_level.level <= max(report.diagonal_level, 2)
        if f.to_text() == "z1 z2":
            assert report.diagonal_level == 3
            assert report.measurement_level.level == 3
            equality_seen = True
    assert equality_seen
    announce(8, "measurement-level bound holds in full-pauli mode over the n=2, m=2 space")


def test_criterion_9_property_suites():
    rng = np.random.default_rng(71)

    # orthonormality of >= 100 random-phase fiducials at m=6
    groups = {n: build_tetra_group(n) for n in (2, 3)}
    all_monos = {n: [frozenset(s) for size in range(1, n + 1)
                     for s in combinations(range(1, n + 1), size)] for n in (2, 3)}
    for trial in range(110):
        n = 2 if trial % 2 else 3
        f = PhasePolynomial(n, 6, {s: int(rng.integers(64)) for s in all_monos[n]})
        basis = orbit_basis(build_fiducial(f), groups[n], f)
        report = check_orthonormal(basis)
        assert report.ok and report.max_violation < 1e-10

    # LU invariance of tangle and concurrence under >= 50 random local unitaries
    psi = build_fiducial(parse_polynomial("z1 z2 + z1 z3 + z2 z3 + 3 z1 z2 z3", 3, 2))
    tau0 = three_tangle(psi)
    conc0 = [pairwise_concurrence(psi, p) for p in ((1, 2), (1, 3), (2, 3))]
    for _ in range(50):
        factors = []
        for _ in range(3):
            mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(mat)
            factors.append(q)
        rotated = apply_local_unitaries(psi, factors)
        assert abs(three_tangle(rotated) - tau0) < 1e-9
        for pair, c in zip(((1, 2), (1, 3), (2, 3)), conc0):
            assert abs(pairwise_concurrence(rotated, pair) - c) < 1e-9

    # conjugation is an involution
    for n in (2, 3, 4):
        state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        np.testing.assert_array_equal(conjugate_state(conjugate_state(state)), state)

    # chirality signs stable under structure-preserving proper local rotations
    cycle = np.cos(np.pi / 3) * np.eye(2) - 1j * np.sin(np.pi / 3) * (
        PAULI_MATS["X"] + PAULI_MATS["Y"] + PAULI_MATS["Z"]) / np.sqrt(3)
    paulis = [np.eye(2), PAULI_MATS["X"], PAULI_MATS["Y"], PAULI_MATS["Z"]]
    f = parse_polynomial("z1 z3 + 3 z2 z3 + z1 z2 z3", 3, 2)
    basis = orbit_basis(build_fiducial(f), groups[3], f)
    base_signs = {pair: relational_chirality(basis_bloch_table(basis), *pair)[0]
                  for pair in ((1, 2), (1, 3), (2, 3))}
    for _ in range(20):
        shared = np.linalg.matrix_power(cycle, int(rng.integers(0, 3)))
        factors = [paulis[rng.integers(4)] @ shared for _ in range(3)]
        table = np.empty((3, 8, 3))
        for g in range(8):
            rotated = apply_local_unitaries(basis.column(g), factors)
            for qubit in range(3):
                table[qubit, g] = bloch_vector(rotated, qubit + 1)
        for pair, expected in base_signs.items():
            assert relational_chirality(table, *pair)[0] == expected
    announce(9, "orthonormality, LU-invariance, involution, and chirality properties hold")


def test_criterion_10_conjecture_partial_check():
    suite = run_suite(10, "conjecture")
    # the artifact only reports consistency, never verification
    assert any("consistency check only" in c.description for c in suite.checks)
    announce(10, "conjecture partially checked: r = sqrt(3)/2^(n-1), level n+1 at n=2,3,4 "
                 "(consistent, not verified)")


def test_criterion_5_appD_recursive_level5_confirmation():
    """Recursive matrix-level confirmation of level 5 at n=4.

    One full layer (all Pauli strings at the outermost layer, generators
    below) certifies levels up to 4, so its 5 is a lower bound; two full
    layers certify the 5.  Memoization on phase-canonical conjugates makes
    this fast in practice.
    """
    from tetrabasis.reproduce import APPD_EXAMPLE2
    for name, text in (("example 1", APPD_EXAMPLE1), ("example 2", APPD_EXAMPLE2)):
        f = parse_polynomial(text, 4, 2)
        basis = orbit_basis(build_fiducial(f), build_tetra_group(4), f)
        m = measurement_unitary(basis)
        result = clifford_level_test(m, cap=6, full_layers=1)
        assert result.level == 5
        assert result.level <= diagonal_clifford_level(f)
        print(f"appD: recursive level of M for {name} >= {result.level} (one full layer)")
    # sound level-5 decision: full Pauli sets at both the C5 and C4 layers
    f1 = parse_polynomial(APPD_EXAMPLE1, 4, 2)
    basis1 = orbit_basis(build_fiducial(f1), build_tetra_group(4), f1)
    deep = clifford_level_test(measurement_unitary(basis1), cap=6, full_layers=2)
    assert deep.level == 5
    print("appD: two-full-layer (sound) decision confirms level 5 for example 1")
