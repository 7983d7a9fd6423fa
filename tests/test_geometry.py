from functools import reduce

import numpy as np
import pytest

from tetrabasis.basisgen import (
    TETRAHEDRON_VERTICES,
    Basis,
    bloch_state,
    build_tetra_group,
    ejm_reference_basis,
    orbit_basis,
)
from tetrabasis.fiducial import parse_polynomial, build_fiducial
from tetrabasis.geometry import (
    ChiralityInconsistencyError,
    DegenerateGeometryError,
    GEOMETRY_CLASSES,
    GeometryReport,
    _flip_labels,
    apply_local_unitaries,
    basis_bloch_table,
    bloch_vector,
    bloch_vectors,
    classify_geometries,
    classify_geometry,
    conjugate_state,
    orbit_bloch_table,
    relational_chirality,
    tetra_product_decomposition,
)
from tetrabasis.qcore import PAULI_MATS, partial_trace
from tetrabasis.reproduce import APPD_EXAMPLE1, APPD_EXAMPLE2
from tetrabasis.search import canonical_monomials, polynomial_from_coeffs

from polyspace import enumerate_polynomials


def basis_state(n, index):
    return np.eye(2**n, dtype=complex)[index]


def product_state(directions, pattern):
    """Reference: the product of +/- Bloch eigenstates for one sign pattern."""
    return reduce(np.kron, [bloch_state(d, +1 if s == "+" else -1)
                            for d, s in zip(directions, pattern)])


def table1_basis(text="z1 z3 + 3 z2 z3 + z1 z2 z3"):
    f = parse_polynomial(text, 3, 2)
    return orbit_basis(build_fiducial(f), build_tetra_group(3), f)


class TestBlochVector:
    def test_ground_state(self):
        np.testing.assert_allclose(bloch_vector(basis_state(1, 0), 1), [0, 0, 1], atol=1e-14)

    def test_appA_fiducial_qubit1(self):
        psi = build_fiducial(parse_polynomial("z1 z2", 2, 2))
        np.testing.assert_allclose(bloch_vector(psi, 1), [0.5, 0.5, 0.5], atol=1e-13)

    def test_appD_example1_isotropic(self):
        psi = build_fiducial(parse_polynomial(APPD_EXAMPLE1, 4, 2))
        for qubit in range(1, 5):
            np.testing.assert_allclose(bloch_vector(psi, qubit),
                                       [1 / 8, 1 / 8, 1 / 8], atol=1e-12)

    def test_length_matches_marginal_purity(self):
        rng = np.random.default_rng(12)
        for n in (2, 3):
            psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            psi /= np.linalg.norm(psi)
            for qubit in range(1, n + 1):
                rho = partial_trace(psi, {qubit})
                purity = np.trace(rho @ rho).real
                norm = np.linalg.norm(bloch_vector(psi, qubit))
                assert abs(norm - np.sqrt(2 * purity - 1)) < 1e-10


class TestBlochTable:
    def test_ejm_reference_vertices(self):
        table = basis_bloch_table(ejm_reference_basis())
        expected = np.sqrt(3) / 2 * TETRAHEDRON_VERTICES
        for i in range(4):
            np.testing.assert_allclose(table[0, i], expected[i], atol=1e-12)

    def test_table1_lengths(self):
        table = basis_bloch_table(table1_basis())
        np.testing.assert_allclose(np.linalg.norm(table, axis=2),
                                   np.sqrt(3) / 4 * np.ones((3, 8)), atol=1e-12)

    def test_degenerate_orbit(self):
        table = basis_bloch_table(orbit_basis(basis_state(2, 0), build_tetra_group(2)))
        for vec in table.reshape(-1, 3):
            assert abs(abs(vec[2]) - 1) < 1e-12 and abs(vec[0]) < 1e-12

    def test_lengths_constant_in_group_label(self):
        for text in ("z1 z2 + 2 z1 z3 + z1 z2 z3", "z1 z3 + z1 z2 z3"):
            table = basis_bloch_table(table1_basis(text))
            norms = np.linalg.norm(table, axis=2)
            assert np.max(norms.max(axis=1) - norms.min(axis=1)) < 1e-9


class TestClassifyGeometry:
    def test_table1_regular(self):
        report = classify_geometry(basis_bloch_table(table1_basis()))
        assert report.all_regular
        assert abs(report.r - np.sqrt(3) / 4) < 1e-12

    def test_appD_example2_regular(self):
        f = parse_polynomial(APPD_EXAMPLE2, 4, 2)
        basis = orbit_basis(build_fiducial(f), build_tetra_group(4), f)
        report = classify_geometry(basis_bloch_table(basis))
        assert report.all_regular
        assert abs(report.r - 3 * np.sqrt(3) / 8) < 1e-12

    def test_n2_enumeration_oracle(self):
        # all four n=2 m=2 canonical polynomials: only z1z2 and 3z1z2 are regular
        outcomes = {}
        for coeff in range(4):
            f = parse_polynomial(f"{coeff} z1 z2" if coeff else "0", 2, 2)
            basis = orbit_basis(build_fiducial(f), build_tetra_group(2), f)
            report = classify_geometry(basis_bloch_table(basis))
            outcomes[coeff] = report.classes[0]
        assert outcomes[1] == outcomes[3] == "regular_tetrahedron"
        assert outcomes[0] == outcomes[2] == "collinear"

    def test_planar_rectangle_synthetic(self):
        base = np.array([0.6, 0.3, 0.0])
        flips = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
        table = np.stack([base * f for f in flips])[None, :, :]
        report = classify_geometry(table)
        assert report.classes == ("planar_rectangle",)
        assert not report.nonzero_components

    def test_disphenoid_synthetic(self):
        base = np.array([0.5, 0.3, 0.1])
        flips = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
        table = np.stack([base * f for f in flips])[None, :, :]
        assert classify_geometry(table).classes == ("disphenoid",)

    def test_unequal_lengths_degenerate(self):
        table = np.array([[[0.5, 0, 0], [0.2, 0, 0], [-0.5, 0, 0], [-0.2, 0, 0]]])
        assert classify_geometry(table).classes == ("degenerate",)

    def test_nonzero_components_flag(self):
        report = classify_geometry(basis_bloch_table(table1_basis()))
        assert report.nonzero_components

    def test_n4_mixed_tetra_sizes(self):
        # found by sampled search: all four qubits regular but with two
        # different Bloch lengths in one basis, so no shared r exists
        text = ("2 z1 z2 + 2 z1 z2 z3 + 3 z1 z2 z3 z4 + 3 z1 z2 z4 + 2 z1 z3 z4 "
                "+ 3 z1 z4 + z2 z3 + 2 z2 z3 z4 + 2 z2 z4")
        f = parse_polynomial(text, 4, 2)
        basis = orbit_basis(build_fiducial(f), build_tetra_group(4), f)
        report = classify_geometry(basis_bloch_table(basis))
        assert report.all_regular
        assert report.r is None
        lengths = sorted(set(round(v, 10) for v in report.lengths))
        assert lengths == [round(np.sqrt(3) / 8, 10), round(3 * np.sqrt(3) / 8, 10)]
        assert report.to_json_dict()["r"] is None
        assert all(sign is not None for sign in report.chirality.values())


def reference_classify(table, tol=1e-8):
    """Reference: the one-table classification loop the stacked kernel replaced."""
    def canonical_sign(v):
        for comp in v:
            if abs(comp) > 1e-12:
                return v if comp > 0 else -v
        return v

    flips_i = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    n = table.shape[0]
    anchors = np.where(np.abs(table[:, 0]) <= tol, 0.0, table[:, 0])
    lengths = np.linalg.norm(anchors, axis=1)
    classes, all_lines = [], []
    for l in range(n):
        v = anchors[l]
        labels = _flip_labels(table[l], tol)
        zeros = int(np.count_nonzero(v == 0.0))
        if labels is None or zeros == 3:
            classes.append("degenerate")
            all_lines.append(())
            continue
        if zeros == 0:
            classes.append("regular_tetrahedron" if np.ptp(np.abs(v)) <= tol else "disphenoid")
        else:
            classes.append("planar_rectangle" if zeros == 1 else "collinear")
        flips = [tuple((canonical_sign(v / lengths[l] * f) + 0.0).tolist()) for f in flips_i]
        all_lines.append(tuple(dict.fromkeys(flips[g] for g in labels.tolist())))
    lengths = lengths.tolist()
    spread = max(lengths) - min(lengths)
    chirality = {}
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            both = classes[k - 1] == classes[l - 1] == "regular_tetrahedron"
            chirality[(k, l)] = relational_chirality(table, k, l, tol)[0] if both else None
    return GeometryReport(
        classes=tuple(classes), lengths=tuple(lengths),
        r=float(np.mean(lengths)) if spread <= max(tol, 1e-9) else None,
        lines=tuple(all_lines), chirality=chirality,
        nonzero_components=bool(np.min(np.abs(table)) > tol))


def mixed_n3_tables():
    """n=3 tables of every class: all 256 orbits at m=2, random bases, synthetic rows."""
    group = build_tetra_group(3)
    tables = [orbit_bloch_table(orbit_basis(build_fiducial(f), group, f))
              for f in enumerate_polynomials(3, 2)]
    rng = np.random.default_rng(11)
    for _ in range(6):
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        tables.append(basis_bloch_table(Basis(3, q, q[:, 0].copy())))
    signs = (np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]] * 2, dtype=float))
    rows = [np.array(v) * signs for v in
            ([0.6, 0.3, 0.0], [0.5, 0.3, 0.1], [0.0, 0.0, 0.4], [0.2, -0.2, 0.2], [0, 0, 0])]
    tables += [np.stack([rows[i], rows[j], rows[k]]) for i, j, k in
               [(0, 1, 2), (3, 3, 3), (3, 1, 4), (2, 0, 3)]]
    return np.stack(tables)


class TestStackedKernels:
    def test_stack_matches_reference_per_table(self):
        tables = mixed_n3_tables()
        reports = classify_geometries(tables)
        assert reports == [reference_classify(t) for t in tables]
        assert {c for r in reports for c in r.classes} == {
            "regular_tetrahedron", "disphenoid", "planar_rectangle", "collinear", "degenerate"}
        assert reports == [classify_geometry(t) for t in tables]

    def test_bloch_vectors_are_the_partial_trace_formula(self):
        rng = np.random.default_rng(5)
        states = rng.standard_normal((9, 16)) + 1j * rng.standard_normal((9, 16))
        states /= np.linalg.norm(states, axis=1)[:, None]
        vectors = bloch_vectors(states)
        for psi, rows in zip(states, vectors):
            for q in range(1, 5):
                rho = partial_trace(psi, {q})
                expected = [np.trace(rho @ PAULI_MATS[p]).real for p in ("X", "Y", "Z")]
                assert rows[q - 1].tolist() == expected


class TestRelationalChirality:
    def test_ejm_reference_mirrored(self):
        table = basis_bloch_table(ejm_reference_basis())
        sign, omap = relational_chirality(table, 1, 2)
        assert sign == -1
        np.testing.assert_allclose(omap, -np.eye(3), atol=1e-10)

    def test_table1_row1_same_handedness(self):
        table = basis_bloch_table(table1_basis())
        for pair in ((1, 2), (1, 3), (2, 3)):
            sign, omap = relational_chirality(table, *pair)
            assert sign == 1
            np.testing.assert_allclose(omap @ omap.T, np.eye(3), atol=1e-9)

    def test_appD_example2_qubit3_mirrored(self):
        f = parse_polynomial(APPD_EXAMPLE2, 4, 2)
        basis = orbit_basis(build_fiducial(f), build_tetra_group(4), f)
        table = basis_bloch_table(basis)
        assert relational_chirality(table, 2, 3)[0] == -1
        assert relational_chirality(table, 1, 4)[0] == 1

    def test_inconsistent_table_rejected(self):
        rng = np.random.default_rng(8)
        table = rng.normal(size=(2, 4, 3)) * 0.2
        with pytest.raises((ChiralityInconsistencyError, DegenerateGeometryError)):
            relational_chirality(table, 1, 2)

    def test_degenerate_rejected(self):
        table = np.zeros((2, 4, 3))
        with pytest.raises(DegenerateGeometryError):
            relational_chirality(table, 1, 2)



def orbit_cases():
    """Full n=3, m=2 space, 300 seeded n=4 polynomials and both appD examples."""
    polys = list(enumerate_polynomials(3, 2))
    monos = canonical_monomials(4)
    rng = np.random.default_rng(2024)
    for _ in range(300):
        coeffs = tuple(int(c) for c in rng.integers(0, 4, len(monos)))
        polys.append(polynomial_from_coeffs(4, 2, monos, coeffs))
    polys += [parse_polynomial(APPD_EXAMPLE1, 4, 2), parse_polynomial(APPD_EXAMPLE2, 4, 2)]
    return [orbit_basis(build_fiducial(f), build_tetra_group(f.n), f) for f in polys]


# I, X, Y, Z labeled sign flips, written out for the reference solve below
LABEL_FLIPS = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)


class TestOrbitBlochTable:
    @pytest.fixture(scope="class")
    def tables(self):
        return [(orbit_bloch_table(b), basis_bloch_table(b)) for b in orbit_cases()]

    def test_matches_partial_trace_table(self, tables):
        assert len(tables) == 256 + 300 + 2
        for fast, reference in tables:
            assert fast.shape == reference.shape
            np.testing.assert_allclose(fast, reference, rtol=0, atol=1e-12)

    def test_classification_agrees_with_reference_table(self, tables):
        classes_seen = set()
        for fast, reference in tables:
            got, want = classify_geometry(fast), classify_geometry(reference)
            assert got.classes == want.classes
            assert got.chirality == want.chirality
            assert got.nonzero_components == want.nonzero_components
            np.testing.assert_allclose(got.lengths, want.lengths, rtol=0, atol=1e-12)
            assert (got.r is None) == (want.r is None)
            if got.r is not None:
                assert abs(got.r - want.r) <= 1e-12
            assert [len(q) for q in got.lines] == [len(q) for q in want.lines]
            for got_lines, want_lines in zip(got.lines, want.lines):
                if got_lines:
                    np.testing.assert_allclose(got_lines, want_lines, rtol=0, atol=1e-12)
            classes_seen.update(got.classes)
        assert classes_seen == set(GEOMETRY_CLASSES)

    def test_chirality_map_matches_labeled_vertex_solve(self, tables):
        solved = 0
        for fast, _ in tables:
            report = classify_geometry(fast)
            n = fast.shape[0]
            for k in range(1, n + 1):
                for l in range(k + 1, n + 1):
                    if {report.classes[k - 1], report.classes[l - 1]} - {
                            "regular_tetrahedron", "disphenoid"}:
                        continue
                    uk = fast[k - 1, 0] / np.linalg.norm(fast[k - 1, 0])
                    ul = fast[l - 1, 0] / np.linalg.norm(fast[l - 1, 0])
                    mk = (uk * LABEL_FLIPS[:3]).T  # columns: I, X, Y vertices
                    ml = (ul * LABEL_FLIPS[:3]).T
                    # O mk = ml  <=>  mk^T O^T = ml^T
                    expected = np.linalg.solve(mk.T, ml.T).T
                    np.testing.assert_allclose(expected @ (uk * LABEL_FLIPS[3]),
                                               ul * LABEL_FLIPS[3], atol=1e-12)
                    if np.max(np.abs(expected @ expected.T - np.eye(3))) > 1e-6:
                        with pytest.raises(ChiralityInconsistencyError):
                            relational_chirality(fast, k, l)
                        continue
                    sign, omap = relational_chirality(fast, k, l)
                    np.testing.assert_allclose(omap, expected, rtol=0, atol=1e-12)
                    assert sign == np.sign(np.linalg.det(expected))
                    solved += 1
        assert solved >= 3 * 40

    def test_group_required(self):
        with pytest.raises(ValueError):
            orbit_bloch_table(ejm_reference_basis())

    def test_noise_components_reported_as_zero(self):
        # the partial-trace table carries ~1e-17 noise in the vanishing
        # components of collinear and planar qubits; the report has exact zeros
        f = parse_polynomial("z1 z3", 3, 2)
        basis = orbit_basis(build_fiducial(f), build_tetra_group(3), f)
        report = classify_geometry(basis_bloch_table(basis))
        assert report.classes[0] == "collinear"
        for qubit_lines in report.lines:
            for line in qubit_lines:
                assert all(x == 0.0 or abs(x) > 1e-8 for x in line)
                assert all(np.copysign(1.0, x) > 0 for x in line if x == 0.0)

class TestConjugateState:
    def test_involution(self):
        rng = np.random.default_rng(3)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        np.testing.assert_array_equal(conjugate_state(conjugate_state(psi)), psi)

    def test_real_amplitudes_unchanged(self):
        psi = np.array([0.6, 0.8], dtype=complex)
        np.testing.assert_array_equal(conjugate_state(psi), psi)

    def test_flips_bloch_y(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 3):
            psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            psi /= np.linalg.norm(psi)
            conj = conjugate_state(psi)
            for qubit in range(1, n + 1):
                x, y, z = bloch_vector(psi, qubit)
                np.testing.assert_allclose(bloch_vector(conj, qubit), [x, -y, z],
                                           atol=1e-12)


class TestApplyLocalUnitaries:
    def test_identity(self):
        psi = build_fiducial(parse_polynomial("z1 z2", 2, 2))
        np.testing.assert_allclose(apply_local_unitaries(psi, [np.eye(2)] * 2), psi,
                                   atol=1e-15)

    def test_matches_kron(self):
        rng = np.random.default_rng(11)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        factors = []
        for _ in range(3):
            mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(mat)
            factors.append(q)
        full = np.kron(np.kron(factors[0], factors[1]), factors[2])
        np.testing.assert_allclose(apply_local_unitaries(psi, factors), full @ psi,
                                   atol=1e-12)

    def test_non_unitary_rejected(self):
        psi = basis_state(2, 0)
        with pytest.raises(ValueError):
            apply_local_unitaries(psi, [np.eye(2), np.array([[1, 1], [0, 1.0]])])

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            apply_local_unitaries(basis_state(2, 0), [np.eye(2)])


class TestTetraProductDecomposition:
    def test_product_state_single_coefficient(self):
        m1 = TETRAHEDRON_VERTICES[0]
        psi = product_state([m1, m1], "++")
        coeffs = tetra_product_decomposition(psi, [m1, m1])
        assert abs(coeffs["++"] - 1) < 1e-12
        assert all(abs(c) < 1e-12 for key, c in coeffs.items() if key != "++")

    def test_ejm_column_schmidt_pattern(self):
        m1 = TETRAHEDRON_VERTICES[0]
        coeffs = tetra_product_decomposition(ejm_reference_basis().column(0), [m1, m1])
        a = (np.sqrt(3) + 1) / (2 * np.sqrt(2))
        b = (np.sqrt(3) - 1) / (2 * np.sqrt(2))
        assert abs(abs(coeffs["+-"]) - a) < 1e-10
        assert abs(abs(coeffs["-+"]) - b) < 1e-10
        assert abs(coeffs["++"]) < 1e-10 and abs(coeffs["--"]) < 1e-10

    def test_reconstruction(self):
        rng = np.random.default_rng(10)
        for n in (2, 3):
            psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            psi /= np.linalg.norm(psi)
            dirs = []
            for _ in range(n):
                v = rng.normal(size=3)
                dirs.append(v / np.linalg.norm(v))
            coeffs = tetra_product_decomposition(psi, dirs)
            rebuilt = sum(c * product_state(dirs, key) for key, c in coeffs.items())
            np.testing.assert_allclose(rebuilt, psi, atol=1e-10)

    def test_wrong_direction_count(self):
        with pytest.raises(ValueError):
            tetra_product_decomposition(basis_state(2, 0), [TETRAHEDRON_VERTICES[0]])


class TestGeometryReportSerialization:
    def test_json_keys(self):
        report = classify_geometry(basis_bloch_table(table1_basis()))
        payload = report.to_json_dict()
        assert list(payload.keys()) == ["class", "r", "lines", "chirality",
                                        "nonzero_components"]

    def test_chirality_signature_sorted(self):
        f = parse_polynomial(APPD_EXAMPLE2, 4, 2)
        basis = orbit_basis(build_fiducial(f), build_tetra_group(4), f)
        report = classify_geometry(basis_bloch_table(basis))
        assert report.chirality_signature() == "+++---"
