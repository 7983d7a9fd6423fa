"""Multiqubit tetrahedral measurement bases: construction, verification, classification."""

from .fiducial import (
    PhasePolynomial,
    PolynomialParseError,
    build_fiducial,
    diagonal_gate,
    evaluate_polynomial,
    fiducial_circuit,
    parse_polynomial,
    staircase_circuit,
)
from .basisgen import (
    Basis,
    TetraGroup,
    TETRAHEDRON_VERTICES,
    bases_equal_up_to_relabeling,
    bloch_state,
    build_tetra_group,
    check_orthonormal,
    ejm_reference_basis,
    measurement_unitary,
    orbit_basis,
)
from .geometry import (
    GeometryReport,
    apply_local_unitaries,
    basis_bloch_table,
    bloch_vector,
    classify_geometry,
    conjugate_state,
    orbit_bloch_table,
    orbit_geometry,
    relational_chirality,
    tetra_product_decomposition,
)
from .entanglement import (
    InvariantFingerprint,
    invariant_fingerprint,
    pairwise_concurrence,
    permutation_stabilizer_order,
    three_tangle,
)
from .hierarchy import (
    LevelResult,
    clifford_level_test,
    diagonal_clifford_level,
    is_pauli_like,
    measurement_level,
    verify_level_bound,
)
from .search import (
    ClassRecord,
    SearchConfig,
    SearchHit,
    group_into_classes,
    lc_equivalence_witness,
    search_regular,
)

__version__ = "0.1.0"
