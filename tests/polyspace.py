"""Test helpers that enumerate or sample the phase-polynomial space one polynomial at a time."""

from itertools import product

import numpy as np

from tetrabasis.qcore import CapacityError
from tetrabasis.search import canonical_monomials, polynomial_from_coeffs


def enumerate_polynomials(n: int, m: int, min_degree: int = 2):
    """All (2^m)^(#monomials) coefficient assignments, lexicographic order."""
    if n > 5:
        raise CapacityError("full enumeration supported for n <= 5")
    monos = canonical_monomials(n, min_degree)
    for coeffs in product(range(2**m), repeat=len(monos)):
        yield polynomial_from_coeffs(n, m, monos, coeffs)


def polynomial_space_size(n: int, m: int, min_degree: int = 2) -> int:
    return (2**m) ** len(canonical_monomials(n, min_degree))


def seeded_polynomials(n: int, m: int, count: int, seed: int, min_degree: int = 2):
    """count polynomials with coefficients drawn uniformly from Z_(2^m), seeded by (seed, n, m)."""
    rng = np.random.default_rng([seed, n, m])
    monos = canonical_monomials(n, min_degree)
    draws = rng.integers(0, 2**m, (count, len(monos))).tolist()
    return [polynomial_from_coeffs(n, m, monos, coeffs) for coeffs in draws]
