"""Test helpers that enumerate the phase-polynomial space one polynomial at a time."""

from itertools import product

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
