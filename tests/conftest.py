"""Shared helpers: seeded exact random vectors, polynomials, and matrices."""

import random
import warnings
from contextlib import suppress
from fractions import Fraction

import pytest

from fractalmra import DigitSystem, LatticeVector, LaurentPolynomial, Scalar
from fractalmra.filterbank import FilterBank, LoopMatrix
from fractalmra.laurent import monomial, one, zero

# To report a failing property, the hypothesis plugin imports this module
# (and does without it when libcst is missing); its import of libcst warns
# (DeprecationWarning), which -W error would turn into an INTERNALERROR that
# hides the test's name and falsifying example.
with warnings.catch_warnings(), suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture
def cantor3():
    return DigitSystem(3, (0, 2))


@pytest.fixture
def cantor4():
    return DigitSystem(4, (0, 2))


@pytest.fixture
def haar2():
    return DigitSystem(2, (0, 1))


def random_exact_scalar(rng: random.Random, base: int = 2) -> Scalar:
    a = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
    b = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
    return Scalar(a, b, base)


def random_vector(
    sys: DigitSystem,
    rng: random.Random,
    span: int = 8,
    terms: int = 4,
    resolutions=(0, 1),
) -> LatticeVector:
    coeffs = {}
    for _ in range(terms):
        coeffs[rng.randint(-span, span)] = random_exact_scalar(rng, sys.p)
    if not any(not v.is_zero() for v in coeffs.values()):
        coeffs[0] = Scalar(1)
    return LatticeVector(sys, rng.choice(list(resolutions)), coeffs)


def random_polynomial(rng: random.Random, span: int = 4, terms: int = 3) -> LaurentPolynomial:
    coeffs = {}
    for _ in range(terms):
        coeffs[rng.randint(-span, span)] = random_exact_scalar(rng)
    return LaurentPolynomial(coeffs)


def random_exact_loop_matrix(N: int, rng: random.Random) -> LoopMatrix:
    """A unitary loop matrix with exact rational data: a product of monomial
    diagonals, signed permutations, and a rational 2x2 rotation block."""

    def permutation():
        perm = list(range(N))
        rng.shuffle(perm)
        signs = [rng.choice([1, -1]) for _ in range(N)]
        return [
            [monomial(0, signs[i]) if perm[i] == j else zero() for j in range(N)]
            for i in range(N)
        ]

    def diag_monomials():
        return [
            [monomial(rng.randint(0, 2)) if i == j else zero() for j in range(N)]
            for i in range(N)
        ]

    def rotation():
        rows = [[one() if i == j else zero() for j in range(N)] for i in range(N)]
        if N >= 2:
            i, j = sorted(rng.sample(range(N), 2))
            c, s = Fraction(3, 5), Fraction(4, 5)
            rows[i][i] = monomial(0, c)
            rows[i][j] = monomial(0, s)
            rows[j][i] = monomial(0, -s)
            rows[j][j] = monomial(0, c)
        return rows

    def matmul(a, b):
        return [
            [
                sum((a[i][k] * b[k][j] for k in range(N)), zero())
                for j in range(N)
            ]
            for i in range(N)
        ]

    entries = matmul(matmul(diag_monomials(), permutation()), rotation())
    return LoopMatrix(N, tuple(tuple(row) for row in entries))


def filters_of(bank: FilterBank):
    return list(bank.filters)
