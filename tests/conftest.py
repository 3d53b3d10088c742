"""Shared helpers: seeded exact random scalars, vectors and polynomials."""

import random
import warnings
from contextlib import suppress
from fractions import Fraction

import pytest

from fractalmra import DigitSystem, LatticeVector, LaurentPolynomial, Scalar

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
