import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fractalmra.scalars import Scalar, _squarefree_split


def test_rational_construction():
    assert Scalar(Fraction(1, 2)).exact_str() == "1/2"
    assert Scalar(3).exact_str() == "3"
    assert Scalar(0).is_zero()


def test_inv_sqrt_values():
    r2 = Scalar.inv_sqrt(2)
    assert r2.exact_str() == "1/2√2"
    assert r2 * r2 == Scalar(Fraction(1, 2))
    assert Scalar.inv_sqrt(4) == Scalar(Fraction(1, 2))
    assert Scalar.inv_sqrt(8).exact_str() == "1/4√2"
    assert Scalar.inv_sqrt(1) == Scalar(1)


def test_square_factors_are_normalized():
    assert Scalar(0, 1, 12) == Scalar(0, 2, 3)
    assert Scalar(0, 1, 9) == Scalar(3)


def test_field_axioms_sampled():
    rng = random.Random(7)
    vals = [
        Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
               Fraction(rng.randint(-3, 3), rng.randint(1, 2)), 2)
        for _ in range(8)
    ]
    for a in vals:
        for b in vals:
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) * a == a * a + b * a
            if not b.is_zero():
                assert (a / b) * b == a


def test_conjugate_is_identity_on_exact():
    a = Scalar(1, 2, 2)
    assert a.conjugate() == a
    z = Scalar.approx(1 + 2j)
    assert z.conjugate().to_complex() == 1 - 2j


def test_mixed_base_promotes_to_approx():
    a = Scalar(0, 1, 2)
    b = Scalar(0, 1, 3)
    prod = a * b
    assert not prod.is_exact
    assert prod.to_complex() == pytest.approx(math.sqrt(6))
    # rationals coerce into either base
    assert (Scalar(2) * a).is_exact


def test_exact_ordering():
    assert Scalar(0, 1, 2) < Scalar(Fraction(3, 2))
    assert Scalar(1, 1, 2) > Scalar(2)
    assert Scalar(1, -1, 2) < Scalar(Fraction(1, 2))
    assert Scalar(0, 1, 2) <= Scalar(0, 1, 2)


def test_float_conversion_and_abs_sq():
    a = Scalar(1, 1, 2)
    assert float(a) == pytest.approx(1 + math.sqrt(2))
    assert a.abs_sq() == Scalar(3, 2, 2)


def test_exact_str_rendering():
    assert Scalar(1, -1, 2).exact_str() == "1-√2"
    assert Scalar(-1, Fraction(1, 2), 2).exact_str() == "-1+1/2√2"
    assert Scalar.approx(1j).exact_str() is None


def _is_squarefree(q: int) -> bool:
    return all(q % (d * d) for d in range(2, math.isqrt(q) + 1))


def test_squarefree_split_beyond_small_primes():
    assert _squarefree_split(74 ** 3) == (74, 74)
    assert _squarefree_split(37 ** 2 * 3) == (37, 3)
    assert Scalar.inv_sqrt(74 ** 3).exact_str() == "1/5476√74"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 4), st.integers(1, 10 ** 5).filter(_is_squarefree))
def test_squarefree_split_complete(s, q):
    assert _squarefree_split(s * s * q) == (s, q)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 200), st.integers(1, 6))
def test_inv_sqrt_power_equals_product(a, k):
    product = Scalar(1)
    for _ in range(k):
        product = product * Scalar.inv_sqrt(a)
    power = Scalar.inv_sqrt(a ** k)
    assert power == product
    assert hash(power) == hash(product)
