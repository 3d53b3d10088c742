import math
import random
import time
from fractions import Fraction

import numpy as np
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


def test_complex_is_float():
    # every Scalar is real: complex() falls back to __float__
    for a in (Scalar(1, 2, 2), Scalar(Fraction(-3, 7)), Scalar(0)):
        assert complex(a) == float(a) and complex(a).imag == 0


def test_exact_ordering():
    assert Scalar(0, 1, 2) < Scalar(Fraction(3, 2))
    assert Scalar(1, 1, 2) > Scalar(2)
    assert Scalar(1, -1, 2) < Scalar(Fraction(1, 2))
    assert Scalar(0, 1, 2) <= Scalar(0, 1, 2)


def test_float_conversion_and_square():
    a = Scalar(1, 1, 2)
    assert float(a) == pytest.approx(1 + math.sqrt(2))
    assert a * a == Scalar(3, 2, 2)


def test_exact_str_rendering():
    assert Scalar(1, -1, 2).exact_str() == "1-√2"
    assert Scalar(-1, Fraction(1, 2), 2).exact_str() == "-1+1/2√2"


def _is_squarefree(q: int) -> bool:
    return all(q % (d * d) for d in range(2, math.isqrt(q) + 1))


def test_squarefree_split_beyond_small_primes():
    assert _squarefree_split(74 ** 3) == (74, 74)
    assert _squarefree_split(37 ** 2 * 3) == (37, 3)
    assert Scalar.inv_sqrt(74 ** 3).exact_str() == "1/5476√74"


def test_squarefree_split_is_bounded():
    # 2^89 - 1 is prime: beyond trial division and not a square, so refused
    start = time.perf_counter()
    with pytest.raises(ValueError):
        Scalar(0, 1, 2 ** 89 - 1)
    assert time.perf_counter() - start < 1.0
    # the square of the prime 2^61 - 1 is split by its root
    assert Scalar(0, 1, (2 ** 61 - 1) ** 2) == 2 ** 61 - 1


def test_radicand_must_be_an_integer():
    for d in (2.5, Fraction(7, 2)):
        with pytest.raises(ValueError):
            Scalar(0, 1, d)
    assert Scalar(0, 1, Fraction(8, 4)) == Scalar(0, 1, 2)
    assert Scalar(0, 1, np.int64(2)) == Scalar(np.int64(0), 1, 2) == Scalar(0, 1, 2)


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


# -- properties of exact arithmetic ---------------------------------------------

RADICANDS = (2, 3, 5, 6)
fractions_ = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def field_values(draw):
    """Three exact values of one field: Q, or Q(sqrt d) for d in RADICANDS.
    The second one's sqrt part is often the first one's negated, so sums
    cancel back to Q; radicands are sometimes written with a square factor."""
    d = draw(st.sampled_from((0,) + RADICANDS))
    if d == 0:
        return tuple(Scalar(draw(fractions_)) for _ in range(3))
    b = draw(fractions_)
    values = []
    for sqrt_part in (b, draw(st.one_of(fractions_, st.just(-b))), draw(fractions_)):
        s = draw(st.sampled_from((1, 1, 2, 3)))
        values.append(Scalar(draw(fractions_), sqrt_part / s, d * s * s))
    return tuple(values)


def results(x, y):
    out = [x + y, x - y, x * y, -x, y - x]
    if not y.is_zero():
        out.append(x / y)
    if not x.is_zero():
        out.append(y / x)
    return out


# The Fraction-part formulas of the earlier representation, kept as references.

def fraction_results(x, y):
    """(a, b, d) of each of `results(x, y)`, computed on Fraction parts."""
    a, b, c, e = x.a, x.b, y.a, y.b
    d = x.d or y.d

    def part(a, b):
        return (a, b, d if b else 0)

    def div(a, b, c, e):
        norm = c * c - e * e * d
        ca, ce = c / norm, -e / norm
        return part(a * ca + b * ce * d, a * ce + b * ca)

    out = [part(a + c, b + e), part(a - c, b - e),
           part(a * c + b * e * d, a * e + b * c), part(-a, -b), part(c - a, e - b)]
    if not y.is_zero():
        out.append(div(a, b, c, e))
    if not x.is_zero():
        out.append(div(c, e, a, b))
    return out


def fraction_str(a: Fraction, b: Fraction, d: int) -> str:
    if not b:
        return str(a)
    root = f"√{d}"
    irr = root if b == 1 else "-" + root if b == -1 else f"{b}{root}"
    if not a:
        return irr
    return f"{a}+{irr}" if b > 0 else f"{a}{irr}"


def assert_canonical(r):
    """The int parts obey the representation's rules and agree with the
    Fraction parts: value, float bits, text and normalising rebuild."""
    assert all(type(v) is int for v in (r.p, r.q, r.d, r.den))
    assert r.den > 0 and math.gcd(r.p, r.q, r.den) == 1
    assert (r.q == 0) == (r.d == 0)
    if r.d:
        assert r.d > 1 and _is_squarefree(r.d)
    a, b = r.a, r.b
    assert (a, b) == (Fraction(r.p, r.den), Fraction(r.q, r.den))
    ref = float(a) + float(b) * math.sqrt(r.d) if b else float(a)
    assert float(r).hex() == ref.hex() and complex(r) == complex(ref)
    assert r.exact_str() == fraction_str(a, b, r.d)
    rebuilt = Scalar(a, b, r.d)
    assert (r.p, r.q, r.d, r.den) == (rebuilt.p, rebuilt.q, rebuilt.d, rebuilt.den)


@settings(max_examples=300, deadline=None)
@given(field_values())
def test_field_laws(xyz):
    x, y, z = xyz
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x and x * 1 == x and x * 0 == 0
    assert x + (-x) == 0 and x - y == -(y - x)
    if not y.is_zero():
        assert (x / y) * y == x
        assert y / y == 1


@settings(max_examples=300, deadline=None)
@given(field_values())
def test_results_are_canonical(xyz):
    x, y, z = xyz
    for r in results(x, y) + results(y, z):
        assert_canonical(r)
        if not r.b:
            assert r.d == 0 and r.is_rational
    for u, v in ((x, y), (y, z)):
        assert [(r.a, r.b, r.d) for r in results(u, v)] == fraction_results(u, v)


@settings(max_examples=300, deadline=None)
@given(field_values())
def test_equal_values_hash_equal(xyz):
    x, y, z = xyz
    # one value reached two ways: factored, and expanded
    left, right = (x + y) * (x - y), x * x - y * y
    assert left == right and hash(left) == hash(right)
    for r in results(x, y) + results(z, x):
        rebuilt = Scalar(r.a, r.b, r.d)
        assert r == rebuilt and hash(r) == hash(rebuilt)
        if r.is_rational:
            assert r == r.a and hash(r) == hash(r.a)
    # every pair of the values and their results: a set never keeps two
    # equal values
    values = list(xyz) + results(x, y)
    for u in values:
        for v in values:
            if u == v:
                assert v == u and hash(u) == hash(v)


def test_floats_are_refused():
    """An exact value never meets a float: the constructor, coercion,
    arithmetic and the float operand of a comparison are refused, or compare
    unequal."""
    for z in (0.25, 1.0, 1 + 2j, 0.1, np.float64(0.5)):
        for make in (lambda: Scalar(z), lambda: Scalar(0, z, 2), lambda: Scalar(1, z)):
            with pytest.raises(TypeError):
                make()
        with pytest.raises(TypeError):
            Scalar.coerce(z)
        with pytest.raises(TypeError):
            Scalar(1) + z
        with pytest.raises(TypeError):
            Scalar(1) * z
    assert Scalar(Fraction(1, 4)) != 0.25 and Scalar(3) != 3.0


def test_sums_that_cancel_the_root_land_in_q():
    x, y = Scalar(1, Fraction(3, 2), 2), Scalar(Fraction(1, 3), Fraction(-3, 2), 2)
    for r in (x + y, x - Scalar(0, Fraction(3, 2), 2), Scalar(0, 1, 3) * Scalar(0, 1, 3)):
        assert (r.b, r.d) == (0, 0) and r.is_rational
        assert hash(r) == hash(r.a)
    assert Scalar(0, 1, 2) * Scalar(0, 1, 8) == 4


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([(d, e) for d in RADICANDS for e in RADICANDS if d != e]),
    fractions_, fractions_.filter(bool), fractions_, fractions_.filter(bool),
)
def test_mixed_fields_are_refused(de, a, b, c, e):
    """Operands with two irrational radicands never meet in a request; every
    operator refuses them with both radicands named.  A rational operand
    joins either field."""
    d, d2 = de
    x, y = Scalar(a, b, d), Scalar(c, e, d2)
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y):
        with pytest.raises(ValueError, match=rf"Q\(√{d}\) and Q\(√{d2}\)"):
            op()
    for r in (Scalar(a) * y, x + Scalar(c), x / Scalar(e)):
        assert r.d in (0, d, d2)


def scalar_bits(x):
    return (x.p, x.q, x.d, x.den)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(RADICANDS), fractions_, fractions_, st.one_of(
    fractions_, st.integers(-5, 5), st.tuples(fractions_, fractions_)))
def test_subtraction_has_the_bits_of_adding_the_negation(d, a, b, y):
    """x - y is x + (-y), part for part, whichever operand is a Scalar."""
    x = Scalar(a, b, d)
    if isinstance(y, tuple):  # a second value of x's field
        y = Scalar(*y, d)
    assert scalar_bits(x - y) == scalar_bits(x + (-Scalar.coerce(y)))
    assert scalar_bits(y - x) == scalar_bits(Scalar.coerce(y) + (-x))
