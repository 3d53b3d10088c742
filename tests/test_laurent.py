import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractalmra.laurent import (
    LaurentPolynomial,
    _cyclotomic,
    _prime_factors,
    _poly_divmod,
    _poly_trim,
    constant,
    monomial,
    one,
    vanishes_at_primitive_roots,
    zero,
)
from fractalmra.scalars import Scalar

from conftest import random_polynomial


def test_zero_coefficients_pruned():
    f = LaurentPolynomial({0: 1, 2: 0, -1: Scalar(0)})
    assert sorted(f.coeffs) == [0]


def test_products_drop_coefficients_that_vanish():
    r2 = Scalar.inv_sqrt(2)
    f = LaurentPolynomial({0: r2, 1: 1}) * 0
    assert f.coeffs == {} and f.is_zero()
    # (1/sqrt2 + z)(1/sqrt2 - z): the z terms cancel exactly
    g = LaurentPolynomial({0: r2, 1: 1}) * LaurentPolynomial({0: r2, 1: -1})
    assert g.coeffs == {0: Scalar(Fraction(1, 2)), 2: Scalar(-1)}
    assert (LaurentPolynomial({0: 1, 1: 1}) * LaurentPolynomial({0: 1, 1: -1})).coeffs == {
        0: Scalar(1), 2: Scalar(-1)
    }


def test_algebra_matches_evaluation():
    rng = random.Random(3)
    for _ in range(10):
        f, g = random_polynomial(rng), random_polynomial(rng)
        z = complex(np.exp(2j * math.pi * rng.random()))
        assert (f + g)(z) == pytest.approx(f(z) + g(z))
        assert (f * g)(z) == pytest.approx(f(z) * g(z))
        assert (f - g)(z) == pytest.approx(f(z) - g(z))


def test_reflection_is_torus_conjugate():
    """With real coefficients, f(z^-1) is conj(f(z)) on |z| = 1."""
    rng = random.Random(5)
    for _ in range(10):
        f = random_polynomial(rng)
        t = rng.random()
        z = complex(np.exp(2j * math.pi * t))
        assert f.compose_power(-1)(z) == pytest.approx(f(z).conjugate())


def test_compose_power():
    f = LaurentPolynomial({1: 1, -2: 3})
    g = f.compose_power(3)
    assert sorted(g.coeffs) == [-6, 3]
    z = 0.3 + 0.4j
    assert g(z) == pytest.approx(f(z ** 3))


def test_exponents_must_be_integral():
    for k in (0.5, Fraction(1, 3), "1"):
        with pytest.raises(ValueError, match="exponents must be integers"):
            LaurentPolynomial({k: 1})
    f = LaurentPolynomial({2.0: 1, np.int64(-1): 3})
    assert f == LaurentPolynomial({2: 1, -1: 3}) and all(type(k) is int for k in f.coeffs)


def test_eval_turns_array():
    f = monomial(2)
    ts = np.array([0.0, 0.25, 0.5])
    vals = f.eval_turns(ts)
    assert vals[0] == pytest.approx(1)
    assert vals[1] == pytest.approx(-1)
    assert vals[2] == pytest.approx(1)


def test_degree_and_equality():
    assert zero().degree() == 0
    assert constant(5).degree() == 0
    assert LaurentPolynomial({-7: 1, 3: 1}).degree() == 7
    assert one() == constant(1)
    assert monomial(1) != monomial(-1)


def _reference_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _poly_trim(out)


def _reference_cyclotomic(N, _cache={1: [-1, 1]}):
    """The recursive construction: z^N - 1 divided by prod_{d | N, d < N} Phi_d."""
    if N in _cache:
        return _cache[N]
    num = [0] * (N + 1)
    num[0], num[N] = -1, 1
    den = [1]
    for d in range(1, N):
        if N % d == 0:
            den = _reference_poly_mul(den, _reference_cyclotomic(d))
    q, r = _poly_divmod(num, den)
    assert not r
    _cache[N] = q
    return q


def test_cyclotomic_matches_recursive_construction():
    for M in range(1, 400):
        assert _cyclotomic(M) == _reference_cyclotomic(M), M
    # past the reference range: Phi_(q^k)(z) = Phi_q(z^(q^(k-1))) for a prime q
    for q, k in ((2, 10), (3, 6), (7919, 1), (101, 2)):
        step = q ** (k - 1)
        expected = [0] * (step * (q - 1) + 1)
        expected[::step] = [1] * q
        assert _cyclotomic(q ** k) == expected


def test_prime_factors_match_a_sieve():
    primes = [q for q in range(2, 600) if all(q % d for d in range(2, q))]
    for n in range(1, 600):
        for bound in (1, 2, 5, 13, 600):
            expected = []
            for q in primes:
                e = 0
                while n % q ** (e + 1) == 0:
                    e += 1
                if e and q <= bound:
                    expected.append((q, e))
            assert _prime_factors(n, bound) == expected, (n, bound)


def _combination(M, q, r):
    """Phi_M q + (z^M - 1) r as {exponent: int}, for q and r given as
    ascending coefficient lists."""
    out = {}
    for i, a in enumerate(_reference_poly_mul(_cyclotomic(M), q or [0])):
        out[i] = out.get(i, 0) + a
    for i, a in enumerate(r):
        out[i] = out.get(i, 0) - a
        out[i + M] = out.get(i + M, 0) + a
    return out


small_int_polys = st.lists(st.integers(-3, 3), max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), small_int_polys, small_int_polys,
       st.integers(0, 200), st.sampled_from((1, -1)))
def test_vanishing_at_primitive_roots_is_divisibility(M, q, r, e, sign):
    """Phi_M q + (z^M - 1) r vanishes at the primitive M-th roots, exactly;
    one more term sign z^e never does, since no monomial vanishes there."""
    f = _combination(M, q, r)
    assert vanishes_at_primitive_roots(f, M)
    f[e] = f.get(e, 0) + sign
    assert not vanishes_at_primitive_roots(f, M)


def test_vanishing_at_primitive_roots_examples():
    assert vanishes_at_primitive_roots({}, 7)
    assert vanishes_at_primitive_roots({0: 0, 5: 0}, 7)
    # 1 + z + ... + z^(M-1) vanishes at every M-th root but 1
    for M in range(2, 61):
        assert vanishes_at_primitive_roots({e: 1 for e in range(M)}, M)
        assert not vanishes_at_primitive_roots({e: 1 for e in range(M)}, 1)
    # 1 + i^2 = 0: the columns of the dual pair ({0, 2}, {0, 1}) of scale 4,
    # also when the exponents arrive unreduced mod 4
    assert vanishes_at_primitive_roots({0: 1, 2: 1}, 4)
    assert vanishes_at_primitive_roots({4 * 9: 1, 2 + 4 * 5: 1}, 4)
    assert not vanishes_at_primitive_roots({0: 1, 1: 1}, 4)
    # 1 + w^2 != 0 for w a primitive cube root: ({0, 2}, {0, 1}) is not dual at scale 3
    assert not vanishes_at_primitive_roots({0: 1, 2: 1}, 3)
