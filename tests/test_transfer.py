import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fractalmra.filterbank import canonical_lowpass
from fractalmra.ifs import DigitSystem
from fractalmra.laurent import LaurentPolynomial, constant, monomial, one
from fractalmra.scalars import Scalar
from fractalmra.transfer import (
    TransferOperator,
    apply_haar_average,
    spectral_block,
    weight_from_filter,
)

from conftest import random_polynomial

R2 = Scalar.inv_sqrt(2)
HALF = Scalar(Fraction(1, 2))


def brute_force_transfer(weight: LaurentPolynomial, N: int, f: LaurentPolynomial, z: complex) -> complex:
    """(1/N) sum over the N-th roots w of z of W(w) f(w), evaluated directly."""
    root = z ** (1.0 / N)
    total = 0j
    for j in range(N):
        w = root * cmath.exp(2j * math.pi * j / N)
        total += weight(w) * f(w)
    return total / N


def test_weight_from_filter_examples(cantor3, haar2):
    W = weight_from_filter(canonical_lowpass(cantor3))
    assert W == LaurentPolynomial({-2: HALF, 0: 1, 2: HALF})
    assert weight_from_filter(monomial(5)) == one()
    Wh = weight_from_filter(canonical_lowpass(haar2))
    assert Wh == LaurentPolynomial({-1: HALF, 0: 1, 1: HALF})


def test_apply_transfer_examples(cantor3):
    op = TransferOperator.from_filter(canonical_lowpass(cantor3), 3)
    assert op.apply(one()) == one()
    assert op.apply(monomial(2)) == constant(HALF)
    # R(z) halves: the only aligned index is W^(2) against exponent 1
    assert op.apply(monomial(1)) == LaurentPolynomial({1: HALF})


def test_apply_transfer_against_root_sampling():
    rng = random.Random(31)
    for sys in (DigitSystem(3, (0, 2)), DigitSystem(4, (0, 2)), DigitSystem(2, (0, 1))):
        op = TransferOperator.from_filter(canonical_lowpass(sys), sys.scale)
        for _ in range(5):
            f = random_polynomial(rng)
            rf = op.apply(f)
            for t in np.linspace(0.05, 0.95, 7):
                z = cmath.exp(2j * math.pi * t)
                expected = brute_force_transfer(op.weight, sys.scale, f, z)
                assert rf(z) == pytest.approx(expected, abs=1e-10)


def test_iterate_weight_examples(cantor3, haar2):
    op = TransferOperator.from_filter(canonical_lowpass(cantor3), 3)
    assert op.iterate_weight(1) == op.weight
    W2 = op.iterate_weight(2)
    assert W2[0] == Scalar(1)
    assert W2[2] == HALF
    assert W2[6] == HALF
    assert W2[8] == Scalar(Fraction(1, 4))
    # Haar second product: Fejer coefficients 1 - |n|/4
    oph = TransferOperator.from_filter(canonical_lowpass(haar2), 2)
    Wh2 = oph.iterate_weight(2)
    assert Wh2[1] == Scalar(Fraction(3, 4))
    assert Wh2[0] == Scalar(1)
    assert Wh2[3] == Scalar(Fraction(1, 4))


def test_iterate_weight_matches_direct_product(cantor3):
    op = TransferOperator.from_filter(canonical_lowpass(cantor3), 3)
    expected = op.weight
    for j in range(1, 4):
        expected = expected * op.weight.compose_power(3 ** j)
    assert op.iterate_weight(4) == expected


def test_single_coefficient_iterates_match_expansion(cantor3, haar2):
    for sys, N in ((cantor3, 3), (haar2, 2)):
        op = TransferOperator.from_filter(canonical_lowpass(sys), N)
        full = op.iterate_weight(5)
        for idx in range(-20, 21):
            assert op._iterate_coefficient(5, idx) == full[idx]


def test_spectral_block_cantor3(cantor3):
    op = TransferOperator.from_filter(canonical_lowpass(cantor3), 3)
    block = spectral_block(op)
    assert block.halfwidth == 1
    eigs = sorted(block.eigenvalues.real)
    assert np.allclose(eigs, [0.5, 0.5, 1.0], atol=1e-12)
    assert np.allclose(block.eigenvalues.imag, 0, atol=1e-12)
    assert block.eigenvalue_one_multiplicity == 1
    assert not block.has_other_peripheral
    assert block.fixes_constant
    assert block.eigenvalue_one_simple_exact is True


def test_spectral_block_constant_weight():
    op = TransferOperator(4, one())
    block = spectral_block(op)
    assert block.halfwidth == 0
    assert block.dimension == 1
    assert np.allclose(block.eigenvalues, [1.0])


def test_spectral_block_haar(haar2):
    op = TransferOperator.from_filter(canonical_lowpass(haar2), 2)
    block = spectral_block(op)
    assert block.halfwidth == 1
    assert block.eigenvalue_one_multiplicity == 1
    assert block.fixes_constant


def test_haar_average_examples():
    assert apply_haar_average(3, monomial(6)) == monomial(2)
    assert apply_haar_average(3, monomial(1)).is_zero()
    assert apply_haar_average(5, constant(5)) == constant(5)
    assert apply_haar_average(2, monomial(-4) + monomial(-3, 2) + monomial(2, 3)) == (
        monomial(-2) + monomial(1, 3)
    )


def test_degree_contraction(cantor3):
    rng = random.Random(37)
    op = TransferOperator.from_filter(canonical_lowpass(cantor3), 3)
    degW = op.weight.degree()
    for _ in range(10):
        f = random_polynomial(rng, span=9)
        rf = op.apply(f)
        assert rf.degree() * 3 <= f.degree() + degW
    # repeated application falls into the invariant block and stays
    f = monomial(9)
    for _ in range(4):
        f = op.apply(f)
    assert f.degree() <= op.block_halfwidth
    assert op.apply(f).degree() <= op.block_halfwidth


def test_normalization_transport(cantor3):
    rng = random.Random(41)
    op = TransferOperator.from_filter(canonical_lowpass(cantor3), 3)
    for _ in range(10):
        f = random_polynomial(rng)
        expected = Scalar(0)
        for b, fb in f.coeffs.items():
            expected = expected + op.weight[-b] * fb
        assert op.apply(f)[0] == expected


def test_positivity_on_samples(cantor3):
    rng = random.Random(43)
    op = TransferOperator.from_filter(canonical_lowpass(cantor3), 3)
    ts = np.arange(64) / 64
    for _ in range(5):
        g = random_polynomial(rng)
        f = g * g.conj_reciprocal()  # nonnegative on the torus
        assert np.all(f.eval_turns(ts).real >= -1e-10)
        rf = op.apply(f)
        assert np.all(rf.eval_turns(ts).real >= -1e-10)


def test_normalization_defect():
    op = TransferOperator.from_filter(
        LaurentPolynomial({0: Fraction(1, 2), 1: Fraction(1, 2)}), 2
    )
    assert op.normalization_defect() == 0.5


def test_fixes_constant_is_exact(cantor3):
    """R(1) = 1 is decided exactly: a deviation far below any float
    tolerance still counts."""
    assert TransferOperator.from_filter(canonical_lowpass(cantor3), 3).fixes_constant
    tiny = Fraction(1, 10 ** 20)
    op = TransferOperator(2, LaurentPolynomial({0: 1 + tiny}))
    assert not op.fixes_constant
    assert 0 < op.normalization_defect() < 1e-15
    assert not spectral_block(op).fixes_constant
