import cmath
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fractalmra.errors import PreconditionError
from fractalmra.filterbank import canonical_lowpass, pairing
from fractalmra.ifs import DigitSystem
from fractalmra.laurent import LaurentPolynomial, constant, monomial, one
from fractalmra.measure import classify_support
from fractalmra.scalars import Scalar
from fractalmra.transfer import (
    TransferOperator,
    _difference_counts,
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


@st.composite
def _filters(draw):
    """A filter whose coefficients come from a pool of 1-8 values, so they
    repeat or are distinct, rational (d = 1) or in Q(sqrt d)."""
    d = draw(st.sampled_from((1, 2, 3, 5)))
    pool = draw(st.lists(st.builds(
        lambda a, den, b: Scalar(Fraction(a, den), b, d),
        st.integers(-3, 3), st.integers(1, 3), st.integers(-2, 2),
    ), min_size=1, max_size=8))
    return LaurentPolynomial(draw(st.dictionaries(
        st.integers(-12, 12), st.sampled_from(pool), max_size=12)))


@settings(max_examples=200, deadline=None)
@given(m=_filters())
def test_weight_from_filter_matches_the_laurent_product(m):
    """Grouping the coefficients by value gives |m|^2 = m(z^-1) m(z), the
    full Laurent product."""
    assert weight_from_filter(m) == m.compose_power(-1) * m


INDEX_SETS = st.sets(st.integers(-400, 400), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(INDEX_SETS, INDEX_SETS)
@example({0}, {0})
@example({7}, {-3, 9})
@example(set(range(300)), set(range(-5, 300)))  # counts past 255: two-byte slots
@example({0, 10 ** 9 - 1}, {0, 10 ** 9 - 1})  # far more slots than pairs
def test_difference_counts_match_the_counter(js, ks):
    """The Kronecker product's slots count each difference y - x as the
    pairwise Counter does, singletons, wide slots and sparse sets included."""
    js, ks = sorted(js), sorted(ks, reverse=True)
    assert _difference_counts(js, ks) == Counter(y - x for x in js for y in ks)


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
    assert op.peripheral == (1, False)
    assert block.fixes_constant


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
    assert op.peripheral[0] == 1
    assert block.fixes_constant


def test_peripheral_verdicts_of_the_stretched_haar_filter():
    """(1 + z^3)/sqrt2 at N = 2: a 7x7 block whose eigenvalue 1 is double,
    next to the eigenvalue -1 of the orbit {1/3, 2/3}."""
    op = TransferOperator.from_filter(LaurentPolynomial({0: R2, 3: R2}), 2)
    assert op.block_halfwidth == 3
    assert op.peripheral == (2, True)
    diagnostics = classify_support(op, 8).diagnostics
    assert diagnostics["eigenvalue_one_multiplicity"] == 2
    assert diagnostics["has_other_peripheral"] is True
    assert diagnostics["eigenvalue_one_simple_exact"] is False


@pytest.mark.parametrize("weight,condition", [
    ({0: 1, 1: 5}, "column sums <= 1"),  # normalized, with eigenvalue 5
    ({-1: -HALF, 0: 1, 1: -HALF}, "rational nonnegative entries"),
    ({0: 1, 2: R2}, "rational nonnegative entries"),
])
def test_peripheral_verdicts_refuse_blocks_out_of_scope(weight, condition):
    op = TransferOperator(2, LaurentPolynomial(weight))
    with pytest.raises(PreconditionError, match=condition):
        op.peripheral


def library_filters():
    """p^(-1/2) sum_{a in A} z^a for N <= 4 and every A containing 0 with
    digits in [0, 3N) of distinct residues mod N: 84 filters."""
    for N in (2, 3, 4):
        for size in range(1, N + 1):
            for residues in itertools.combinations(range(1, N), size - 1):
                for lifts in itertools.product(range(3), repeat=size - 1):
                    digits = (0, *(r + N * j for r, j in zip(residues, lifts)))
                    c = Scalar.inv_sqrt(size)
                    yield N, LaurentPolynomial({a: c for a in digits})


def test_peripheral_verdicts_match_float_eigenvalues():
    filters = list(library_filters())
    assert len(filters) == 84
    nontrivial = 0
    for N, m0 in filters:
        op = TransferOperator.from_filter(m0, N)
        ev = np.linalg.eigvals(np.array([[float(x) for x in row] for row in op.block]))
        at_one = np.abs(ev - 1) <= 1e-9
        other = bool(np.any(~at_one & (np.abs(np.abs(ev) - 1) <= 1e-9)))
        assert op.peripheral == (int(at_one.sum()), other), (N, m0)
        nontrivial += op.peripheral != (1, False)
    assert nontrivial == 5


def test_haar_average_examples():
    # the step with unit weight keeps the exponents divisible by N, N j -> j
    def average(N, f):
        return TransferOperator(N, one()).apply(f)

    assert average(3, monomial(6)) == monomial(2)
    assert average(3, monomial(1)).is_zero()
    assert average(5, constant(5)) == constant(5)
    assert average(2, monomial(-4) + monomial(-3, 2) + monomial(2, 3)) == (
        monomial(-2) + monomial(1, 3)
    )


def _product_then_filter(N: int, W: LaurentPolynomial, f: LaurentPolynomial) -> LaurentPolynomial:
    """The transfer step by its definition: expand W f in full, keep the
    exponents divisible by N and map N j to j."""
    return LaurentPolynomial({k // N: v for k, v in (W * f).coeffs.items() if k % N == 0})


@st.composite
def _polynomials_in_one_field(draw, count):
    d = draw(st.sampled_from((2, 3, 5, 6, 7)))
    scalar = st.builds(
        lambda a, den, b: Scalar(Fraction(a, den), b, d),
        st.integers(-3, 3), st.integers(1, 3), st.integers(-2, 2),
    )
    poly = st.dictionaries(st.integers(-12, 12), scalar, max_size=6).map(LaurentPolynomial)
    return [draw(poly) for _ in range(count)]


@settings(max_examples=150, deadline=None)
@given(N=st.integers(2, 7), polys=_polynomials_in_one_field(4))
def test_transfer_step_matches_product_then_filter(N, polys):
    """apply reads W by residue and pairing is the step with weight m(z^-1);
    both equal the full product with every exponent off N Z dropped, and the
    step with weight |m|^2 is the pairing <m, m f>_N."""
    W, f, m, m2 = polys
    assert TransferOperator(N, W).apply(f) == _product_then_filter(N, W, f)
    assert pairing(m, m2, N) == _product_then_filter(N, m.compose_power(-1), m2)
    assert pairing(m, m * f, N) == TransferOperator.from_filter(m, N).apply(f)


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
        f = g * g.compose_power(-1)  # nonnegative on the torus
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
