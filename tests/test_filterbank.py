import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fractalmra.errors import NotUnitaryError, PreconditionError, ScaleMismatchError
from fractalmra.filterbank import (
    FilterBank,
    LoopMatrix,
    build_bank,
    canonical_lowpass,
    connecting_matrix,
    loop_apply,
    pairing,
    unitarity_defect,
)
from fractalmra.ifs import DigitSystem
from fractalmra.laurent import LaurentPolynomial, monomial, one, zero
from fractalmra.scalars import Scalar, _squarefree_split

from conftest import random_exact_loop_matrix


R2 = Scalar.inv_sqrt(2)


def test_canonical_lowpass_examples(cantor3, cantor4, haar2):
    assert canonical_lowpass(cantor3) == LaurentPolynomial({0: R2, 2: R2})
    assert canonical_lowpass(haar2) == LaurentPolynomial({0: R2, 1: R2})
    assert canonical_lowpass(cantor4) == LaurentPolynomial({0: R2, 2: R2})


def test_lowpass_coefficient_sum_is_sqrt_p():
    for N in range(2, 7):
        for r in range(1, N + 1):
            sys = DigitSystem(N, tuple(range(r)))
            total = Scalar(0)
            for _, c in canonical_lowpass(sys).items():
                total = total + c
            assert total == Scalar(0, 1, r) if r > 1 else total == Scalar(1)


def test_build_bank_examples(cantor3, cantor4, haar2):
    bank3 = build_bank(cantor3)
    assert bank3.filters[0] == LaurentPolynomial({0: R2, 2: R2})
    assert bank3.filters[1] == monomial(1)
    assert bank3.filters[2] == LaurentPolynomial({0: R2, 2: -R2})

    bank4 = build_bank(cantor4)
    expected = {
        LaurentPolynomial({0: R2, 2: R2}),
        monomial(1),
        monomial(3),
        LaurentPolynomial({0: R2, 2: -R2}),
    }
    assert set(bank4.filters) == expected

    bank2 = build_bank(haar2)
    assert bank2.filters == (
        LaurentPolynomial({0: R2, 1: R2}),
        LaurentPolynomial({0: R2, 1: -R2}),
    )


def test_unitarity_defect_examples(cantor3, cantor4):
    assert unitarity_defect(build_bank(cantor3)) == 0.0
    assert unitarity_defect(build_bank(cantor4)) == 0.0
    bad = FilterBank(3, (canonical_lowpass(cantor3), monomial(1), monomial(2)))
    assert unitarity_defect(bad) >= 0.5
    # the largest coefficient of A A* - I = diag(-3/4, 0)
    half = LoopMatrix.diagonal([LaurentPolynomial({0: Fraction(1, 2)}), one()])
    assert half.unitarity_defect() == 0.75


def test_bank_and_loop_records(cantor3):
    bank = build_bank(cantor3)
    A = LoopMatrix.diagonal((one(),) * 3)
    for record, name in ((bank, "scale"), (bank, "filters"), (A, "scale"), (A, "entries")):
        value = getattr(record, name)
        message = f"cannot change '{name}' of a {type(record).__name__}$"
        with pytest.raises(AttributeError, match=message):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match=message):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(PreconditionError):
        FilterBank(3, bank.filters[:2])
    with pytest.raises(PreconditionError):
        LoopMatrix(3, A.entries[:2])
    with pytest.raises(PreconditionError):
        LoopMatrix(3, (A.entries[0][:2],) + A.entries[1:])
    for copied in (pickle.loads(pickle.dumps(bank)), copy.deepcopy(bank)):
        assert type(copied) is FilterBank
        assert (copied.scale, copied.filters) == (3, bank.filters)
    for copied in (pickle.loads(pickle.dumps(A)), copy.deepcopy(A)):
        assert type(copied) is LoopMatrix
        assert (copied.scale, copied.entries) == (3, A.entries)


def test_unitarity_all_systems_up_to_scale_8():
    for N in range(2, 9):
        for r in range(1, N + 1):
            for S in itertools.combinations(range(N), r):
                bank = build_bank(DigitSystem(N, S))
                assert unitarity_defect(bank) == 0.0, (N, S)


def test_pairing_examples(cantor3):
    m0 = canonical_lowpass(cantor3)
    assert pairing(m0, m0, 3) == one()
    assert pairing(m0, monomial(3) * m0, 3) == monomial(1)
    assert pairing(monomial(1), one(), 5) == zero()


def test_pairing_refuses_scale_below_two():
    # the pairing is the transfer step of scale N, which needs N >= 2
    for N in (1, 0, -1):
        with pytest.raises(PreconditionError):
            pairing(one(), one(), N)


def test_pairing_parseval():
    rng = random.Random(17)
    for _ in range(10):
        coeffs = {rng.randint(-5, 5): Fraction(rng.randint(-3, 3), 2) for _ in range(4)}
        m = LaurentPolynomial(coeffs)
        N = rng.choice([2, 3, 4])
        norm_sq = sum((c * c for c in m.coeffs.values()), Scalar(0))
        assert pairing(m, m, N)[0] == norm_sq


def test_loop_apply_examples(cantor3, haar2):
    bank = build_bank(cantor3)
    ident = LoopMatrix.diagonal((one(),) * 3)
    assert loop_apply(ident, bank).filters == bank.filters

    A = LoopMatrix.diagonal((monomial(1), monomial(0), monomial(0)))
    out = loop_apply(A, bank)
    assert out.filters[0] == monomial(3) * bank.filters[0]
    assert out.filters[1:] == bank.filters[1:]
    assert unitarity_defect(out) == 0.0

    # constant rational rotation on the Haar bank stays exactly unitary
    c, s = Fraction(3, 5), Fraction(4, 5)
    rot = LoopMatrix(
        2,
        (
            (monomial(0, c), monomial(0, s)),
            (monomial(0, -s), monomial(0, c)),
        ),
    )
    rotated = loop_apply(rot, build_bank(haar2))
    assert unitarity_defect(rotated) == 0.0

    with pytest.raises(ScaleMismatchError):
        loop_apply(LoopMatrix.diagonal((one(),) * 2), bank)


def test_connecting_matrix_examples(cantor3, haar2):
    bank = build_bank(cantor3)
    ident = connecting_matrix(bank, bank)
    for i in range(3):
        for j in range(3):
            assert ident.entries[i][j] == (one() if i == j else zero())

    shifted = loop_apply(LoopMatrix.diagonal((monomial(1), monomial(0), monomial(0))), bank)
    A = connecting_matrix(bank, shifted)
    assert A.entries[0][0] == monomial(1)

    hbank = build_bank(haar2)
    negated = FilterBank(2, tuple(f * (-1) for f in hbank.filters))
    A2 = connecting_matrix(hbank, negated)
    for i in range(2):
        for j in range(2):
            assert A2.entries[i][j] == (monomial(0, -1) if i == j else zero())

    bad = FilterBank(3, (canonical_lowpass(cantor3), monomial(1), monomial(2)))
    with pytest.raises(NotUnitaryError):
        connecting_matrix(bank, bad)


def test_connecting_matrix_decides_unitarity_exactly(cantor3):
    """A defect below the smallest double still makes the bank not unitary:
    the float defect underflows to 0.0, the exact check does not."""
    bank = build_bank(cantor3)
    m0, *rest = bank.filters
    bad = FilterBank(3, (m0 * Scalar(1 + Fraction(1, 10 ** 400)), *rest))
    assert unitarity_defect(bad) == 0.0
    with pytest.raises(NotUnitaryError, match="second bank has unitarity defect 0.000e"):
        connecting_matrix(bank, bad)


def test_loop_round_trip_exact(cantor3, haar2, cantor4):
    rng = random.Random(23)
    for sys in (cantor3, haar2, cantor4):
        bank = build_bank(sys)
        for _ in range(5):
            A = random_exact_loop_matrix(sys.scale, rng)
            assert A.unitarity_defect() == 0.0
            transformed = loop_apply(A, bank)
            assert unitarity_defect(transformed) == 0.0
            back = connecting_matrix(bank, transformed)
            assert back.entries == A.entries


def test_loop_round_trip_numeric():
    """The round trip on banks with p >= 3, whose detail filters carry
    irrational Householder entries (Q(sqrt 3), Q(sqrt 5)) or rational ones
    (p = 4), is exact as well."""
    rng = random.Random(5)
    for sys in (DigitSystem(3, (0, 1, 2)), DigitSystem(4, (0, 1, 3)),
                DigitSystem(5, (0, 2, 3, 4)), DigitSystem(4, (0, 1, 2, 3))):
        bank = build_bank(sys)
        for _ in range(3):
            A = random_exact_loop_matrix(sys.scale, rng)
            transformed = loop_apply(A, bank)
            assert unitarity_defect(transformed) == 0.0
            assert connecting_matrix(bank, transformed).entries == A.entries


@st.composite
def digit_systems(draw):
    N = draw(st.integers(2, 12))
    digits = draw(st.sets(st.integers(0, N - 1), min_size=1))
    return DigitSystem(N, tuple(sorted(digits)))


@settings(max_examples=150, deadline=None)
@given(digit_systems())
def test_householder_banks_are_exactly_unitary(sys):
    """Every bank is exactly unitary: its low-pass and detail coefficient
    rows form a symmetric orthogonal p x p matrix over Q(sqrt p), and the
    gap monomials fill the other residues."""
    bank = build_bank(sys)
    assert unitarity_defect(bank) == 0.0
    p, digits = sys.p, sys.digits
    rows = [bank.filters[0], *bank.filters[1 + len(sys.gap_digits):]]
    H = [[f[a] for a in digits] for f in rows]
    assert all(set(f.coeffs) <= set(digits) for f in rows)
    for i in range(p):
        for j in range(p):
            assert H[i][j] == H[j][i]
            dot = sum((H[i][k] * H[j][k] for k in range(p)), Scalar(0))
            assert dot == (1 if i == j else 0), (i, j)
    squarefree = _squarefree_split(p)[1]
    assert {c.d for f in bank.filters for c in f.coeffs.values()} <= {0, squarefree}
    if p == 2:
        a0, a1 = digits
        r2 = Scalar.inv_sqrt(2)
        assert rows[1] == LaurentPolynomial({a0: r2, a1: -r2})


