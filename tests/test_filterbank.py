import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fractalmra.errors import PreconditionError
from fractalmra.filterbank import (
    FilterBank,
    build_bank,
    canonical_lowpass,
    pairing,
    unitarity_defect,
)
from fractalmra.ifs import DigitSystem
from fractalmra.laurent import LaurentPolynomial, monomial, one, zero
from fractalmra.scalars import Scalar, _squarefree_split

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


def test_bank_and_loop_records(cantor3):
    bank = build_bank(cantor3)
    for record, name in ((bank, "scale"), (bank, "filters")):
        value = getattr(record, name)
        message = f"cannot change '{name}' of a {type(record).__name__}$"
        with pytest.raises(AttributeError, match=message):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match=message):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(PreconditionError):
        FilterBank(3, bank.filters[:2])
    for copied in (pickle.loads(pickle.dumps(bank)), copy.deepcopy(bank)):
        assert type(copied) is FilterBank
        assert (copied.scale, copied.filters) == (3, bank.filters)


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


