import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from fractalmra.errors import InvalidDigitError, PreconditionError
from fractalmra.ifs import DigitSystem, HutchinsonTransform, digit_sums, hausdorff_dimension


def test_digit_validation():
    with pytest.raises(InvalidDigitError):
        DigitSystem(3, (0, 3))
    with pytest.raises(InvalidDigitError):
        DigitSystem(3, (-1, 0))
    with pytest.raises(InvalidDigitError):
        DigitSystem(3, (0, 0, 2))
    with pytest.raises(PreconditionError):
        DigitSystem(3, ())
    with pytest.raises(PreconditionError):
        DigitSystem(1, (0,))


def test_scale_must_be_integral():
    with pytest.raises(PreconditionError, match="scale must be an integer, got 2.5"):
        DigitSystem(2.5, (0, 2))
    np = pytest.importorskip("numpy")
    system = DigitSystem(np.int64(3), (0, 2))
    assert system == DigitSystem(3, (0, 2)) and type(system.scale) is int
    assert DigitSystem(3.0, (0, 2)) == system


def test_digits_must_be_integral():
    for digits in ((0, 2.7), ("0", "2"), (0, Fraction(3, 2))):
        with pytest.raises(PreconditionError, match="digits must be integers"):
            DigitSystem(3, digits)
    np = pytest.importorskip("numpy")
    system = DigitSystem(3, (np.int64(2), 0.0))
    assert system == DigitSystem(3, (0, 2)) and all(type(d) is int for d in system.digits)


def test_digit_sums_order():
    """First letter most significant; the n-digit strings in word order."""
    assert digit_sums((0, 2), 3, 0) == [0]
    assert digit_sums((0, 2), 3, 2) == [0, 2, 6, 8]
    assert digit_sums((1, 0), 4, 2) == [5, 4, 1, 0]
    words = itertools.product((0, 1, 3), repeat=3)
    assert digit_sums((0, 1, 3), 5, 3) == [25 * a + 5 * b + c for a, b, c in words]


@given(st.integers(2, 12).flatmap(lambda N: st.tuples(
    st.just(N), st.lists(st.integers(0, N - 1), min_size=1, unique=True))))
@example((3, [2, 0]))
def test_digit_system_is_a_value(system):
    N, digits = system
    a, b = DigitSystem(N, digits), DigitSystem(N, sorted(digits, reverse=True))
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a.digits == tuple(sorted(digits)) and len({a, b}) == 1
    assert a != (N, a.digits) and (N, a.digits) != a
    assert a != DigitSystem(N + 1, digits)
    for other in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert other == a and hash(other) == hash(a)


def test_records_are_immutable(cantor3):
    for name, value in (("scale", 4), ("digits", (0, 1)), ("p", 3)):
        message = f"cannot change '{name}' of a DigitSystem$"
        with pytest.raises(AttributeError, match=message):
            setattr(cantor3, name, value)
        with pytest.raises(AttributeError, match=message):
            delattr(cantor3, name)
    assert (cantor3.scale, cantor3.digits) == (3, (0, 2))


def test_digit_system_text():
    system = DigitSystem(3, (2, 0))
    assert repr(system) == "DigitSystem(scale=3, digits=(0, 2))"
    assert str(system) == "(3,{0,2})"


def test_hausdorff_dimension_values(cantor3, cantor4):
    assert hausdorff_dimension(cantor3) == pytest.approx(0.6309297535714574, abs=0)
    assert hausdorff_dimension(cantor4) == 0.5
    assert hausdorff_dimension(DigitSystem(6, (0, 2, 4))) == pytest.approx(
        math.log(3) / math.log(6)
    )


def test_transform_normalization(cantor3):
    H = HutchinsonTransform(cantor3)
    assert H.value(0) == 1
    rng = random.Random(11)
    for _ in range(50):
        k = rng.uniform(-10, 10)
        assert abs(H.value(k)) <= 1 + 1e-12


def test_transform_refinement_identity():
    rng = random.Random(13)
    for sys in (DigitSystem(3, (0, 2)), DigitSystem(4, (0, 2)), DigitSystem(5, (0, 1, 3))):
        H = HutchinsonTransform(sys, depth=40)
        p = sys.p
        ks = [rng.uniform(-10, 10) for _ in range(50)]
        lhs = H.values(ks)
        coarse = H.values([k / sys.scale for k in ks])
        for k, left, right in zip(ks, lhs, coarse):
            m0_eval = sum(
                complex(math.cos(2 * math.pi * a * k / sys.scale),
                        math.sin(2 * math.pi * a * k / sys.scale))
                for a in sys.digits
            ) / math.sqrt(p)
            rhs = m0_eval * complex(right) / math.sqrt(p)
            assert abs(complex(left) - rhs) < 1e-12


def test_transform_zero_and_nonzero(cantor3, cantor4):
    # first factor of B(1) vanishes for the quarter-Cantor system
    assert abs(HutchinsonTransform(cantor4, depth=15).value(1)) < 1e-14
    # while the middle-third system has B(1) != 0
    assert abs(HutchinsonTransform(cantor3, depth=40).value(1)) > 0.3


def test_tail_bound_decay(cantor3):
    shallow = HutchinsonTransform(cantor3, depth=10)
    deep = HutchinsonTransform(cantor3, depth=40)
    k = 7.3
    assert abs(shallow.value(k) - deep.value(k)) <= shallow.tail_bound(k)
    assert deep.tail_bound(k) < 1e-15
