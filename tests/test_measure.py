import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractalmra.errors import CapExceededError, NotNormalizedError, PreconditionError
from fractalmra.filterbank import canonical_lowpass
from fractalmra.ifs import DigitSystem
from fractalmra.laurent import LaurentPolynomial, monomial, one
from fractalmra.measure import (
    STABILIZED,
    MomentTable,
    WienerRow,
    _divisors_with_small_totient,
    _stabilization_thresholds,
    classify_support,
    find_cycles,
    moment,
    moment_table,
    riesz_samples,
    wiener_profile,
)
from fractalmra.scalars import Scalar
from fractalmra.transfer import TransferOperator, weight_from_filter

HALF = Scalar(Fraction(1, 2))
R2 = Scalar.inv_sqrt(2)


@pytest.fixture(scope="module")
def cantor3_op():
    return TransferOperator.from_filter(canonical_lowpass(DigitSystem(3, (0, 2))), 3)


@pytest.fixture(scope="module")
def cantor3_table(cantor3_op):
    return moment_table(cantor3_op, 729)


def stretched_haar():
    return LaurentPolynomial({0: R2, 3: R2})


def test_moment_examples(cantor3_op):
    assert moment(cantor3_op, 0).value == Scalar(1)
    assert moment(cantor3_op, 0).status == STABILIZED
    assert moment(cantor3_op, 1).value == Scalar(0)
    assert moment(cantor3_op, 4).value == Scalar(Fraction(1, 4))


def test_moment_oracle_full_expansion(cantor3_op):
    """Independent oracle: fully expanded sixth product weight."""
    full = cantor3_op.iterate_weight(6)
    for n in range(-8, 9):
        assert moment(cantor3_op, n).value == full[-n]


def test_moment_table_recursion_exact(cantor3_table):
    t = cantor3_table
    assert t.value(0) == Scalar(1)
    assert t.value(1) == Scalar(0)
    for n in range(-243, 244):
        assert t.value(3 * n) == t.value(n)
    for n in range(-242, 243):
        assert t.value(3 * n + 2) == t.value(n) * HALF
        assert t.value(3 * n - 2) == t.value(n) * HALF
    for k in range(-121, 121):
        assert t.value(2 * k + 1).is_zero()
    assert all(e.status == STABILIZED for e in t.rows())


def test_moment_table_small_values(cantor3_table):
    expected = {0: 1, 1: 0, 2: Fraction(1, 2), 3: 0, 4: Fraction(1, 4),
                5: 0, 6: Fraction(1, 2), 7: 0, 8: Fraction(1, 4)}
    for n, v in expected.items():
        assert cantor3_table.value(n) == Scalar(v)
        assert cantor3_table.value(-n) == Scalar(v)


def test_moment_symmetry_and_bound(cantor3_table):
    for e in cantor3_table.rows():
        assert cantor3_table.value(-e.n) == e.value
        assert abs(float(e.value)) <= 1 + 1e-12


def test_haar_moments_converge_to_one(haar2):
    op = TransferOperator.from_filter(canonical_lowpass(haar2), 2)
    t = moment_table(op, 2)
    for n in range(3):
        assert t.value(n) == Scalar(1)
    assert [e.n for e in t.rows()] == [-2, -1, 0, 1, 2]
    assert all(e.status == STABILIZED for e in t.rows())


def test_unit_weight_moments():
    op = TransferOperator(4, one())
    t = moment_table(op, 3)
    assert t.value(0) == Scalar(1)
    for n in range(1, 4):
        assert t.value(n).is_zero()


def test_invariance_under_transfer(cantor3_op, cantor3_table):
    for m in range(-20, 21):
        rf = cantor3_op.apply(monomial(m))
        lhs = Scalar(0)
        for j, c in rf.coeffs.items():
            lhs = lhs + c * cantor3_table.value(j)
        assert abs(float(lhs) - float(cantor3_table.value(m))) <= 1e-10


def test_gk_gram(cantor3_table):
    """<g_k | g_l> = (3/4) delta with g_k(z) = z^(2*3^k) - 1/2, from moments."""
    def gram(k, l):
        a, b = 2 * 3 ** k, 2 * 3 ** l
        return (
            cantor3_table.value(b - a)
            - cantor3_table.value(b) * HALF
            - cantor3_table.value(-a) * HALF
            + Scalar(Fraction(1, 4))
        )
    for k in range(6):
        for l in range(6):
            assert gram(k, l) == (Scalar(Fraction(3, 4)) if k == l else Scalar(0))


def test_wiener_profile(cantor3_table):
    profile = wiener_profile(cantor3_table, 729)
    rows = profile.rows
    assert rows[2].partial_sum == Scalar(Fraction(5, 4))
    # doubling chain s_{3^(n+1)} <= (5/2) s_{3^n}
    for n in range(5):
        assert rows[3 ** (n + 1)].partial_sum <= Scalar(Fraction(5, 2)) * rows[3 ** n].partial_sum
    # atom bound s_k/k <= (5/6)^floor(log3 k) * 5/2
    for k in range(1, 730):
        e = 0
        while 3 ** (e + 1) <= k:
            e += 1
        bound = Scalar(Fraction(5, 6) ** e * Fraction(5, 2))
        assert rows[k].ratio <= bound


def test_wiener_unit_weight():
    op = TransferOperator(3, one())
    profile = wiener_profile(moment_table(op, 64), 64)
    for row in profile.rows:
        assert row.partial_sum == Scalar(1)
    assert float(profile.rows[64].ratio) == pytest.approx(1 / 64)


def canonical_systems(max_scale):
    for N in range(2, max_scale + 1):
        for p in range(N):
            for rest in itertools.combinations(range(1, N), p):
                yield N, (0,) + rest


def assert_invariant(op, table, R):
    """nu^(b) = sum_m W^(Nm - b) nu^(m) exactly wherever the table covers m."""
    for b in range(-R, R + 1):
        terms = [
            (w, (b + k) // op.scale)
            for k, w in op.weight.coeffs.items()
            if (b + k) % op.scale == 0
        ]
        if all(abs(m) <= R for _, m in terms):
            assert sum((w * table.value(m) for w, m in terms), Scalar(0)) == table.value(b)


def test_moments_solve_invariance_on_canonical_systems():
    """Every canonical system with N <= 7 and 0 in S, range 64: the table solves
    the invariance equation exactly, and each row with a stabilization
    threshold t equals the product-weight iterate t + 1."""
    systems = list(canonical_systems(7))
    assert len(systems) == 126
    for N, S in systems:
        op = TransferOperator.from_filter(canonical_lowpass(DigitSystem(N, S)), N)
        table = moment_table(op, 64)
        assert table.value(0) == Scalar(1)
        assert_invariant(op, table, 64)
        thresholds = _stabilization_thresholds(op, 64)
        for e in table.rows():
            t = thresholds[abs(e.n)]
            if t is not None:
                assert e.iterations == max(t + 1, 2)
                assert e.value == op._iterate_coefficient(t + 1, -e.n)
            else:
                assert e.iterations == 0


def reference_moments(op, R):
    """The moment recursion as first written: every weight coefficient tested
    for N | b + k, zero moments included."""
    basis = op.fixed_vectors
    D = op.block_halfwidth
    nu = {b - D: x / basis[0][D] for b, x in enumerate(basis[0])}
    for b in range(D + 1, R + 1):
        total = Scalar(0)
        for k, w in op.weight.coeffs.items():
            if (b + k) % op.scale == 0:
                total = total + w * nu[(b + k) // op.scale]
        nu[b] = nu[-b] = total
    return nu


def reference_wiener(values, K):
    """The Wiener profile of the moments `values` as first written: one
    Scalar product per ratio."""
    rows = []
    s = Scalar(0)
    for k in range(K + 1):
        v = values[k]
        s = s + v * v
        rows.append(WienerRow(k, s, s * Scalar(Fraction(1, k)) if k else None))
    return rows


def scalar_fields(x):
    return None if x is None else (x.a, x.b, x.d)


def assert_same_wiener(table, K):
    rows, expected = wiener_profile(table, K).rows, reference_wiener(table.values, K)
    assert list(rows) == expected
    for row, ref in zip(rows, expected):
        assert row.k == ref.k
        assert scalar_fields(row.partial_sum) == scalar_fields(ref.partial_sum)
        assert scalar_fields(row.ratio) == scalar_fields(ref.ratio)


def test_residue_recursion_and_wiener_match_the_first_form():
    """Every canonical system with N <= 7, range 64: the residue-bucketed
    recursion and the one-Fraction ratios give the same values, field by field."""
    systems = list(canonical_systems(7))
    assert len(systems) == 126
    zero_moments = 0
    for N, S in systems:
        op = TransferOperator.from_filter(canonical_lowpass(DigitSystem(N, S)), N)
        table = moment_table(op, 64)
        nu = reference_moments(op, 64)
        assert sorted(e.n for e in table.rows()) == sorted(nu)
        assert len(table.values) == len(table.iterations) == 65
        for n, value in nu.items():
            assert table.value(n) == value
            assert scalar_fields(table.value(n)) == scalar_fields(value)
        zero_moments += sum(v.is_zero() for v in nu.values())
        assert_same_wiener(table, 64)
    assert zero_moments  # the zero-skipping branch runs


def test_wiener_profile_off_the_rationals():
    """Q(sqrt2) moments make the partial sums irrational; zeros sit in
    between.  The hand tables are over den 42: 1, 1/2 + sqrt2, 0, -sqrt2/3,
    0, 2/7, and 1, 0, 1/2, 0, 0."""
    table = MomentTable([42, 21, 0, 0, 0, 12], [0, 42, 0, -14, 0, 0], 2, 42, [0] * 6)
    rows = wiener_profile(table, 5).rows
    assert not rows[1].partial_sum.is_rational
    assert_same_wiener(table, 5)
    assert_same_wiener(MomentTable([42, 0, 21, 0, 0], [0] * 5, 0, 42, [0] * 5), 4)


def exact_strs(row):
    return row.k, row.partial_sum.exact_str(), row.ratio and row.ratio.exact_str()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7).flatmap(lambda N: st.tuples(
    st.just(N), st.sets(st.integers(0, N - 1), min_size=1),
)), st.integers(0, 64), st.data())
def test_integer_columns_read_as_the_first_form(system, R, data):
    """The Scalars that `moment_table` builds from its integer columns on a
    read of `values`, `value(n)` or `rows()`, and the Wiener rows summed from
    those columns, equal the first-form recursion and Wiener profile by ==
    and by exact_str."""
    N, S = system
    op = TransferOperator.from_filter(canonical_lowpass(DigitSystem(N, tuple(sorted(S)))), N)
    table = moment_table(op, R)
    nu = reference_moments(op, R)
    expected = [nu[n] for n in range(R + 1)]
    assert table.values == expected
    assert [v.exact_str() for v in table.values] == [v.exact_str() for v in expected]
    assert [(e.n, e.value.exact_str()) for e in table.rows()] == [
        (n, nu[n].exact_str()) for n in range(-R, R + 1)]
    assert [e.value for e in table.rows()] == [nu[n] for n in range(-R, R + 1)]
    K = data.draw(st.integers(0, R))
    rows = wiener_profile(table, K).rows
    reference = reference_wiener(expected, K)
    assert list(rows) == reference
    assert [exact_strs(row) for row in rows] == [exact_strs(row) for row in reference]


def recursion_depth(op, b):
    """Steps of b -> (b + D(N - 1)) // N from b into the block [-D, D]."""
    D, N, steps = op.block_halfwidth, op.scale, 0
    while b > D:
        b, steps = (b + D * (N - 1)) // N, steps + 1
    return steps


# L W^(k) over Q(sqrt2): rational and sqrt2 numerators and a denominator per lag
SQRT2_COEFFICIENT = st.tuples(st.integers(-4, 4), st.integers(-3, 3), st.sampled_from((2, 3, 5, 7, 12)))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4).flatmap(lambda N: st.tuples(
        st.just(N),
        st.dictionaries(st.integers(1, 6).filter(lambda k: k % N), SQRT2_COEFFICIENT,
                        min_size=1, max_size=4),
    )),
    st.integers(0, 40),
)
def test_integer_recursion_matches_the_first_form_off_the_rationals(weight, R):
    """Even Q(sqrt2) weights with unequal denominators, W^(0) = 1 and no other
    lag divisible by N (so R(1) = 1): `moment_table` and `wiener_profile` equal
    the first-form oracles field by field, at ranges inside the block too.
    The denominator of nu^(b) divides lcm(block denominators) L^depth(b), so
    each recursion step divides its integer sum by L exactly."""
    N, lags = weight
    coeffs = {0: Scalar(1)}
    for k, (a, b, den) in lags.items():
        coeffs[k] = coeffs[-k] = Scalar(Fraction(a, den), Fraction(b, den), 2)
    op = TransferOperator(N, LaurentPolynomial({k: c for k, c in coeffs.items() if c}))
    try:
        table = moment_table(op, R)
    except PreconditionError:  # eigenvalue 1 not simple, or nu^(0) = 0
        return
    nu = reference_moments(op, R)
    for n in range(-R, R + 1):
        assert scalar_fields(table.value(n)) == scalar_fields(nu[n]), n
    assert_same_wiener(table, R)
    D = op.block_halfwidth
    block_den = math.lcm(*(nu[b].den for b in range(D + 1)))
    L = math.lcm(*(w.den for w in op.weight.coeffs.values()))
    for b in range(R + 1):
        assert block_den * L ** recursion_depth(op, b) % table.value(b).den == 0, b


def test_two_radicands_are_refused():
    r2, r3 = Scalar(0, Fraction(1, 4), 2), Scalar(0, Fraction(1, 5), 3)
    with pytest.raises(ValueError, match="different fields"):
        moment_table(TransferOperator(3, LaurentPolynomial({0: Scalar(1), 1: r2, -1: r2,
                                                             2: r3, -2: r3})), 8)


def reference_threshold(op, idx):
    """The per-index stabilization rule, kept as the reference for the
    one-pass `_stabilization_thresholds`."""
    W = op.weight
    if W[0] != Scalar(1):
        return None
    nonzero = [abs(k) for k in W.coeffs if k]
    if not nonzero:
        return 1
    j_min = min(nonzero)
    deg = W.degree()
    N = op.scale
    c = Fraction(deg, N - 1)
    if j_min < c:
        return None
    if j_min == c:
        return 1 if abs(idx) < c else None
    k = 1
    while j_min * N ** k - op.support_bound(k) <= abs(idx):
        k += 1
    return k


def test_one_pass_thresholds_match_the_per_index_rule():
    """Every canonical system with N <= 7, single digits (W = 1), and two
    weights outside the canonical family: W^(0) != 1, and j_min < deg W/(N-1)."""
    R = 300
    ops = [
        TransferOperator.from_filter(canonical_lowpass(DigitSystem(N, S)), N)
        for N, S in [*canonical_systems(7), (2, (0,)), (7, (0,))]
    ]
    q = Scalar(Fraction(1, 4))
    ops += [
        TransferOperator(2, LaurentPolynomial({0: HALF, 1: HALF})),
        TransferOperator(2, LaurentPolynomial({0: Scalar(1), 1: q, -1: q, 3: q, -3: q})),
    ]
    kinds = set()
    for op in ops:
        thresholds = _stabilization_thresholds(op, R)
        assert len(thresholds) == R + 1
        for n in range(-R, R + 1):
            assert thresholds[abs(n)] == reference_threshold(op, n), (op.scale, op.weight, n)
        kinds.add(tuple(sorted({t is None for t in thresholds})))
    # rows with finite thresholds only, with none, and with both
    assert kinds == {(False,), (True,), (False, True)}


def test_full_digit_sets_give_the_dirac_mass():
    for N in (2, 3):
        op = TransferOperator.from_filter(canonical_lowpass(DigitSystem(N, tuple(range(N)))), N)
        assert all(e.value == Scalar(1) for e in moment_table(op, 64).rows())


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9).flatmap(
    lambda N: st.tuples(st.just(N), st.sets(st.integers(1, N - 1)))
))
def test_moment_table_properties(system):
    N, rest = system
    op = TransferOperator.from_filter(canonical_lowpass(DigitSystem(N, (0, *sorted(rest)))), N)
    table = moment_table(op, 40)
    for e in table.rows():
        assert table.value(-e.n) == e.value
        assert e.value * e.value <= Scalar(1)
    assert_invariant(op, table, 40)


def test_moment_solve_refuses_undecidable_weights():
    with pytest.raises(PreconditionError, match="not simple"):
        moment_table(TransferOperator.from_filter(stretched_haar(), 2), 4)
    # unnormalized: a one-dimensional fixed space that vanishes at 0
    c, d = Scalar(Fraction(-3, 2)), Scalar(1)
    vanishing = LaurentPolynomial({-2: c, -1: d, 0: c, 1: d, 2: c})
    with pytest.raises(PreconditionError, match=r"nu\^\(0\) = 0"):
        moment_table(TransferOperator(2, vanishing), 4)
    # not even: one fixed vector on [-3, 3], but nu^(-n) != nu^(n), so the
    # recursion over n >= 0 would miss the invariance equation at n = -4..-7
    uneven = LaurentPolynomial({0: Scalar(1), 1: HALF, -1: Scalar(Fraction(1, 4)),
                                3: Scalar(Fraction(1, 8))})
    op = TransferOperator(2, uneven)
    assert len(op.fixed_vectors) == 1
    with pytest.raises(PreconditionError, match="not even"):
        moment_table(op, 8)


def test_riesz_samples():
    t, values = riesz_samples(3, 16)
    assert t[0] == 0.0
    assert values[0] == pytest.approx(2 ** 3 / (2 * math.pi))
    _, one_sample = riesz_samples(1, 4)
    # t = pi/2: 1 + cos(3 pi) = 0
    assert one_sample[1] == pytest.approx(0.0, abs=1e-12)
    # Riemann mass: mean * 2 pi = 1 (no aliasing on a 3^8 grid at depth 6)
    _, deep = riesz_samples(6, 3 ** 8)
    mass = sum(deep) * 2 * math.pi / 3 ** 8
    assert mass == pytest.approx(1.0, abs=5e-2)


def test_find_cycles_examples(cantor3, haar2):
    haar_report = find_cycles(TransferOperator.from_filter(canonical_lowpass(haar2), 2), 8)
    assert haar_report.verdict == "CyclesFound"
    assert [c.angles for c in haar_report.cycles] == [(Fraction(0),)]
    assert haar_report.cycles[0].values[0] == pytest.approx(2.0)

    cantor_op = TransferOperator.from_filter(canonical_lowpass(cantor3), 3)
    assert find_cycles(cantor_op, 12).verdict == "NoCycles"

    stretched = find_cycles(TransferOperator.from_filter(stretched_haar(), 2), 8)
    assert [c.angles for c in stretched.cycles] == [
        (Fraction(0),),
        (Fraction(1, 3), Fraction(2, 3)),
    ]


def grid_cycles(m0, N, L, tol=1e-9):
    """Reference: scan every j/(N^l - 1), l <= L, with float weights and keep
    the orbits whose points all lie within tol of N."""
    weight = weight_from_filter(m0)
    found = {}
    for ell in range(1, L + 1):
        modulus = N ** ell - 1
        values = weight.eval_turns(np.arange(modulus) / modulus).real
        peak = np.abs(values - N) <= tol
        for j in np.flatnonzero(peak):
            orbit = [int(j)]
            while orbit[-1] * N % modulus != orbit[0]:
                orbit.append(orbit[-1] * N % modulus)
            key = frozenset(Fraction(q, modulus) for q in orbit)
            if key in found or not all(peak[q] for q in orbit):
                continue
            start = orbit.index(min(orbit))
            orbit = orbit[start:] + orbit[:start]
            found[key] = (
                tuple(Fraction(q, modulus) for q in orbit),
                tuple(float(values[q]) for q in orbit),
            )
    return sorted(found.values())


def reference_filters():
    """(m0, N, L): canonical filters of every digit set containing 0 for
    N <= 5, complete-residue filters N^(-1/2) sum z^(r + N k_r),
    (1 +- z^k)/sqrt(2), and unnormalized filters whose |m0|^2 - N has simple
    roots filling a whole cyclotomic factor (phi(M) = 2 deg W); L keeps each
    grid below 7000 points."""
    lengths = {2: 12, 3: 8, 4: 6, 5: 5}
    for N, L in lengths.items():
        for p in range(1, N + 1):
            for rest in itertools.combinations(range(1, N), p - 1):
                yield canonical_lowpass(DigitSystem(N, (0,) + rest)), N, L
    for N in (2, 3):
        for shifts in itertools.product(range(-1, 3), repeat=N - 1):
            exps = (0,) + tuple(r + N * k for r, k in zip(range(1, N), shifts))
            c = Scalar.inv_sqrt(N)
            yield LaurentPolynomial({e: c for e in exps}), N, lengths[N]
    for k in range(1, 7):
        for sign in (1, -1):
            yield LaurentPolynomial({0: R2, k: R2 * sign}), 2, 12
    for N in (2, 4, 5):  # |m0|^2 - N = N z^-1 Phi_3
        yield LaurentPolynomial({0: Scalar(0, 1, N), 1: Scalar(0, 1, N)}), N, lengths[N]
    for N in (3, 5):  # |m0|^2 - N = (N/2) z^-1 Phi_4
        c = Scalar(0, Fraction(1, 2), 2 * N)
        yield LaurentPolynomial({0: c, 1: c}), N, lengths[N]
    for N in (2, 3, 4):  # |m0|^2 - N = (4N/5) z^-2 Phi_5
        a = Scalar(0, Fraction(2, 5), 5 * N)
        yield LaurentPolynomial({0: a, 1: a * HALF, 2: a}), N, lengths[N]


def test_find_cycles_matches_float_grid_scan():
    with_cycles = 0
    for m0, N, L in reference_filters():
        expected = grid_cycles(m0, N, L)
        for length in range(1, L + 1):
            report = find_cycles(TransferOperator.from_filter(m0, N), length)
            # the grid's float weights lie within tol of N; the exact search
            # reports the value it proved, N itself
            assert [(c.angles, c.values) for c in report.cycles] == [
                (angles, (float(N),) * len(angles))
                for angles, _ in expected
                if len(angles) <= length
            ]
        with_cycles += bool(expected)
    assert with_cycles >= 30


def test_divisors_with_small_totient():
    for n in range(1, 800):
        phis = {
            m: sum(math.gcd(j, m) == 1 for j in range(m))
            for m in range(1, n + 1)
            if n % m == 0
        }
        for bound in (0, 1, 2, 4, 6, 12, 40):
            assert sorted(_divisors_with_small_totient(n, bound)) == [
                m for m in sorted(phis) if phis[m] <= bound
            ]


def test_find_cycles_beyond_the_float_grid():
    # 2^29 - 1 points would not fit a grid; the exact search visits only the
    # divisors M with phi(M) <= 2 deg W
    for m0, lengths in (
        (stretched_haar(), [1, 2]),
        (LaurentPolynomial({0: R2, 5: R2}), [1, 4]),
    ):
        report = find_cycles(TransferOperator.from_filter(m0, 2), 29)
        assert [c.length for c in report.cycles] == lengths
        assert report.cycles == find_cycles(TransferOperator.from_filter(m0, 2), 10).cycles
    with pytest.raises(CapExceededError):
        find_cycles(TransferOperator.from_filter(stretched_haar(), 2), 30)


def test_find_cycles_rejects_weights_it_cannot_decide():
    irrational = LaurentPolynomial({0: HALF, 1: Scalar(0, Fraction(1, 2), 2)})
    with pytest.raises(PreconditionError, match="rational"):
        find_cycles(TransferOperator.from_filter(irrational, 2), 4)
    constant_n = monomial(3, Scalar(0, 1, 2))
    for L in (1, 8):
        with pytest.raises(PreconditionError, match="identically N"):
            find_cycles(TransferOperator.from_filter(constant_n, 2), L)


def test_find_cycles_large_scale_default_length():
    # scale 6 at length 11 stays within the point cap; a full grid would
    # hold ~4e8 points
    op = TransferOperator.from_filter(canonical_lowpass(DigitSystem(6, (0, 2, 4))), 6)
    report = find_cycles(op, 11)
    assert report.verdict == "NoCycles"


def test_find_cycles_decides_weights_below_n_without_division(cantor3_op, monkeypatch):
    # on the circle |W| <= sum |c_k|, which is p for a canonical weight: with
    # p < N no point has W = N, and no cyclotomic division is needed (a search
    # of the divisors of 10^9 - 1 = 3^4 * 37 * 333667 takes minutes)
    big = DigitSystem(10 ** 9, (0, 10 ** 9 - 1))
    full = DigitSystem(5, (0, 1, 2, 3, 4))  # p = N: the search runs
    ops = [TransferOperator.from_filter(canonical_lowpass(s), s.scale) for s in (big, full)]
    searched = find_cycles(ops[1], 3)
    assert [c.angles for c in searched.cycles] == [(Fraction(0),)]

    def never(P, M):
        raise AssertionError("cyclotomic division for a weight below N")

    monkeypatch.setattr("fractalmra.measure.vanishes_at_primitive_roots", never)
    assert find_cycles(ops[0], 1) == (1, 10 ** 9, ())
    assert classify_support(ops[0], 1).kind == "full_support"
    assert find_cycles(cantor3_op, 12) == (12, 3, ())
    with pytest.raises(AssertionError, match="below N"):
        find_cycles(ops[1], 3)


def test_classify_support_full(cantor3):
    cls = classify_support(TransferOperator.from_filter(canonical_lowpass(cantor3), 3))
    assert cls.kind == "full_support"
    assert cls.moments is not None
    assert cls.diagnostics["unique_invariant_measure"]
    assert cls.moments.value(2) == HALF


def test_classify_support_atomic(haar2):
    cls = classify_support(TransferOperator.from_filter(canonical_lowpass(haar2), 2))
    assert cls.kind == "atomic_on_cycles"
    assert len(cls.atoms) == 1
    assert cls.atoms[0].cycle.angles == (Fraction(0),)
    assert cls.atoms[0].weights == (Fraction(1),)


def test_classify_support_stretched_haar():
    cls = classify_support(TransferOperator.from_filter(stretched_haar(), 2))
    assert cls.kind == "atomic_on_cycles"
    assert len(cls.atoms) == 2
    weights = {atom.cycle.angles: atom.weights for atom in cls.atoms}
    assert weights[(Fraction(0),)] == (Fraction(1),)
    assert weights[(Fraction(1, 3), Fraction(2, 3))] == (Fraction(1, 2), Fraction(1, 2))


def test_atomic_measures_are_invariant():
    """nu(R f) = nu(f) for the orbit measures, on monomials |m| <= 6."""
    m0 = stretched_haar()
    op = TransferOperator.from_filter(m0, 2)
    cls = classify_support(op)
    for atom in cls.atoms:
        def nu(poly):
            total = 0j
            for theta, w in zip(atom.cycle.angles, atom.weights):
                total += float(w) * poly.eval_turns(float(theta))
            return total
        for m in range(-6, 7):
            f = monomial(m)
            assert abs(nu(op.apply(f)) - nu(f)) <= 1e-10


def test_atom_transport_monotone():
    """For cycle measures, nu({z^N}) >= nu({z}) on their support."""
    for m0, N in ((stretched_haar(), 2), (canonical_lowpass(DigitSystem(2, (0, 1))), 2)):
        cls = classify_support(TransferOperator.from_filter(m0, N))
        for atom in cls.atoms:
            mass = dict(zip(atom.cycle.angles, atom.weights))
            for theta, w in mass.items():
                image = (theta * N) % 1
                assert mass[image] >= w


def test_classify_rejects_unnormalized():
    bad = LaurentPolynomial({0: Fraction(1, 2), 1: Fraction(1, 2)})
    with pytest.raises(NotNormalizedError):
        classify_support(TransferOperator.from_filter(bad, 2))
    # decided exactly: a deviation of 10^-20 is no normalization
    nearly = TransferOperator(2, LaurentPolynomial({0: 1 + Fraction(1, 10 ** 20)}))
    with pytest.raises(NotNormalizedError, match="deviates by 1.000e-20"):
        classify_support(nearly)
