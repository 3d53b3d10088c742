import cmath
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fractalmra import duality
from fractalmra.errors import CapExceededError, PreconditionError
from fractalmra.duality import (
    BCycle,
    BCycleReport,
    b_cycles,
    dual_matrix,
    dual_transfer_eval,
    exponential_gram,
    lambda_set,
    onb_check,
    onb_defect,
)
from fractalmra.filterbank import canonical_lowpass
from fractalmra.ifs import DEFAULT_TRANSFORM_DEPTH, DigitSystem, HutchinsonTransform, digit_sums

TABLE_PAIRS = (
    (4, (0, 2), (0, 1)),
    (6, (0, 3), (0, 1)),
    (6, (0, 1), (0, 3)),
    (6, (0, 2, 4), (0, 1, 2)),
)


@pytest.fixture(scope="module")
def c4_pair():
    return dual_matrix(DigitSystem(4, (0, 2)), (0, 1))


def test_dual_matrix_hadamard(c4_pair):
    assert c4_pair.verdict == "Dual"
    assert c4_pair.exact_unitary
    assert c4_pair.defect == 0.0
    expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.allclose(c4_pair.matrix(), expected)


def test_dual_matrix_not_dual_for_middle_third():
    pair = dual_matrix(DigitSystem(3, (0, 2)), (0, 1))
    assert pair.verdict == "NotDual"
    assert pair.defect > 0.1


def test_dual_matrix_dft_like():
    pair = dual_matrix(DigitSystem(6, (0, 2, 4)), (0, 1, 2))
    assert pair.verdict == "Dual"
    assert pair.exact_unitary
    m = pair.matrix()
    assert np.allclose(m.conj().T @ m, np.eye(3), atol=1e-14)


def test_dual_matrix_validation():
    sys = DigitSystem(4, (0, 2))
    with pytest.raises(PreconditionError):
        dual_matrix(sys, (0,))
    with pytest.raises(PreconditionError):
        dual_matrix(sys, (1, 2))
    with pytest.raises(PreconditionError):
        dual_matrix(sys, (0, 0))


def test_dual_verdict_is_the_exact_decision():
    """On every pair with N <= 8 and 0 in B, the numeric operator defect at
    1e-10 gives the verdict that the exact cyclotomic decision gives."""
    pairs = duals = 0
    for N in range(2, 9):
        for p in range(1, N + 1):
            for S in itertools.combinations(range(N), p):
                sys = DigitSystem(N, S)
                for rest in itertools.combinations(range(1, N), p - 1):
                    pair = dual_matrix(sys, (0, *rest))
                    m = pair.matrix()
                    defect = np.linalg.norm(m.conj().T @ m - np.eye(p), 2)
                    assert (defect <= 1e-10) == pair.exact_unitary, pair
                    assert pair.is_dual == pair.exact_unitary
                    pairs += 1
                    duals += pair.is_dual
    assert (pairs, duals) == (8787, 167)


def test_dual_verdict_permutation_invariant():
    sys = DigitSystem(6, (0, 2, 4))
    verdicts = {
        dual_matrix(sys, perm).verdict
        for perm in itertools.permutations((0, 1, 2))
    }
    assert verdicts == {"Dual"}


def test_lambda_set_examples(c4_pair):
    assert lambda_set(c4_pair, 8).prefix == (0, 1, 4, 5, 16, 17, 20, 21)
    assert lambda_set(c4_pair, 1).prefix == (0,)
    p62 = dual_matrix(DigitSystem(6, (0, 3)), (0, 1))
    assert lambda_set(p62, 8).prefix == (0, 1, 6, 7, 36, 37, 42, 43)
    # generation-rule output for the remaining table rows
    p63 = dual_matrix(DigitSystem(6, (0, 1)), (0, 3))
    assert lambda_set(p63, 8).prefix == (0, 3, 18, 21, 108, 111, 126, 129)
    p6 = dual_matrix(DigitSystem(6, (0, 2, 4)), (0, 1, 2))
    assert lambda_set(p6, 9).prefix == (0, 1, 2, 6, 7, 8, 12, 13, 14)


def test_lambda_set_digit_oracle(c4_pair):
    """Digit-DP oracle: for B = {0, 1} the m-th element is m written in
    binary and read back in base 4, so the prefix is checked for membership,
    ordering, and completeness in one pass."""
    prefix = lambda_set(c4_pair, 10 ** 4).prefix
    assert len(prefix) == 10 ** 4
    assert all(a < b for a, b in zip(prefix, prefix[1:]))

    def binary_read_base4(m):
        out, place = 0, 1
        while m:
            out += (m & 1) * place
            m >>= 1
            place *= 4
        return out

    for m in range(10 ** 4):
        assert prefix[m] == binary_read_base4(m)

    def representable(n):
        while n:
            if n % 4 not in (0, 1):
                return False
            n //= 4
        return True

    assert all(representable(n) for n in prefix)


def test_lambda_set_refuses_signed_duals_beyond_the_cap():
    """4^12 signed strings would be enumerated for any count."""
    pair = dual_matrix(DigitSystem(4, (0, 1, 2, 3)), (-1, 0, 1, 2))
    assert pair.is_dual
    with pytest.raises(CapExceededError, match="exceed cap"):
        lambda_set(pair, 1)


def test_lambda_set_rejects_non_dual():
    pair = dual_matrix(DigitSystem(3, (0, 2)), (0, 1))
    with pytest.raises(PreconditionError):
        lambda_set(pair, 4)


def test_lambda_set_signed_dual():
    pair = dual_matrix(DigitSystem(4, (0, 2)), (0, -1))
    assert pair.verdict == "Dual"
    prefix = lambda_set(pair, 8).prefix
    assert prefix[0] < 0 < prefix[-1] or 0 in prefix
    assert 0 in prefix
    assert list(prefix) == sorted(prefix)
    assert -1 in prefix and -4 in prefix
    # every element reconstructs from signed base-4 digits over {0, -1}
    for n in prefix:
        x = n
        while x:
            r = x % 4
            assert r in (0, 3)  # -1 mod 4
            x = (x - (0 if r == 0 else -1)) // 4


def test_b_cycles_trivial_only(c4_pair):
    report = b_cycles(c4_pair, 6)
    assert report.trivial_only
    assert len(report.cycles) == 1
    assert report.cycles[0].angles == (Fraction(0),)
    assert report.cycles[0].values[0] == pytest.approx(2.0)


def test_b_cycle_word_rejection(c4_pair):
    # the word (1,) closes at xi = 1/3 where |m0|^2 = 1/2 != 2
    m0 = canonical_lowpass(c4_pair.system)
    assert abs(m0.eval_turns(1 / 3)) ** 2 == pytest.approx(0.5)
    assert all(
        Fraction(1, 3) not in c.angles for c in b_cycles(c4_pair, 6).cycles
    )


def float_b_cycles(pair, K, tol=1e-9):
    """Reference: every dual-digit word up to length K, kept when |m0|^2 is
    within tol of p at each point of its cycle (first word per cycle)."""
    sys = pair.system
    N, p = sys.scale, sys.p
    m0 = canonical_lowpass(sys)
    found = {}
    for k in range(1, K + 1):
        modulus = N ** k - 1
        for word in itertools.product(pair.dual, repeat=k):
            c = sum(b * N ** (k - 1 - i) for i, b in enumerate(word))
            angles = [Fraction(c * N ** i, modulus) % 1 for i in range(k)]
            values = [abs(m0.eval_turns(float(a))) ** 2 for a in angles]
            key = frozenset(angles)
            if key in found or any(abs(v - p) > tol for v in values):
                continue
            start = angles.index(min(angles))
            found[key] = (
                tuple(angles[start:] + angles[:start]),
                word,
                tuple(values[start:] + values[:start]),
            )
    return sorted(found.values())


def small_dual_pairs():
    """Every Dual pair with N <= 6, 0 in both digit sets, p = 2 or 3 and dual
    digits in [-3, 2N), plus the one-digit pair (3, {1}), (0,)."""
    yield dual_matrix(DigitSystem(3, (1,)), (0,))
    for N in range(2, 7):
        for p in range(2, min(N, 3) + 1):
            for rest in itertools.combinations(range(1, N), p - 1):
                sys = DigitSystem(N, (0,) + rest)
                for dual in itertools.combinations(range(-3, 2 * N), p - 1):
                    if 0 in dual:
                        continue
                    pair = dual_matrix(sys, (0,) + dual)
                    if pair.is_dual:
                        yield pair


def test_b_cycles_match_float_word_enumeration(c4_pair):
    pairs = [(pair, 3) for pair in small_dual_pairs()]
    pairs += [(dual_matrix(DigitSystem(N, S), B), 6) for N, S, B in TABLE_PAIRS]
    pairs += [(c4_pair, 7), (dual_matrix(DigitSystem(6, (0, 5)), (0, -3)), 6)]
    nontrivial = 0
    for pair, K in pairs:
        report = b_cycles(pair, K)
        expected = float_b_cycles(pair, K)
        assert [(c.angles, c.word, c.values) for c in report.cycles] == expected
        nontrivial += not report.trivial_only
    assert len(pairs) > 80 and nontrivial >= 5


def enumerated_b_cycles(pair, K):
    """Exact reference: the word loop that lists every one of the
    sum_k p^k words up to length K in the order of `digit_sums`, keeps each
    closing word's cycle at its first word, and reports as b_cycles does."""
    sys, dual = pair.system, pair.dual
    N, p = sys.scale, sys.p
    m0 = canonical_lowpass(sys)
    g = math.gcd(*(a - sys.digits[0] for a in sys.digits))
    seen, found = set(), []
    for k in range(1, K + 1):
        modulus = N ** k - 1
        for i, c in enumerate(digit_sums(dual, N, k)):
            if g * c % modulus:
                continue
            angles = [Fraction(c * N ** j % modulus, modulus) for j in range(k)]
            key = frozenset(angles)
            if key in seen:
                continue
            seen.add(key)
            start = angles.index(min(angles))
            ordered = angles[start:] + angles[:start]
            found.append(BCycle(
                tuple(ordered),
                tuple(dual[i // p ** (k - 1 - j) % p] for j in range(k)),
                tuple(abs(m0.eval_turns(float(a))) ** 2 for a in ordered),
            ))
    found.sort(key=lambda cyc: cyc.angles)
    return BCycleReport(K, tuple(found), all(c.is_trivial() for c in found))


def every_pair(max_N, max_p):
    """Every pair, Dual or not, with N <= max_N, p <= max_p and dual digits
    in [-N, 2N) (0 among them)."""
    for N in range(2, max_N + 1):
        for p in range(1, min(N, max_p) + 1):
            for S in itertools.combinations(range(N), p):
                sys = DigitSystem(N, S)
                for rest in itertools.combinations(
                    [b for b in range(-N, 2 * N) if b], p - 1
                ):
                    yield dual_matrix(sys, (0,) + rest)


def test_b_cycles_equal_word_loop():
    pairs = [(pair, K) for pair in every_pair(6, 3) for K in range(1, 6)]
    pairs += [(dual_matrix(DigitSystem(3, (1,)), (0,)), K) for K in (1, 7, 19)]
    # the two duality systems of the spectral_duality benchmark
    pairs += [(dual_matrix(DigitSystem(6, (0, 1, 2)), (0, 2, 4)), 7),
              (dual_matrix(DigitSystem(9, (0, 3, 6)), (0, 1, 2)), 7)]
    kinds = set()
    for pair, K in pairs:
        report = b_cycles(pair, K)
        assert report == enumerated_b_cycles(pair, K), (pair, K)
        kinds.add((pair.is_dual, report.trivial_only))
    assert len(kinds) == 4  # Dual or not, with and without nontrivial cycles


def test_b_cycles_build_half_words_only(c4_pair, monkeypatch):
    lengths = []

    def recording_digit_sums(digits, N, n):
        lengths.append(n)
        return digit_sums(digits, N, n)

    monkeypatch.setattr(duality, "digit_sums", recording_digit_sums)
    report = b_cycles(c4_pair, 19)  # p^K = 2^19, at the word cap
    assert report.trivial_only and report.max_length == 19
    assert lengths and max(lengths) == 10  # ceil(19 / 2)


def test_one_digit_dual_spectrum_stops_growing():
    # B = {0} maps Lambda = {0} onto itself; the growth loop must stop
    pair = dual_matrix(DigitSystem(3, (1,)), (0,))
    assert lambda_set(pair, 8).prefix == (0,)


def test_exponential_gram_identity(c4_pair):
    prefix = lambda_set(c4_pair, 8).prefix
    gram = exponential_gram(c4_pair.system, prefix, depth=40)
    assert np.max(np.abs(gram - np.eye(8))) < 1e-8
    single = exponential_gram(c4_pair.system, [5])
    assert single.shape == (1, 1)
    assert single[0, 0] == pytest.approx(1.0)


def test_exponential_gram_hermitian(cantor3):
    gram = exponential_gram(cantor3, range(6))
    assert np.allclose(gram, gram.conj().T, atol=1e-12)
    assert np.allclose(np.diag(gram), 1.0)


def test_no_orthogonal_triple_on_middle_third(cantor3):
    gram = exponential_gram(cantor3, range(21), depth=40)
    off = np.abs(gram)
    for t in itertools.combinations(range(21), 3):
        pairs = list(itertools.combinations(t, 2))
        assert not all(off[i, j] <= 1e-6 for i, j in pairs)


def test_onb_defect_at_zero(c4_pair):
    sums = onb_defect(c4_pair, 0.0, lambda_set(c4_pair, 8).prefix)
    assert sums[0] == pytest.approx(1.0, abs=1e-12)
    assert sums[-1] == pytest.approx(1.0, abs=1e-8)


def test_onb_defect_monotone_bessel(c4_pair):
    sums = onb_defect(c4_pair, 0.3, lambda_set(c4_pair, 256).prefix, depth=40)
    assert all(b >= a for a, b in zip(sums, sums[1:]))
    assert max(sums) <= 1 + 1e-9
    short = onb_defect(c4_pair, 0.5, lambda_set(c4_pair, 4).prefix)
    assert len(short) == 4
    assert all(b >= a for a, b in zip(short, short[1:]))


def test_dual_transfer_normalization(c4_pair):
    rng = random.Random(47)
    for _ in range(20):
        xi = rng.uniform(-2, 2)
        assert dual_transfer_eval(c4_pair, lambda x: 1.0, xi, 1) == pytest.approx(1.0)


def test_dual_transfer_transport_identity(c4_pair):
    """R_B applied to a truncated spectral sum over P lands exactly on the
    sum over B + N P: the refinement identity at the truncated level."""
    P = lambda_set(c4_pair, 32).prefix
    BP = sorted(b + 4 * n for b in c4_pair.dual for n in P)
    transform = HutchinsonTransform(c4_pair.system, 60)

    def spectral_sum(x, frequencies):
        return sum(abs(v) ** 2 for v in transform.values([x - n for n in frequencies]).tolist())

    for xi in (0.0, 0.21, 0.5, 0.77, 1.3):
        lhs = dual_transfer_eval(c4_pair, lambda x: spectral_sum(x, P), xi, 1)
        rhs = spectral_sum(xi, BP)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_dual_transfer_bounded(c4_pair):
    def bump(x):
        return math.exp(-float(x) ** 2)

    for n in (1, 3, 5):
        val = dual_transfer_eval(c4_pair, bump, 0.4, n)
        assert -1e-12 <= val <= 1.0 + 1e-12


def test_dual_transfer_not_periodic(c4_pair):
    def f(x):
        return math.cos(0.7 * float(x))

    a = dual_transfer_eval(c4_pair, f, 0.35, 1)
    b = dual_transfer_eval(c4_pair, f, 1.35, 1)
    assert abs(a - b) > 1e-3


def test_spectrum_sum_near_one_for_onb(c4_pair):
    prefix = lambda_set(c4_pair, 1024).prefix
    for xi in (0.1, 0.45, 0.8):
        assert onb_defect(c4_pair, xi, prefix)[-1] == pytest.approx(1.0, abs=1e-3)


def test_table_pairs_cycle_gating():
    """Trivial-only dual cycles come with an orthonormal exponential family."""
    for N, S, B in TABLE_PAIRS:
        sys = DigitSystem(N, S)
        pair = dual_matrix(sys, B)
        assert pair.verdict == "Dual"
        report = b_cycles(pair, 6)
        assert report.trivial_only
        prefix = lambda_set(pair, 8).prefix
        gram = exponential_gram(sys, prefix, depth=40)
        assert np.max(np.abs(gram - np.eye(len(prefix)))) < 1e-8


# -- the batched transform, bit for bit against the scalar product loop ------

def scalar_transform(sys, k, depth=DEFAULT_TRANSFORM_DEPTH):
    """B(k) by the cmath product loop that HutchinsonTransform.values must
    reproduce in every bit."""
    kf = float(k)
    out = 1.0 + 0j
    scale = 1.0
    for _ in range(depth):
        scale /= sys.scale
        phase = 2.0 * math.pi * kf * scale
        out *= sum(cmath.exp(1j * phase * a) for a in sys.digits) / sys.p
    return out


def bits(values):
    z = np.asarray(values, dtype=complex)
    return z.real.view(np.int64).tolist(), z.imag.view(np.int64).tolist()


def hadamard_translates(N, s, b):
    """Translates of S = s{0..p-1} inside {0..N-1}, each with B = b{0..p-1}."""
    p = N // (s * b)
    S = [s * i for i in range(p)]
    return [(N, tuple(a + t for a in S), tuple(b * i for i in range(p)))
            for t in range(N - S[-1])]


@pytest.mark.parametrize("family", [(6, 1, 2), (8, 2, 1), (9, 3, 1), (4, 2, 1), (6, 3, 1)])
def test_exponential_gram_bits_equal_scalar_loop(family):
    for N, S, B in hadamard_translates(*family):
        sys = DigitSystem(N, S)
        prefix = lambda_set(dual_matrix(sys, B), 40).prefix
        memo = {}
        ref = [[memo.setdefault(b - a, scalar_transform(sys, b - a)) for b in prefix]
               for a in prefix]
        assert bits(exponential_gram(sys, prefix)) == bits(ref), (N, S)


def test_transform_values_bits_equal_scalar_loop():
    ks = [0, -0.0, 1, -1, 7, -13, 2 ** 40 + 1, -(10 ** 15), 2 ** 70, 1e300,
          0.3 - 5, 0.77 - 400, -2.5, Fraction(1, 3), Fraction(-7, 2) - 96,
          Fraction(10 ** 30 + 1, 10 ** 9)]
    for N, S in [(3, (0, 2)), (4, (0, 2)), (6, (1, 2, 3)), (8, (0, 2, 4, 6)),
                 (9, (2, 5, 8)), (7, (0, 1, 6))]:
        for depth in (1, 5, DEFAULT_TRANSFORM_DEPTH):
            transform = HutchinsonTransform(DigitSystem(N, S), depth)
            ref = [scalar_transform(transform.system, k, depth) for k in ks]
            assert bits(transform.values(ks)) == bits(ref), (N, S, depth)
            assert bits([transform.value(k) for k in ks]) == bits(ref), (N, S, depth)


def near_tiny_edge(sys, level, ulps):
    """k whose level-`level` bound |2 pi k| a_max N^-level, as `values`
    rounds it, lies about `ulps` ulps from 2^-28, where the level stops
    calling cos and sin."""
    scale = 1.0
    for _ in range(level):
        scale /= sys.scale
    k = 2.0 ** -28 / (2.0 * math.pi) / sys.digits[-1] / scale
    for _ in range(abs(ulps)):
        k = math.nextafter(k, math.copysign(math.inf, ulps))
    return k


@st.composite
def transform_cases(draw):
    N = draw(st.integers(2, 12))
    sys = DigitSystem(N, draw(st.sets(st.integers(0, N - 1), min_size=1)))
    depth = draw(st.integers(1, 80))
    k = st.one_of(
        st.integers(-2 ** 70, 2 ** 70),
        st.floats(-1e307, 1e307),  # -0.0 and subnormals too; 2 pi k stays finite
    )
    if sys.digits[-1] > 0:
        edge = st.builds(near_tiny_edge, st.just(sys), st.integers(1, depth), st.integers(-6, 6))
        k = st.one_of(k, edge, edge.map(lambda k: -k))
    return sys, depth, draw(st.lists(k, max_size=8))


@settings(max_examples=300, deadline=None)
@example(case=(DigitSystem(3, (0, 2)), 40, [near_tiny_edge(DigitSystem(3, (0, 2)), 20, u)
                                            for u in (-3, 0, 3)]))
@example(case=(DigitSystem(2, (0,)), 80, [0, -0.0, 5e-324, 2 ** 70]))
@given(case=transform_cases())
def test_transform_values_bits_equal_scalar_loop_property(case):
    sys, depth, ks = case
    transform = HutchinsonTransform(sys, depth)
    ref = [scalar_transform(sys, k, depth) for k in ks]
    assert bits(transform.values(ks)) == bits(ref)
    # alone, each k sets the per-level bound by itself
    assert bits([transform.values([k])[0] for k in ks]) == bits(ref)


@pytest.mark.parametrize(
    "N,S", [(2, (0,)), (3, (1,)), (3, (0, 2)), (4, (1, 3)), (5, (0, 1, 2, 3, 4))]
)
def test_transform_values_of_non_finite_k(N, S):
    """cos and sin of inf and nan, and inf * 0, are nan, so each such k gives
    nan + nan j, as before any trig call was skipped; the finite k beside them
    keep their bits."""
    transform = HutchinsonTransform(DigitSystem(N, S))
    ks = [math.inf, -math.inf, math.nan, 1.0, 2 ** 40 + 1]
    with np.errstate(invalid="ignore"):
        got = transform.values(ks)
    for z in got[:3]:
        assert math.isnan(z.real) and math.isnan(z.imag)  # nan + nan j
    assert bits(got[3:]) == bits([scalar_transform(transform.system, k) for k in ks[3:]])


def test_libm_is_exact_where_values_skips_it():
    """`values` replaces cos x by 1 for 0 < |x| < 2^-27 and sin x by x for
    |x| < 2^-26 (it uses |x| < 2^-27 only); a libm that rounds otherwise
    must fail here rather than change onb-check bytes."""
    rng = np.random.default_rng(20)
    x = np.exp2(rng.uniform(-1074, -26, 10 ** 5)) * rng.choice([-1.0, 1.0], 10 ** 5)
    edges = [2.0 ** -27, 2.0 ** -28, 2.0 ** -26]
    special = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, np.nextafter(2.0 ** -1022, 0)]
    special += [np.nextafter(e, t) for e in edges for t in (0.0, 1.0)] + edges
    x = np.concatenate((x, special, np.negative(special)))
    cos, sin = np.cos(x), np.sin(x)
    assert np.all(cos[np.abs(x) < 2.0 ** -27] == 1.0)
    below = np.abs(x) < 2.0 ** -26
    assert np.all(sin[below] == x[below])
    assert bits(sin[x == 0]) == bits(x[x == 0])  # sin(+-0) = +-0
    assert cos.tolist() == [math.cos(v) for v in x.tolist()]
    assert sin.tolist() == [math.sin(v) for v in x.tolist()]


@pytest.mark.parametrize("family", [(6, 1, 2), (8, 2, 1), (9, 3, 1), (4, 2, 1), (6, 3, 1)])
def test_onb_check_bits_equal_gram_and_defect(family):
    for N, S, B in hadamard_translates(*family):
        pair = dual_matrix(DigitSystem(N, S), B)
        prefixes = [lambda_set(pair, 40).prefix, (-(2 ** 62), 5, 2 ** 62 + 1)]  # past int64
        for prefix, xi, depth in itertools.product(prefixes, (0.0, 0.3, -2.5, 1e6), (5, 40)):
            off, sums = onb_check(pair, xi, prefix, depth)
            gram = exponential_gram(pair.system, prefix, depth)
            gram.flat[::len(prefix) + 1] -= 1
            assert bits([off]) == bits([np.max(np.abs(gram))]), (N, S, xi)
            assert bits(sums) == bits(onb_defect(pair, xi, prefix, depth)), (N, S, xi)


@settings(max_examples=60, deadline=None)
@given(
    pair=st.sampled_from(TABLE_PAIRS),
    exponents=st.lists(
        st.one_of(st.integers(-10 ** 6, 10 ** 6), st.integers(-2 ** 70, 2 ** 70)),
        min_size=1,
        max_size=8,
        unique=True,
    ),
    xi=st.floats(-1e6, 1e6),
)
def test_onb_check_deviation_is_gram_deviation(pair, exponents, xi):
    pair = dual_matrix(DigitSystem(*pair[:2]), pair[2])
    off, sums = onb_check(pair, xi, exponents)
    gram = exponential_gram(pair.system, exponents)
    gram.flat[::len(exponents) + 1] -= 1
    assert bits([off]) == bits([np.max(np.abs(gram))])
    assert bits(sums) == bits(onb_defect(pair, xi, exponents))


def test_onb_check_one_transform_call(c4_pair, monkeypatch):
    calls = []
    values = HutchinsonTransform.values
    monkeypatch.setattr(
        HutchinsonTransform, "values", lambda self, ks: calls.append(len(ks)) or values(self, ks)
    )
    prefix = lambda_set(c4_pair, 64).prefix
    onb_check(c4_pair, 0.3, prefix)
    # the nonnegative distinct differences and the 64 points xi - n share it
    nonnegative = {b - a for a in prefix for b in prefix if b >= a}
    assert calls == [len(nonnegative) + len(prefix)]
    with pytest.raises(PreconditionError, match="Dual"):
        onb_check(dual_matrix(DigitSystem(4, (0, 2)), (0, 2)), 0.3, prefix)
    for bad in ((0, 1, 1), ()):
        with pytest.raises(PreconditionError, match="distinct"):
            onb_check(c4_pair, 0.3, bad)


@st.composite
def systems(draw):
    N = draw(st.integers(2, 9))
    digits = draw(st.sets(st.integers(0, N - 1), min_size=1))
    return DigitSystem(N, digits)


@settings(max_examples=40, deadline=None)
@example(sys=DigitSystem(3, (0, 2)), exponents=[-(2 ** 62), 2 ** 62 + 1, 5])  # past int64
@given(
    sys=systems(),
    exponents=st.lists(
        st.one_of(st.integers(-10 ** 6, 10 ** 6), st.integers(-2 ** 70, 2 ** 70)),
        max_size=6,
    ),
)
def test_exponential_gram_entry_is_transform_value(sys, exponents):
    gram = exponential_gram(sys, exponents)
    transform = HutchinsonTransform(sys)
    assert gram.shape == (len(exponents), len(exponents))
    ref = [[transform.value(b - a) for b in exponents] for a in exponents]
    assert bits(gram) == bits(ref)
