"""Acceptance suite: one test per criterion, each printing a pass line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.

Criterion 5b's full-Gram clause is asserted verbatim but marked as a strict
expected failure: exact arithmetic (confirmed by the transfer route) shows
the cascade iterates are orthogonal only consecutively and against the
scaling vector, with <M'^m phi, M'^(m+t) phi> = (1/4)^(t/2) for m >= 1 and
even t; see the companion test that freezes the true banded Gram.
"""

import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fractalmra import cli
from fractalmra.duality import (
    b_cycles,
    dual_matrix,
    exponential_gram,
    lambda_set,
    onb_defect,
)
from fractalmra.filterbank import build_bank, canonical_lowpass, pairing, unitarity_defect
from fractalmra.ifs import DigitSystem
from fractalmra.laurent import LaurentPolynomial, monomial
from fractalmra.measure import find_cycles, moment, moment_table, wiener_profile
from fractalmra.scalars import Scalar
from fractalmra.space import (
    cascade_experiment,
    cascade_step,
    correlation,
    gram_section,
    inner,
    representation_limit,
    scaling_vector,
    wavelet_generators,
)
from fractalmra.transfer import TransferOperator, spectral_block

from conftest import random_vector

HALF = Scalar(Fraction(1, 2))
R2 = Scalar.inv_sqrt(2)

CANTOR3 = DigitSystem(3, (0, 2))
CANTOR4 = DigitSystem(4, (0, 2))
HAAR = DigitSystem(2, (0, 1))


@pytest.fixture(scope="module")
def cantor3_op():
    return TransferOperator.from_filter(canonical_lowpass(CANTOR3), 3)


@pytest.fixture(scope="module")
def cantor3_table(cantor3_op):
    return moment_table(cantor3_op, 729)


def ok(line):
    print(f"[acceptance] {line}: PASS")


def test_criterion_01_filter_bank_unitarity():
    """N <= 6, every nonempty digit subset: the defect is exactly 0."""
    for N in range(2, 7):
        for r in range(1, N + 1):
            for S in itertools.combinations(range(N), r):
                bank = build_bank(DigitSystem(N, S))
                assert unitarity_defect(bank) == 0.0, (N, S)
    ok("criterion 1 (filter-bank unitarity, N <= 6)")


def test_criterion_02_moment_recursion(cantor3_table):
    """Exact nu^(3n) = nu^(n), nu^(3n +/- 2) = nu^(n)/2, odd -> 0; |n| <= 243."""
    t = cantor3_table
    assert t.value(0) == Scalar(1)
    assert t.value(1) == Scalar(0)
    for n in range(-243, 244):
        assert t.value(3 * n) == t.value(n)
    for n in range(-242, 243):
        assert t.value(3 * n + 2) == t.value(n) * HALF
        assert t.value(3 * n - 2) == t.value(n) * HALF
    for k in range(-121, 121):
        assert t.value(2 * k + 1) == Scalar(0)
    ok("criterion 2 (Cantor-3 moment recursion, exact, |n| <= 243)")


def test_criterion_03_gk_gram(cantor3_table):
    """<g_k | g_l> = (3/4) delta_kl exactly, 0 <= k, l <= 5."""
    t = cantor3_table

    def gram(k, l):
        a, b = 2 * 3 ** k, 2 * 3 ** l
        return t.value(b - a) - t.value(b) * HALF - t.value(-a) * HALF + Scalar(Fraction(1, 4))

    for k in range(6):
        for l in range(6):
            assert gram(k, l) == (Scalar(Fraction(3, 4)) if k == l else Scalar(0))
    ok("criterion 3 (g_k Gram = 3/4 identity, exact)")


def test_criterion_04_wiener_averages(cantor3_table):
    """s_{3^(n+1)} <= (5/2) s_{3^n} for n <= 4; ratio bound to k = 729, exact."""
    profile = wiener_profile(cantor3_table, 729)
    rows = profile.rows
    for n in range(5):
        assert rows[3 ** (n + 1)].partial_sum <= Scalar(Fraction(5, 2)) * rows[3 ** n].partial_sum
    for k in range(1, 730):
        e = 0
        while 3 ** (e + 1) <= k:
            e += 1
        assert rows[k].ratio <= Scalar(Fraction(5, 6) ** e * Fraction(5, 2))
    ok("criterion 4 (Wiener averages, exact)")


def test_criterion_05a_cascade_fixed_point():
    phi = scaling_vector(CANTOR3)
    assert cascade_step(phi, canonical_lowpass(CANTOR3)) == phi
    ok("criterion 5a (canonical cascade fixed point, exact)")


def test_criterion_05b_consecutive_orthogonality():
    """The parts of 5b the arithmetic supports: consecutive iterates are
    orthogonal with ||difference||^2 = 2, and every iterate is orthogonal to
    the scaling vector."""
    phi = scaling_vector(CANTOR3)
    m = monomial(3) * canonical_lowpass(CANTOR3)
    iterates = [phi]
    for _ in range(7):
        iterates.append(cascade_step(iterates[-1], m))
    for n in range(7):
        assert inner(iterates[n], iterates[n + 1]) == Scalar(0)
        assert (iterates[n] - iterates[n + 1]).norm_sq() == Scalar(2)
    for n in range(1, 8):
        assert inner(iterates[0], iterates[n]) == Scalar(0)
    ok("criterion 5b (consecutive orthogonality and ||diff||^2 = 2, exact)")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the full-Gram clause of criterion 5b overstates orthogonality: "
        "exact arithmetic and the transfer route agree on "
        "<M'^m phi, M'^(m+t) phi> = (1/4)^(t/2) for m >= 1, even t >= 2 "
        "(see README and the banded-Gram companion test)"
    ),
)
def test_criterion_05b_full_gram_as_stated():
    """Criterion 5b verbatim: <M'^m phi, M'^n phi> = delta_mn for m, n <= 6."""
    print("[acceptance] criterion 5b (full Gram as stated): EXPECTED FAIL "
          "(documented overstatement; see README)")
    phi = scaling_vector(CANTOR3)
    m = monomial(3) * canonical_lowpass(CANTOR3)
    iterates = [phi]
    for _ in range(6):
        iterates.append(cascade_step(iterates[-1], m))
    for a in range(7):
        for b in range(7):
            assert inner(iterates[a], iterates[b]) == Scalar(1 if a == b else 0)


def test_criterion_05b_true_gram_banded():
    """Companion: the actual Gram, frozen from two independent exact routes."""
    phi = scaling_vector(CANTOR3)
    m = monomial(3) * canonical_lowpass(CANTOR3)
    op = TransferOperator.from_filter(m, 3)
    iterates = [phi]
    for _ in range(6):
        iterates.append(cascade_step(iterates[-1], m))
    for a in range(7):
        for b in range(7):
            value = inner(iterates[a], iterates[b])
            if a == b:
                expected = Scalar(1)
            elif a == 0 or b == 0 or (a - b) % 2:
                expected = Scalar(0)
            else:
                expected = Scalar(Fraction(1, 4 ** (abs(a - b) // 2)))
            assert value == expected, (a, b)
    # transfer route reproduces the first super-diagonal band
    corr = correlation(phi, iterates[2])
    assert corr == LaurentPolynomial({2: HALF})
    assert op.apply(corr)[0] == Scalar(Fraction(1, 4))
    ok("criterion 5b companion (true banded Gram, two exact routes)")


def test_criterion_05c_transfer_side_consistency(cantor3_op):
    """2 - 2 Re nu(A00) with A00 = <m0, z^3 m0>_3 = z and nu^(1) = 0."""
    m0 = canonical_lowpass(CANTOR3)
    m = monomial(3) * m0
    a00 = pairing(m0, m, 3)
    assert a00 == monomial(1)
    nu1 = moment(cantor3_op, 1).value
    assert nu1 == Scalar(0)
    predicted = Scalar(2) - Scalar(2) * nu1
    rows = cascade_experiment(CANTOR3, m, 6)
    for r in rows:
        assert r.diff_norm_sq == predicted
        assert r.inner == r.transfer_inner
    ok("criterion 5c (transfer-side consistency, exact)")


def test_criterion_06_zak_intertwining():
    """R(p(f1, f2)) = p(M f1, M f2) exactly, 20 seeded pairs, both systems."""
    rng = random.Random(101)
    for sys in (CANTOR3, CANTOR4):
        m0 = canonical_lowpass(sys)
        op = TransferOperator.from_filter(m0, sys.scale)
        for _ in range(20):
            f1 = random_vector(sys, rng)
            f2 = random_vector(sys, rng)
            assert op.apply(correlation(f1, f2)) == correlation(
                cascade_step(f1, m0), cascade_step(f2, m0)
            )
    ok("criterion 6 (Zak intertwining, exact, 20 seeded pairs x 2 systems)")


def test_criterion_07_wavelet_onb_sections():
    """Exact identity Gram for the Cantor-3 and Cantor-4 wavelet sections."""
    section3 = gram_section(
        CANTOR3, wavelet_generators(CANTOR3), range(-2, 3), range(-5, 6)
    )
    assert section3.size == 110
    assert section3.is_identity()
    section4 = gram_section(
        CANTOR4, wavelet_generators(CANTOR4), range(-1, 2), range(-3, 4)
    )
    assert section4.size == 63
    assert section4.is_identity()
    ok("criterion 7 (wavelet ONB Gram sections, exact identity)")


def test_criterion_08_spectral_block_and_cycle_census(cantor3_op):
    block = spectral_block(cantor3_op)
    eigs = np.sort(block.eigenvalues.real)
    assert np.max(np.abs(block.eigenvalues.imag)) <= 1e-12
    assert np.allclose(eigs, [0.5, 0.5, 1.0], atol=1e-12)
    assert cantor3_op.peripheral == (1, False)
    # eigenvector of the unit eigenvalue is the constant function's
    # coefficient vector: column D of the block is the unit vector e_D
    D = block.halfwidth
    assert [row[D] for row in cantor3_op.block] == [int(m == D) for m in range(block.dimension)]
    assert block.fixes_constant

    haar_op = TransferOperator.from_filter(canonical_lowpass(HAAR), 2)
    haar_report = find_cycles(haar_op, 8)
    assert [c.angles for c in haar_report.cycles] == [(Fraction(0),)]
    assert find_cycles(cantor3_op, 12).cycles == ()
    stretched_op = TransferOperator.from_filter(LaurentPolynomial({0: R2, 3: R2}), 2)
    stretched = find_cycles(stretched_op, 8)
    assert [c.angles for c in stretched.cycles] == [
        (Fraction(0),),
        (Fraction(1, 3), Fraction(2, 3)),
    ]
    ok("criterion 8 (spectral block + cycle census)")


def test_criterion_09_duality():
    pair = dual_matrix(CANTOR4, (0, 1))
    assert pair.exact_unitary and pair.defect == 0.0
    prefix = lambda_set(pair, 8).prefix
    assert prefix == (0, 1, 4, 5, 16, 17, 20, 21)
    gram = exponential_gram(CANTOR4, prefix, depth=40)
    assert np.max(np.abs(gram - np.eye(8))) < 1e-8
    sums = onb_defect(pair, 0.3, lambda_set(pair, 256).prefix, depth=40)
    assert all(b >= a for a, b in zip(sums, sums[1:]))
    assert max(sums) <= 1 + 1e-9
    report = b_cycles(pair, 6)
    assert report.trivial_only
    ok("criterion 9 (quarter-Cantor duality: matrix, spectrum, Gram, cycles)")


def test_criterion_10_non_orthogonal_type():
    gram = np.abs(exponential_gram(CANTOR3, range(21), depth=40))
    for triple in itertools.combinations(range(21), 3):
        small = all(
            gram[i, j] <= 1e-6 for i, j in itertools.combinations(triple, 2)
        )
        assert not small, triple
    ok("criterion 10 (no orthogonal exponential triple on Cantor-3)")


def test_criterion_11_representation_limit(cantor3_op):
    for m in range(-10, 11):
        value = representation_limit(cantor3_op, 8, m)
        entry = moment(cantor3_op, m)
        assert abs(float(value) - float(entry.value)) < 1e-6
        if m % 2 == 0 and entry.status == "stabilized":
            assert value == entry.value
    ok("criterion 11 (representation limit vs moments)")


def test_criterion_12_table_reproduction(capsys):
    import io
    from contextlib import redirect_stdout

    def run():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["table"])
        assert code == 0
        return buf.getvalue()

    first, second = run(), run()
    assert first.encode() == second.encode()
    obj = json.loads(first)

    dims = [row["hausdorff_dimension"] for row in obj["dual_systems"]]
    log62 = math.log(2) / math.log(6)
    log63 = math.log(3) / math.log(6)
    assert abs(dims[0] - 0.5) <= 1e-12
    assert abs(dims[1] - log62) <= 1e-12
    assert abs(dims[2] - log62) <= 1e-12
    assert abs(dims[3] - log63) <= 1e-12

    def matrix_of(row):
        return np.array([[complex(e["re"], e["im"]) for e in r] for r in row["matrix"]])

    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    zeta = np.exp(2j * math.pi / 3)
    dft = np.array([[1, 1, 1], [1, zeta, zeta ** 2], [1, zeta ** 2, zeta]]) / math.sqrt(3)
    assert np.max(np.abs(matrix_of(obj["dual_systems"][0]) - h)) <= 1e-12
    assert np.max(np.abs(matrix_of(obj["dual_systems"][1]) - h)) <= 1e-12
    assert np.max(np.abs(matrix_of(obj["dual_systems"][2]) - h)) <= 1e-12
    assert np.max(np.abs(matrix_of(obj["dual_systems"][3]) - dft)) <= 1e-12

    prefixes = [tuple(row["lambda_prefix"]) for row in obj["spectra"]]
    # rows printed self-consistently in the reference tables
    assert prefixes[0] == (0, 1, 4, 5, 16, 17, 20, 21)
    assert prefixes[1] == (0, 1, 6, 7, 36, 37, 42, 43)
    # remaining rows are pinned to the generation rule, the only reading
    # consistent with the digit predicate below
    assert prefixes[2] == (0, 3, 18, 21, 108, 111, 126, 129)
    assert prefixes[3] == (0, 1, 2, 6, 7, 8, 12, 13, 14, 36, 37, 38)
    for system_row, prefix in zip(obj["spectra"], prefixes):
        N, B = system_row["scale"], set(system_row["dual"])
        for n in prefix:
            while n:
                assert n % N in B
                n //= N

    for row in obj["dual_transfer"]:
        assert row["partition_of_unity_max_dev"] < 1e-12
        assert [b["digit"] for b in row["branches"]] == row["dual"]
    ok("criterion 12 (table reproduction, byte-deterministic)")
