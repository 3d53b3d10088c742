import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fractalmra import space
from fractalmra.errors import CapExceededError, CoarseningError, SystemMismatchError
from fractalmra.filterbank import build_bank, canonical_lowpass, pairing
from fractalmra.ifs import CylinderAddress, DigitSystem
from fractalmra.laurent import LaurentPolynomial, monomial, one
from fractalmra.measure import moment
from fractalmra.scalars import Scalar
from fractalmra.space import (
    LatticeVector,
    apply_filter,
    apply_shift,
    basis_delta,
    cascade_experiment,
    cascade_step,
    correlation,
    cylinder_vector,
    dilate_power,
    gram_section,
    inner,
    refine_to,
    representation_limit,
    scaling_vector,
    wavelet_generators,
)
from fractalmra.transfer import TransferOperator

from conftest import random_vector

R2 = Scalar.inv_sqrt(2)
HALF = Scalar(Fraction(1, 2))


def test_basis_delta_orthonormal(cantor3):
    phi = scaling_vector(cantor3)
    assert phi.norm_sq() == Scalar(1)
    for k in range(-3, 4):
        for k2 in range(-3, 4):
            expected = Scalar(1 if k == k2 else 0)
            assert inner(basis_delta(cantor3, 1, k), basis_delta(cantor3, 1, k2)) == expected


def test_refine_examples(cantor3):
    phi = scaling_vector(cantor3)
    refined = refine_to(phi, 1)
    assert refined.coeffs == {0: R2, 2: R2}
    rng = random.Random(53)
    for _ in range(10):
        v = random_vector(cantor3, rng)
        m = v.resolution + rng.randint(0, 3)
        assert refine_to(refine_to(v, v.resolution + 1), m + 1) == refine_to(v, m + 1)
        assert refine_to(v, m).norm_sq() == v.norm_sq()
    with pytest.raises(CoarseningError):
        refine_to(refined, 0)


def test_inner_examples(cantor3):
    phi = scaling_vector(cantor3)
    assert inner(phi, refine_to(phi, 3)) == Scalar(1)
    psi1, psi2 = wavelet_generators(cantor3)
    assert inner(psi1, psi2).is_zero()
    with pytest.raises(SystemMismatchError):
        inner(phi, scaling_vector(DigitSystem(4, (0, 2))))


def test_refinement_preserves_inner_products(cantor3):
    rng = random.Random(103)
    for _ in range(10):
        v = random_vector(cantor3, rng)
        w = random_vector(cantor3, rng)
        assert inner(refine_to(v, v.resolution + 2), w) == inner(v, w)


def test_shift_examples(cantor3):
    phi = scaling_vector(cantor3)
    assert inner(apply_shift(phi, 1), phi).is_zero()
    assert apply_shift(phi, 0) == phi
    v = basis_delta(cantor3, 1, 2)
    assert apply_shift(v, 1).coeffs == {5: Scalar(1)}  # resolution 1 shifts by 3


def test_shift_dilation_unitary(cantor3):
    rng = random.Random(59)
    for _ in range(20):
        v = random_vector(cantor3, rng)
        assert apply_shift(v, rng.randint(-5, 5)).norm_sq() == v.norm_sq()
        assert dilate_power(v, -1).norm_sq() == v.norm_sq()
        assert dilate_power(v, 1).norm_sq() == v.norm_sq()


def test_dilation_inverse_pair(cantor3):
    rng = random.Random(61)
    for _ in range(10):
        v = random_vector(cantor3, rng)
        assert dilate_power(dilate_power(v, 1), -1) == v
    phi = scaling_vector(cantor3)
    assert dilate_power(phi, 1) == basis_delta(cantor3, 1, 0)


def test_commutation_relation(cantor3):
    """U T^k U^-1 = T^(Nk) on seeded vectors."""
    rng = random.Random(67)
    for _ in range(50):
        v = random_vector(cantor3, rng)
        k = rng.randint(-4, 4)
        lhs = dilate_power(apply_shift(dilate_power(v, 1), k), -1)
        rhs = apply_shift(v, 3 * k)
        assert lhs == rhs


def test_apply_filter_examples(cantor3):
    phi = scaling_vector(cantor3)
    assert apply_filter(phi, monomial(2)) == apply_shift(phi, 2)
    m0 = canonical_lowpass(cantor3)
    assert apply_filter(phi, m0).norm_sq() == Scalar(1)
    rng = random.Random(71)
    for _ in range(10):
        v = random_vector(cantor3, rng, terms=2)
        f = LaurentPolynomial({rng.randint(-2, 2): Fraction(rng.randint(-2, 2), 2) for _ in range(2)})
        g = LaurentPolynomial({rng.randint(-2, 2): Fraction(rng.randint(-2, 2), 2) for _ in range(2)})
        assert apply_filter(apply_filter(v, g), f) == apply_filter(v, f * g)


def test_cascade_fixed_point(cantor3, cantor4):
    for sys in (cantor3, cantor4):
        phi = scaling_vector(sys)
        assert cascade_step(phi, canonical_lowpass(sys)) == phi


def test_cascade_index_rule(cantor3):
    out = cascade_step(basis_delta(cantor3, 0, 1), canonical_lowpass(cantor3))
    assert out.resolution == 1
    assert out.coeffs == {1: R2, 3: R2}


def test_cascade_orthogonal_to_scaling_vector(cantor3):
    phi = scaling_vector(cantor3)
    m = monomial(3) * canonical_lowpass(cantor3)
    v = phi
    for _ in range(6):
        v = cascade_step(v, m)
        assert inner(phi, v).is_zero()


def test_correlation_examples(cantor3):
    phi = scaling_vector(cantor3)
    assert correlation(phi, phi) == one()
    m = monomial(3) * canonical_lowpass(cantor3)
    assert correlation(phi, cascade_step(phi, m)) == monomial(1)
    a = LatticeVector(cantor3, 1, {0: 1})
    b = LatticeVector(cantor3, 1, {1: 1})  # same residue class never aligns
    assert correlation(a, b).is_zero()


def test_correlation_generalized_pairing(cantor3, cantor4):
    """p(phi, M' phi) = <m0, m'>_N when phi is the fixed point."""
    rng = random.Random(73)
    for sys in (cantor3, cantor4):
        phi = scaling_vector(sys)
        m0 = canonical_lowpass(sys)
        for _ in range(8):
            m = monomial(rng.randint(-4, 4)) * m0
            assert correlation(phi, cascade_step(phi, m)) == pairing(m0, m, sys.scale)


def test_zak_intertwining_exact(cantor3, cantor4):
    """R(p(f1, f2)) = p(M f1, M f2) coefficient-by-coefficient."""
    rng = random.Random(79)
    for sys in (cantor3, cantor4):
        m0 = canonical_lowpass(sys)
        op = TransferOperator.from_filter(m0, sys.scale)
        for _ in range(20):
            f1 = random_vector(sys, rng)
            f2 = random_vector(sys, rng)
            lhs = op.apply(correlation(f1, f2))
            rhs = correlation(cascade_step(f1, m0), cascade_step(f2, m0))
            assert lhs == rhs


def test_wavelet_generators_cantor3(cantor3):
    psi1, psi2 = wavelet_generators(cantor3)
    assert psi1 == LatticeVector(cantor3, 1, {1: 1})
    assert psi2 == LatticeVector(cantor3, 1, {0: R2, 2: -R2})
    assert psi1.norm_sq() == Scalar(1)
    assert psi2.norm_sq() == Scalar(1)


def test_wavelet_generators_cantor4_and_haar(cantor4, haar2):
    gens = wavelet_generators(cantor4)
    assert len(gens) == 3
    expected = {
        LatticeVector(cantor4, 1, {1: 1}),
        LatticeVector(cantor4, 1, {3: 1}),
        LatticeVector(cantor4, 1, {0: R2, 2: -R2}),
    }
    assert set(gens) == expected
    haar_gens = wavelet_generators(haar2)
    assert len(haar_gens) == 1
    assert haar_gens[0].norm_sq() == Scalar(1)


def test_gram_sections_identity(cantor3, cantor4):
    section = gram_section(
        cantor3, wavelet_generators(cantor3), range(-2, 3), range(-5, 6)
    )
    assert section.size == 110
    assert section.is_identity()
    section4 = gram_section(
        cantor4, wavelet_generators(cantor4), range(-1, 2), range(-3, 4)
    )
    assert section4.size == 63
    assert section4.is_identity()
    single = gram_section(cantor3, wavelet_generators(cantor3)[:1], [0], [0])
    assert single.matrix == ((Scalar(1),),)


def test_gram_section_sparse_scales_far_apart(cantor3):
    # only the powers of N the section uses are built, not every one up to
    # the span of the scale list
    gens = wavelet_generators(cantor3)
    start = time.perf_counter()
    section = gram_section(cantor3, gens, [0, 10**5], [0])
    assert time.perf_counter() - start < 0.5
    assert section.is_identity()


def _reference_gram(generators, j_range, k_range):
    """Dense Gram from explicit vectors and pairwise `inner`, with the
    vectors first refined to the section's top resolution."""
    vectors = [
        dilate_power(apply_shift(psi, k), j)
        for psi in generators
        for j in j_range
        for k in k_range
    ]
    top = max((v.resolution for v in vectors), default=0)
    refined = [refine_to(v, max(top, 0)) for v in vectors]
    return [[inner(v, w) for w in refined] for v in refined]


def _reference_deviation(matrix) -> float:
    dev = 0.0
    for r, row in enumerate(matrix):
        for c, value in enumerate(row):
            d = value - Scalar(1 if r == c else 0)
            if not d.is_zero():
                dev = max(dev, abs(d.to_complex()))
    return dev


CANTOR3 = DigitSystem(3, (0, 2))


@pytest.mark.parametrize(
    "system, generators, j_range, k_range",
    [
        (CANTOR3, None, range(-1, 2), range(-3, 4)),
        (DigitSystem(4, (1, 3)), None, [2, -1], [0, 5, -3]),
        (DigitSystem(5, (0, 3)), None, [0, 2], [4, -4, 0]),
        (DigitSystem(3, (0, 1, 2)), None, range(-1, 2), range(-2, 3)),
        (DigitSystem(4, (0, 1, 3)), None, [2, -1], [0, 5, -3]),
        (CANTOR3, None, [], range(3)),
        (CANTOR3, None, range(2), []),
        # generators below resolution 0 and translates k = 0 stay unrefined
        (
            CANTOR3,
            [LatticeVector(CANTOR3, -1, {0: 1, 2: R2}), basis_delta(CANTOR3, 2, 1)],
            [1, 0, -2],
            [0, 1, -2],
        ),
    ],
)
def test_gram_section_matches_pairwise_reference(system, generators, j_range, k_range):
    if generators is None:
        generators = wavelet_generators(system)
    section = gram_section(system, generators, j_range, k_range)
    reference = _reference_gram(generators, j_range, k_range)
    assert section.labels == tuple(
        (i, j, k) for i in range(len(generators)) for j in j_range for k in k_range
    )
    assert section.size == len(reference)
    assert len(section.matrix) == section.size
    dev = section.max_identity_deviation()
    for r, row in enumerate(reference):
        assert len(section.matrix[r]) == section.size
        for c, value in enumerate(row):
            assert section.matrix[r][c] == value, (r, c)
    assert set(section.entries) == {
        (r, c)
        for r, row in enumerate(reference)
        for c, value in enumerate(row)
        if not value.is_zero()
    }
    assert dev.hex() == _reference_deviation(reference).hex()
    assert section.is_identity() == all(
        value == Scalar(1 if r == c else 0)
        for r, row in enumerate(reference)
        for c, value in enumerate(row)
    )


@pytest.mark.parametrize("system", [
    DigitSystem(3, (0, 1, 2)), DigitSystem(4, (0, 1, 3)),
    DigitSystem(5, (0, 2, 4)), DigitSystem(7, (0, 3, 5)),
])
def test_gram_sections_of_householder_banks_are_the_identity(system):
    """With p >= 3 the wavelets of the Householder bank are exactly
    orthonormal: the section stores its diagonal only, every entry 1."""
    section = gram_section(system, wavelet_generators(system), range(-1, 2), range(-2, 3))
    assert section.is_identity()
    assert section.max_identity_deviation() == 0.0
    assert list(section.entries) == [(r, r) for r in range(section.size)]


def test_gram_section_sparse_verdicts(cantor3):
    psi = wavelet_generators(cantor3)[0]
    assert gram_section(cantor3, [psi], [], []).is_identity()
    # a zero generator leaves a zero diagonal: one away from the identity
    zero = LatticeVector(cantor3, 1)
    section = gram_section(cantor3, [psi, zero], [0], [0, 1])
    assert section.entries == {(0, 0): Scalar(1), (1, 1): Scalar(1)}
    assert not section.is_identity()
    assert section.max_identity_deviation() == 1.0
    # the same vector twice: an off-diagonal 1
    twice = gram_section(cantor3, [psi, psi], [0], [0])
    assert twice.matrix == ((Scalar(1), Scalar(1)), (Scalar(1), Scalar(1)))
    assert not twice.is_identity()
    assert twice.max_identity_deviation() == 1.0


P2_SYSTEMS = (
    DigitSystem(2, (0, 1)),
    DigitSystem(3, (0, 2)),
    DigitSystem(4, (0, 2)),
    DigitSystem(5, (1, 4)),
)


@settings(max_examples=60, deadline=None)
@given(
    system=st.sampled_from(P2_SYSTEMS),
    data=st.data(),
    j=st.integers(-2, 2),
    delta=st.integers(0, 2),
    k=st.integers(-4, 4),
    k2=st.integers(-4, 4),
)
def test_translation_covariance(system, data, j, delta, k, k2):
    """<U^-j T^k psi_i, U^-j' T^k' psi_i'> = <psi_i, U^-D T^(k' - k N^D) psi_i'>, D = j' - j."""
    gens = wavelet_generators(system)
    i = data.draw(st.integers(0, len(gens) - 1))
    i2 = data.draw(st.integers(0, len(gens) - 1))
    j2 = j + delta
    lhs = inner(
        dilate_power(apply_shift(gens[i], k), j),
        dilate_power(apply_shift(gens[i2], k2), j2),
    )
    rhs = inner(
        gens[i],
        dilate_power(apply_shift(gens[i2], k2 - k * system.scale ** delta), delta),
    )
    assert lhs == rhs
    section = gram_section(system, gens, [j, j2], [k, k2])
    row = (i * 2 + 0) * 2 + 0
    col = (i2 * 2 + 1) * 2 + 1
    assert section.matrix[row][col] == lhs


def _reference_inner(v, w):
    """<v | w> by refining both to the common resolution and summing."""
    m = max(v.resolution, w.resolution)
    a, b = refine_to(v, m).coeffs, refine_to(w, m).coeffs
    total = Scalar(0)
    for x, c in a.items():
        if x in b:
            total = total + c.conjugate() * b[x]
    return total


def _reference_correlation(v, w):
    """sum_k z^k <T^k v | w> from both vectors refined to max(res, 0)."""
    m = max(v.resolution, w.resolution, 0)
    a, b = refine_to(v, m).coeffs, refine_to(w, m).coeffs
    step = v.system.scale ** m
    out = {}
    for x, c in a.items():
        for y, c2 in b.items():
            if (y - x) % step == 0:
                k = (y - x) // step
                out[k] = out.get(k, Scalar(0)) + c.conjugate() * c2
    return LaurentPolynomial(out)


REFERENCE_SYSTEMS = (
    DigitSystem(3, (0, 2)),
    DigitSystem(4, (1, 3)),
    DigitSystem(5, (0, 1, 4)),
    DigitSystem(2, (0, 1)),
    DigitSystem(6, (2, 3)),
)


@st.composite
def _exact_vectors(draw):
    system = draw(st.sampled_from(REFERENCE_SYSTEMS))
    res = draw(st.integers(-2, 2))
    gap = draw(st.integers(0, 4))

    def vector(resolution):
        coeffs = draw(st.dictionaries(
            st.integers(-12, 12),
            st.tuples(st.integers(-3, 3), st.integers(-2, 2)),
            min_size=1,
            max_size=4,
        ))
        return LatticeVector(system, resolution, {
            x: Scalar(Fraction(a, 2), b, system.p) for x, (a, b) in coeffs.items()
        })

    v, w = vector(res), vector(res + gap)
    shift = draw(st.integers(-4, 4))
    if shift:
        w = apply_shift(w, shift)
    return (v, w) if draw(st.booleans()) else (w, v)


@settings(max_examples=150, deadline=None)
@given(pair=_exact_vectors())
def test_inner_and_correlation_match_refined_reference(pair):
    v, w = pair
    assert inner(v, w) == _reference_inner(v, w)
    assert inner(w, v) == _reference_inner(w, v)
    assert correlation(v, w) == _reference_correlation(v, w)
    assert correlation(w, v) == _reference_correlation(w, v)


@settings(max_examples=60, deadline=None)
@given(
    pair=_exact_vectors(),
    js=st.lists(st.integers(-1, 1), min_size=1, max_size=2),
    ks=st.lists(st.integers(-3, 3), min_size=1, max_size=2),
)
def test_gram_section_matches_refined_reference(pair, js, ks):
    """Generators at different resolutions, some below 0, against explicit
    vectors refined to a common resolution."""
    system = pair[0].system
    vectors = [dilate_power(apply_shift(psi, k), j) for psi in pair for j in js for k in ks]
    section = gram_section(system, pair, js, ks)
    for r, v in enumerate(vectors):
        for c, w in enumerate(vectors):
            assert section.matrix[r][c] == _reference_inner(v, w), (r, c)


@settings(max_examples=40, deadline=None)
@given(
    system=st.sampled_from(P2_SYSTEMS + (DigitSystem(4, (0, 1, 3)),)),
    js=st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    ks=st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    lift=st.integers(-3, 3),
)
def test_gram_section_entries_depend_on_scale_difference(system, js, ks, lift):
    """Moving every scale by the same amount leaves each entry unchanged."""
    gens = wavelet_generators(system)
    section = gram_section(system, gens, js, ks)
    lifted = gram_section(system, gens, [j + lift for j in js], ks)
    assert section.entries == lifted.entries
    by_label = {}
    for (r, c), value in section.entries.items():
        (i, j, k), (i2, j2, k2) = section.labels[r], section.labels[c]
        key = (i, k, i2, j2 - j, k2)
        assert by_label.setdefault(key, value) == value


class _Refined(Exception):
    pass


def _refuse_refinement(v, m):
    raise _Refined


def test_gram_section_caps_checked_before_refining(cantor3, monkeypatch):
    gens = wavelet_generators(cantor3)
    monkeypatch.setattr(space, "refine_to", _refuse_refinement)
    monkeypatch.setattr(space, "dilate_power", _refuse_refinement)
    with pytest.raises(CapExceededError, match="exceeds cap 10000"):
        gram_section(cantor3, gens, range(-4, 5), range(-600, 601))


def test_gram_section_bessel_parseval(cantor3):
    """sum |<x, e>|^2 <= ||x||^2, with equality inside the section span."""
    section_vectors = []
    for i, psi in enumerate(wavelet_generators(cantor3)):
        for j in range(-1, 2):
            for k in range(-2, 3):
                section_vectors.append(dilate_power(apply_shift(psi, k), j))
    rng = random.Random(83)
    for _ in range(5):
        x = random_vector(cantor3, rng)
        total = Scalar(0)
        for e in section_vectors:
            total = total + inner(x, e).abs_sq()
        assert total <= x.norm_sq()
    # a combination of section vectors achieves equality
    combo = section_vectors[0].scaled(Fraction(1, 2)) + section_vectors[7].scaled(
        Scalar(0, 1, 2)
    )
    total = Scalar(0)
    for e in section_vectors:
        total = total + inner(combo, e).abs_sq()
    assert total == combo.norm_sq()


def test_cascade_experiment_canonical(cantor3):
    rows = cascade_experiment(cantor3, canonical_lowpass(cantor3), 6)
    for r in rows:
        assert r.diff_norm_sq.is_zero()
        assert r.inner == Scalar(1)
        assert r.transfer_inner == Scalar(1)


def test_cascade_experiment_shifted(cantor3):
    m = monomial(3) * canonical_lowpass(cantor3)
    rows = cascade_experiment(cantor3, m, 6)
    for r in rows:
        assert r.diff_norm_sq == Scalar(2)
        assert r.inner.is_zero()
        assert r.transfer_inner == r.inner


def test_cascade_experiment_negated(cantor3):
    m = canonical_lowpass(cantor3) * (-1)
    rows = cascade_experiment(cantor3, m, 5)
    for r in rows:
        assert r.inner == Scalar(-1)
        assert r.diff_norm_sq == Scalar(4)
        assert r.transfer_inner == r.inner


def test_cascade_transfer_cross_check_is_exact(cantor3):
    rng = random.Random(89)
    for _ in range(4):
        m = monomial(rng.randint(-3, 3)) * canonical_lowpass(cantor3)
        for r in cascade_experiment(cantor3, m, 5):
            assert r.inner == r.transfer_inner


def test_representation_limit(cantor3):
    m0 = canonical_lowpass(cantor3)
    op = TransferOperator.from_filter(m0, 3)
    assert representation_limit(op, 5, 0) == Scalar(1)
    for n in range(1, 6):
        assert representation_limit(op, n, 2) == HALF
        assert representation_limit(op, n, 1).is_zero()
    for m in range(-10, 11):
        value = representation_limit(op, 8, m)
        target = moment(op, m).value
        assert abs(value.to_complex() - target.to_complex()) < 1e-6


def _lattice_representation_limits(sys, m, n, lags):
    """<U^n phi | T^l U^n phi> through the lattice: U^n phi = P_n(T) phi with
    the expanded product filter P_n(z) = m(z) m(z^N) ... m(z^(N^(n-1)))."""
    product = one()
    for j in range(n):
        product = product * m.compose_power(sys.scale ** j)
    w = apply_filter(scaling_vector(sys), product)
    return {lag: inner(w, apply_shift(w, lag)) for lag in lags}


@pytest.mark.parametrize("system", [DigitSystem(3, (0, 2)), DigitSystem(7, (0, 1, 6))])
def test_representation_limit_matches_lattice_route(system):
    m0 = canonical_lowpass(system)
    lags = range(-12, 13)
    for m in (m0, monomial(2) * m0, monomial(-3) * m0, m0 * (-1)):
        op = TransferOperator.from_filter(m, system.scale)
        for n in range(7):
            expected = _lattice_representation_limits(system, m, n, lags)
            for lag in lags:
                value = representation_limit(op, n, lag)
                assert value == expected[lag]
                assert value.exact_str() == expected[lag].exact_str()


def test_representation_limit_matches_lattice_route_approximate():
    """A p = 3 detail filter, with Q(sqrt 3) coefficients: both routes
    agree exactly."""
    system = DigitSystem(3, (0, 1, 2))
    detail = build_bank(system).filters[1]
    op = TransferOperator.from_filter(detail, system.scale)
    lags = range(-12, 13)
    for n in range(7):
        expected = _lattice_representation_limits(system, detail, n, lags)
        for lag in lags:
            assert representation_limit(op, n, lag) == expected[lag]


def test_cylinder_norm(cantor3):
    for word in ((2,), (2, 0), (0, 0, 2)):
        v = cylinder_vector(CylinderAddress(cantor3, word))
        assert v.norm_sq() == Scalar(Fraction(1, 2 ** len(word)))


# -- the lattice model as Laurent polynomials, against the hand-written loops --
# The references below are the dict loops that refinement, filters and shifts
# used before they became polynomial products; the products must reproduce
# their keys, key order and coefficient bits, since sums over a vector's
# terms run in key order.


def _loop_refine(v, m):
    sys = v.system
    steps = m - v.resolution
    sums = [0]
    for _ in range(steps):
        sums = [sys.scale * e + a for e in sums for a in sys.digits]
    q, factor = sys.scale ** steps, space._inv_sqrt_power(sys.p, steps)
    return {
        q * x + e: c * factor for x, c in v.coeffs.items() for e in sums
    } if steps else dict(v.coeffs)


def _loop_filter(v, m):
    res = max(v.resolution, 0)
    base = _loop_refine(v, res)
    scale = v.system.scale ** res
    data = {}
    for j, a in m.coeffs.items():
        step = j * scale
        for idx, c in base.items():
            key = idx + step
            s = data.get(key)
            t = a * c
            data[key] = t if s is None else s + t
    return res, {k: c for k, c in data.items() if not c.is_zero()}


def _loop_shift(v, k):
    res = max(v.resolution, 0)
    step = k * v.system.scale ** res
    return res, {idx + step: c for idx, c in _loop_refine(v, res).items()}


def _bits(c):
    return (c.a, c.b, c.d)


def _assert_same_terms(v, resolution, expected):
    assert v.resolution == resolution
    assert v.coeffs == expected
    assert list(v.coeffs) == list(expected)
    assert [_bits(c) for c in v.coeffs.values()] == [_bits(c) for c in expected.values()]


def _small_systems():
    for N in range(2, 6):
        for size in range(1, N + 1):
            for digits in itertools.combinations(range(N), size):
                yield DigitSystem(N, digits)


def test_lattice_operations_match_the_coefficient_loops():
    """Every digit system with N <= 5: exact vectors at resolutions -1 and 0
    (the second with consecutive indices, so products collide and 1 - z
    cancels a term) and the wavelet generators, refined and shifted at depths 0-4 and filtered at depths 0-2
    (deeper filter products run the same loop over p^D times the terms)."""
    rng = random.Random(11)
    collide = LaurentPolynomial({0: 1, 1: -1})
    for system in _small_systems():
        vectors = [
            random_vector(system, rng, span=3, resolutions=(-1,)),
            LatticeVector(system, 0, {0: 1, 1: 1, 2: HALF}),
            *wavelet_generators(system),
        ]
        filters = [collide, *build_bank(system).filters]
        for v in vectors:
            for depth in range(5):
                m = v.resolution + depth
                fine = refine_to(v, m)
                _assert_same_terms(fine, m, _loop_refine(v, m))
                for f in filters if depth < 3 else ():
                    _assert_same_terms(apply_filter(fine, f), *_loop_filter(fine, f))
                for k in (-2, 1):
                    _assert_same_terms(apply_shift(fine, k), *_loop_shift(fine, k))
    assert refine_to(vectors[0], vectors[0].resolution) is vectors[0]


@settings(max_examples=80, deadline=None)
@given(pair=_exact_vectors(), a=st.integers(0, 3), b=st.integers(0, 3))
def test_refinement_composes(pair, a, b):
    v = pair[0]
    mid, top = v.resolution + a, v.resolution + a + b
    once = refine_to(v, top)
    assert refine_to(refine_to(v, mid), top) == once
    assert refine_to(refine_to(v, mid), top).coeffs == once.coeffs



def _meeting_translates(v, step, f):
    """The k for which v moved by k * step indices at its own resolution
    meets f's support once both are read at f's (finer) resolution: the
    refinement of an index x over D levels lies in
    N^D x + [min S, max S] (N^D - 1)/(N - 1)."""
    sys = f.system
    q = sys.scale ** (f.resolution - v.resolution)
    spread = (q - 1) // (sys.scale - 1)
    lo = q * min(v.coeffs) + sys.digits[0] * spread
    hi = q * max(v.coeffs) + sys.digits[-1] * spread
    move = step * q
    return range(-((hi - min(f.coeffs)) // move), (max(f.coeffs) - lo) // move + 1)


@st.composite
def _parseval_cases(draw):
    N = draw(st.integers(2, 5))
    system = DigitSystem(N, tuple(sorted(draw(st.sets(st.integers(0, N - 1), min_size=1)))))
    coeffs = draw(st.dictionaries(
        st.integers(-4, 4), st.tuples(st.integers(-3, 3), st.integers(-2, 2)),
        min_size=1, max_size=3,
    ).filter(lambda c: any(a or b for a, b in c.values())))
    f = LatticeVector(system, draw(st.integers(0, 2)), {
        x: Scalar(Fraction(a, 2), b, system.p) for x, (a, b) in coeffs.items()
    })
    return f, draw(st.integers(1, 3))


@settings(max_examples=80, deadline=None)
@given(_parseval_cases())
def test_parseval_identity_is_exact(case):
    """V_r is the orthogonal sum V_-J + W_-J + ... + W_(r-1), so for f in
    V_r, ||f||^2 = ||P_(V_-J) f||^2 + the sum over -J <= j < r, every
    generator i and every k of |<U^-j T^k psi_i, f>|^2, exactly: the
    projection reads the basis U^J T^k phi of V_-J, and the banks with
    p >= 3 have Householder detail filters in Q(sqrt p)."""
    f, J = case
    sys, r = f.system, f.resolution
    total = Scalar(0)
    for k in _meeting_translates(basis_delta(sys, -J, 0), 1, f):
        total = total + inner(basis_delta(sys, -J, k), f).abs_sq()
    for psi in wavelet_generators(sys):
        for j in range(-J, r):
            # T^k at psi's resolution 1 moves its indices by k N
            for k in _meeting_translates(dilate_power(psi, j), sys.scale, f):
                total = total + inner(dilate_power(apply_shift(psi, k), j), f).abs_sq()
    assert total == f.norm_sq()
